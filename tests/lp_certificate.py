"""KKT optimality certificate for the programs :func:`repro.lp.solver.solve` answers.

A primal point is optimal when it is feasible, some dual point is feasible,
and the two objectives agree.  :func:`assert_certified_optimal` checks
exactly that: :func:`~repro.lp.solver.solve` supplies the primal point (and
its own feasibility check), ``scipy.optimize.linprog(method="highs")``
on :meth:`~repro.lp.model.LinearProgram.to_sparse_arrays` supplies only the
dual values (the ``ineqlin`` / ``eqlin`` / ``lower`` / ``upper``
marginals), and the conditions are evaluated here in plain NumPy.  No
solver's word is taken for optimality.

In the minimisation form ``min cᵀx`` s.t. ``A_ub x <= b_ub``,
``A_eq x = b_eq``, ``lower <= x <= upper`` the certificate is:

* stationarity: ``c − A_ubᵀ y_ub − A_eqᵀ y_eq − λ_lower − λ_upper = 0``;
* dual signs: ``y_ub <= 0``, ``λ_lower >= 0``, ``λ_upper <= 0``, and no
  multiplier on an infinite bound;
* zero duality gap: ``b_ubᵀ y_ub + b_eqᵀ y_eq + lowerᵀ λ_lower +
  upperᵀ λ_upper`` equals the primal objective.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.lp.model import LinearProgram, ObjectiveSense
from repro.lp.solver import LPSolution, solve

#: Bound on the stationarity residual, the dual-sign slack and the gap.
TOLERANCE = 1e-9


def _bound(value: float):
    return float(value) if np.isfinite(value) else None


def assert_certified_optimal(program: LinearProgram, tolerance: float = TOLERANCE) -> LPSolution:
    """Solve ``program`` and prove the answer optimal; returns the solution."""
    solution = solve(program)
    arrays = program.to_sparse_arrays()
    c = np.asarray(arrays["c"], dtype=float)
    A_ub, b_ub = arrays["A_ub"], np.asarray(arrays["b_ub"], dtype=float)
    A_eq, b_eq = arrays["A_eq"], np.asarray(arrays["b_eq"], dtype=float)
    lower = np.asarray(arrays["lower"], dtype=float)
    upper = np.asarray(arrays["upper"], dtype=float)
    has_ub, has_eq = A_ub.shape[0] > 0, A_eq.shape[0] > 0
    duals = optimize.linprog(
        c,
        A_ub=A_ub if has_ub else None,
        b_ub=b_ub if has_ub else None,
        A_eq=A_eq if has_eq else None,
        b_eq=b_eq if has_eq else None,
        bounds=[(_bound(lo), _bound(hi)) for lo, hi in zip(lower, upper)],
        method="highs",
    )
    assert duals.status == 0, duals.message
    y_ub = np.asarray(duals.ineqlin.marginals) if has_ub else np.zeros(0)
    y_eq = np.asarray(duals.eqlin.marginals) if has_eq else np.zeros(0)
    lam_lower = np.asarray(duals.lower.marginals)
    lam_upper = np.asarray(duals.upper.marginals)

    residual = c - lam_lower - lam_upper
    if has_ub:
        residual = residual - A_ub.T @ y_ub
    if has_eq:
        residual = residual - A_eq.T @ y_eq
    assert np.max(np.abs(residual), initial=0.0) <= tolerance, "stationarity violated"

    assert np.all(y_ub <= tolerance), "inequality multiplier of the wrong sign"
    assert np.all(lam_lower >= -tolerance), "lower-bound multiplier of the wrong sign"
    assert np.all(lam_upper <= tolerance), "upper-bound multiplier of the wrong sign"
    assert np.all(np.abs(lam_lower[~np.isfinite(lower)]) <= tolerance)
    assert np.all(np.abs(lam_upper[~np.isfinite(upper)]) <= tolerance)

    dual_objective = (
        b_ub @ y_ub
        + b_eq @ y_eq
        + lower[np.isfinite(lower)] @ lam_lower[np.isfinite(lower)]
        + upper[np.isfinite(upper)] @ lam_upper[np.isfinite(upper)]
    )
    primal_objective = solution.objective - program.objective_constant
    if program.objective_sense is ObjectiveSense.MAX:
        primal_objective = -primal_objective
    assert abs(dual_objective - primal_objective) <= tolerance, "duality gap"
    return solution
