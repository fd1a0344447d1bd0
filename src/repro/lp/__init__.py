"""Self-contained linear-programming substrate.

The paper obtains constrained mechanisms by solving linear programs with
PyLPSolve (a wrapper around ``lp_solve``).  That dependency is not available
here, so this package provides an equivalent substrate:

* :mod:`repro.lp.model` — a small modelling layer (:class:`LinearProgram`)
  for declaring variables, linear constraints and a linear objective.
* :mod:`repro.lp.scipy_backend` — the solver: ``scipy.optimize.linprog``
  with HiGHS.
* :mod:`repro.lp.solver` — :func:`solve`, the feasibility check and the
  :class:`LPSolution` result type.

The test-suite checks each optimum against the paper's closed forms and
with a KKT optimality certificate built from the HiGHS dual values.
"""

from repro.lp.model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    ConstraintBlock,
    ConstraintSense,
    LinearProgram,
    ObjectiveSense,
    Variable,
)
from repro.lp.solver import (
    LPError,
    LPInfeasibleError,
    LPSolution,
    LPStatus,
    LPUnboundedError,
    solve,
)

__all__ = [
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
    "Constraint",
    "ConstraintBlock",
    "ConstraintSense",
    "LinearProgram",
    "ObjectiveSense",
    "Variable",
    "LPError",
    "LPInfeasibleError",
    "LPSolution",
    "LPStatus",
    "LPUnboundedError",
    "solve",
]
