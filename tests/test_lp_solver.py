"""Tests for the LP solver layer (repro.lp.solver)."""

from __future__ import annotations

import numpy as np
import pytest

from lp_certificate import assert_certified_optimal
from repro.lp.model import LinearProgram
from repro.lp.solver import (
    LPInfeasibleError,
    LPSolution,
    LPStatus,
    LPUnboundedError,
    solve,
)


def _knapsack_lp() -> LinearProgram:
    """max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 (optimum 36)."""
    lp = LinearProgram("knapsack")
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0}, "<=", 4.0)
    lp.add_constraint({y: 2.0}, "<=", 12.0)
    lp.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
    lp.set_objective({x: 3.0, y: 5.0}, sense="max")
    return lp


class TestSolve:
    def test_maximisation_reported_in_original_sense(self):
        solution = solve(_knapsack_lp())
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == pytest.approx(36.0)

    def test_solution_lookup_by_name_and_variable(self):
        lp = _knapsack_lp()
        solution = solve(lp)
        assert solution["x"] == pytest.approx(2.0, abs=1e-7)
        assert solution.value_of(lp.variable_by_name("y")) == pytest.approx(6.0, abs=1e-7)

    def test_objective_constant_included(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.set_objective({x: 1.0}, sense="max", constant=10.0)
        solution = solve(lp)
        assert solution.objective == pytest.approx(11.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint({x: 1.0}, "<=", 1.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(LPInfeasibleError):
            solve(lp)

    def test_unbounded_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: 1.0}, sense="max")
        with pytest.raises(LPUnboundedError):
            solve(lp)

    def test_equality_problem_certified_optimal(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        y = lp.add_variable("y", upper=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "==", 1.2)
        lp.set_objective({x: 1.0, y: 3.0}, sense="min")
        assert assert_certified_optimal(lp).objective == pytest.approx(1.6, abs=1e-8)

    def test_feasibility_check_runs(self):
        # The returned point of a healthy solve always passes the check.
        solution = solve(_knapsack_lp(), check=True)
        assert isinstance(solution, LPSolution)
        assert solution.values.shape == (2,)
        assert np.all(solution.values >= -1e-9)


class TestSparseSolvePath:
    def _program(self):
        from repro.core.constraints import build_mechanism_lp

        return build_mechanism_lp(n=6, alpha=0.8, properties="all").program

    def test_sparse_and_dense_exports_reach_identical_solutions(self):
        program = self._program()
        sparse_solution = solve(program, sparse=True)
        dense_solution = solve(program, sparse=False)
        assert np.array_equal(sparse_solution.values, dense_solution.values)
        assert sparse_solution.objective == pytest.approx(dense_solution.objective)

    def test_by_name_is_lazy_but_complete(self):
        program = self._program()
        solution = solve(program)
        assert solution._by_name_cache is None  # not materialised by solving
        assert solution["rho_0_0"] == pytest.approx(solution.values[0])
        assert len(solution.by_name) == program.num_variables

    def test_serialisation_round_trip_preserves_by_name(self):
        import json

        program = self._program()
        solution = solve(program)
        payload = json.loads(json.dumps(solution.to_dict()))
        restored = LPSolution.from_dict(payload)
        assert restored.by_name == pytest.approx(solution.by_name)

    def test_legacy_payload_keys_are_ignored(self):
        solution = solve(_knapsack_lp())
        payload = solution.to_dict()
        assert not {"backend", "basis", "warm_started"} & set(payload)
        payload.update(backend="simplex", basis=[0, 1, 2], warm_started=True)
        restored = LPSolution.from_dict(payload)
        np.testing.assert_array_equal(restored.values, solution.values)
        assert restored.objective == solution.objective


class TestOptimalityCertificate:
    """The KKT certificate in ``lp_certificate`` proves HiGHS optima optimal."""

    def test_random_bounded_programs(self, rng):
        for _ in range(10):
            num_vars = int(rng.integers(2, 5))
            num_rows = int(rng.integers(1, 4))
            lp = LinearProgram("random")
            xs = [lp.add_variable(f"x{i}", lower=0.0, upper=2.0) for i in range(num_vars)]
            A_ub = rng.normal(size=(num_rows, num_vars))
            # Non-empty feasible region: the all-ones point is strictly inside.
            b_ub = A_ub @ np.ones(num_vars) + np.abs(rng.normal(size=num_rows)) + 0.1
            for row, rhs in zip(A_ub, b_ub):
                lp.add_constraint(dict(zip(xs, row)), "<=", float(rhs))
            lp.set_objective(dict(zip(xs, rng.normal(size=num_vars))), sense="min")
            assert_certified_optimal(lp)

    def test_maximisation_with_constant(self):
        lp = _knapsack_lp()
        x, y = lp.variable_by_name("x"), lp.variable_by_name("y")
        lp.set_objective({x: 3.0, y: 5.0}, sense="max", constant=4.0)
        assert assert_certified_optimal(lp).objective == pytest.approx(40.0)

    def test_rejects_a_feasible_but_suboptimal_answer(self, monkeypatch):
        import lp_certificate

        def origin(program):
            values = np.zeros(program.num_variables)
            return LPSolution(LPStatus.OPTIMAL, values, program.objective_value(values))

        monkeypatch.setattr(lp_certificate, "solve", origin)
        with pytest.raises(AssertionError, match="duality gap"):
            assert_certified_optimal(_knapsack_lp())
