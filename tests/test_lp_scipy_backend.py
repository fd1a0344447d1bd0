"""Tests for the HiGHS general-form layer (repro.lp.scipy_backend) and the
error, check and bookkeeping paths of :func:`repro.lp.solver.solve`.

The general-form cases cover what a standard-form conversion has to get
right — finite lower bounds, free variables, upper bounds, negative
right-hand sides, redundant rows — so they hold for the one solver the
package uses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import sparse

from lp_certificate import assert_certified_optimal
from repro.lp import scipy_backend
from repro.lp.model import LinearProgram
from repro.lp.solver import (
    LPError,
    LPInfeasibleError,
    LPSolution,
    LPStatus,
    LPUnboundedError,
    reset_solve_call_count,
    solve,
    solve_call_count,
)


def _empty(n: int):
    return np.zeros((0, n)), np.zeros(0)


def _mechanism_program(n: int = 6, alpha: float = 0.8):
    from repro.core.constraints import build_mechanism_lp

    return build_mechanism_lp(n=n, alpha=alpha, properties="all").program


def _solve_arrays(arrays, **kwargs):
    return scipy_backend.solve_general_form(
        arrays["c"],
        arrays["A_ub"],
        arrays["b_ub"],
        arrays["A_eq"],
        arrays["b_eq"],
        arrays["lower"],
        arrays["upper"],
        **kwargs,
    )


class TestGeneralForm:
    def test_textbook_lp(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36 at (2, 6).
        c = np.array([-3.0, -5.0])
        A_ub = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b_ub = np.array([4.0, 12.0, 18.0])
        result = scipy_backend.solve_general_form(
            c, A_ub, b_ub, *_empty(2), lower=np.zeros(2), upper=np.full(2, np.inf)
        )
        assert result["status"] == "optimal"
        assert result["objective"] == pytest.approx(-36.0)
        assert np.allclose(result["x"], [2.0, 6.0], atol=1e-8)

    def test_unbounded_detected(self):
        result = scipy_backend.solve_general_form(
            np.array([-1.0]), *_empty(1), *_empty(1),
            lower=np.zeros(1), upper=np.full(1, np.inf),
        )
        assert result["status"] == "unbounded"

    def test_infeasible_detected(self):
        A_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])  # x <= 1 and x >= 3
        result = scipy_backend.solve_general_form(
            np.array([1.0]), A_ub, b_ub, *_empty(1),
            lower=np.zeros(1), upper=np.full(1, np.inf),
        )
        assert result["status"] == "infeasible"

    def test_failure_carries_no_point(self):
        A_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])
        result = scipy_backend.solve_general_form(
            np.array([1.0]), A_ub, b_ub, *_empty(1),
            lower=np.zeros(1), upper=np.full(1, np.inf),
        )
        assert result["x"] is None
        assert result["objective"] is None
        assert result["message"]

    def test_equality_constraints_and_bounds(self):
        # min x + 2y s.t. x + y = 3, 0 <= x <= 1, y >= 0  -> x = 1, y = 2.
        result = scipy_backend.solve_general_form(
            np.array([1.0, 2.0]), *_empty(2), np.array([[1.0, 1.0]]), np.array([3.0]),
            lower=np.zeros(2), upper=np.array([1.0, np.inf]),
        )
        assert result["status"] == "optimal"
        assert np.allclose(result["x"], [1.0, 2.0], atol=1e-8)
        assert result["objective"] == pytest.approx(5.0)

    def test_degenerate_problem_terminates(self):
        # Duplicated rows make the vertex (1, 1) degenerate.
        c = np.array([-1.0, -1.0])
        A_ub = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b_ub = np.array([2.0, 2.0, 1.0])
        result = scipy_backend.solve_general_form(
            c, A_ub, b_ub, *_empty(2), lower=np.zeros(2), upper=np.full(2, np.inf)
        )
        assert result["status"] == "optimal"
        assert result["objective"] == pytest.approx(-2.0)

    def test_redundant_equality_rows(self):
        # The second equality row is twice the first.
        A_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([3.0, 6.0])
        result = scipy_backend.solve_general_form(
            np.array([1.0, 2.0]), *_empty(2), A_eq, b_eq,
            lower=np.zeros(2), upper=np.full(2, np.inf),
        )
        assert result["status"] == "optimal"
        assert np.allclose(result["x"], [3.0, 0.0], atol=1e-8)

    def test_finite_lower_bound_binds(self):
        # min 2x + y s.t. x + y = 5, x >= 2, y >= 0  -> x = 2, y = 3.
        result = scipy_backend.solve_general_form(
            np.array([2.0, 1.0]), *_empty(2), np.array([[1.0, 1.0]]), np.array([5.0]),
            lower=np.array([2.0, 0.0]), upper=np.full(2, np.inf),
        )
        assert result["status"] == "optimal"
        assert np.allclose(result["x"], [2.0, 3.0], atol=1e-8)

    def test_free_variable_goes_negative(self):
        # min x s.t. -x <= 3 with x free  -> x = -3.
        result = scipy_backend.solve_general_form(
            np.array([1.0]), np.array([[-1.0]]), np.array([3.0]), *_empty(1),
            lower=np.array([-np.inf]), upper=np.array([np.inf]),
        )
        assert result["status"] == "optimal"
        assert result["x"][0] == pytest.approx(-3.0)

    def test_upper_bound_binds(self):
        result = scipy_backend.solve_general_form(
            np.array([-1.0]), *_empty(1), *_empty(1),
            lower=np.zeros(1), upper=np.array([2.0]),
        )
        assert result["status"] == "optimal"
        assert result["x"][0] == pytest.approx(2.0)

    def test_negative_equality_rhs(self):
        result = scipy_backend.solve_general_form(
            np.array([1.0]), *_empty(1), np.array([[1.0]]), np.array([-2.0]),
            lower=np.array([-np.inf]), upper=np.array([np.inf]),
        )
        assert result["status"] == "optimal"
        assert result["x"][0] == pytest.approx(-2.0)

    def test_sparse_and_dense_inputs_agree(self):
        A_ub = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b_ub = np.array([4.0, 12.0, 18.0])
        A_eq, b_eq = np.array([[1.0, -1.0]]), np.array([-4.0])
        bounds = dict(lower=np.zeros(2), upper=np.full(2, np.inf))
        c = np.array([-3.0, -5.0])
        dense = scipy_backend.solve_general_form(c, A_ub, b_ub, A_eq, b_eq, **bounds)
        csr = scipy_backend.solve_general_form(
            c, sparse.csr_matrix(A_ub), b_ub, sparse.csr_matrix(A_eq), b_eq, **bounds
        )
        assert dense["status"] == csr["status"] == "optimal"
        np.testing.assert_allclose(dense["x"], csr["x"], atol=1e-9)
        assert dense["objective"] == pytest.approx(csr["objective"])

    @pytest.mark.parametrize("empty", [None, "dense", "sparse"])
    def test_empty_constraint_blocks_are_dropped(self, empty):
        block = {
            None: None,
            "dense": np.zeros((0, 2)),
            "sparse": sparse.csr_matrix((0, 2)),
        }[empty]
        result = scipy_backend.solve_general_form(
            np.array([1.0, -1.0]), block, np.zeros(0), block, np.zeros(0),
            lower=np.zeros(2), upper=np.array([1.0, 3.0]),
        )
        assert result["status"] == "optimal"
        assert np.allclose(result["x"], [0.0, 3.0], atol=1e-9)

    def test_random_bounded_programs_return_feasible_optima(self, rng):
        for _ in range(10):
            num_vars = int(rng.integers(2, 5))
            num_rows = int(rng.integers(1, 4))
            c = rng.normal(size=num_vars)
            A_ub = rng.normal(size=(num_rows, num_vars))
            # The all-ones point is strictly inside the region, so it is non-empty.
            b_ub = A_ub @ np.ones(num_vars) + np.abs(rng.normal(size=num_rows)) + 0.1
            lower, upper = np.zeros(num_vars), np.full(num_vars, 2.0)
            result = scipy_backend.solve_general_form(
                c, A_ub, b_ub, *_empty(num_vars), lower, upper
            )
            assert result["status"] == "optimal"
            x = result["x"]
            assert np.all(A_ub @ x <= b_ub + 1e-9)
            assert np.all((x >= lower - 1e-9) & (x <= upper + 1e-9))
            assert result["objective"] == pytest.approx(float(c @ x), abs=1e-9)
            # No better objective than the all-ones interior point's is missed.
            assert result["objective"] <= float(c @ np.ones(num_vars)) + 1e-9

    def test_iteration_limit_reported(self):
        result = _solve_arrays(_mechanism_program().to_sparse_arrays(), max_iterations=1)
        assert result["status"] == "iteration_limit"
        assert result["x"] is None
        assert result["iterations"] <= 1

    def test_iterations_counted(self):
        result = _solve_arrays(_mechanism_program().to_sparse_arrays())
        assert result["status"] == "optimal"
        assert isinstance(result["iterations"], int)
        assert result["iterations"] > 1


class TestSolveFailurePaths:
    def _tiny_lp(self) -> LinearProgram:
        lp = LinearProgram("tiny")
        x = lp.add_variable("x", upper=1.0)
        lp.add_constraint({x: 1.0}, ">=", 0.5)
        lp.set_objective({x: 1.0}, sense="min")
        return lp

    def test_iteration_limit_raises_plain_lp_error(self):
        with pytest.raises(LPError, match="iteration_limit") as info:
            solve(_mechanism_program(), max_iterations=1)
        assert not isinstance(info.value, (LPInfeasibleError, LPUnboundedError))

    def test_errors_name_the_program(self):
        lp = LinearProgram("contradiction")
        x = lp.add_variable("x")
        lp.add_constraint({x: 1.0}, "<=", 1.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(LPInfeasibleError, match="contradiction"):
            solve(lp)

    def test_check_rejects_a_point_outside_the_region(self, monkeypatch):
        def outside(*args, **kwargs):
            return {"status": "optimal", "x": np.array([0.1]), "objective": 0.1,
                    "iterations": 1, "message": "stub"}

        monkeypatch.setattr(scipy_backend, "solve_general_form", outside)
        with pytest.raises(LPError, match="infeasible point"):
            solve(self._tiny_lp())

    def test_check_false_returns_the_point_unverified(self, monkeypatch):
        def outside(*args, **kwargs):
            return {"status": "optimal", "x": np.array([0.1]), "objective": 0.1,
                    "iterations": 1, "message": "stub"}

        monkeypatch.setattr(scipy_backend, "solve_general_form", outside)
        solution = solve(self._tiny_lp(), check=False)
        assert solution.values[0] == pytest.approx(0.1)
        assert solution.objective == pytest.approx(0.1)

    def test_optimal_status_without_a_point_is_an_error(self, monkeypatch):
        def pointless(*args, **kwargs):
            return {"status": "optimal", "x": None, "objective": None,
                    "iterations": 0, "message": "stub"}

        monkeypatch.setattr(scipy_backend, "solve_general_form", pointless)
        with pytest.raises(LPError, match="solver failed"):
            solve(self._tiny_lp())

    def test_solve_call_counter(self, monkeypatch):
        import repro.lp.solver as solver_module

        # monkeypatch puts the process-wide counter back afterwards.
        monkeypatch.setattr(solver_module, "_SOLVE_CALLS", 5)
        solve(self._tiny_lp())
        solve(self._tiny_lp())
        assert solve_call_count() == 7
        assert reset_solve_call_count() == 7
        assert solve_call_count() == 0

    def test_failed_solves_count_too(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: 1.0}, sense="max")
        before = solve_call_count()
        with pytest.raises(LPUnboundedError):
            solve(lp)
        assert solve_call_count() == before + 1

    def test_mechanism_program_certified_through_both_exports(self):
        program = _mechanism_program(n=5, alpha=0.7)
        certified = assert_certified_optimal(program)
        dense = solve(program, sparse=False)
        assert dense.objective == pytest.approx(certified.objective, abs=1e-9)


class TestSolutionPayload:
    def _solution(self) -> LPSolution:
        lp = LinearProgram("pair")
        x = lp.add_variable("x", upper=1.0)
        y = lp.add_variable("y", upper=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "==", 1.2)
        lp.set_objective({x: 1.0, y: 3.0}, sense="min")
        return solve(lp)

    def test_json_round_trip(self):
        solution = self._solution()
        restored = LPSolution.from_dict(json.loads(json.dumps(solution.to_dict())))
        assert restored.status is LPStatus.OPTIMAL
        np.testing.assert_array_equal(restored.values, solution.values)
        assert restored.objective == solution.objective
        assert restored.iterations == solution.iterations
        assert restored.message == solution.message
        assert restored.variable_names == ("x", "y")

    def test_reads_the_legacy_by_name_form(self):
        payload = {"status": "optimal", "values": [1.0, 0.2], "objective": 1.6,
                   "by_name": {"x": 1.0, "y": 0.2}}
        restored = LPSolution.from_dict(payload)
        assert restored.variable_names == ("x", "y")
        assert restored["y"] == pytest.approx(0.2)
        assert restored.iterations == 0
        assert restored.message == ""

    def test_unnamed_solution_has_an_empty_view(self):
        solution = LPSolution(LPStatus.OPTIMAL, np.array([1.0]), 1.0)
        assert solution.by_name == {}
        assert solution.to_dict()["variable_names"] == []

    @pytest.mark.parametrize("status", list(LPStatus))
    def test_every_status_survives_serialisation(self, status):
        solution = LPSolution(status, np.zeros(1), 0.0, variable_names=("x",))
        restored = LPSolution.from_dict(json.loads(json.dumps(solution.to_dict())))
        assert restored.status is status
