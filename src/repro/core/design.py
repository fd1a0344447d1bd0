"""LP-based constrained mechanism design (Sections III and IV).

:func:`design_mechanism` is the workhorse of the reproduction: it builds the
BASICDP linear program for a given group size and privacy level, adds any
subset of the seven structural properties, installs the requested objective
and solves the program with HiGHS, returning the optimal mechanism as a
:class:`~repro.core.mechanism.Mechanism`.

Setting ``properties=()`` reproduces the *unconstrained* designs of Figure 1
(including their pathological gaps and spikes); ``properties="all"``
reproduces the fully constrained designs of Figure 2.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.constraints import MechanismLP, build_mechanism_lp
from repro.core.losses import Objective
from repro.core.mechanism import Mechanism, SparseMechanism
from repro.core.properties import StructuralProperty, combination_label, parse_properties
from repro.lp.solver import solve

# Process-wide accumulators for LP wall-time, surfaced by the serving
# layer's ``--stats-json`` / daemon ``stats`` payloads.  Guarded by a lock
# because the daemon designs from worker threads.
_TIMING_LOCK = threading.Lock()
_LP_BUILD_SECONDS = 0.0
_LP_SOLVE_SECONDS = 0.0


def lp_timing_totals() -> Dict[str, float]:
    """Cumulative LP build/solve wall-time (seconds) in this process."""
    with _TIMING_LOCK:
        return {
            "lp_build_seconds": _LP_BUILD_SECONDS,
            "lp_solve_seconds": _LP_SOLVE_SECONDS,
        }


def reset_lp_timing_totals() -> Dict[str, float]:
    """Zero the LP timing accumulators and return the previous totals."""
    global _LP_BUILD_SECONDS, _LP_SOLVE_SECONDS
    with _TIMING_LOCK:
        previous = {
            "lp_build_seconds": _LP_BUILD_SECONDS,
            "lp_solve_seconds": _LP_SOLVE_SECONDS,
        }
        _LP_BUILD_SECONDS = 0.0
        _LP_SOLVE_SECONDS = 0.0
    return previous


def _record_lp_timing(build_seconds: float, solve_seconds: float) -> None:
    global _LP_BUILD_SECONDS, _LP_SOLVE_SECONDS
    with _TIMING_LOCK:
        _LP_BUILD_SECONDS += float(build_seconds)
        _LP_SOLVE_SECONDS += float(solve_seconds)


def design_mechanism(
    n: int,
    alpha: float,
    properties: Union[None, str, Iterable[Union[str, StructuralProperty]]] = (),
    objective: Optional[Objective] = None,
    name: Optional[str] = None,
    output_alpha: Optional[float] = None,
    representation: str = "dense",
) -> Mechanism:
    """Solve for the optimal mechanism satisfying BASICDP plus the given properties.

    Parameters
    ----------
    n:
        Group size; the mechanism covers inputs and outputs ``{0, …, n}``.
    alpha:
        Differential-privacy parameter (Definition 2); values near 1 are
        stronger privacy.
    properties:
        Any subset of the seven structural properties (Section IV-A), given
        as enum members, codes (``"WH"``), a combined string (``"WH+CM"``),
        the keyword ``"all"``, or an empty collection for the unconstrained
        LP of Section III.
    objective:
        The loss to minimise; defaults to the paper's main objective
        :meth:`Objective.l0`.
    name:
        Optional name for the resulting mechanism; auto-generated otherwise.
    output_alpha:
        When given, also enforce the output-side DP constraint of the
        paper's Section-VI extension at this level (typically ``alpha``):
        the ratio of probabilities of neighbouring *outputs* within a column
        is bounded as well as that of neighbouring inputs.
    representation:
        ``"dense"`` (default) wraps the solution in a dense
        :class:`Mechanism`; ``"sparse"`` keeps only the non-zero entries in
        a :class:`~repro.core.mechanism.SparseMechanism` — LP optima are
        sparse/banded, so this is what the serving layer caches.

    Returns
    -------
    Mechanism
        The optimal constrained mechanism, with solve provenance recorded in
        ``metadata`` (objective value, property set, LP size).
    """
    objective = objective if objective is not None else Objective.l0()
    props = parse_properties(properties)
    build_start = time.perf_counter()
    mechanism_lp = build_mechanism_lp(
        n=n, alpha=alpha, properties=props, objective=objective, output_alpha=output_alpha
    )
    build_seconds = time.perf_counter() - build_start
    mechanism = solve_mechanism_lp(
        mechanism_lp,
        name=name,
        build_seconds=build_seconds,
        representation=representation,
    )
    if output_alpha is not None:
        mechanism.metadata["output_alpha"] = float(output_alpha)
    return mechanism


def solve_mechanism_lp(
    mechanism_lp: MechanismLP,
    name: Optional[str] = None,
    build_seconds: Optional[float] = None,
    representation: str = "dense",
) -> Mechanism:
    """Solve an already-built :class:`MechanismLP` and wrap the result.

    Exposed separately so callers can inspect or extend the LP (e.g. to add
    bespoke constraints beyond the paper's seven properties) before solving.
    ``build_seconds``, when known, is recorded alongside the solve wall-time
    so benchmark runs can track the build/solve cost trajectory.  With
    ``representation="sparse"`` the solution goes straight from the sparse
    solver output into CSC storage without densification.
    """
    if representation not in ("dense", "sparse"):
        raise ValueError(f"unknown mechanism representation {representation!r}")
    solve_start = time.perf_counter()
    solution = solve(mechanism_lp.program)
    solve_seconds = time.perf_counter() - solve_start
    _record_lp_timing(build_seconds or 0.0, solve_seconds)
    label = combination_label(mechanism_lp.properties)
    mechanism_name = name or f"LP[{label}]"
    metadata = {
        "source": "lp",
        "representation": representation,
        "objective": mechanism_lp.objective.describe(),
        "objective_value": float(solution.objective),
        "properties": sorted(prop.value for prop in mechanism_lp.properties),
        "lp_variables": mechanism_lp.program.num_variables,
        "lp_constraints": mechanism_lp.program.num_constraints,
        "lp_nonzeros": mechanism_lp.program.num_nonzeros(),
        "lp_iterations": solution.iterations,
        "lp_solve_seconds": float(solve_seconds),
    }
    if build_seconds is not None:
        metadata["lp_build_seconds"] = float(build_seconds)
    if representation == "sparse":
        csc = mechanism_lp.sparse_matrix_from_values(solution.values)
        metadata["nnz"] = int(csc.nnz)
        return SparseMechanism(
            csc, name=mechanism_name, alpha=mechanism_lp.alpha, metadata=metadata
        )
    matrix = mechanism_lp.matrix_from_values(solution.values)
    return Mechanism(matrix, name=mechanism_name, alpha=mechanism_lp.alpha, metadata=metadata)


def design_mechanisms(
    specs: Sequence[Mapping[str, Any]],
    max_workers: Optional[int] = None,
) -> List[Mechanism]:
    """Design many mechanisms, optionally across worker processes.

    ``specs`` is a sequence of keyword-argument mappings for
    :func:`design_mechanism` (e.g. ``{"n": 20, "alpha": 0.9, "properties":
    "all"}``).  Results are returned in input order regardless of worker
    scheduling, so parallel runs are exactly reproducible.  With
    ``max_workers`` unset (or <= 1) everything runs in-process; otherwise
    each grid point is solved in a separate process, which is what lets
    figure sweeps use every available core for their LP design stage.
    """
    tasks = [dict(spec) for spec in specs]
    if max_workers is None or int(max_workers) <= 1 or len(tasks) <= 1:
        return [design_mechanism(**task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=int(max_workers)) as pool:
        return list(pool.map(_design_mechanism_task, tasks))


def _design_mechanism_task(task: Mapping[str, Any]) -> Mechanism:
    """Module-level worker so :func:`design_mechanisms` tasks can pickle."""
    return design_mechanism(**task)


def optimal_objective_value(
    n: int,
    alpha: float,
    properties: Union[None, str, Iterable[Union[str, StructuralProperty]]] = (),
    objective: Optional[Objective] = None,
    output_alpha: Optional[float] = None,
) -> float:
    """The optimal objective value for a property set, without keeping the matrix.

    This is what the Figure-8 experiment sweeps: the cost of requesting each
    combination of properties.  Note the value returned is the *unrescaled*
    LP objective ``O_{p,⊕}``; use :func:`repro.core.losses.l0_score` on the
    designed mechanism for the rescaled ``L0``.
    """
    objective = objective if objective is not None else Objective.l0()
    props = parse_properties(properties)
    mechanism_lp = build_mechanism_lp(
        n=n, alpha=alpha, properties=props, objective=objective, output_alpha=output_alpha
    )
    solution = solve(mechanism_lp.program)
    return float(solution.objective)
