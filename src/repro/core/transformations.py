"""Post-processing transformations of mechanisms (the Ghosh et al. framework).

Section II-B and IV-D of the paper lean on a structural fact due to Ghosh,
Roughgarden and Sundararajan: every utility-optimal unconstrained mechanism
can be *derived from GM* by post-processing — first run the geometric
mechanism, then randomly remap its output according to a column-stochastic
remapping matrix that may depend on the analyst's prior and loss but not on
the data.  Gupte and Sundararajan's inequality (implemented in
:func:`repro.core.theory.gupte_sundararajan_derivable`) tests whether a
given mechanism is such a derivation; the paper uses it to show WM and EM
are genuinely new.

This module implements the machinery itself:

* :func:`post_process` — compose a mechanism with a remapping matrix
  (post-processing never weakens differential privacy);
* :func:`optimal_remap` — solve the small LP for the remapping of a base
  mechanism (typically GM) that minimises a given objective under a given
  prior, i.e. the Ghosh-et-al. recipe for prior-aware utility-optimal
  release;
* :func:`derive_from_geometric` — convenience wrapper returning the
  prior-optimal post-processed GM.

Together with the structural-constraint LP of :mod:`repro.core.design` this
gives both design routes discussed by the paper: constrain the mechanism
itself, or keep GM and remap its output.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.lp.model import LinearProgram
from repro.lp.solver import solve

MatrixLike = Union[np.ndarray, Mechanism]


def _as_matrix(mechanism: MatrixLike) -> np.ndarray:
    if isinstance(mechanism, Mechanism):
        return mechanism.matrix
    matrix = np.asarray(mechanism, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def post_process(mechanism: Mechanism, remap: np.ndarray, name: Optional[str] = None) -> Mechanism:
    """Apply a data-independent randomized remapping to a mechanism's output.

    ``remap[k, i]`` is the probability of releasing ``k`` when the base
    mechanism produced ``i``; it must be column stochastic over the base
    mechanism's output range.  The composite mechanism is ``remap @ P``,
    which inherits the base mechanism's differential-privacy guarantee
    because post-processing cannot amplify the dependence on the input.
    """
    base = mechanism.matrix
    remap = np.asarray(remap, dtype=float)
    if remap.ndim != 2 or remap.shape[1] != base.shape[0]:
        raise ValueError(
            f"remap must have one column per base output; got {remap.shape} for base size {base.shape[0]}"
        )
    if np.any(remap < -1e-12):
        raise ValueError("remap entries must be non-negative")
    if not np.allclose(remap.sum(axis=0), 1.0, atol=1e-8):
        raise ValueError("remap columns must sum to one")
    if remap.shape[0] != base.shape[0]:
        raise ValueError(
            "remap must keep the output range {0..n} so the result is a count mechanism"
        )
    composite = remap @ base
    metadata = dict(mechanism.metadata)
    metadata["post_processed_from"] = mechanism.name
    return Mechanism(
        composite,
        name=name or f"{mechanism.name}+remap",
        alpha=mechanism.alpha,
        metadata=metadata,
    )


def optimal_remap(
    mechanism: Mechanism,
    objective: Optional[Objective] = None,
    prior: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """The remapping matrix minimising an objective for a given prior.

    Solves the LP over column-stochastic remappings ``R`` of

        ``min  Σ_j w_j Σ_i P[i, j] Σ_k R[k, i] · penalty(k, j)``

    which is the Ghosh-et-al. post-processing step: the analyst keeps the
    α-DP base mechanism fixed and only reinterprets its output.  The program
    has ``(n+1)²`` variables and is tiny compared to the constrained-design
    LPs because the DP constraints do not appear (they are already enforced
    by the base mechanism).
    """
    objective = objective if objective is not None else Objective.l0()
    if objective.aggregator != "sum":
        raise ValueError("optimal_remap currently supports the expectation aggregator only")
    base = mechanism.matrix
    size = base.shape[0]
    weights = (
        np.asarray(Objective(p=objective.p, d=objective.d, weights=prior).prior(size))
        if prior is not None
        else objective.prior(size)
    )
    penalties = objective.penalties(size)

    # Cost of sending base output i to released value k:
    #   c[k, i] = sum_j w_j P[i, j] penalty(k, j)
    cost = penalties @ (base * weights[None, :]).T

    program = LinearProgram(name=f"remap({mechanism.name})")
    variables = [
        [program.add_variable(f"r_{k}_{i}", lower=0.0, upper=1.0) for i in range(size)]
        for k in range(size)
    ]
    for i in range(size):
        program.add_constraint(
            {variables[k][i]: 1.0 for k in range(size)}, "==", 1.0, name=f"column_{i}"
        )
    program.set_objective(
        {variables[k][i]: float(cost[k, i]) for k in range(size) for i in range(size)},
        sense="min",
    )
    solution = solve(program)
    remap = np.zeros((size, size))
    for k in range(size):
        for i in range(size):
            remap[k, i] = solution.value_of(variables[k][i])
    remap = np.clip(remap, 0.0, 1.0)
    remap /= remap.sum(axis=0, keepdims=True)
    return remap


def derive_from_geometric(
    n: int,
    alpha: float,
    objective: Optional[Objective] = None,
    prior: Optional[Sequence[float]] = None,
) -> Mechanism:
    """The prior-optimal post-processing of GM (the Ghosh et al. construction).

    Returns GM composed with the remapping from :func:`optimal_remap`.  With
    a uniform prior and the ``L0`` objective the optimal remapping is the
    identity (GM is already optimal, Theorem 3); with a skewed prior the
    remapping shifts mass towards the a-priori likely outputs and strictly
    improves the expected loss, while the result remains α-DP and — by
    construction — passes the Gupte–Sundararajan derivability test.
    """
    from repro.mechanisms.geometric import geometric_mechanism

    gm = geometric_mechanism(n, alpha)
    remap = optimal_remap(gm, objective=objective, prior=prior)
    derived = post_process(gm, remap, name="GM*")
    derived.metadata["derived_via"] = "optimal_remap"
    return derived
