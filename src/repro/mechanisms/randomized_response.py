"""Randomized response mechanisms (Section II-B, "mechanisms from coin-tossing").

Two variants are implemented:

* **Binary randomized response** — the classical Warner design for a single
  private bit (the ``n = 1`` case).  The respondent reports the truth with
  probability ``p > 1/2`` and lies otherwise, achieving ``α = (1 − p)/p``
  differential privacy.  The paper notes this is the unique optimal
  mechanism for ``n = 1`` under any objective ``O_{p,Σ}``.
* **n-ary randomized response** — the extension of Geng et al. used by
  RAPPOR-style systems: report the true count with probability ``p``,
  otherwise report a uniformly random *other* value.  The paper remarks it
  "gives low utility for count queries"; including it lets the experiments
  quantify that remark.

The n-ary variant has a two-valued column (``p`` on the diagonal, a constant
off-diagonal mass), so :func:`nary_randomized_response` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism` with analytic column,
CDF, ``max_alpha`` and property answers — it scales to any group size in
O(1) memory.  The binary variant is a 2x2 matrix and stays dense.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.core.theory import (
    nary_randomized_response_truth_probability,
    randomized_response_truth_probability,
)


def binary_randomized_response(
    alpha: Optional[float] = None, truth_probability: Optional[float] = None
) -> Mechanism:
    """Binary randomized response over a single private bit (group size 1).

    Exactly one of ``alpha`` or ``truth_probability`` must be given: either
    the target privacy level (from which the optimal truth probability
    ``p = 1 / (1 + α)`` is derived), or the truth probability directly.
    """
    if (alpha is None) == (truth_probability is None):
        raise ValueError("provide exactly one of alpha or truth_probability")
    if truth_probability is None:
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        truth_probability = randomized_response_truth_probability(alpha)
    if not (0.5 <= truth_probability <= 1.0):
        raise ValueError("truth probability must lie in [0.5, 1]")
    p = float(truth_probability)
    matrix = np.array([[p, 1.0 - p], [1.0 - p, p]])
    achieved_alpha = (1.0 - p) / p if p > 0 else 0.0
    return Mechanism(
        matrix,
        name="RR",
        alpha=achieved_alpha,
        metadata={
            "source": "closed-form",
            "definition": "binary randomized response",
            "truth_probability": p,
        },
    )


def nary_column(n: int, p: float, j: int) -> np.ndarray:
    """Column ``j`` of n-ary randomized response: ``p`` at ``j``, constant elsewhere."""
    off_diagonal = (1.0 - p) / n if n > 0 else 0.0
    column = np.full(n + 1, off_diagonal)
    column[j] = p
    return column


def _nary_cdf(n: int, p: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic column CDF: a uniform ramp with one step of height ``p − q`` at ``j``."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    off_diagonal = (1.0 - p) / n if n > 0 else 0.0
    cdf = (i + 1.0) * off_diagonal + np.where(i >= j, p - off_diagonal, 0.0)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _nary_inverse(n: int, p: float, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Guess the smallest ``i`` with ``F(i | j) > u`` from the piecewise-linear CDF.

    Below the step (``u < j q``) ``(i + 1) q > u`` gives ``floor(u / q)``;
    past it ``i q + p > u`` gives ``floor((u − p) / q) + 1``, at least ``j``.
    """
    j = np.asarray(j, dtype=np.int64)
    q = (1.0 - p) / n
    if q == 0.0:
        return j
    past = np.maximum(np.floor((u - p) / q) + 1.0, j)
    return np.where(u < j * q, np.floor(u / q), past)


def _nary_max_alpha(n: int, p: float) -> float:
    """Analytic :meth:`Mechanism.max_alpha` for n-ary randomized response.

    Adjacent columns differ only in the two rows holding their diagonals,
    where the entries are ``p`` and ``q = (1 − p)/n``; the binding ratio is
    ``min(p, q) / max(p, q)`` (zero when only one of them is zero).
    """
    q = (1.0 - p) / n if n > 0 else 0.0
    if p == q:
        return 1.0
    if p == 0.0 or q == 0.0:
        return 0.0
    return float(min(p / q, q / p))


def _nary_properties(n: int, p: float, tolerance: float) -> Dict[str, bool]:
    """Analytic structural-property verdicts for n-ary randomized response.

    With ``q = (1 − p)/n``: fairness and symmetry are structural; the
    row/column honesty and monotonicity family holds exactly when the
    diagonal dominates (``q <= p + tol``); weak honesty needs
    ``p >= 1/(n+1)``.
    """
    q = (1.0 - p) / n if n > 0 else 0.0
    dominant = q <= p + tolerance
    return {
        "RH": dominant,
        "RM": dominant,
        "CH": dominant,
        "CM": dominant,
        "F": True,
        "WH": p >= 1.0 / (n + 1) - tolerance,
        "S": True,
    }


def nary_randomized_response(
    n: int, alpha: float, truth_probability: Optional[float] = None
) -> Mechanism:
    """n-ary randomized response of Geng et al. over the outputs ``{0, …, n}``.

    Reports the input with probability ``p`` and otherwise a uniformly
    random other output.  When ``truth_probability`` is omitted the largest
    ``p`` compatible with α-DP in our neighbouring-input sense is used,
    ``p = 1 / (1 + n α)``.
    """
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    n = int(n)
    params = {"alpha": float(alpha)}
    if truth_probability is not None:
        params["truth_probability"] = float(truth_probability)
    if truth_probability is None:
        truth_probability = nary_randomized_response_truth_probability(n, alpha)
    p = float(truth_probability)
    if not (0.0 < p <= 1.0):
        raise ValueError("truth probability must lie in (0, 1]")
    spec = ClosedFormSpec(
        factory="NRR",
        params=params,
        column_fn=lambda j: nary_column(n, p, j),
        cdf_fn=lambda i, j: _nary_cdf(n, p, i, j),
        inverse_fn=lambda j, u: _nary_inverse(n, p, j, u),
        diagonal_fn=lambda: np.full(n + 1, p),
        max_alpha_fn=lambda: _nary_max_alpha(n, p),
        properties_fn=lambda tol: _nary_properties(n, p, tol),
    )
    mechanism = ClosedFormMechanism(
        n=n,
        spec=spec,
        name="NRR",
        alpha=None,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "n-ary randomized response (Geng et al.)",
            "truth_probability": p,
        },
    )
    # Record the privacy level the matrix actually achieves rather than the
    # requested one, so callers can see when a supplied p is too aggressive.
    mechanism.alpha = mechanism.max_alpha()
    return mechanism
