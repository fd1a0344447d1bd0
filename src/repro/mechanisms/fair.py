"""The explicit fair mechanism EM (Section IV-C, Equation 16, Figure 4).

EM is the paper's new construction: a mechanism that is simultaneously fair,
weakly honest, row/column honest and monotone, and symmetric, at an ``L0``
cost only a factor ``(n + 1)/n`` above GM's optimum.

Every entry is ``y`` times a power of α; the exponent pattern (Equation 16)
is

    ``e(i, j) = |i − j|``                                if ``|i − j| < min(j, n − j)``
    ``e(i, j) = ceil((|i − j| + min(j, n − j)) / 2)``    otherwise

and ``y`` is chosen so each column sums to one, which makes the Lemma-4
fairness bound tight.  Every column contains the same multiset of powers, so
the single normaliser works for all columns, and row-adjacent exponents
differ by at most one, which is exactly the differential-privacy condition.

:func:`explicit_fair_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`: columns are evaluated on
demand from the exponent pattern, the column CDF has a closed form (the
pattern decomposes into three geometric segments, each of which sums
analytically), and all seven structural properties are known a priori —
Theorem 4's whole point is that EM carries them all.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.core.theory import em_diagonal


def _check_parameters(n: int, alpha: float) -> None:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")


def fair_exponent_matrix(n: int) -> np.ndarray:
    """The integer exponent pattern ``e(i, j)`` of Equation 16.

    Independent of α; Figure 4 of the paper is this matrix for ``n = 7``
    (multiplied through by ``y α^{e}``).
    """
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    size = n + 1
    exponents = np.zeros((size, size), dtype=int)
    for j in range(size):
        edge_distance = min(j, n - j)
        for i in range(size):
            distance = abs(i - j)
            if distance < edge_distance:
                exponents[i, j] = distance
            else:
                exponents[i, j] = math.ceil((distance + edge_distance) / 2)
    return exponents


def fair_exponent_column(n: int, j: int) -> np.ndarray:
    """Column ``j`` of the Equation-16 exponent pattern (integer array)."""
    distance = np.abs(np.arange(n + 1) - j)
    edge_distance = min(j, n - j)
    return np.where(distance < edge_distance, distance, (distance + edge_distance + 1) // 2)


def fair_column(n: int, alpha: float, j: int) -> np.ndarray:
    """Column ``j`` of EM's matrix, evaluated directly from Equation 16.

    Backs both the dense :func:`fair_matrix` and the closed-form mechanism;
    the elementwise power/scale operations match the full-matrix build
    bit-for-bit.
    """
    _check_parameters(n, alpha)
    if alpha == 0.0:
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    return _fair_column(n, alpha, em_diagonal(n, alpha), j)


def _fair_column(n: int, alpha: float, y: float, j: int) -> np.ndarray:
    """:func:`fair_column` with the normaliser ``y`` precomputed by the caller."""
    if alpha == 0.0:
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    exponents = fair_exponent_column(n, j).astype(float)
    return y * alpha**exponents


def fair_matrix(n: int, alpha: float) -> np.ndarray:
    """Exact probability matrix of EM.

    For ``α = 0`` the construction degenerates to the identity mechanism
    (only the zero exponent survives); for ``α = 1`` every power equals one
    and EM coincides with the uniform mechanism.
    """
    _check_parameters(n, alpha)
    size = n + 1
    if alpha == 0.0:
        return np.eye(size)
    exponents = fair_exponent_matrix(n)
    unnormalised = alpha ** exponents.astype(float)
    diagonal_value = em_diagonal(n, alpha)
    matrix = diagonal_value * unnormalised
    return matrix


def _geometric_sum(alpha: float, terms: np.ndarray) -> np.ndarray:
    """``1 + α + … + α^{t−1}`` for a non-negative integer array ``t`` (α < 1)."""
    return (1.0 - alpha ** np.maximum(terms, 0).astype(float)) / (1.0 - alpha)


def _fair_tail_sum(alpha: float, r: np.ndarray) -> np.ndarray:
    """``Σ_{s=0}^{r} α^{ceil(s/2)}`` for a non-negative integer array ``r``.

    The exponents pair up (1, α, α, α², α², …): ``r = 2q`` gives
    ``1 + 2 α (1 + … + α^{q−1})`` and an odd remainder adds ``α^{q+1}``.
    """
    r = np.maximum(r, 0)
    q = r // 2
    total = 1.0 + 2.0 * alpha * _geometric_sum(alpha, q)
    return total + np.where(r % 2 == 1, alpha ** (q + 1.0), 0.0)


def _fair_cdf_left(n: int, alpha: float, y: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic ``F(i | j)`` for columns in the left half (``j <= n − j``).

    The Equation-16 column splits into the clamped entry at 0 (exponent
    ``j``), the two-sided geometric interior ``k ∈ [1, 2j − 1]`` (exponent
    ``|k − j|``) and the paired tail ``k ∈ [max(2j, 1), n]`` (exponent
    ``ceil(k/2)``); each piece has a geometric closed form.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    # Entry k = 0 carries exponent j (for j = 0 this is the tail's r = 0 term).
    head = alpha ** j.astype(float)
    # Interior k in [1, min(i, 2j - 1)] — empty when j == 0 or i < 1.
    interior_top = np.minimum(i, 2 * j - 1)
    rising = alpha ** np.maximum(j - interior_top, 0).astype(float) * _geometric_sum(
        alpha, interior_top
    )
    falling = _geometric_sum(alpha, j) + alpha * _geometric_sum(alpha, interior_top - j)
    interior = np.where(interior_top <= j, rising, falling)
    interior = np.where(interior_top < 1, 0.0, interior)
    # Tail k in [max(2j, 1), i]: exponent ceil(k/2) = j + ceil(r/2) with
    # k = 2j + r.  For j = 0 the r = 0 term is the head entry, so drop it.
    tail_terms = _fair_tail_sum(alpha, i - 2 * j)
    tail_terms = np.where(j == 0, tail_terms - 1.0, tail_terms)
    tail = alpha ** j.astype(float) * tail_terms
    tail = np.where(i < np.maximum(2 * j, 1), 0.0, tail)
    cdf = y * (head + interior + tail)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _fair_cdf(n: int, alpha: float, y: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic column CDF of EM, vectorised over (i, j) arrays.

    Right-half columns reduce to left-half ones through EM's
    centro-symmetry: ``F(i | j) = 1 − F(n − i − 1 | n − j)``.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        return (i >= j).astype(float)
    if alpha == 1.0:
        cdf = (i + 1.0) / (n + 1.0)
        cdf = np.where(i >= n, 1.0, cdf)
        return np.where(i < 0, 0.0, cdf)
    flip = j > n - j
    jj = np.where(flip, n - j, j)
    ii = np.where(flip, n - i - 1, i)
    left = _fair_cdf_left(n, alpha, y, ii, jj)
    cdf = np.where(flip, 1.0 - left, left)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _fair_inverse_left(alpha: float, v: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Guess the smallest ``i`` with ``F(i | j) / y > v`` for left-half columns.

    Inverts the three pieces of :func:`_fair_cdf_left` in turn.  With
    ``h = α^j`` the entry at 0, the rising interior ``i <= j`` has
    ``F / y = h + (α^{j−i} − h) / (1 − α)``, the falling interior
    ``i < 2j`` adds ``α (1 − α^{i−j}) / (1 − α)`` to ``F(j) / y``, and the
    paired tail adds ``α^j T(i − 2j)`` to ``F(2j − 1) / y`` (to 0 when
    ``j = 0``), where ``T(2q) = 1 + 2α (1 − α^q) / (1 − α)`` and
    ``T(2q − 1) = T(2q) − α^q``.
    """
    log_alpha = math.log(alpha)
    head = alpha ** j.astype(float)
    at_diagonal = head + (1.0 - head) / (1.0 - alpha)
    interior_end = at_diagonal + (alpha - head) / (1.0 - alpha)
    # Each piece is evaluated everywhere and kept only inside its range.
    rising = j + 1 - np.ceil(np.log((v - head) * (1.0 - alpha) + head) / log_alpha)
    falling = j + 1 + np.floor(np.log(1.0 - (v - at_diagonal) * (1.0 - alpha) / alpha) / log_alpha)
    # Tail: smallest q with T(2q) > t, then step back to 2q − 1 if that
    # already exceeds t.
    t = (v - np.where(j == 0, 0.0, interior_end)) / head
    w = 1.0 - (t - 1.0) * (1.0 - alpha) / (2.0 * alpha)
    q = np.maximum(np.floor(np.log(w) / log_alpha) + 1.0, 0.0)
    power = alpha**q
    odd = 1.0 + 2.0 * alpha * (1.0 - power) / (1.0 - alpha) - power > t
    tail = 2 * j + 2.0 * q - odd
    guess = np.where(v < interior_end, falling, tail)
    return np.where((j > 0) & (v < at_diagonal), rising, guess)


def _fair_inverse(n: int, alpha: float, y: float, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Guess the smallest ``i`` with ``F(i | j) > u`` (the sampler confirms it).

    Right-half columns reflect through ``F(i | j) = 1 − F(n − i − 1 | n − j)``:
    the answer is ``n − i'`` for the left-half guess ``i'`` at ``1 − u``.
    """
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        return j
    if alpha == 1.0:
        return np.floor(u * (n + 1.0))
    flip = j > n - j
    left = _fair_inverse_left(alpha, np.where(flip, 1.0 - u, u) / y, np.where(flip, n - j, j))
    return np.where(flip, n - left, left)


def _fair_properties(tolerance: float) -> Dict[str, bool]:
    """EM satisfies all seven structural properties for every (n, α) — Theorem 4."""
    return {"RH": True, "RM": True, "CH": True, "CM": True, "F": True, "WH": True, "S": True}


def explicit_fair_mechanism(n: int, alpha: float) -> Mechanism:
    """The explicit fair mechanism EM as a closed-form mechanism."""
    _check_parameters(n, alpha)
    n = int(n)
    alpha = float(alpha)
    y = em_diagonal(n, alpha)
    spec = ClosedFormSpec(
        factory="EM",
        params={"alpha": alpha},
        column_fn=lambda j: _fair_column(n, alpha, y, j),
        cdf_fn=lambda i, j: _fair_cdf(n, alpha, y, i, j),
        inverse_fn=lambda j, u: _fair_inverse(n, alpha, y, j, u),
        # The diagonal is the constant fair value y (1 for the identity
        # limit α = 0).
        diagonal_fn=lambda: np.full(n + 1, 1.0 if alpha == 0.0 else y * alpha**0.0),
        # Row-adjacent exponents differ by at most one and by exactly one
        # somewhere in every column pair, so DP is tight at α.
        max_alpha_fn=lambda: alpha,
        properties_fn=_fair_properties,
    )
    return ClosedFormMechanism(
        n=n,
        spec=spec,
        name="EM",
        alpha=alpha,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "explicit fair mechanism (Eq. 16)",
        },
    )
