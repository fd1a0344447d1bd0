"""A truncated discrete staircase mechanism (Geng et al., referenced in Section IV-A).

The staircase mechanism adds integer noise whose probability decays
geometrically in *plateaus* of a configurable width ``r`` rather than at
every step:

    ``Pr[noise = δ] ∝ α^{floor(|δ| / r)}``

With plateau width 1 this is exactly the two-sided geometric distribution,
so the staircase mechanism with ``width=1`` coincides with GM (the
test-suite checks this).  Wider plateaus trade a flatter centre for thinner
tails, which is the behaviour the original (continuous) staircase mechanism
exploits for low ``L1``/``L2`` error at weak privacy levels.

As with GM, outputs outside ``[0, n]`` are clamped to the range; clamping is
post-processing and therefore preserves the α-DP guarantee of the additive
noise.  The paper cites the staircase mechanism as an example of a *fair*
mechanism from prior work; the untruncated noise is indeed input-independent,
though (like GM) the clamped version loses fairness at the boundary, which
our property checks make visible.

The geometric-family structure gives every column and its CDF a closed form
(the infinite plateau tails sum analytically), so
:func:`staircase_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`.  Property answers and
``max_alpha`` are left to the generic streaming checks, which cost O(n) per
column pair — unlike GM/EM, the staircase boundary interactions are not
worth hand-deriving.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism


def _check_parameters(n: int, alpha: float, width: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 < alpha < 1.0):
        raise ValueError("the staircase mechanism requires alpha in (0, 1)")
    if width < 1 or int(width) != width:
        raise ValueError("plateau width must be a positive integer")


def _unnormalised_weight(delta: int, alpha: float, width: int) -> float:
    """Unnormalised probability weight ``α^{floor(|δ| / width)}``."""
    return alpha ** (abs(delta) // width)


def _unnormalised_upper_tail(threshold: int, alpha: float, width: int) -> float:
    """Unnormalised mass of all noise values ``δ >= threshold`` (threshold >= 1).

    The values between ``threshold`` and the end of its plateau share one
    exponent; every later plateau contributes ``width`` values at the next
    exponent, which sums in closed form.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    level = threshold // width
    next_boundary = (level + 1) * width
    partial_plateau = (next_boundary - threshold) * alpha**level
    remaining_plateaus = width * alpha ** (level + 1) / (1.0 - alpha)
    return partial_plateau + remaining_plateaus


def _upper_tail_array(thresholds: np.ndarray, alpha: float, width: int) -> np.ndarray:
    """Vectorised :func:`_unnormalised_upper_tail` over a threshold array (>= 1)."""
    thresholds = np.asarray(thresholds, dtype=np.int64)
    level = thresholds // width
    next_boundary = (level + 1) * width
    partial_plateau = (next_boundary - thresholds) * alpha ** level.astype(float)
    remaining_plateaus = width * alpha ** (level + 1.0) / (1.0 - alpha)
    return partial_plateau + remaining_plateaus


def staircase_noise_pmf(alpha: float, width: int, support: int) -> np.ndarray:
    """PMF of staircase noise on ``{-support, …, +support}``, renormalised.

    Intended for inspection and plotting; :func:`staircase_matrix` folds the
    infinite tails exactly rather than truncating them.
    """
    _check_parameters(1, alpha, width)
    if support < 0:
        raise ValueError("support must be non-negative")
    offsets = np.arange(-support, support + 1)
    weights = alpha ** (np.abs(offsets) // width)
    return weights / weights.sum()


def staircase_column(n: int, alpha: float, width: int, j: int) -> np.ndarray:
    """Column ``j`` of the truncated staircase matrix, evaluated directly.

    Interior outputs carry the plateau weight of their offset from the true
    count; the clamping outputs 0 and ``n`` absorb the exact mass of the two
    infinite tails, so each column sums to one with no truncation error.
    This one function backs both the dense matrix and the closed form.
    """
    size = n + 1
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    column = np.zeros(size)
    interior = np.arange(1, size - 1)
    column[1 : size - 1] = alpha ** (np.abs(interior - j) // width).astype(float)
    # Output 0 absorbs all noise <= -j; by symmetry of the noise this is
    # the upper tail at threshold j (plus the point mass at 0 when j = 0).
    if j == 0:
        column[0] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[0] = _unnormalised_upper_tail(j, alpha, width)
    # Output n absorbs all noise >= n - j.
    if j == n:
        column[n] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[n] = _unnormalised_upper_tail(n - j, alpha, width)
    return column / normaliser


def staircase_matrix(n: int, alpha: float, width: int = 1) -> np.ndarray:
    """Transition matrix of the truncated discrete staircase mechanism."""
    _check_parameters(n, alpha, width)
    return np.column_stack([staircase_column(n, alpha, width, j) for j in range(n + 1)])


def _staircase_cdf(
    n: int, alpha: float, width: int, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic column CDF of the truncated staircase mechanism.

    Clamping makes the CDF a pure tail expression of the additive noise:
    ``F(i | j) = tail(j − i) / Z`` below the true count and
    ``1 − tail(i − j + 1) / Z`` at or above it.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    below = _upper_tail_array(np.maximum(j - i, 1), alpha, width) / normaliser
    above = 1.0 - _upper_tail_array(np.maximum(i - j + 1, 1), alpha, width) / normaliser
    cdf = np.where(i < j, below, above)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _last_threshold_above(value: np.ndarray, alpha: float, width: int) -> np.ndarray:
    """Guess the largest ``t`` with ``tail(t) > value`` (``tail`` is decreasing).

    Plateau starts have ``tail(L w) = w α^L / (1 − α)``, which fixes the
    plateau ``L``; inside it ``tail`` is linear in ``t``.
    """
    log_alpha = np.log(alpha)
    level = np.ceil(np.log(value * (1.0 - alpha) / width) / log_alpha) - 1.0
    power = alpha**level
    rest = (value - width * alpha * power / (1.0 - alpha)) / power
    offset = np.clip(np.ceil(width - rest) - 1.0, 0.0, width - 1.0)
    return level * width + offset


def _staircase_inverse(
    n: int, alpha: float, width: int, j: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Guess the smallest ``i`` with ``F(i | j) > u`` (the sampler confirms it).

    Below the true count ``tail(j − i) > u Z`` makes ``j − i`` the last
    threshold above ``u Z``; at or above it ``tail(i − j + 1) < (1 − u) Z``
    makes ``i − j`` the last threshold above ``(1 − u) Z``.
    """
    j = np.asarray(j, dtype=np.int64)
    first = _unnormalised_upper_tail(1, alpha, width)
    normaliser = 1.0 + 2.0 * first
    below = j - _last_threshold_above(u * normaliser, alpha, width)
    above = j + np.maximum(_last_threshold_above((1.0 - u) * normaliser, alpha, width), 0.0)
    return np.where(u * normaliser < first, below, above)


def staircase_mechanism(n: int, alpha: float, width: int = 1) -> Mechanism:
    """The truncated discrete staircase mechanism as a closed-form mechanism."""
    _check_parameters(n, alpha, width)
    n = int(n)
    alpha = float(alpha)
    width = int(width)
    spec = ClosedFormSpec(
        factory="STAIRCASE",
        params={"alpha": alpha, "width": width},
        column_fn=lambda j: staircase_column(n, alpha, width, j),
        cdf_fn=lambda i, j: _staircase_cdf(n, alpha, width, i, j),
        inverse_fn=lambda j, u: _staircase_inverse(n, alpha, width, j, u),
    )
    mechanism = ClosedFormMechanism(
        n=n,
        spec=spec,
        name=f"STAIRCASE[{width}]" if width != 1 else "STAIRCASE",
        alpha=None,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "truncated discrete staircase mechanism",
            "width": width,
        },
    )
    mechanism.alpha = mechanism.max_alpha()
    return mechanism


def sample_staircase_mechanism(
    true_count: int,
    n: int,
    alpha: float,
    width: int = 1,
    rng: Optional[np.random.Generator] = None,
    size: Optional[int] = None,
    support_multiplier: int = 64,
) -> Union[int, np.ndarray]:
    """Operational form: draw staircase noise, add, clamp to ``[0, n]``.

    Sampling materialises the noise PMF out to ``support_multiplier * width``
    plateaus on each side, which leaves a tail mass far below 1e-12 for any
    α bounded away from 1; clamping then maps that remote tail to the same
    outputs it would have reached anyway.
    """
    _check_parameters(n, alpha, width)
    if not (0 <= true_count <= n):
        raise ValueError(f"true count {true_count} outside [0, {n}]")
    rng = rng if rng is not None else np.random.default_rng()
    support = max(n + 1, support_multiplier * width)
    pmf = staircase_noise_pmf(alpha, width, support)
    offsets = np.arange(-support, support + 1)
    noise = rng.choice(offsets, size=size, p=pmf)
    released = np.clip(true_count + noise, 0, n)
    if size is None:
        return int(released)
    return released.astype(int)
