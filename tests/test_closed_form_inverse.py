"""Closed-form sampling above the exact-sampling limit is bit-identical to bisection.

Above :attr:`ClosedFormMechanism.EXACT_SAMPLING_LIMIT` a closed form samples
by guessing each output from its spec's analytic inverse and confirming the
guess with one CDF call; only unconfirmed elements are bisected.
:func:`bisection_oracle` is the bisection every element went through before
the inverses existed, so comparing against it pins the released bits.  The
comparison holds by construction as long as no float CDF falls by more than
``CONFIRM_MARGIN`` along ``i``; the monotonicity tests below check that
premise for all five closed forms that have an analytic CDF.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec
from repro.engine.plan import ReleasePlan
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.randomized_response import nary_randomized_response
from repro.mechanisms.staircase import staircase_mechanism
from repro.mechanisms.uniform import uniform_mechanism

RELAXED = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: The α grid of the monotonicity tests: both degenerations, α one ulp-ish
#: step below 1, underflowing powers, and the paper's working points.
ALPHA_GRID = (0.0, 1e-300, 1e-9, 0.1, 0.3, 0.5, 0.62, 0.9, 0.99, 0.999999, 1.0 - 2.0**-40, 1.0)


def bisection_oracle(mechanism: ClosedFormMechanism, counts, uniforms) -> np.ndarray:
    """Smallest ``i`` with ``F(i | j) > u`` by vectorised bisection.

    The closed-form sampler above the exact-sampling limit as it ran on
    every element before the analytic inverses: invariant ``F(low) <= u <
    F(high)`` from the bracket ``[-1, n]``.
    """
    cdf = mechanism.spec.cdf_fn
    counts = np.asarray(counts, dtype=np.int64)
    uniforms = np.asarray(uniforms, dtype=float)
    low = np.full(counts.shape[0], -1, dtype=np.int64)
    high = np.full(counts.shape[0], mechanism.n, dtype=np.int64)
    while np.any(high - low > 1):
        mid = (low + high) // 2
        above = cdf(mid, counts) > uniforms
        high = np.where(above, mid, high)
        low = np.where(above, low, mid)
    return high


@functools.lru_cache(maxsize=64)
def staircase(n: int, alpha: float, width: int = 3) -> ClosedFormMechanism:
    """The staircase closed form without its construction-time ``max_alpha``.

    ``staircase_mechanism`` measures its α by streaming every adjacent
    column pair, O(n^2) work that takes minutes at n = 10^5; sampling never
    reads it.
    """
    with mock.patch.object(ClosedFormMechanism, "max_alpha", lambda self: alpha):
        return staircase_mechanism(n, alpha, width)


#: name -> (n, alpha) -> mechanism, for the five closed forms with a CDF.
FACTORIES = {
    "GM": geometric_mechanism,
    "EM": explicit_fair_mechanism,
    "UM": uniform_mechanism,
    "NRR": nary_randomized_response,
    "STAIRCASE": staircase,
}

#: Closed forms whose float CDF is exactly non-decreasing in ``i`` (EM's
#: rounds a few ulps down in places, the staircase's in subnormals).
EXACTLY_MONOTONE = ("GM", "UM", "NRR")


def _build(name: str, n: int, alpha: float) -> ClosedFormMechanism:
    if name == "STAIRCASE":
        # The staircase is defined only for α strictly inside (0, 1).
        alpha = min(max(alpha, 1e-9), 1.0 - 2.0**-40)
    return FACTORIES[name](n, alpha)


def _uniforms(mechanism: ClosedFormMechanism, counts: np.ndarray, seed: int) -> np.ndarray:
    """Uniforms for ``counts``: random, 0.0, exact CDF values and their neighbours.

    Boundary values come from the mechanism's own CDF at outputs near each
    count (where the mass is) and anywhere in ``[-1, n]``; values outside
    ``[0, 1)`` are replaced by random draws.
    """
    rng = np.random.default_rng(seed)
    size = counts.shape[0]
    n = mechanism.n
    near = np.clip(counts + rng.integers(-4, 5, size), -1, n)
    anywhere = rng.integers(-1, n + 1, size)
    outputs = np.where(rng.random(size) < 0.7, near, anywhere)
    values = mechanism.spec.cdf_fn(outputs, counts)
    kind = rng.integers(0, 5, size)
    uniforms = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [rng.random(size), np.zeros(size), values, np.nextafter(values, -np.inf)],
        np.nextafter(values, np.inf),
    )
    outside = (uniforms < 0.0) | (uniforms >= 1.0)
    uniforms[outside] = rng.random(int(outside.sum()))
    return uniforms


class _Stream:
    """Stands in for a generator: ``random(size)`` hands out prepared uniforms."""

    def __init__(self, uniforms: np.ndarray) -> None:
        self._uniforms = uniforms
        self._position = 0

    def random(self, size: int) -> np.ndarray:
        block = self._uniforms[self._position : self._position + size]
        assert block.shape[0] == size, "sampler asked for more uniforms than prepared"
        self._position += size
        return block.copy()


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(FACTORIES)))
    alpha = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 1.0 - 2.0**-40, 0.5, 0.9]),
            st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    n = draw(
        st.one_of(
            st.integers(ClosedFormMechanism.EXACT_SAMPLING_LIMIT + 1, 200_000),
            st.sampled_from([ClosedFormMechanism.EXACT_SAMPLING_LIMIT + 1, 100_000, 200_000]),
        )
    )
    size = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    mechanism = _build(name, n, alpha)
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, n + 1, size)
    # The clamped ends and the centre, where the closed forms switch pieces.
    edges = np.array([0, 1, n // 2, (n + 1) // 2, n - 1, n])
    counts[: min(size, 6)] = edges[: min(size, 6)]
    rng.shuffle(counts)
    return mechanism, counts, _uniforms(mechanism, counts, seed)


class TestBitIdentityWithBisection:
    @RELAXED
    @given(case=cases())
    def test_execute_with_uniforms(self, case):
        mechanism, counts, uniforms = case
        plan = ReleasePlan.from_mechanism(mechanism)
        released = plan.execute_with_uniforms(counts, uniforms)
        assert np.array_equal(released, bisection_oracle(mechanism, counts, uniforms))

    @RELAXED
    @given(case=cases())
    def test_sample_batch(self, case):
        mechanism, counts, uniforms = case
        released = mechanism.sample_batch(counts, rng=_Stream(uniforms))
        assert np.array_equal(released, bisection_oracle(mechanism, counts, uniforms))

    @RELAXED
    @given(case=cases(), repetitions=st.integers(1, 4))
    def test_sample_tiled(self, case, repetitions):
        mechanism, counts, uniforms = case
        tiled_uniforms = np.concatenate(
            [uniforms] + [np.roll(uniforms, r) for r in range(1, repetitions)]
        )
        released = mechanism.sample_tiled(counts, repetitions, rng=_Stream(tiled_uniforms))
        expected = bisection_oracle(mechanism, np.tile(counts, repetitions), tiled_uniforms)
        assert np.array_equal(released, expected.reshape(repetitions, counts.shape[0]))

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_seeded_stream_matches_bisection(self, name):
        mechanism = _build(name, 100_000, 0.9)
        counts = np.random.default_rng(1).integers(0, 100_001, 4096)
        released = mechanism.sample_batch(counts, rng=np.random.default_rng(2))
        uniforms = np.random.default_rng(2).random(counts.shape[0])
        assert np.array_equal(released, bisection_oracle(mechanism, counts, uniforms))


class TestGuessAndConfirm:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 0.999, 1.0])
    def test_inverse_guesses_are_confirmed(self, name, alpha, monkeypatch):
        # The inverse is what makes sampling O(1) per element: on random
        # uniforms at the serving group size, at most 1% may need bisection.
        mechanism = _build(name, 100_000, alpha)
        bisected = []
        fallback = mechanism._sample_by_bisection

        def counted_fallback(counts, uniforms):
            bisected.append(counts.shape[0])
            return fallback(counts, uniforms)

        monkeypatch.setattr(mechanism, "_sample_by_bisection", counted_fallback)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 100_001, 20_000)
        mechanism.sample_with_uniforms(counts, rng.random(counts.shape[0]))
        share = sum(bisected) / counts.shape[0]
        assert share <= 0.01, f"{name} at alpha={alpha}: {share:.2%} of draws bisected"

    @pytest.mark.parametrize(
        "inverse",
        [
            lambda j, u: np.zeros(j.shape[0]),
            lambda j, u: np.full(j.shape[0], np.nan),
            lambda j, u: np.where(u < 0.5, -np.inf, np.inf),
            lambda j, u: j + np.round(8.0 * u - 4.0),
        ],
        ids=["zeros", "nan", "inf", "off-by-a-few"],
    )
    def test_wrong_guesses_cost_speed_not_correctness(self, inverse):
        reference = geometric_mechanism(100_000, 0.9)
        spec = ClosedFormSpec(
            factory="GM",
            params=dict(reference.spec.params),
            column_fn=reference.spec.column_fn,
            cdf_fn=reference.spec.cdf_fn,
            inverse_fn=inverse,
        )
        mechanism = ClosedFormMechanism(reference.n, spec, name="GM", alpha=0.9)
        counts = np.random.default_rng(4).integers(0, reference.n + 1, 2000)
        uniforms = _uniforms(reference, counts, seed=5)
        assert np.array_equal(
            mechanism.sample_with_uniforms(counts, uniforms),
            bisection_oracle(reference, counts, uniforms),
        )

    def test_spec_without_inverse_bisects(self):
        reference = explicit_fair_mechanism(50_000, 0.8)
        spec = ClosedFormSpec(
            factory="EM",
            params=dict(reference.spec.params),
            column_fn=reference.spec.column_fn,
            cdf_fn=reference.spec.cdf_fn,
        )
        mechanism = ClosedFormMechanism(reference.n, spec, name="EM", alpha=0.8)
        counts = np.random.default_rng(6).integers(0, reference.n + 1, 500)
        uniforms = _uniforms(reference, counts, seed=7)
        assert np.array_equal(
            mechanism.sample_with_uniforms(counts, uniforms),
            reference.sample_with_uniforms(counts, uniforms),
        )


def _worst_fall(cdf: np.ndarray) -> float:
    """Largest ``F(a) - F(b)`` over ``a < b`` along the last axis."""
    return float(np.max(np.maximum.accumulate(cdf, axis=-1) - cdf))


def _allowed_fall(name: str) -> float:
    return 0.0 if name in EXACTLY_MONOTONE else ClosedFormMechanism.CONFIRM_MARGIN


def _grid(name: str):
    if name == "STAIRCASE":
        return [alpha for alpha in ALPHA_GRID if 0.0 < alpha < 1.0]
    return list(ALPHA_GRID)


class TestCdfMonotonicity:
    """The premise of the identity: the float CDFs (almost) never fall in ``i``."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_every_column_up_to_n_64(self, name):
        for alpha in _grid(name):
            for n in range(1, 65):
                mechanism = FACTORIES[name](n, alpha)
                outputs = np.arange(-1, n + 1)
                inputs = np.arange(n + 1)
                cdf = mechanism.spec.cdf_fn(
                    np.tile(outputs, n + 1), np.repeat(inputs, outputs.shape[0])
                ).reshape(n + 1, outputs.shape[0])
                assert _worst_fall(cdf) <= _allowed_fall(name), (name, alpha, n)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_sampled_columns_at_n_100000(self, name):
        n = 100_000
        outputs = np.arange(-1, n + 1)
        sampled = np.random.default_rng(8).integers(0, n + 1, 8)
        inputs = np.concatenate([[0, 1, 2, n // 2, n // 2 + 1, n - 1, n], sampled])
        for alpha in _grid(name):
            mechanism = _build(name, n, alpha)
            for j in inputs:
                cdf = mechanism.spec.cdf_fn(outputs, np.full(outputs.shape[0], j))
                assert _worst_fall(cdf) <= _allowed_fall(name), (name, alpha, int(j))
