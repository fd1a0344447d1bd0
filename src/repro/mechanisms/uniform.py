"""The uniform mechanism UM (Definition 5).

UM ignores its input and reports a uniformly random value from ``{0, …, n}``.
It is the feasibility witness of Theorem 2 — it satisfies every structural
property and any α-DP constraint simultaneously — and the trivial baseline
against which the paper normalises the ``L0`` score (UM scores exactly 1).

:func:`uniform_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`: the column, CDF,
diagonal and every property answer are trivially analytic, so UM costs O(1)
memory at any group size.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism


def uniform_column(n: int, j: int) -> np.ndarray:
    """Column ``j`` of UM: the constant vector ``1 / (n + 1)``."""
    return np.full(n + 1, 1.0 / (n + 1))


def uniform_matrix(n: int) -> np.ndarray:
    """The constant matrix ``Pr[i | j] = 1 / (n + 1)``."""
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    size = n + 1
    return np.full((size, size), 1.0 / size)


def _uniform_cdf(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic column CDF of UM: ``F(i | j) = (i + 1) / (n + 1)``."""
    i = np.asarray(i, dtype=np.int64)
    cdf = (i + 1.0) / (n + 1.0)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _uniform_inverse(n: int, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Guess the smallest ``i`` with ``(i + 1) / (n + 1) > u``: ``floor(u (n + 1))``."""
    return np.floor(u * (n + 1.0))


def _uniform_properties(tolerance: float) -> Dict[str, bool]:
    """UM satisfies every structural property (Theorem 2's witness)."""
    return {"RH": True, "RM": True, "CH": True, "CM": True, "F": True, "WH": True, "S": True}


def uniform_mechanism(n: int, alpha: float = 1.0) -> Mechanism:
    """The uniform mechanism UM as a closed-form mechanism.

    ``alpha`` is accepted (and recorded) only so UM can be constructed
    through the same factory interface as the other mechanisms; UM satisfies
    every α ∈ [0, 1].
    """
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    n = int(n)
    spec = ClosedFormSpec(
        factory="UM",
        params={"alpha": float(alpha)},
        column_fn=lambda j: uniform_column(n, j),
        cdf_fn=lambda i, j: _uniform_cdf(n, i, j),
        inverse_fn=lambda j, u: _uniform_inverse(n, j, u),
        diagonal_fn=lambda: np.full(n + 1, 1.0 / (n + 1)),
        # Every column is identical, so every adjacent ratio is exactly 1.
        max_alpha_fn=lambda: 1.0,
        properties_fn=_uniform_properties,
    )
    return ClosedFormMechanism(
        n=n,
        spec=spec,
        name="UM",
        alpha=alpha,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "uniform mechanism (Def. 5)",
        },
    )
