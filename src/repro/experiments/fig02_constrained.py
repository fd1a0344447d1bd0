"""Figure 2 — heatmaps of fully *constrained* mechanisms (α = 0.62).

Figure 2 repeats the four designs of Figure 1 with every structural property
of Section IV-A enforced, and shows that the gaps and spikes disappear: no
output has zero probability, no output far from the truth dominates, and in
the ``L2`` instance the probability that the output is within one step of
the truth is at least 2/3 for every input.

``run()`` reuses the Figure-1 driver with ``properties="all"`` and
additionally reports the within-one-step probability that the paper quotes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.experiments import fig01_unconstrained
from repro.experiments.base import ExperimentResult

FIGURE_ALPHA = fig01_unconstrained.FIGURE_ALPHA
FIGURE_CASES = fig01_unconstrained.FIGURE_CASES


def min_within_one_probability(mechanism: Mechanism) -> float:
    """The smallest (over inputs) probability of reporting within 1 of the truth."""
    size = mechanism.size
    indices = np.arange(size)
    mask = np.abs(indices[:, None] - indices[None, :]) <= 1
    return float((mechanism.matrix * mask).sum(axis=0).min())


def run(
    alpha: float = FIGURE_ALPHA,
    cases: Optional[Sequence[Tuple[str, int, Objective]]] = None,
    include_heatmaps: bool = True,
) -> ExperimentResult:
    """Solve the Figure-2 LPs (all seven properties) and report diagnostics."""
    result = fig01_unconstrained.run(
        alpha=alpha,
        cases=cases,
        properties="all",
        include_heatmaps=include_heatmaps,
    )
    # Augment each row with the within-one-step guarantee highlighted by the paper.
    for row in result.rows:
        label = str(row["case"])
        mechanism = result.artefacts[f"mechanism:{label}"]
        row["min_within_1_probability"] = min_within_one_probability(mechanism)
    result.description = "constrained LP-optimal mechanisms (all structural properties)"
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
