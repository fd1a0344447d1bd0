"""Figure 7 — heatmaps of GM, EM and WM for n = 4, α = 0.9.

Figure 7 illustrates how differently the three non-trivial mechanisms
distribute their probability mass at a small group size and strong privacy:
GM concentrates on the extreme outputs 0 and n, EM spreads mass evenly along
the diagonal (as fairness requires), and WM sits in between.  The paper
quotes the truth-reporting probabilities under a uniform prior: ≈0.238 for
GM and ≈0.224 for EM, with WM in between.

``run()`` rebuilds the three mechanisms (plus UM for reference), renders
their ASCII heatmaps, and reports the truth-reporting probability, the mass
on the extreme outputs, and the diagonal concentration for each.
"""

from __future__ import annotations

import numpy as np

from repro.core.losses import l0_score
from repro.core.mechanism import Mechanism
from repro.eval.reporting import ascii_heatmap
from repro.experiments.base import ExperimentResult
from repro.mechanisms.registry import paper_mechanisms

DEFAULT_GROUP_SIZE = 4
DEFAULT_ALPHA = 0.9


def extreme_output_mass(mechanism: Mechanism) -> float:
    """Probability (under a uniform prior) of reporting one of the extremes 0 or n."""
    row_mass = mechanism.matrix.mean(axis=1)
    return float(row_mass[0] + row_mass[-1])


def diagonal_band_mass(mechanism: Mechanism, width: int = 1) -> float:
    """Probability (uniform prior) of reporting within ``width`` of the truth."""
    size = mechanism.size
    indices = np.arange(size)
    mask = np.abs(indices[:, None] - indices[None, :]) <= width
    return float((mechanism.matrix * mask).sum(axis=0).mean())


def run(
    n: int = DEFAULT_GROUP_SIZE,
    alpha: float = DEFAULT_ALPHA,
    include_heatmaps: bool = True,
) -> ExperimentResult:
    """Rebuild the Figure-7 mechanisms and report their mass distribution."""
    result = ExperimentResult(
        experiment="figure-7",
        description="probability-mass structure of GM, WM, EM (and UM) at small n",
        parameters={"n": n, "alpha": alpha},
    )
    for mechanism in paper_mechanisms(n, alpha):
        result.rows.append(
            {
                "mechanism": mechanism.name,
                "truth_probability": mechanism.truth_probability(),
                "extreme_output_mass": extreme_output_mass(mechanism),
                "within_1_mass": diagonal_band_mass(mechanism, width=1),
                "l0_score": l0_score(mechanism),
            }
        )
        result.artefacts[f"mechanism:{mechanism.name}"] = mechanism
        if include_heatmaps:
            result.artefacts[f"heatmap:{mechanism.name}"] = ascii_heatmap(
                mechanism, title=f"{mechanism.name} (n={n}, alpha={alpha})"
            )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
