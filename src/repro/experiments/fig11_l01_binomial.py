"""Figure 11 — empirical L0,1 on Binomial data across (p, n, α).

The synthetic study draws a population of 10,000 individuals whose private
bit is one with probability ``p``, splits it into groups of size
n ∈ {4, 8, 12}, and measures the fraction of groups whose released count is
more than one away from the truth, for α ∈ {0.91, 0.67}, across a sweep of
``p``.  Key observations the figure supports:

* the shape of the input distribution matters: GM is competitive only when
  ``p`` is near 0 or 1 (counts pile up at the extremes, GM's favourite
  outputs), and is often worse than uniform guessing for balanced ``p``;
* the constrained mechanisms (EM especially) are much less sensitive to the
  input distribution;
* at the lower α the gap shrinks and WM converges onto GM.

``run()`` reproduces the sweep; each row is one (mechanism, α, n, p) cell
with the mean and standard deviation over the repetitions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.data.synthetic import DEFAULT_POPULATION, skewed_probabilities
from repro.eval.metrics import distance_metric, error_rate
from repro.eval.sweep import sweep
from repro.experiments.base import ExperimentResult

DEFAULT_ALPHAS = (0.91, 0.67)
DEFAULT_GROUP_SIZES = (4, 8, 12)
DEFAULT_REPETITIONS = 30


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    probabilities: Optional[Sequence[float]] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    population: int = DEFAULT_POPULATION,
    mechanisms: Sequence[str] = ("GM", "WM", "EM", "UM"),
    seed: Optional[int] = 2018,
) -> ExperimentResult:
    """Sweep the Figure-11 grid and collect empirical L0,1 (and L0) rates."""
    probabilities = list(probabilities) if probabilities is not None else skewed_probabilities(9)
    result = ExperimentResult(
        experiment="figure-11",
        description="empirical miss-by-more-than-1 rate (L0,1) on Binomial data",
        parameters={
            "alphas": [float(a) for a in alphas],
            "group_sizes": list(group_sizes),
            "probabilities": probabilities,
            "repetitions": repetitions,
            "population": population,
        },
    )
    # Both metrics carry matrix kernels (and pickle into sweep workers), so
    # every (grid point, mechanism) cell is one tiled sample + two
    # single-pass reductions, parallelisable via --max-workers.
    metrics = {"error_rate": error_rate, "exceeds_1_rate": distance_metric(1)}
    for group_size in group_sizes:
        num_groups = max(1, population // group_size)
        swept = sweep(
            alphas=alphas,
            group_sizes=[group_size],
            probabilities=probabilities,
            mechanisms=mechanisms,
            repetitions=repetitions,
            num_groups=num_groups,
            metrics=metrics,
            seed=seed,
        )
        result.rows.extend(swept.rows)
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
