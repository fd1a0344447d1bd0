"""Extension experiment — the cost of output-side differential privacy.

The paper's concluding remarks propose also bounding the ratio of
probabilities between neighbouring *outputs* (a DP-style constraint applied
to the columns of the mechanism).  This experiment quantifies that proposal:

* how far the off-the-shelf GM falls short of the symmetric output-side
  requirement (closed form: its strongest output-side level is ``α(1 − α)``,
  always below α, because of its clamping rows), while EM meets it for free;
* how much ``L0`` the constraint costs when added to the BASICDP LP, with
  and without the seven structural properties, across a sweep of α.

The qualitative outcome mirrors the paper's main message: adding the extra
structure costs very little (the optimum moves from GM's level to at most
EM's level), because EM — which is already fully constrained — also happens
to satisfy the new requirement.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.design import design_mechanism
from repro.core.losses import l0_score
from repro.core.output_privacy import (
    gm_output_alpha,
    gm_satisfies_output_dp,
    max_output_alpha,
)
from repro.core.theory import em_l0_score, gm_l0_score
from repro.experiments.base import ExperimentResult
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism

DEFAULT_ALPHAS = (0.3, 0.5, 0.618, 0.7, 0.8, 0.9, 0.95)
DEFAULT_GROUP_SIZE = 8


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    n: int = DEFAULT_GROUP_SIZE,
) -> ExperimentResult:
    """Sweep α and measure the L0 cost of the output-side DP constraint."""
    result = ExperimentResult(
        experiment="extension-output-dp",
        description="L0 cost of adding the Section-VI output-side DP constraint",
        parameters={
            "alphas": [float(a) for a in alphas],
            "n": n,
        },
    )
    for alpha in alphas:
        gm = geometric_mechanism(n, alpha)
        em = explicit_fair_mechanism(n, alpha)
        unconstrained = design_mechanism(n, alpha, properties=())
        with_output_dp = design_mechanism(
            n, alpha, properties=(), output_alpha=alpha
        )
        fully_constrained = design_mechanism(
            n, alpha, properties="all", output_alpha=alpha
        )
        result.rows.append(
            {
                "alpha": float(alpha),
                "group_size": n,
                "gm_l0": gm_l0_score(alpha),
                "em_l0": em_l0_score(n, alpha),
                "l0_unconstrained": l0_score(unconstrained),
                "l0_with_output_dp": l0_score(with_output_dp),
                "l0_all_properties_plus_output_dp": l0_score(fully_constrained),
                "gm_satisfies_output_dp": gm_satisfies_output_dp(alpha),
                "gm_output_alpha_measured": max_output_alpha(gm),
                "gm_output_alpha_closed_form": gm_output_alpha(alpha),
                "em_output_alpha": max_output_alpha(em),
                "relative_cost_of_output_dp": l0_score(with_output_dp) / gm_l0_score(alpha)
                if gm_l0_score(alpha) > 0
                else 1.0,
            }
        )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
