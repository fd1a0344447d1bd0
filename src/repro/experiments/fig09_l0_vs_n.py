"""Figure 9 — L0 scores of GM, WM, EM, UM against group size for three α.

Figure 9 plots the ``L0`` score of the four named mechanisms as the group
size grows, for α = 2/3, 10/11 and 99/100.  The paper highlights three
regimes governed by the Lemma-2 threshold ``n* = 2α/(1−α)``:

* α = 2/3 (threshold 4): GM is weakly honest over essentially the whole
  range, so WM coincides with GM and EM carries a visible but shrinking
  premium;
* α = 10/11 (threshold 20): WM converges onto GM exactly at n = 20;
* α = 99/100 (threshold 198): the threshold lies beyond the plotted range
  and EM's diagonal already exceeds ``1/(n+1)``, so WM's cost stays equal to
  EM's throughout.

``run()`` computes the same series (WM through the LP, the others in closed
form, with measured values cross-checked against the formulas).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.losses import l0_score
from repro.core.theory import em_l0_score, gm_l0_score, um_l0_score, weak_honesty_threshold
from repro.experiments.base import ExperimentResult
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.uniform import uniform_mechanism
from repro.mechanisms.weakly_honest import weakly_honest_mechanism

#: The three privacy levels of Figure 9.
DEFAULT_ALPHAS = (2.0 / 3.0, 10.0 / 11.0, 99.0 / 100.0)
#: Group sizes swept (the paper shows n from 2 up to a few tens).
DEFAULT_GROUP_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40)


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    include_wm: bool = True,
    wm_column_monotone: bool = False,
) -> ExperimentResult:
    """Compute L0(GM), L0(WM), L0(EM), L0(UM) over the (α, n) grid.

    ``include_wm=False`` skips the LP solves (useful for quick runs; the
    closed-form mechanisms alone already show the GM/EM envelope).

    ``wm_column_monotone`` selects which LP box of the Figure-5 flowchart the
    WM curve uses.  Figure 9's convergence onto GM at ``n = 2α/(1−α)`` is the
    behaviour of the weak-honesty-only LP (GM never becomes column monotone
    for α > 1/2), so that variant is the default here; passing ``True`` plots
    the stricter WH+CM mechanism instead, whose cost stays at the EM level.
    """
    result = ExperimentResult(
        experiment="figure-9",
        description="L0 of the named mechanisms vs group size at three privacy levels",
        parameters={
            "alphas": [float(a) for a in alphas],
            "group_sizes": list(group_sizes),
            "include_wm": include_wm,
            "wm_column_monotone": wm_column_monotone,
        },
    )
    for alpha in alphas:
        threshold = weak_honesty_threshold(alpha)
        for n in group_sizes:
            entries = [
                ("GM", l0_score(geometric_mechanism(n, alpha)), gm_l0_score(alpha)),
                ("EM", l0_score(explicit_fair_mechanism(n, alpha)), em_l0_score(n, alpha)),
                ("UM", l0_score(uniform_mechanism(n)), um_l0_score(n)),
            ]
            if include_wm:
                wm = weakly_honest_mechanism(
                    n, alpha, column_monotone=wm_column_monotone
                )
                entries.append(("WM", l0_score(wm), None))
            for name, measured, closed_form in entries:
                result.rows.append(
                    {
                        "mechanism": name,
                        "alpha": float(alpha),
                        "group_size": n,
                        "l0_score": measured,
                        "l0_closed_form": closed_form if closed_form is not None else "-",
                        "wh_threshold": threshold,
                        "gm_weakly_honest": n >= threshold,
                    }
                )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
