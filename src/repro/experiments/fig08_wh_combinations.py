"""Figure 8 — the L0 cost of weak honesty combined with other properties.

Section V-A asks: once weak honesty (WH) is requested, what do the other
row/column properties add?  Because RM ⇒ RH and CM ⇒ CH there are only nine
meaningful combinations (∅, RH, RM, CH, CM, RH+CH, RH+CM, RM+CH, RM+CM, each
together with WH).  Figure 8 plots the optimal ``L0`` value of each
combination, (a) against the group size at a fixed α = 0.76 and (b) against
α at a fixed group size, and finds only two behaviours:

* combinations with no column property cost ``2α/(1+α)`` — the GM optimum —
  as soon as ``n >= 2α/(1−α)`` (Lemma 2);
* combinations including a column property cost the same as EM.

``run()`` solves the LP for every combination over the requested grid and
labels each row with which of the two regimes it matches.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.design import design_mechanism
from repro.core.losses import l0_score
from repro.core.properties import (
    StructuralProperty,
    combination_label,
    meaningful_weak_honesty_combinations,
)
from repro.core.theory import em_l0_score, gm_l0_score, weak_honesty_threshold
from repro.experiments.base import ExperimentResult

#: Privacy level of Figure 8(a); its WH threshold 2α/(1−α) ≈ 6.33.
DEFAULT_ALPHA = 0.76
#: Group sizes swept in panel (a).
DEFAULT_GROUP_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 12)
#: Privacy levels swept in panel (b).
DEFAULT_ALPHAS = (0.5, 0.62, 0.67, 0.76, 0.83, 0.91, 0.96, 0.99)
#: Group size of panel (b).
DEFAULT_PANEL_B_GROUP_SIZE = 7

#: Tolerance used when classifying a combination's cost as GM-like or EM-like.
MATCH_TOLERANCE = 1e-6


def _classify(l0_value: float, n: int, alpha: float) -> str:
    """Which closed-form regime an optimal value matches (or 'between')."""
    gm = gm_l0_score(alpha)
    em = em_l0_score(n, alpha)
    if abs(l0_value - gm) <= MATCH_TOLERANCE:
        return "GM"
    if abs(l0_value - em) <= MATCH_TOLERANCE:
        return "EM"
    return "between"


def _evaluate_combination(
    combination: Iterable[StructuralProperty], n: int, alpha: float
) -> dict:
    mechanism = design_mechanism(n=n, alpha=alpha, properties=combination)
    value = l0_score(mechanism)
    has_column = bool(
        set(combination)
        & {StructuralProperty.COLUMN_HONESTY, StructuralProperty.COLUMN_MONOTONE}
    )
    return {
        "combination": combination_label(combination),
        "group_size": n,
        "alpha": alpha,
        "l0_score": value,
        "gm_l0": gm_l0_score(alpha),
        "em_l0": em_l0_score(n, alpha),
        "wh_threshold": weak_honesty_threshold(alpha),
        "includes_column_property": has_column,
        "matches": _classify(value, n, alpha),
    }


def run(
    alpha: float = DEFAULT_ALPHA,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    panel_b_group_size: int = DEFAULT_PANEL_B_GROUP_SIZE,
    combinations: Optional[Sequence[Iterable[StructuralProperty]]] = None,
    include_panel_b: bool = True,
) -> ExperimentResult:
    """Sweep the nine WH combinations over group size (panel a) and α (panel b)."""
    combos = (
        list(combinations)
        if combinations is not None
        else meaningful_weak_honesty_combinations()
    )
    result = ExperimentResult(
        experiment="figure-8",
        description="optimal L0 of weak honesty combined with row/column properties",
        parameters={
            "panel_a_alpha": alpha,
            "panel_a_group_sizes": list(group_sizes),
            "panel_b_alphas": list(alphas) if include_panel_b else [],
            "panel_b_group_size": panel_b_group_size,
            "num_combinations": len(combos),
        },
    )
    for n in group_sizes:
        for combination in combos:
            row = _evaluate_combination(combination, n, alpha)
            row["panel"] = "a"
            result.rows.append(row)
    if include_panel_b:
        for alpha_value in alphas:
            for combination in combos:
                row = _evaluate_combination(combination, panel_b_group_size, alpha_value)
                row["panel"] = "b"
                result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
