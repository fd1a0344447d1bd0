"""End-to-end integration tests exercising the public API as a user would.

Each scenario follows the paper's workflow: pick properties, obtain the
optimal mechanism (explicitly or through the LP), release grouped counts,
and evaluate the outcome — crossing the lp, core, mechanisms, data and eval
packages in a single pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from lp_certificate import assert_certified_optimal
from repro.core.constraints import build_mechanism_lp
from repro.data.adult import generate_adult_like
from repro.data.groups import group_counts
from repro.data.synthetic import binomial_group_counts
from repro.eval.empirical import evaluate_mechanisms
from repro.eval.reporting import ascii_heatmap, describe_mechanism, format_table


class TestSurveyReleaseScenario:
    """A data owner releases per-group counts of a sensitive attribute."""

    def test_full_pipeline_with_selector(self):
        rng = np.random.default_rng(42)
        dataset = generate_adult_like(num_records=3000, rng=rng)
        group_size = 8
        workload = group_counts(dataset.income, group_size, label="income", shuffle=True, rng=rng)

        # The analyst wants fairness; the selector must hand back EM without an LP.
        mechanism, decision = repro.choose_mechanism(group_size, alpha=0.9, properties="F")
        assert decision.branch == "EM"
        assert mechanism.name == "EM"

        released = mechanism.apply(workload.counts, rng=rng)
        assert released.shape == workload.counts.shape
        assert released.min() >= 0 and released.max() <= group_size

        # Fairness means the truth is reported with probability exactly y for
        # every group, whatever the data distribution (Lemma 1).
        truth_rate = float(np.mean(released == workload.counts))
        expected = repro.theory.em_diagonal(group_size, 0.9)
        assert truth_rate == pytest.approx(expected, abs=0.03)

    def test_lp_designed_mechanism_in_pipeline(self):
        rng = np.random.default_rng(43)
        counts = binomial_group_counts(500, 6, 0.5, rng=rng)
        mechanism = repro.design_mechanism(6, alpha=0.8, properties="WH+CM+S")
        assert repro.satisfies_property(mechanism, "WH", tolerance=1e-6)
        released = mechanism.apply(counts, rng=rng)
        error_rate = float(np.mean(released != counts))
        # Better than uniform guessing (which errs with probability 6/7).
        assert error_rate < 6.0 / 7.0


class TestMechanismComparisonScenario:
    """The Figure-10-style comparison done directly through the public API."""

    def test_paper_mechanism_ranking_on_balanced_data(self):
        rng = np.random.default_rng(44)
        counts = binomial_group_counts(800, 8, 0.5, rng=rng)
        mechanisms = repro.paper_mechanisms(8, 0.9)
        results = evaluate_mechanisms(mechanisms, counts, group_size=8, repetitions=20, seed=44)
        error = {name: result.mean("error_rate") for name, result in results.items()}
        # Balanced data + strong privacy: EM best, GM worse than UM.
        assert error["EM"] < error["UM"]
        assert error["GM"] > error["EM"]

    def test_reporting_stack_produces_human_readable_output(self):
        mechanisms = repro.paper_mechanisms(4, 0.9)
        rows = [
            {
                "mechanism": mechanism.name,
                "l0": repro.l0_score(mechanism),
                "truth": repro.truth_probability(mechanism),
            }
            for mechanism in mechanisms
        ]
        table = format_table(rows, title="paper mechanisms at n=4, alpha=0.9")
        assert "mechanism" in table and "GM" in table and "EM" in table
        heatmap = ascii_heatmap(mechanisms[0])
        assert heatmap.count("out") == mechanisms[0].size
        description = describe_mechanism(mechanisms[2])
        assert "EM" in description


class TestLocalDifferentialPrivacyScenario:
    """The n = 1 (LDP) special case: randomized response end to end."""

    def test_randomized_response_aggregation(self):
        rng = np.random.default_rng(45)
        true_bits = (rng.random(5000) < 0.3).astype(int)
        mechanism = repro.binary_randomized_response(alpha=0.5)
        released = mechanism.apply(true_bits, rng=rng)

        # Debias the aggregate: E[released] = p*b + (1-p)*(1-b).
        p = mechanism.metadata["truth_probability"]
        estimate = (released.mean() - (1 - p)) / (2 * p - 1)
        assert estimate == pytest.approx(0.3, abs=0.03)

    def test_rr_matches_em_and_lp_optimum_for_n1(self):
        alpha = 0.6
        rr = repro.binary_randomized_response(alpha=alpha)
        em = repro.explicit_fair_mechanism(1, alpha)
        lp = repro.design_mechanism(1, alpha, properties="all")
        assert rr.allclose(em)
        assert np.allclose(lp.matrix, rr.matrix, atol=1e-7)


class TestCertifiedDesigns:
    """Designs served by the pipeline are provably optimal and private."""

    @pytest.mark.parametrize("properties", ["WH", "WH+CM", "F"])
    def test_designed_mechanism_is_certified_optimal(self, properties):
        program = build_mechanism_lp(n=4, alpha=0.85, properties=properties).program
        solution = assert_certified_optimal(program)
        mechanism = repro.design_mechanism(4, 0.85, properties=properties)
        assert mechanism.metadata["objective_value"] == pytest.approx(
            solution.objective, abs=1e-9
        )
        assert repro.satisfies_differential_privacy(mechanism, 0.85, tolerance=1e-6)


class TestSerialisationWorkflow:
    """Mechanisms can be designed once, stored, and reloaded for deployment."""

    def test_design_store_reload_apply(self, tmp_path):
        mechanism = repro.design_mechanism(5, 0.9, properties="all")
        path = tmp_path / "mechanism.json"
        path.write_text(mechanism.to_json())
        reloaded = repro.Mechanism.from_json(path.read_text())
        assert reloaded.allclose(mechanism)
        rng = np.random.default_rng(0)
        released = reloaded.apply([0, 1, 2, 3, 4, 5], rng=rng)
        assert len(released) == 6
