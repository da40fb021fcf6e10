"""Simulator determinism and behavioral checks."""

import io
import json

import pytest

from reviewaudit import (
    ConfigError,
    QuestionSpec,
    SimulationConfig,
    Treatment,
    analyze_agreement,
    did_with_error_rates,
    fleiss_kappa,
    inject_review_change,
    rating_matrix,
    simulate_panel,
)
from reviewaudit.report import write_panel_csv


VALID_PAYLOAD = {
    "n_products": 5,
    "n_reviewers": 2,
    "questions": [{"id": "q1", "n_categories": 2, "difficulty": 0.1}],
    "treatment": {"change_period": 1, "error_rate_delta": 0.1},
}


def payload_json(**overrides):
    """VALID_PAYLOAD as JSON text, with top-level keys replaced."""
    return json.dumps({**VALID_PAYLOAD, **overrides})


def config(**overrides):
    base = dict(
        n_products=50,
        n_reviewers=3,
        questions=(QuestionSpec("q1", 2, 0.3),),
        seed=1234,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_basic(self):
        c = config()
        assert c.reviewer_ids == ("r0", "r1", "r2")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_products": 0},
            {"n_reviewers": 0},
            {"questions": ()},
            {"questions": (QuestionSpec("q1", 2, 0.1), QuestionSpec("q1", 2, 0.2))},
            {"anchoring": 1.5},
            {"seed": "abc"},
            {"reviewer_bias": {"r9": (1.0, 1.0)}},
            {"reviewer_bias": {"r0": (-1.0, 1.0)}},
            {"reviewer_bias": {"r0": (1.0,)}},
            {"reviewer_bias": {"r0": (0.0, 0.0)}},
            {"reviewer_bias": {"r0": (float("nan"), 1.0)}},
            {"reviewer_bias": {"r0": (float("inf"), 1.0)}},
            {"reviewer_bias": {"r0": (1.0, float("-inf"))}},
            {"n_products": True},
            {"n_reviewers": True},
            {"seed": True},
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ConfigError):
            config(**overrides)

    def test_question_spec_domain(self):
        with pytest.raises(ConfigError):
            QuestionSpec("q1", 1, 0.5)
        with pytest.raises(ConfigError):
            QuestionSpec("q1", 2, 1.5)
        with pytest.raises(ConfigError):
            QuestionSpec("", 2, 0.5)
        with pytest.raises(ConfigError, match="non-empty string"):
            QuestionSpec(5, 2, 0.5)

    @pytest.mark.parametrize("n_categories", [2.5, 3.0, True, "3"])
    def test_question_spec_n_categories_must_be_an_integer(self, n_categories):
        with pytest.raises(ConfigError, match="n_categories must be an integer"):
            QuestionSpec("q1", n_categories, 0.2)

    def test_treatment_change_period_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="change_period must be an integer"):
            Treatment(change_period=True, error_rate_delta=0.2)

    @pytest.mark.parametrize("delta", [1.5, -0.1])
    def test_treatment_delta_must_be_a_probability(self, delta):
        with pytest.raises(ConfigError) as err:
            Treatment(1, delta)
        assert str(err.value) == f"error_rate_delta must be in [0, 1], got {delta}"

    def test_from_json(self):
        payload = {
            "n_products": 5,
            "n_reviewers": 2,
            "seed": 9,
            "anchoring": 0.25,
            "questions": [{"id": "q1", "n_categories": 3, "difficulty": 0.4}],
            "treatment": {"change_period": 1, "error_rate_delta": 0.1},
        }
        c = SimulationConfig.from_json(json.dumps(payload))
        assert c.questions[0].n_categories == 3
        assert c.treatment == Treatment(1, 0.1)

    @pytest.mark.parametrize(
        "payload",
        ["not json", "{}", '{"n_products": 5}', '{"n_products": 5, "n_reviewers": 2, "questions": [{"id": "q"}]}',
         payload_json(n_products=10.7),
         payload_json(questions=[{"id": "q1", "n_categories": 2.5, "difficulty": 0.1}]),
         payload_json(seed=True),
         payload_json(treatment={"change_period": 1.9, "error_rate_delta": 0.1}),
         payload_json(n_reviewers="2"),
         payload_json(questions=[{"id": " ", "n_categories": 2, "difficulty": 0.1}])],
    )
    def test_from_json_malformed(self, payload):
        with pytest.raises(ConfigError):
            SimulationConfig.from_json(payload)


class TestGeneration:
    def test_identical_seed_identical_panels(self):
        a_ds, a_truth = simulate_panel(config())
        b_ds, b_truth = simulate_panel(config())
        assert a_ds == b_ds
        assert a_truth == b_truth

    def test_identical_seed_identical_csv_bytes(self):
        out_a, out_b = io.StringIO(), io.StringIO()
        for out in (out_a, out_b):
            ds, _ = simulate_panel(config())
            write_panel_csv(out, [(None, ds.records)])
        assert out_a.getvalue() == out_b.getvalue()

    def test_different_seed_differs(self):
        a_ds, _ = simulate_panel(config(seed=1))
        b_ds, _ = simulate_panel(config(seed=2))
        assert a_ds != b_ds

    def test_zero_difficulty_perfect_agreement(self):
        ds, truth = simulate_panel(config(questions=(QuestionSpec("q1", 2, 0.0),)))
        report = analyze_agreement(ds)
        assert report.per_question["q1"].kappa == 1.0
        assert report.agreement_rate == 1.0
        # perfect reviewers classify like the ground truth
        for record in ds.records:
            assert record.final_classification == truth[record.product_id]

    def test_full_anchoring_copies_first_reviewer(self):
        ds, _ = simulate_panel(
            config(anchoring=1.0, questions=(QuestionSpec("q1", 2, 0.8),), n_products=80)
        )
        assert fleiss_kappa(rating_matrix(ds, "q1")).kappa == 1.0

    def test_max_difficulty_chance_level_kappa(self):
        ds, _ = simulate_panel(
            config(n_products=10_000, questions=(QuestionSpec("q1", 2, 1.0),), seed=77)
        )
        assert abs(fleiss_kappa(rating_matrix(ds, "q1")).kappa) < 0.05

    def test_bias_skews_redrawn_answers(self):
        biased = config(
            n_products=800,
            questions=(QuestionSpec("q1", 2, 1.0),),
            reviewer_bias={"r0": (10.0, 1.0)},
            seed=31,
        )
        ds, _ = simulate_panel(biased)
        r0_answers = [r.answer for r in ds.records if r.reviewer_id == "r0"]
        share_a0 = r0_answers.count("a0") / len(r0_answers)
        assert share_a0 > 0.8

    def test_multi_category_labels_sorted(self):
        ds, _ = simulate_panel(config(questions=(QuestionSpec("q1", 3, 0.5),)))
        assert ds.category_space["q1"] == ("a0", "a1", "a2")

    def test_period_and_team_fields_default_empty(self):
        ds, _ = simulate_panel(config())
        assert all(r.period is None and r.team is None for r in ds.records)


def _consensus_error_rate(dataset, truth):
    by_product: dict[str, dict[str, int]] = {}
    for record in dataset.records:
        counts = by_product.setdefault(record.product_id, {})
        counts[record.final_classification] = counts.get(record.final_classification, 0) + 1
    wrong = 0
    for product, counts in by_product.items():
        consensus = min(counts, key=lambda c: (-counts[c], c))
        wrong += consensus != truth[product]
    return wrong / len(by_product)


class TestAnchoringBehavior:
    def test_anchoring_inflates_kappa_but_degrades_consensus(self):
        base = dict(n_products=1500, questions=(QuestionSpec("q1", 2, 0.3),), seed=404)
        independent_ds, independent_truth = simulate_panel(config(**base, anchoring=0.0))
        anchored_ds, anchored_truth = simulate_panel(config(**base, anchoring=0.9))
        kappa_independent = fleiss_kappa(rating_matrix(independent_ds, "q1")).kappa
        kappa_anchored = fleiss_kappa(rating_matrix(anchored_ds, "q1")).kappa
        assert kappa_anchored > kappa_independent + 0.1
        err_independent = _consensus_error_rate(independent_ds, independent_truth)
        err_anchored = _consensus_error_rate(anchored_ds, anchored_truth)
        assert err_anchored > err_independent


class TestInjectReviewChange:
    def _config(self, delta, **overrides):
        return config(
            n_products=overrides.pop("n_products", 1500),
            questions=(QuestionSpec("q1", 2, 0.1),),
            treatment=Treatment(change_period=1, error_rate_delta=delta),
            seed=overrides.pop("seed", 2718),
            **overrides,
        )

    def test_requires_treatment(self):
        with pytest.raises(ConfigError, match="treatment"):
            inject_review_change(config())

    def test_periods_must_straddle_change(self):
        with pytest.raises(ConfigError, match="straddle"):
            inject_review_change(self._config(0.1), periods=(1, 2))

    @pytest.mark.parametrize("periods", [(0, 1.5), (False, True)])
    def test_periods_must_be_integers(self, periods):
        with pytest.raises(ConfigError, match="periods must be integers"):
            inject_review_change(self._config(0.1, n_products=2), periods=periods)

    def test_null_delta_near_zero_effect(self):
        pair = inject_review_change(self._config(0.0))
        result = did_with_error_rates(
            pair.treated, pair.control, pair.ground_truth, pair.change_period
        )
        assert abs(result.effect) < 0.02

    def test_delta_recovered(self):
        pair = inject_review_change(self._config(0.2))
        result = did_with_error_rates(
            pair.treated, pair.control, pair.ground_truth, pair.change_period
        )
        assert result.effect == pytest.approx(0.2, abs=0.04)

    def test_groups_have_disjoint_products_with_truth(self):
        pair = inject_review_change(self._config(0.1, n_products=40))
        treated_products = {r.product_id for r in pair.treated.records}
        control_products = {r.product_id for r in pair.control.records}
        assert not treated_products & control_products
        for product in treated_products | control_products:
            assert product in pair.ground_truth
