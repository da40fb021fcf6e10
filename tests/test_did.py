"""Difference-in-Differences estimator and its invariances."""

import random

import pytest

from reviewaudit import (
    DidPanel,
    MissingGroundTruthError,
    PanelError,
    did_estimate,
    did_with_error_rates,
    validate_dataset,
)
from reviewaudit.did import reviewer_classifications
from reviewaudit.model import PERIOD, PRODUCT, REVIEWER

from _helpers import rec


def panel_2x2(c_pre, c_post, t_pre, t_post):
    return DidPanel(
        observations=(
            ("control", 0, c_pre),
            ("control", 1, c_post),
            ("treated", 0, t_pre),
            ("treated", 1, t_post),
        ),
        change_period=1,
    )


class TestDidEstimate:
    def test_parallel_trends_no_effect(self):
        assert did_estimate(panel_2x2(10.0, 14.0, 20.0, 24.0)).effect == 0.0

    def test_golden_effect_six(self):
        result = did_estimate(panel_2x2(10.0, 14.0, 20.0, 30.0))
        assert result.effect == 6.0
        assert result.treated_pre_mean == 20.0
        assert result.control_post_mean == 14.0
        assert result.counterfactual == ((1, 24.0),)

    def test_constant_shift_invariance(self):
        base = did_estimate(panel_2x2(10.0, 14.0, 20.0, 30.0)).effect
        shifted = did_estimate(panel_2x2(110.0, 114.0, 120.0, 130.0)).effect
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_label_swap_negates_effect(self):
        base = panel_2x2(10.0, 14.0, 20.0, 30.0)
        swapped = DidPanel(
            observations=tuple(
                ("treated" if g == "control" else "control", p, v)
                for g, p, v in base.observations
            ),
            change_period=1,
        )
        assert did_estimate(swapped).effect == pytest.approx(
            -did_estimate(base).effect, abs=1e-12
        )

    def test_common_period_shock_cancels(self):
        rng = random.Random(127)
        observations = []
        shocks = {p: rng.uniform(-3.0, 3.0) for p in range(6)}
        for group, level in (("control", 5.0), ("treated", 9.0)):
            for period in range(6):
                for _ in range(4):
                    observations.append(
                        (group, period, level + shocks[period] + 0.5 * period)
                    )
        panel = DidPanel(observations=tuple(observations), change_period=3)
        assert did_estimate(panel).effect == pytest.approx(0.0, abs=1e-9)

    def test_counterfactual_equals_actual_under_parallel_trends(self):
        observations = []
        for period in range(4):
            observations.append(("control", period, 10.0 + 2.0 * period))
            observations.append(("treated", period, 25.0 + 2.0 * period))
        panel = DidPanel(observations=tuple(observations), change_period=2)
        result = did_estimate(panel)
        assert result.effect == pytest.approx(0.0, abs=1e-9)
        actual = dict(result.per_group_series["treated"])
        for period, value in result.counterfactual:
            assert value == pytest.approx(actual[period], abs=1e-9)

    def test_multi_period_collapses_to_2x2_headline(self):
        observations = [
            ("control", 0, 1.0), ("control", 1, 3.0),
            ("control", 2, 5.0), ("control", 3, 7.0),
            ("treated", 0, 2.0), ("treated", 1, 4.0),
            ("treated", 2, 9.0), ("treated", 3, 11.0),
        ]
        panel = DidPanel(observations=tuple(observations), change_period=2)
        result = did_estimate(panel)
        # era means: control 2 -> 6, treated 3 -> 10
        assert result.effect == pytest.approx(3.0, abs=1e-12)
        assert result.counterfactual == ((2, 6.0), (3, 8.0))

    def test_period_balanced_weighting(self):
        # unbalanced cell sizes: pooled and period-balanced era means differ
        observations = (
            ("control", 0, 0.0),
            ("control", 1, 0.0),
            ("treated", 0, 0.0),
            ("treated", 1, 10.0),
            ("treated", 2, 20.0),
            ("treated", 2, 20.0),
            ("treated", 2, 20.0),
        )
        panel = DidPanel(observations=observations, change_period=1)
        pooled = did_estimate(panel)
        balanced = did_estimate(panel, period_balanced=True)
        assert pooled.treated_post_mean == pytest.approx(17.5)
        assert balanced.treated_post_mean == pytest.approx(15.0)

    def test_bootstrap_se_deterministic(self):
        rng = random.Random(131)
        observations = tuple(
            (group, period, rng.uniform(0.0, 1.0))
            for group in ("control", "treated")
            for period in (0, 1)
            for _ in range(30)
        )
        panel = DidPanel(observations=observations, change_period=1)
        a = did_estimate(panel, bootstrap=200, seed=5)
        b = did_estimate(panel, bootstrap=200, seed=5)
        assert a.effect_se == b.effect_se
        assert a.effect_se > 0.0
        assert did_estimate(panel).effect_se is None

    @pytest.mark.parametrize("bootstrap", [0, -3, True, 2.5, "3"])
    def test_bootstrap_count_must_be_positive_integer(self, bootstrap):
        observations = tuple(
            (group, period, float(period))
            for group in ("control", "treated")
            for period in (0, 1)
        )
        panel = DidPanel(observations=observations, change_period=1)
        with pytest.raises(ValueError, match="bootstrap replicate count must be an integer >= 1"):
            did_estimate(panel, bootstrap=bootstrap)


class TestPanelValidation:
    def test_empty_panel(self):
        with pytest.raises(PanelError):
            DidPanel(observations=(), change_period=0)

    def test_unknown_group(self):
        with pytest.raises(PanelError, match="group"):
            DidPanel(observations=(("exposed", 0, 1.0),), change_period=1)

    def test_missing_era(self):
        with pytest.raises(PanelError, match="pre"):
            DidPanel(
                observations=(
                    ("control", 1, 1.0),
                    ("treated", 0, 1.0),
                    ("treated", 1, 1.0),
                ),
                change_period=1,
            )

    def test_non_integer_period(self):
        for period in (0.5, True, False):
            with pytest.raises(PanelError, match="period must be an integer"):
                DidPanel(observations=(("control", period, 1.0),), change_period=1)
        observations = panel_2x2(0.0, 1.0, 0.0, 2.0).observations
        for change_period in (0.5, True, "1"):
            with pytest.raises(PanelError, match="change_period must be an integer"):
                DidPanel(observations=observations, change_period=change_period)


def _review_group(group, period, error_products, n=6):
    """One (group, period) slice; listed products are misclassified."""
    records = []
    for i in range(n):
        product = f"{group}-{period}-p{i}"
        label = "bad" if i in error_products else "good"
        records.append(
            rec(product, "r1", "q1", "x", classification=label, period=period)
        )
    return records


class TestDidWithErrorRates:
    def _truth(self, records):
        return {r.product_id: "good" for r in records}

    def test_identical_quality_zero_effect(self):
        treated = _review_group("treated", 0, {0}) + _review_group("treated", 1, {0})
        control = _review_group("control", 0, {0}) + _review_group("control", 1, {0})
        truth = self._truth(treated + control)
        result = did_with_error_rates(
            validate_dataset(treated), validate_dataset(control), truth, 1
        )
        assert result.effect == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_rate_shift(self):
        # error rates: control 1/6 -> 1/6, treated 1/6 -> 3/6
        treated = _review_group("treated", 0, {0}) + _review_group("treated", 1, {0, 1, 2})
        control = _review_group("control", 0, {0}) + _review_group("control", 1, {0})
        truth = self._truth(treated + control)
        result = did_with_error_rates(
            validate_dataset(treated), validate_dataset(control), truth, 1
        )
        assert result.effect == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_missing_ground_truth_raises(self):
        treated = _review_group("treated", 0, set()) + _review_group("treated", 1, set())
        control = _review_group("control", 0, set()) + _review_group("control", 1, set())
        truth = self._truth(treated + control)
        del truth["treated-0-p0"]
        with pytest.raises(MissingGroundTruthError, match="treated-0-p0"):
            did_with_error_rates(
                validate_dataset(treated), validate_dataset(control), truth, 1
            )

    def test_empty_ground_truth_raises(self):
        treated = _review_group("treated", 0, set()) + _review_group("treated", 1, set())
        control = _review_group("control", 0, set()) + _review_group("control", 1, set())
        with pytest.raises(MissingGroundTruthError):
            did_with_error_rates(
                validate_dataset(treated), validate_dataset(control), {}, 1
            )

    def test_missing_period_raises(self):
        treated = [rec("t-p0", "r1", "q1", "x", "good")]
        control = _review_group("control", 0, set()) + _review_group("control", 1, set())
        truth = {r.product_id: "good" for r in treated + control}
        with pytest.raises(PanelError, match="period"):
            did_with_error_rates(
                validate_dataset(treated), validate_dataset(control), truth, 1
            )

    def test_periods_per_unit(self):
        records = _review_group("treated", 0, set(), n=2) + _review_group("treated", 1, set(), n=1)
        ds = validate_dataset(records)
        labels = ds.records.labels
        keys = zip(map(labels[PRODUCT].__getitem__, ds.units.product.tolist()),
                   map(labels[REVIEWER].__getitem__, ds.units.reviewer.tolist()))
        periods = map(labels[PERIOD].__getitem__, reviewer_classifications(ds).tolist())
        assert list(zip(keys, periods)) == [
            (("treated-0-p0", "r1"), 0), (("treated-0-p1", "r1"), 0), (("treated-1-p0", "r1"), 1),
        ]

    def test_mixed_periods_raise_before_missing_truth(self):
        treated = _review_group("treated", 0, set()) + _review_group("treated", 1, set())
        treated.append(rec("treated-0-p0", "r1", "q2", "x", "good", period=1))
        control = _review_group("control", 0, set()) + _review_group("control", 1, set())
        with pytest.raises(
            PanelError,
            match=r"unit \(product='treated-0-p0', reviewer='r1'\) spans multiple periods",
        ):
            did_with_error_rates(validate_dataset(treated), validate_dataset(control), {}, 1)
