"""Difference-in-Differences estimator and its invariances."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import (
    DidPanel,
    DidResult,
    MissingGroundTruthError,
    PanelError,
    ReviewAuditError,
    did_estimate,
    did_with_error_rates,
    validate_dataset,
)
from reviewaudit.did import reviewer_classifications
from reviewaudit.hypotheses import _mean
from reviewaudit.model import PERIOD, PRODUCT, REVIEWER, ReviewDataset, is_int
from reviewaudit.rng import derive_stream

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

    def test_period_beyond_int64(self):
        for period in (2**63, -(2**63) - 1):
            with pytest.raises(PanelError, match="^periods must fit in 64 bits$"):
                DidPanel(observations=(("control", period, 1.0),), change_period=1)

    def test_panel_is_immutable(self):
        panel = panel_2x2(0.0, 1.0, 0.0, 2.0)
        with pytest.raises(AttributeError):
            panel.change_period = 0
        with pytest.raises(ValueError):
            panel.outcome[0] = 5.0
        assert panel.observations == (("control", 0, 0.0), ("control", 1, 1.0),
                                      ("treated", 0, 0.0), ("treated", 1, 2.0))

    def test_non_numeric_outcome(self):
        for outcome in (None, "1.5", float("nan"), float("inf")):
            with pytest.raises(PanelError, match="outcome must be finite"):
                DidPanel(observations=(("control", 0, outcome),), change_period=1)


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


def _tuple_implementation():
    """The estimator as it was when the panel was held as observation
    tuples, copied verbatim (only indented into this function)."""
    GROUPS = ("treated", "control")


    @dataclass(frozen=True)
    class DidPanel:
        observations: tuple[tuple[str, int, float], ...]
        change_period: int

        def __post_init__(self):
            if not self.observations:
                raise PanelError("panel has no observations")
            if not is_int(self.change_period):
                raise PanelError(f"change_period must be an integer, got {self.change_period!r}")
            for group, period, outcome in self.observations:
                if group not in GROUPS:
                    raise PanelError(f"group must be one of {GROUPS}, got {group!r}")
                if not is_int(period):
                    raise PanelError(f"period must be an integer, got {period!r}")
                if not math.isfinite(outcome):
                    raise PanelError(f"outcome must be finite, got {outcome!r}")
            for group in GROUPS:
                for era, want_pre in (("pre", True), ("post", False)):
                    if not any(
                        g == group and ((p < self.change_period) == want_pre)
                        for g, p, _ in self.observations
                    ):
                        raise PanelError(f"{group} group has no {era}-period observations")


    @dataclass(frozen=True)
    class DidResult:
        effect: float
        treated_pre_mean: float
        treated_post_mean: float
        control_pre_mean: float
        control_post_mean: float
        counterfactual: tuple[tuple[int, float], ...]
        per_group_series: Mapping[str, tuple[tuple[int, float], ...]]
        effect_se: float | None = None


    def _collect(panel: DidPanel) -> dict[str, dict[int, list[float]]]:
        cells: dict[str, dict[int, list[float]]] = {g: {} for g in GROUPS}
        for group, period, outcome in panel.observations:
            cells[group].setdefault(period, []).append(outcome)
        return cells


    def _estimate(cells: dict[str, dict[int, list[float]]], change_period: int,
                  period_balanced: bool) -> tuple[float, list[float]]:
        means = []
        for group in GROUPS:
            for pre in (True, False):
                periods = [p for p in cells[group] if (p < change_period) == pre]
                if period_balanced:
                    means.append(
                        _mean([_mean(cells[group][p]) for p in sorted(periods)])
                    )
                else:
                    pooled = [v for p in periods for v in cells[group][p]]
                    means.append(_mean(pooled))
        t_pre, t_post, c_pre, c_post = means
        return (t_post - t_pre) - (c_post - c_pre), means


    def did_estimate(
        panel: DidPanel,
        period_balanced: bool = False,
        bootstrap: int | None = None,
        seed: int = 0,
    ) -> DidResult:
        """Treatment effect, era means, per-period series, and the post-period
        counterfactual for the treated group.

        bootstrap, when set to a replicate count, resamples observations within
        each (group, period) cell to attach a bootstrap standard error; it is
        off by default because the estimator is presented as a point
        comparison.
        """
        cells = _collect(panel)
        effect, (t_pre, t_post, c_pre, c_post) = _estimate(cells, panel.change_period, period_balanced)

        series = {
            group: tuple(
                (p, _mean(cells[group][p])) for p in sorted(cells[group])
            )
            for group in GROUPS
        }
        control_by_period = dict(series["control"])
        counterfactual = tuple(
            (p, t_pre + (control_by_period[p] - c_pre))
            for p, _ in series["treated"]
            if p >= panel.change_period and p in control_by_period
        )

        effect_se = None
        if bootstrap is not None:
            if not (is_int(bootstrap) and bootstrap >= 1):
                raise ValueError(f"bootstrap replicate count must be an integer >= 1, got {bootstrap!r}")
            replicates = []
            for rep in range(bootstrap):
                stream = derive_stream(seed, 0xD1D, rep)
                resampled: dict[str, dict[int, list[float]]] = {g: {} for g in GROUPS}
                for group in GROUPS:
                    for period, values in cells[group].items():
                        resampled[group][period] = [
                            values[stream.randbelow(len(values))] for _ in values
                        ]
                replicates.append(_estimate(resampled, panel.change_period, period_balanced)[0])
            mean_rep = _mean(replicates)
            effect_se = math.sqrt(
                math.fsum((r - mean_rep) ** 2 for r in replicates) / len(replicates)
            )

        return DidResult(
            effect=effect,
            treated_pre_mean=t_pre,
            treated_post_mean=t_post,
            control_pre_mean=c_pre,
            control_post_mean=c_post,
            counterfactual=counterfactual,
            per_group_series=series,
            effect_se=effect_se,
        )


    def reviewer_classifications(dataset: ReviewDataset) -> np.ndarray:
        """Period code per (product, reviewer) unit, aligned with dataset.units;
        codes index dataset.records.labels[PERIOD].

        Every record of a unit must carry the same period (or none); a unit
        spanning periods raises PanelError.
        """
        periods, conflict = dataset.unit_field("period")
        if conflict is not None:
            product, reviewer, _, _ = conflict
            raise PanelError(
                f"unit (product={product!r}, reviewer={reviewer!r}) spans multiple periods"
            )
        return periods


    def did_with_error_rates(
        treated: ReviewDataset,
        control: ReviewDataset,
        ground_truth: Mapping[str, str],
        change_period: int,
        period_balanced: bool = False,
    ) -> DidResult:
        """Difference-in-Differences where the outcome is the misclassification
        rate against ground truth.

        Each (product, reviewer) unit contributes a 0/1 outcome: 1 when the
        reviewer's majority classification disagrees with the product's true
        classification. Records must carry a period.
        """
        observations: list[tuple[str, int, float]] = []
        for group, dataset in (("treated", treated), ("control", control)):
            units = dataset.units  # first, so a team conflict is reported first
            periods = reviewer_classifications(dataset)
            errors, _ = dataset.unit_errors(ground_truth)
            if not periods.all():  # code 0 is no period
                product = units.product[np.argmin(periods)]
                raise PanelError(
                    f"record for product {dataset.records.labels[PRODUCT][product]!r} lacks a "
                    "period; difference-in-differences needs period-tagged data"
                )
            table = dataset.records.labels[PERIOD]
            observations.extend(zip(repeat(group), map(table.__getitem__, periods.tolist()),
                                    errors.astype(float).tolist()))
        panel = DidPanel(observations=tuple(observations), change_period=change_period)
        return did_estimate(panel, period_balanced=period_balanced)

    return DidPanel, did_estimate, did_with_error_rates


OldPanel, old_estimate, old_with_error_rates = _tuple_implementation()


def _outcome_of(fn, *args, **kwargs):
    """fn's result, or the error's class and message."""
    try:
        return fn(*args, **kwargs)
    except ReviewAuditError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    """Equal DidResults, floats to the bit and Python types throughout."""
    want = DidResult(**vars(want))
    assert got == want and repr(got) == repr(want)


_OUTCOME_KINDS = (
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 40).map(float),
    st.floats(-1e3, 1e3),
    st.one_of(st.integers(-5, 5).map(float), st.floats(-1.0, 1.0)),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1e16]),  # sums that a running total rounds
)


@st.composite
def _panels(draw):
    """Observations in shuffled order with both eras in both groups, cells
    of one observation or more, and eras of one period or several."""
    change = draw(st.integers(-1, 2))
    outcome = draw(st.sampled_from(_OUTCOME_KINDS))
    required = [(group, change + offset, draw(outcome))
                for group in ("treated", "control")
                for offset in (draw(st.integers(-2, -1)), draw(st.integers(0, 1)))]
    extra = draw(st.lists(st.tuples(st.sampled_from(("treated", "control")),
                                    st.integers(change - 3, change + 2), outcome), max_size=40))
    return tuple(draw(st.permutations(required + extra))), change


@settings(max_examples=300, deadline=None)
@given(_panels(), st.booleans(), st.sampled_from([None, 1, 7]), st.integers(0, 2 ** 64 - 1))
def test_estimate_matches_the_tuple_implementation(panel, period_balanced, bootstrap, seed):
    observations, change = panel
    want = old_estimate(OldPanel(observations=observations, change_period=change),
                        period_balanced=period_balanced, bootstrap=bootstrap, seed=seed)
    new = DidPanel(observations=observations, change_period=change)
    assert new.observations == observations
    _assert_same(did_estimate(new, period_balanced=period_balanced, bootstrap=bootstrap, seed=seed),
                 want)


def _error_case(name):
    treated = _review_group("treated", 0, {0}) + _review_group("treated", 1, {1, 2})
    control = _review_group("control", 0, set()) + _review_group("control", 1, {3})
    truth = {r.product_id: "good" for r in treated + control}
    if name == "team conflict":  # before the missing truth
        treated.append(rec("treated-0-p1", "r1", "q2", "x", "good", team="A", period=0))
        del truth["control-1-p0"]
    elif name == "period conflict":  # before the missing truth
        control.append(rec("control-0-p2", "r1", "q2", "x", "good", period=1))
        del truth["control-0-p0"]
    elif name == "missing truth":  # before the missing period
        treated.append(rec("treated-x", "r1", "q1", "x", "good"))
        del truth["treated-1-p4"]
    elif name == "missing period":
        control.append(rec("control-x", "r1", "q1", "x", "bad"))
        truth["control-x"] = "good"
    elif name == "missing era":
        control = [r for r in control if r.period == 0]
    return validate_dataset(treated), validate_dataset(control), truth


@pytest.mark.parametrize("name", ["none", "team conflict", "period conflict", "missing truth",
                                  "missing period", "missing era"])
@pytest.mark.parametrize("period_balanced", [False, True])
def test_error_rates_match_the_tuple_implementation(name, period_balanced):
    treated, control, truth = _error_case(name)
    got = _outcome_of(did_with_error_rates, treated, control, truth, 1, period_balanced)
    want = _outcome_of(old_with_error_rates, treated, control, truth, 1, period_balanced)
    if name == "none":
        _assert_same(got, want)
    else:
        assert isinstance(got, tuple) and got == want
