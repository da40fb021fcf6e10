"""Binomial intervals against the exact-tail oracle, regression golden
values, and the bias-factor report."""

import math
import random

import numpy as np
import pytest

from reviewaudit import estimation
from reviewaudit import (
    NonBinaryTargetError,
    RankDeficiencyError,
    SeparationError,
    bias_factor_report,
    binomial_ci,
    logistic_fit,
    ols_fit,
    validate_dataset,
)

from _helpers import rec
from _oracles import clopper_pearson_oracle

from hypothesis import given, settings, strategies as st


class TestClopperPearson:
    def test_zero_errors_golden(self):
        interval = binomial_ci(0, 20)
        assert interval.lower == 0.0
        # upper solves (1 - p)^20 = 0.025
        assert interval.upper == pytest.approx(1.0 - 0.025 ** (1.0 / 20.0), abs=1e-9)

    def test_all_errors_boundary(self):
        interval = binomial_ci(20, 20)
        assert interval.upper == 1.0
        assert interval.lower == pytest.approx(0.025 ** (1.0 / 20.0), abs=1e-9)

    def test_golden_5_of_50(self):
        interval = binomial_ci(5, 50)
        lower, upper = clopper_pearson_oracle(5, 50, 0.95)
        assert interval.lower == pytest.approx(lower, abs=1e-6)
        assert interval.upper == pytest.approx(upper, abs=1e-6)
        assert interval.lower == pytest.approx(0.0333, abs=2e-4)
        assert interval.upper == pytest.approx(0.2181, abs=2e-4)

    def test_oracle_agreement_grid(self):
        rng = random.Random(89)
        for _ in range(25):
            n = rng.randint(1, 80)
            x = rng.randint(0, n)
            level = rng.choice([0.9, 0.95, 0.99])
            interval = binomial_ci(x, n, level=level)
            lower, upper = clopper_pearson_oracle(x, n, level)
            assert interval.lower == pytest.approx(lower, abs=1e-6)
            assert interval.upper == pytest.approx(upper, abs=1e-6)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_containment_invariants(self, n, data):
        x = data.draw(st.integers(min_value=0, max_value=n))
        interval = binomial_ci(x, n)
        assert 0.0 <= interval.lower <= x / n <= interval.upper <= 1.0
        if 0 < x < n:
            assert interval.lower < x / n < interval.upper
        if x == 0:
            assert interval.lower == 0.0
        if x == n:
            assert interval.upper == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": -1, "n": 10},
            {"x": 11, "n": 10},
            {"x": 0, "n": 0},
            {"x": 1, "n": 10, "level": 0.0},
            {"x": 1, "n": 10, "level": 1.0},
            {"x": 1, "n": 10, "method": "jeffreys"},
        ],
    )
    def test_domain(self, kwargs):
        with pytest.raises(ValueError):
            binomial_ci(**kwargs)


class TestWilson:
    def test_within_unit_interval_and_contains_point(self):
        rng = random.Random(97)
        for _ in range(100):
            n = rng.randint(1, 150)
            x = rng.randint(0, n)
            interval = binomial_ci(x, n, method="wilson")
            assert 0.0 <= interval.lower <= x / n <= interval.upper <= 1.0

    def test_no_wider_than_clopper_pearson_inside(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 120)
            x = rng.randint(1, n - 1)
            wilson = binomial_ci(x, n, method="wilson")
            exact = binomial_ci(x, n, method="clopper_pearson")
            assert wilson.width <= exact.width + 1e-12


class TestOls:
    def test_exact_line(self):
        xs = [[float(i)] for i in range(6)]
        ys = [2.0 + 3.0 * i for i in range(6)]
        fit = ols_fit(xs, ys)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-10)
        assert fit.residual_sum_squares == pytest.approx(0.0, abs=1e-18)

    def test_intercept_only_is_mean(self):
        fit = ols_fit([[], [], [], []], [1.0, 2.0, 3.0, 6.0])
        assert fit.coefficients == (pytest.approx(3.0, abs=1e-12),)

    def test_golden_three_points(self):
        fit = ols_fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 3.0])
        assert fit.coefficients[0] == pytest.approx(-1.0 / 6.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(1.5, abs=1e-10)

    def test_rank_deficiency_names_column(self):
        design = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]]
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(design, [1.0, 2.0, 3.0, 4.0], column_names=["a", "double_a"])
        assert err.value.column_name == "double_a"
        assert err.value.column_index == 1

    def test_residual_orthogonality(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(6, 30)
            design = [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(n)]
            response = [rng.uniform(-5, 5) for _ in range(n)]
            fit = ols_fit(design, response)
            x = np.hstack([np.ones((n, 1)), np.asarray(design)])
            resid = np.asarray(response) - x @ np.asarray(fit.coefficients)
            for j in range(x.shape[1]):
                scale = float(np.linalg.norm(x[:, j]) * np.linalg.norm(resid)) or 1.0
                assert abs(float(x[:, j] @ resid)) / scale <= 1e-8

    def test_affine_reparameterization_preserves_predictions(self):
        rng = random.Random(107)
        n = 25
        design = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(n)])
        response = [rng.uniform(-5, 5) for _ in range(n)]
        base = ols_fit(design.tolist(), response)
        transform = np.array([[1.0, 0.3, 0.0], [0.0, 2.0, -1.0], [0.5, 0.0, 1.0]])
        shifted = design @ transform + np.array([0.7, -1.2, 3.0])
        other = ols_fit(shifted.tolist(), response)
        x_base = np.hstack([np.ones((n, 1)), design])
        x_other = np.hstack([np.ones((n, 1)), shifted])
        pred_base = x_base @ np.asarray(base.coefficients)
        pred_other = x_other @ np.asarray(other.coefficients)
        assert np.max(np.abs(pred_base - pred_other)) <= 1e-9
        assert base.residual_sum_squares == pytest.approx(
            other.residual_sum_squares, rel=1e-9, abs=1e-12
        )

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ols_fit([[1.0]], [2.0])


class TestLogistic:
    def test_intercept_only_log_odds(self):
        fit = logistic_fit([[], [], [], []], [1.0, 0.0, 0.0, 0.0])
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(math.log(1.0 / 3.0), abs=1e-8)

    def test_balanced_independent_covariate(self):
        design = []
        labels = []
        for x in range(4):
            for y in (0.0, 1.0):
                for _ in range(5):
                    design.append([float(x)])
                    labels.append(y)
        fit = logistic_fit(design, labels)
        assert fit.converged
        assert abs(fit.coefficients[1]) <= 3.0 * fit.standard_errors[1] + 1e-9

    def test_separation_raises(self):
        with pytest.raises(SeparationError):
            logistic_fit([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 1.0, 1.0])

    def test_fitted_probabilities_sum_to_positive_count(self):
        rng = random.Random(109)
        n = 120
        design = [[rng.uniform(-1.5, 1.5)] for _ in range(n)]
        labels = [
            1.0 if rng.random() < 1.0 / (1.0 + math.exp(-(0.3 + 0.8 * row[0]))) else 0.0
            for row in design
        ]
        fit = logistic_fit(design, labels)
        assert fit.converged
        x = np.hstack([np.ones((n, 1)), np.asarray(design)])
        mu = 1.0 / (1.0 + np.exp(-(x @ np.asarray(fit.coefficients))))
        assert float(mu.sum()) == pytest.approx(sum(labels), abs=1e-6)
        # score equation at the MLE: gradient max-norm below 1e-8
        gradient = x.T @ (np.asarray(labels) - mu)
        assert float(np.max(np.abs(gradient))) <= 1e-8

    def test_label_domain(self):
        with pytest.raises(ValueError):
            logistic_fit([[0.0], [1.0], [2.0]], [0.0, 2.0, 1.0])


def _driven_panel(n=200):
    """qd's answer determines the classification up to 10% deterministic
    flips; qn is uncorrelated noise."""
    rng = random.Random(83)
    records = []
    for p in range(n):
        driver = "yes" if rng.random() < 0.5 else "no"
        noise = "yes" if rng.random() < 0.5 else "no"
        cls = "flag" if driver == "yes" else "ok"
        if p % 10 == 0:
            cls = "ok" if cls == "flag" else "flag"
        records.append(rec(f"p{p:03d}", "r1", "qd", driver, cls))
        records.append(rec(f"p{p:03d}", "r1", "qn", noise, cls))
    return validate_dataset(records)


class TestBiasFactorReport:
    def test_driving_question_ranks_first(self):
        report = bias_factor_report(_driven_panel())
        assert report.effects[0].name == "qd=yes"
        assert report.ranked_by == "logistic"
        top, other = report.effects[0], report.effects[1]
        assert abs(top.logistic_coefficient) > 5.0 * abs(other.logistic_coefficient)

    def test_models_agree_in_sign_for_strong_factor(self):
        report = bias_factor_report(_driven_panel())
        top = report.effects[0]
        assert math.copysign(1.0, top.ols_coefficient) == math.copysign(
            1.0, top.logistic_coefficient
        )

    def test_uncorrelated_factor_near_zero(self):
        # perfectly balanced: answer x classification counts all equal
        records = []
        i = 0
        for answer in ("no", "yes"):
            for cls in ("flag", "ok"):
                for _ in range(25):
                    records.append(rec(f"p{i:03d}", "r1", "q1", answer, cls))
                    i += 1
        report = bias_factor_report(validate_dataset(records))
        effect = report.effects[0]
        assert effect.ols_coefficient == pytest.approx(0.0, abs=1e-10)
        assert effect.logistic_coefficient == pytest.approx(0.0, abs=1e-8)

    def test_constant_factor_rank_deficiency(self):
        records = []
        rng = random.Random(113)
        for p in range(40):
            cls = "flag" if rng.random() < 0.5 else "ok"
            var = "yes" if rng.random() < 0.5 else "no"
            records.append(rec(f"p{p:02d}", "r1", "q_var", var, cls))
            records.append(rec(f"p{p:02d}", "r1", "q_const", "same", cls))
        ds = validate_dataset(records, declared_categories={"q_const": ["same", "other"]})
        # declared space sorts to ("other", "same"), so the encoded column is
        # q_const=same: an all-ones column collinear with the intercept
        with pytest.raises(RankDeficiencyError) as err:
            bias_factor_report(ds)
        assert err.value.column_name == "q_const=same"

    def test_rank_checked_once_per_fit(self, monkeypatch):
        calls = []
        check = estimation._check_rank

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(estimation, "_check_rank", counted)
        bias_factor_report(_driven_panel(n=50))
        assert len(calls) == 2  # ols_fit and logistic_fit

    def test_fewer_units_than_columns(self):
        records = [
            rec(f"p{p}", "r0", f"q{q}", "y" if (p + q) % 2 else "z", "bad" if p else "good")
            for p in range(2) for q in range(1, 5)
        ]
        with pytest.raises(ValueError) as err:
            bias_factor_report(validate_dataset(records))
        assert str(err.value) == "need at least 5 rows for 4 factors plus intercept, got 2"

    def test_non_binary_target(self):
        records = []
        for p, cls in enumerate(["a", "b", "c", "a", "b", "c"]):
            records.append(rec(f"p{p}", "r1", "q1", "yes" if p % 2 else "no", cls))
        with pytest.raises(NonBinaryTargetError):
            bias_factor_report(validate_dataset(records))

    def test_succeeds_when_logistic_separates(self):
        # classification is exactly qd's answer: logistic separates, ols fits
        records = []
        for p in range(30):
            answer = "yes" if p % 2 else "no"
            records.append(
                rec(f"p{p:02d}", "r1", "qd", answer, "flag" if answer == "yes" else "ok")
            )
        report = bias_factor_report(validate_dataset(records))
        assert report.logistic_error is not None
        assert "separation" in report.logistic_error
        assert report.ranked_by == "ols"
        assert report.effects[0].ols_coefficient is not None
        assert report.effects[0].logistic_coefficient is None

    def test_unconverged_logistic_fit_counts_as_failed(self, monkeypatch):
        fit = estimation.logistic_fit
        monkeypatch.setattr(estimation, "logistic_fit",
                            lambda *args, **kwargs: fit(*args, max_iter=2, **kwargs))
        report = bias_factor_report(_driven_panel())
        assert report.logistic_error == "logistic fit did not converge in 2 iterations"
        assert report.ranked_by == "ols"
        assert report.logistic_intercept is None
        assert all(e.logistic_coefficient is None for e in report.effects)
        assert report.effects[0].name == "qd=yes"
