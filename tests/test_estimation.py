"""Binomial intervals against the exact-tail oracle, regression golden
values, and the bias-factor report."""

import collections
import math
import random
import sys
import time

import numpy as np
import pytest

from reviewaudit import estimation, special
from reviewaudit import (
    ConvergenceError,
    DatasetValidationError,
    NonBinaryTargetError,
    RankDeficiencyError,
    ReviewAuditError,
    SeparationError,
    bias_factor_report,
    binomial_ci,
    logistic_fit,
    ols_fit,
    validate_dataset,
)

from _helpers import rec
from _oracles import (
    clopper_pearson_bisection,
    clopper_pearson_oracle,
    normal_quantile_bisection,
    wilson_reference,
)

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
            {"x": True, "n": 10},
            {"x": 1, "n": True},
            {"x": 1.0, "n": 10},
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


class TestBisectionReplay:
    """Each root is bracketed by Newton steps and the plain bisection is then
    replayed; the floats must be the plain bisection's, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.data(),
        st.one_of(
            st.sampled_from([0.9, 0.95, 0.99]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        st.sampled_from(estimation.CI_METHODS),
    )
    def test_same_floats_as_plain_bisection(self, n, data, level, method):
        x = data.draw(st.one_of(st.sampled_from([0, 1, n - 1, n]),
                                st.integers(min_value=0, max_value=n)))
        half_alpha = (1.0 - level) / 2.0
        try:
            if method == "wilson":
                z = normal_quantile_bisection(half_alpha, special.normal_upper_tail)
                assert estimation._normal_quantile_upper(half_alpha) == z
                expected = wilson_reference(x, n, z)
            else:
                expected = clopper_pearson_bisection(
                    x, n, level, special.regularized_incomplete_beta)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                binomial_ci(x, n, level, method)
            return
        interval = binomial_ci(x, n, level, method)
        assert (interval.lower, interval.upper) == expected

    def test_kernel_call_budget(self, monkeypatch):
        calls = collections.Counter()
        per_root = []

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        def root(*args, **kwargs):
            before = sum(calls.values())
            value = find_root(*args, **kwargs)
            per_root.append(sum(calls.values()) - before)
            return value

        find_root = estimation._bisection_root
        monkeypatch.setattr(estimation, "_bisection_root", root)
        monkeypatch.setattr(estimation, "regularized_incomplete_beta",
                            counted("beta", special.regularized_incomplete_beta))
        monkeypatch.setattr(estimation, "normal_upper_tail",
                            counted("normal", special.normal_upper_tail))
        for n in (20, 37, 50, 100, 233, 500, 1000, 2000):
            for x in sorted({0, 1, 2, n // 10, n // 2, n - 1, n}):
                for level in (0.9, 0.95, 0.99):
                    calls.clear()
                    per_root.clear()
                    binomial_ci(x, n, level)
                    assert len(per_root) == (x > 0) + (x < n)
                    assert max(per_root) <= 16 and calls["normal"] == 0
                    # z is cached per level: a cold call bisects it within
                    # the budget, a second call at the level bisects nothing.
                    estimation._normal_quantile_upper.cache_clear()
                    calls.clear()
                    per_root.clear()
                    binomial_ci(x, n, level, method="wilson")
                    assert per_root == [calls["normal"]] and calls["normal"] <= 8
                    calls.clear()
                    per_root.clear()
                    binomial_ci(x, n, level, method="wilson")
                    assert per_root == [] and calls["normal"] == 0

    def test_extreme_level_keeps_finite_bounds(self):
        interval = binomial_ci(1, 10**6, 0.999999)
        assert 0.0 < interval.lower < 1e-6 < interval.upper < 1.0
        assert math.isfinite(interval.width)

    def test_kernel_failure_near_the_mean_still_raises(self):
        # ROADMAP item 3: with both shapes near 10^6 the continued fraction
        # fails within about 1e-5 of p = 0.5, where a 1% interval's roots lie.
        with pytest.raises(ConvergenceError):
            special.regularized_incomplete_beta(0.5, 1000000, 1000001)
        with pytest.raises(ConvergenceError):
            binomial_ci(1000000, 2000000, 0.01)

    @pytest.mark.parametrize("method", ["clopper_pearson", "wilson"])
    def test_n_beyond_float_range_rejected(self, method):
        # 10**310 exceeds the largest float; the Wilson form's z * z / n
        # would raise OverflowError converting it.
        with pytest.raises(ValueError, match="largest float"):
            binomial_ci(1, 10**310, method=method)
        with pytest.raises(ValueError, match="largest float"):
            binomial_ci(1, int(sys.float_info.max) + 1, method=method)

    @pytest.mark.parametrize("exponent", [155, 200, 300])
    def test_huge_n_fails_as_a_kernel_error(self, exponent):
        # ROADMAP item 3: the continued fraction does not converge for shapes
        # this large; the products of integer shapes used to overflow instead.
        with pytest.raises(ConvergenceError):
            binomial_ci(1, 10**exponent)

    def test_bounds_away_from_a_failing_midpoint(self):
        # Plain bisection raised here at its first midpoint, p = 0.5; the
        # roots themselves lie where the kernel converges.
        interval = binomial_ci(1000000, 2000000)
        half = 1.959963984540054 * math.sqrt(0.25 / 2000000)
        assert interval.lower == pytest.approx(0.5 - half, abs=1e-6)
        assert interval.upper == pytest.approx(0.5 + half, abs=1e-6)


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


def test_fits_do_not_depend_on_the_design_memory_order():
    # A Fortran-ordered copy of a design gives the same floats to the last
    # digit; the 0/1 columns are those of the bias design.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        design = rng.integers(0, 2, (400, 8)).astype(float)
        labels = (rng.random(400) < 0.3 + 0.4 * design[:, 0]).astype(float)
        fortran = np.asfortranarray(design)
        assert ols_fit(fortran, labels) == ols_fit(design, labels)
        assert logistic_fit(fortran, labels) == logistic_fit(design, labels)


def _fit_outcome(fit, design, target, **kwargs):
    """A fit, or the (type, message) of the error it raised."""
    try:
        return fit(design, target, **kwargs)
    except (ReviewAuditError, ValueError) as exc:
        return (type(exc), str(exc))


def _assert_fits_close(merged, full):
    if isinstance(full, tuple):
        assert merged == full
        return
    assert isinstance(merged, estimation.RegressionFit)
    assert (merged.model, merged.design_column_names, merged.converged, merged.iterations) == \
        (full.model, full.design_column_names, full.converged, full.iterations)
    got = merged.coefficients + merged.standard_errors
    want = full.coefficients + full.standard_errors
    for name in ("residual_sum_squares", "log_likelihood"):
        if getattr(full, name) is not None:
            got, want = got + (getattr(merged, name),), want + (getattr(full, name),)
    # 1e-12 relative, or 1e-15 absolute for values near 0
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@st.composite
def _repeated_rows(draw):
    """Distinct 0/1 design rows with 0/1 targets and unit counts, and the
    same design with each row repeated count times. Few rows make rank
    deficiency, and few targets separation, common."""
    k = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=1, max_value=10))
    masks = draw(st.lists(st.integers(min_value=0, max_value=2**k - 1), min_size=m, max_size=m))
    target = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), float)
    counts = np.array(draw(st.lists(st.integers(min_value=1, max_value=12),
                                    min_size=m, max_size=m)))
    design = (np.array(masks)[:, None] >> np.arange(k) & 1).astype(float)
    return design, target, counts


class TestCounts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_repeated_rows())
    def test_merged_rows_fit_as_the_repeated_rows(self, rows):
        design, target, counts = rows
        for fit in (ols_fit, logistic_fit):
            merged = _fit_outcome(fit, design, target, counts=counts)
            full = _fit_outcome(fit, np.repeat(design, counts, axis=0),
                                np.repeat(target, counts))
            _assert_fits_close(merged, full)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_repeated_rows())
    def test_unit_counts_change_no_bit(self, rows):
        design, target, _ = rows
        ones = np.ones(len(target), np.int64)
        for fit in (ols_fit, logistic_fit):
            assert _fit_outcome(fit, design, target, counts=ones) == \
                _fit_outcome(fit, design, target)
            assert _fit_outcome(fit, design, target, counts=ones.astype(float)) == \
                _fit_outcome(fit, design, target)

    def test_merged_errors_name_what_the_full_rows_do(self):
        # two distinct rows for three columns, 40 units: the rank check,
        # not the row count, stops both fits
        design = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        target, counts = np.array([1.0, 0.0]), np.array([15, 25])
        for fit in (ols_fit, logistic_fit):
            merged = _fit_outcome(fit, design, target, counts=counts, column_names="abc")
            assert merged == (RankDeficiencyError,
                              "design matrix is rank deficient at column 1 ('b')")
            assert merged == _fit_outcome(fit, np.repeat(design, counts, axis=0),
                                          np.repeat(target, counts), column_names="abc")
        separated = np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), np.array([3, 4])
        merged = _fit_outcome(logistic_fit, *separated[:2], counts=separated[2])
        assert merged[0] is SeparationError
        assert merged == _fit_outcome(logistic_fit, np.repeat(separated[0], separated[2], axis=0),
                                      np.repeat(separated[1], separated[2]))
        # the counts, not the distinct rows, must outnumber the columns
        for fit in (ols_fit, logistic_fit):
            assert _fit_outcome(fit, design, target, counts=[1, 2]) == \
                (ValueError, "need at least 4 rows for 3 factors plus intercept, got 3")

    @pytest.mark.parametrize("counts", [
        [1, 0, 2], [1, -1, 2], [1, 2.5, 2], [1, 2], [1, 2, 3, 4], [[1, 2, 3]],
        [1, float("nan"), 2], [1, float("inf"), 2], [True, True, True], ["1", "2", "3"],
    ], ids=repr)
    def test_bad_counts_raise(self, counts):
        design, target = [[0.0], [1.0], [1.0]], [0.0, 1.0, 0.0]
        for fit in (ols_fit, logistic_fit):
            with pytest.raises(ValueError, match="counts"):
                fit(design, target, counts=counts)


def _merged_rows_oracle(digits, radices, target):
    """_merge_rows in Python ints: the mixed-radix key of each (row, target)
    pair, counted, and decoded in increasing key order."""
    counted = collections.Counter()
    for row, t in zip(digits, target):
        key = 0
        for digit, radix in zip(row, radices):
            key = key * radix + digit
        counted[2 * key + t] += 1
    rows, targets = [], []
    for key in sorted(counted):
        group, t = divmod(key, 2)
        row = []
        for radix in reversed(radices):
            group, digit = divmod(group, radix)
            row.append(digit)
        rows.append(row[::-1])
        targets.append(t)
    return rows, targets, [counted[key] for key in sorted(counted)]


@st.composite
def _mixed_radix_rows(draw):
    """int64 digits under their radices, with 0/1 targets. The answer
    columns share one radix, as in _encode_units, and a trailing team column
    may have its own; or a last radix brings the radices' product times 2 to
    just under 2**63."""
    n_answers = draw(st.integers(min_value=1, max_value=4))
    radices = [draw(st.integers(min_value=1, max_value=6))] * n_answers
    shape = draw(st.sampled_from(["answers", "team", "widest"]))
    if shape == "team":
        radices.append(draw(st.integers(min_value=2, max_value=5)))
    elif shape == "widest":
        radices.append(2**62 // math.prod(radices) - draw(st.integers(min_value=0, max_value=2)))
    n = draw(st.integers(min_value=1, max_value=40))
    digits = [[draw(st.integers(min_value=0, max_value=radix - 1)) for radix in radices]
              for _ in range(n)]
    target = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    return digits, radices, target


class TestMergeRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mixed_radix_rows())
    def test_rows_match_a_python_int_oracle(self, drawn):
        digits, radices, target = drawn
        assert 2 * math.prod(radices) <= 2**63
        rows, targets, counts = estimation._merge_rows(
            np.array(digits, np.int64), radices, np.array(target, np.int64))
        assert (rows.dtype, targets.dtype, rows.shape) == \
            (np.int64, np.int64, (len(targets), len(radices)))
        assert (rows.tolist(), targets.tolist(), counts.tolist()) == \
            _merged_rows_oracle(digits, radices, target)


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
        assert len(calls) == 1  # logistic_fit; ols_fit's rank comes from its lstsq

    @pytest.mark.parametrize("factor", ["q9", ["qd"], {"qd": 1}, 3, None])
    def test_unknown_or_unhashable_factor(self, factor):
        with pytest.raises(DatasetValidationError) as err:
            bias_factor_report(_driven_panel(n=20), ["qd", factor])
        assert str(err.value) == f"factor {factor!r} is not a question in the dataset"

    def test_sparse_factors_are_looked_up_by_index(self):
        # 10,000 products x 2 reviewers, each product with its own question,
        # and every question a factor: a unit answers only one of them. A
        # scan of the questions per factor took 1.4 s on a 2 vCPU Xeon;
        # an index lookup takes a few milliseconds.
        records = [rec(f"p{p:05d}", f"r{r}", f"q{p:05d}", f"a{r}", ("reject", "approve")[r])
                   for p in range(10000) for r in range(2)]
        dataset = validate_dataset(records)
        start = time.perf_counter()
        with pytest.raises(DatasetValidationError, match="no .* unit covers every factor"):
            bias_factor_report(dataset)
        assert time.perf_counter() - start < 0.25

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

    def test_large_designs_are_fitted_on_merged_rows(self, monkeypatch):
        # One unit a product; qa's answer drives the verdict up to noise.
        rng = random.Random(127)
        records = []
        for p in range(estimation.MERGE_UNITS):
            a, b = rng.choice("xyz"), rng.choice("uv")
            cls = "flag" if (a == "x") != (rng.random() < 0.2) else "ok"
            for q, answer in (("qa", a), ("qb", b)):
                records.append(rec(f"p{p:05d}", "r1", q, answer, cls, team=f"t{p % 3}"))
        factors = ["qa", "qb", "team"]
        seen = []
        for name in ("ols_fit", "logistic_fit"):
            fit = getattr(estimation, name)
            monkeypatch.setattr(estimation, name, lambda *args, fit=fit, **kwargs: (
                seen.append((fit.__name__, kwargs.get("counts"))), fit(*args, **kwargs))[1])

        merged = bias_factor_report(validate_dataset(records), factors)
        assert [name for name, _ in seen] == ["ols_fit", "logistic_fit"]
        counts = seen[0][1]
        assert seen[1][1] is counts and counts.sum() == estimation.MERGE_UNITS
        assert len(counts) <= 3 * 2 * 3 * 2  # qa x qb x team x verdict
        assert merged.n_rows == estimation.MERGE_UNITS and merged.ranked_by == "logistic"

        seen.clear()
        below = bias_factor_report(validate_dataset(records[2:]), factors)
        assert [name for name, _ in seen] == ["ols_fit", "logistic_fit"]
        counts = seen[0][1]
        assert seen[1][1] is counts and counts.tolist() == [1] * (estimation.MERGE_UNITS - 1)
        assert below.n_rows == estimation.MERGE_UNITS - 1

        # A row per unit gives the same reports to 1e-12.
        dataset = validate_dataset(records)
        for factors in (factors, ["team"], ["qb", "qa"]):
            merged = bias_factor_report(dataset, factors)
            with monkeypatch.context() as patch:
                patch.setattr(estimation, "MERGE_UNITS", estimation.MERGE_UNITS + 1)
                full = bias_factor_report(dataset, factors)
            assert [counts.max() == 1 for _, counts in seen[-4:]] == [False, False, True, True]
            assert [e.name for e in merged.effects] == [e.name for e in full.effects]
            assert (merged.n_rows, merged.target_labels, merged.logistic_error) == \
                (full.n_rows, full.target_labels, full.logistic_error)
            assert (merged.ols_intercept, merged.logistic_intercept) == \
                pytest.approx((full.ols_intercept, full.logistic_intercept), rel=1e-12, abs=1e-15)
            values = [(e.ols_coefficient, e.logistic_coefficient) for e in merged.effects]
            assert values == [pytest.approx((e.ols_coefficient, e.logistic_coefficient),
                                            rel=1e-12, abs=1e-15) for e in full.effects]

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
