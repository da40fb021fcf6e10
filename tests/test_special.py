"""Special-function kernels against independent quadrature/series oracles."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import ConvergenceError, special
from reviewaudit.special import (
    chi_square_upper_tail,
    f_upper_tail,
    log_gamma,
    normal_upper_tail,
    regularized_incomplete_beta,
    regularized_incomplete_gamma_lower,
    regularized_incomplete_gamma_upper,
    student_t_upper_tail,
    tail_area,
)

from _oracles import (
    chi_square_upper_oracle,
    f_upper_oracle,
    gamma_lower_oracle,
    normal_upper_oracle,
    student_t_upper_oracle,
)


class TestLogGamma:
    def test_golden_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-12)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_recurrence_small_range(self):
        # |log_gamma| stays below ~1.1e4 here, so the 1e-11 absolute bound
        # is comfortably above the float64 representation granularity
        rng = random.Random(2024)
        for _ in range(400):
            x = math.exp(rng.uniform(math.log(0.5), math.log(1500.0)))
            resid = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
            assert resid <= 1e-11, f"x={x}: residual {resid}"

    def test_recurrence_full_range(self):
        # near x = 1e4 the value is ~8e4, where a float64 ulp is ~1.5e-11:
        # two representation roundings alone can exceed a bare 1e-11, so
        # the bound is widened by the ulps of the stored values
        rng = random.Random(2025)
        for _ in range(400):
            x = rng.uniform(0.5, 1e4)
            a, b = log_gamma(x + 1.0), log_gamma(x)
            resid = abs(a - b - math.log(x))
            tol = 1e-11 + 2.0 * (math.ulp(abs(a)) + math.ulp(abs(b)))
            assert resid <= tol, f"x={x}: residual {resid} tol {tol}"

    @pytest.mark.parametrize("x", [1e-8, 0.1, 0.25, 0.4999])
    def test_reflection_below_one_half(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=0, abs=1e-15)

    def test_factorials(self):
        for n in range(2, 30):
            assert log_gamma(float(n)) == pytest.approx(
                math.lgamma(n), rel=1e-14, abs=1e-13
            )


class TestIncompleteGamma:
    def test_zero(self):
        assert regularized_incomplete_gamma_lower(3.5, 0.0) == 0.0
        assert regularized_incomplete_gamma_upper(3.5, 0.0) == 1.0

    def test_exponential_case(self):
        # P(1, x) = 1 - exp(-x)
        assert regularized_incomplete_gamma_lower(1.0, math.log(2.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_half_shape_quadrature_point(self):
        # frozen from the adaptive-quadrature oracle
        assert gamma_lower_oracle(0.5, 1.92073) == pytest.approx(0.95, abs=1e-6)
        assert regularized_incomplete_gamma_lower(0.5, 1.92073) == pytest.approx(
            gamma_lower_oracle(0.5, 1.92073), abs=1e-10
        )

    def test_against_quadrature_grid(self):
        rng = random.Random(7)
        for _ in range(60):
            s = math.exp(rng.uniform(math.log(0.5), math.log(50.0)))
            x = rng.uniform(0.0, 3.0 * s + 5.0)
            assert regularized_incomplete_gamma_lower(s, x) == pytest.approx(
                gamma_lower_oracle(s, x), abs=1e-10
            )

    def test_complement_sweep(self):
        rng = random.Random(11)
        for _ in range(500):
            s = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(600.0)))
            p = regularized_incomplete_gamma_lower(s, x)
            q = regularized_incomplete_gamma_upper(s, x)
            assert 0.0 <= p <= 1.0
            assert abs(p + q - 1.0) <= 1e-10

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain(self, s, x):
        with pytest.raises(ValueError):
            regularized_incomplete_gamma_lower(s, x)

    def test_series_cap_raises(self):
        # ROADMAP item 3: near x = s the series needs about 8 * sqrt(s) terms,
        # past the iteration cap from df = 8678 on, as the module docstring says.
        with pytest.raises(ConvergenceError, match="incomplete gamma series"):
            chi_square_upper_tail(12000, 12000)


def _beta_exact_integer(x: float, a: int, b: int) -> float:
    # I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j)
    n = a + b - 1
    return math.fsum(
        math.comb(n, j) * x ** j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


class TestIncompleteBeta:
    def test_uniform_case(self):
        assert regularized_incomplete_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_symmetry_midpoint(self):
        assert regularized_incomplete_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_polynomial(self):
        # I_x(2,3) = 6x^2 - 8x^3 + 3x^4; at x = 1/4 this is 0.26171875
        x = 0.25
        expected = 6 * x**2 - 8 * x**3 + 3 * x**4
        assert expected == 0.26171875
        assert regularized_incomplete_beta(x, 2.0, 3.0) == pytest.approx(
            expected, abs=1e-10
        )

    def test_integer_shape_grid(self):
        rng = random.Random(13)
        for _ in range(200):
            a = rng.randint(1, 8)
            b = rng.randint(1, 8)
            x = rng.random()
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                _beta_exact_integer(x, a, b), abs=1e-12
            )

    def test_integer_shapes_taken_as_floats(self):
        # Python-int shapes used to overflow the continued fraction's
        # products; as floats a shape beyond the largest float is rejected.
        assert regularized_incomplete_beta(0.3, 5, 7) == regularized_incomplete_beta(0.3, 5.0, 7.0)
        with pytest.raises(ValueError, match="largest float"):
            regularized_incomplete_beta(0.5, 10**400, 2)
        with pytest.raises(ConvergenceError):
            regularized_incomplete_beta(1e-199, 1, 10**200)

    def test_symmetry_sweep(self):
        rng = random.Random(17)
        for _ in range(500):
            a = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
            b = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
            x = rng.random()
            lhs = regularized_incomplete_beta(x, a, b)
            rhs = regularized_incomplete_beta(1.0 - x, b, a)
            assert 0.0 <= lhs <= 1.0
            assert abs(lhs + rhs - 1.0) <= 1e-10

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)])
    def test_domain(self, x, a, b):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(x, a, b)


def _uncached_beta(x, a, b):
    """I_x(a, b) as the kernel computes it, with log B(a, b) written out."""
    a, b = float(a), float(b)
    front = math.exp(
        log_gamma(a + b) - log_gamma(a) - log_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * special._beta_cf(x, a, b) / a
    return 1.0 - front * special._beta_cf(1.0 - x, b, a) / b


class TestLogBetaCache:
    """The cached log-Beta normaliser changes no float of the kernel."""

    _SHAPES = st.one_of(st.integers(min_value=1, max_value=10**7),
                        st.floats(min_value=1e-3, max_value=1e7))

    def _same_as_uncached(self, x, a, b, expected):
        if expected is ConvergenceError:
            with pytest.raises(ConvergenceError):
                regularized_incomplete_beta(x, a, b)
        else:
            assert regularized_incomplete_beta(x, a, b) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           _SHAPES, _SHAPES)
    def test_bit_equal_cold_warm_and_evicted(self, x, a, b):
        cache = special._log_beta
        try:
            expected = _uncached_beta(x, a, b)
        except ConvergenceError:
            expected = ConvergenceError
        cache.cache_clear()
        self._same_as_uncached(x, a, b, expected)  # cold
        self._same_as_uncached(x, a, b, expected)  # warm
        cache.cache_clear()
        cache(a, b)  # warmed with the shapes as given, as estimation's density does
        self._same_as_uncached(x, a, b, expected)
        maxsize = cache.cache_info().maxsize
        for k in range(maxsize):
            cache(float(k) + 0.5, 2.0e7)  # evicts (a, b): no drawn shape reaches 2e7
        misses = cache.cache_info().misses
        self._same_as_uncached(x, a, b, expected)
        assert cache.cache_info().misses == misses + 1

    def test_cache_is_bounded(self):
        assert special._log_beta.cache_info().maxsize is not None

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0),
                                      (1.0, math.nan), (10**400, 2), (math.inf, 1.0)])
    def test_rejected_shapes_stay_out_of_the_cache(self, a, b):
        regularized_incomplete_beta(0.3, 2.0, 5.0)
        size = special._log_beta.cache_info().currsize
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.3, a, b)
        assert special._log_beta.cache_info().currsize == size


class TestTails:
    def test_chi_square_conventional_critical_value(self):
        p = chi_square_upper_tail(3.841, 1)
        assert 0.0499 <= p <= 0.0501
        assert p == pytest.approx(chi_square_upper_oracle(3.841, 1), abs=1e-10)

    def test_chi_square_quadrature_grid(self):
        rng = random.Random(19)
        for _ in range(40):
            df = rng.randint(1, 40)
            stat = rng.uniform(0.01, 3.0 * df)
            assert chi_square_upper_tail(stat, df) == pytest.approx(
                chi_square_upper_oracle(stat, df), abs=1e-10
            )

    def test_student_t_cauchy_closed_form(self):
        # t with 1 degree of freedom is Cauchy: P(T >= 1) = 1/2 - atan(1)/pi
        assert student_t_upper_tail(1.0, 1) == pytest.approx(0.25, abs=1e-10)

    def test_student_t_quadrature_grid(self):
        rng = random.Random(23)
        for _ in range(40):
            df = rng.randint(1, 60)
            t = rng.uniform(-5.0, 5.0)
            assert student_t_upper_tail(t, df) == pytest.approx(
                student_t_upper_oracle(t, df), abs=1e-10
            )

    def test_f_equals_t_squared(self):
        rng = random.Random(29)
        for _ in range(300):
            t = rng.uniform(-10.0, 10.0)
            nu = rng.randint(1, 100)
            f_tail = f_upper_tail(t * t, 1, nu)
            t_tail = 2.0 * student_t_upper_tail(abs(t), nu)
            assert abs(f_tail - t_tail) <= 1e-9

    def test_f_quadrature_spot(self):
        assert f_upper_tail(1.5, 1, 4) == pytest.approx(
            f_upper_oracle(1.5, 1, 4), abs=1e-10
        )
        assert f_upper_tail(2.2, 3, 7) == pytest.approx(
            f_upper_oracle(2.2, 3, 7), abs=1e-10
        )

    def test_normal_tail_against_erf_series(self):
        for z in (-3.0, -1.0, -0.2, 0.0, 0.5, 1.0, 2.5, 4.0):
            assert normal_upper_tail(z) == pytest.approx(
                normal_upper_oracle(z), abs=1e-12
            )

    def test_normal_golden(self):
        assert normal_upper_tail(1.0) == pytest.approx(0.158655253931, abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_upper_tails_monotone_and_bounded(self, stat, bump, df):
        for fn in (
            lambda s: chi_square_upper_tail(s, df),
            lambda s: student_t_upper_tail(s, df),
            lambda s: f_upper_tail(s, df, df + 1),
        ):
            hi, lo = fn(stat), fn(stat + bump)
            assert 0.0 <= hi <= 1.0 and 0.0 <= lo <= 1.0
            assert lo <= hi + 1e-12


class TestTailArea:
    @pytest.mark.parametrize("upper_tail, args", [
        (chi_square_upper_tail, (math.nan, 1)),
        (student_t_upper_tail, (math.inf, 3)),
        (f_upper_tail, (math.nan, 1, 2)),
        (normal_upper_tail, (math.nan,)),
        (chi_square_upper_tail, (1.0, 0)),
        (student_t_upper_tail, (1.0, -1.0)),
        (f_upper_tail, (1.0, 1, 0)),
    ])
    def test_non_finite_statistic_and_non_positive_df_rejected(self, upper_tail, args):
        with pytest.raises(ValueError):
            tail_area(upper_tail, args[0], "upper", *args[1:])

    def test_upper_is_the_upper_tail(self):
        assert tail_area(chi_square_upper_tail, 3.841, "upper", 1) == pytest.approx(0.05, abs=2e-5)
        assert tail_area(student_t_upper_tail, 1.0, "upper", 1) == pytest.approx(0.25, abs=1e-10)
        assert tail_area(f_upper_tail, 1.5, "upper", 1, 4) == pytest.approx(
            0.287864134727, abs=1e-9
        )

    @pytest.mark.parametrize("upper_tail, df", [
        (chi_square_upper_tail, (3,)),
        (student_t_upper_tail, (9,)),
        (f_upper_tail, (2, 5)),
    ])
    def test_lower_is_complement(self, upper_tail, df):
        upper = tail_area(upper_tail, 2.5, "upper", *df)
        lower = tail_area(upper_tail, 2.5, "lower", *df)
        assert upper + lower == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("statistic", [1.7, -1.7])
    def test_two_sided_doubles_upper_tail_at_abs(self, statistic):
        two = tail_area(student_t_upper_tail, statistic, "two_sided", 9)
        assert two == pytest.approx(2.0 * student_t_upper_tail(1.7, 9), abs=1e-12)
        z_two = tail_area(normal_upper_tail, statistic, "two_sided")
        assert z_two == pytest.approx(2.0 * normal_upper_tail(1.7), abs=1e-12)
