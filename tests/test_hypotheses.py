"""Hypothesis tests: golden values, degenerate cases, and algebraic
invariants (F = t-squared, sum-of-squares decomposition, location/scale)."""

import random

import pytest

from reviewaudit import (
    ContingencyTable,
    DegenerateSampleError,
    DegenerateTableError,
    chi_square_independence,
    one_sample_location_test,
    one_way_anova,
    two_sample_t,
)

from _oracles import normal_upper_oracle, student_t_upper_oracle


class TestChiSquare:
    def test_golden_2x2(self):
        result = chi_square_independence(ContingencyTable.from_observed([[10, 20], [20, 10]]))
        assert result.statistic == pytest.approx(20.0 / 3.0, abs=1e-12)
        assert result.df == 1
        assert result.p_value == pytest.approx(0.009823, abs=1e-5)
        assert result.reject_null

    def test_proportional_rows_independent(self):
        result = chi_square_independence(ContingencyTable.from_observed([[10, 20], [20, 40]]))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0
        assert not result.reject_null

    def test_low_expected_count_warns_but_computes(self):
        result = chi_square_independence(ContingencyTable.from_observed([[2, 3], [3, 2]]))
        assert result.warnings and "below 5" in result.warnings[0]
        assert 0.0 <= result.p_value <= 1.0

    def test_no_warning_with_large_counts(self):
        result = chi_square_independence(ContingencyTable.from_observed([[10, 20], [20, 10]]))
        assert result.warnings == ()

    def test_yates_shrinks_statistic(self):
        table = ContingencyTable.from_observed([[10, 20], [20, 10]])
        plain = chi_square_independence(table)
        corrected = chi_square_independence(table, yates=True)
        assert corrected.statistic < plain.statistic

    def test_degenerate_rejected(self):
        table = ContingencyTable(
            observed=((3, 0), (4, 0)),
            expected=((3.0, 0.0), (4.0, 0.0)),
            row_labels=("a", "b"),
            col_labels=("x", "y"),
        )
        with pytest.raises(DegenerateTableError):
            chi_square_independence(table)

    def test_alpha_domain(self):
        table = ContingencyTable.from_observed([[10, 20], [20, 10]])
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                chi_square_independence(table, alpha=alpha)

    def test_df_for_larger_tables(self):
        obs = [[5, 6, 7], [8, 9, 10], [11, 12, 13], [14, 15, 16]]
        result = chi_square_independence(ContingencyTable.from_observed(obs))
        assert result.df == 6


class TestOneSampleLocation:
    def test_null_exactly_true(self):
        result = one_sample_location_test([1.0, 2.0, 3.0], 2.0)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.test_kind == "t_one_sample"
        assert result.df == 2

    def test_known_sigma_golden_z(self):
        result = one_sample_location_test([0.0, 0.0, 2.0, 2.0], 0.0, tail="upper", sigma=2.0)
        assert result.test_kind == "z"
        assert result.statistic == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.158655, abs=1e-6)
        assert result.p_value == pytest.approx(normal_upper_oracle(1.0), abs=1e-10)
        assert result.df is None

    def test_t_matches_quadrature_oracle(self):
        sample = [1.2, 0.7, 1.9, 2.4, 0.3]
        result = one_sample_location_test(sample, 1.0, tail="upper")
        assert result.p_value == pytest.approx(
            student_t_upper_oracle(result.statistic, 4), abs=1e-10
        )

    def test_tails_are_complementary(self):
        sample = [1.2, 0.7, 1.9, 2.4, 0.3]
        up = one_sample_location_test(sample, 1.0, tail="upper").p_value
        lo = one_sample_location_test(sample, 1.0, tail="lower").p_value
        assert up + lo == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            one_sample_location_test([2.0, 2.0, 2.0], 1.0)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            one_sample_location_test([], 0.0)

    def test_single_observation_needs_known_sigma(self):
        with pytest.raises(ValueError):
            one_sample_location_test([1.0], 0.0)
        result = one_sample_location_test([1.0], 0.0, sigma=1.0, tail="upper")
        assert result.statistic == pytest.approx(1.0)

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            one_sample_location_test([1.0, 2.0], 0.0, sigma=0.0)


class TestTwoSample:
    def test_identical_samples(self):
        result = two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_golden_pooled(self):
        result = two_sample_t([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], variant="pooled")
        assert result.statistic == pytest.approx(-1.224745, abs=1e-6)
        assert result.df == 4
        assert result.p_value == pytest.approx(0.2878641347, abs=1e-9)

    def test_swap_antisymmetry(self):
        a, b = [1.0, 2.0, 3.5], [2.0, 2.5, 4.0, 1.0]
        fwd = two_sample_t(a, b, variant="pooled")
        rev = two_sample_t(b, a, variant="pooled")
        assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_welch_fractional_df(self):
        result = two_sample_t([1.0, 2.0, 3.0, 9.0], [2.0, 2.1, 2.2])
        assert result.test_kind == "t_two_sample"
        assert isinstance(result.df, float)
        assert not float(result.df).is_integer()

    def test_welch_default(self):
        a, b = [1.0, 2.0, 3.0, 9.0], [2.0, 2.1, 2.2]
        assert two_sample_t(a, b).df == two_sample_t(a, b, variant="welch").df

    def test_degenerate_constant_samples(self):
        with pytest.raises(DegenerateSampleError):
            two_sample_t([2.0, 2.0], [2.0, 2.0])

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            two_sample_t([1.0], [1.0, 2.0])

    def test_unknown_tail_and_variant_rejected(self):
        with pytest.raises(ValueError, match="tail must be one of"):
            two_sample_t([1.0, 2.0], [1.0, 3.0], tail="sideways")
        with pytest.raises(ValueError, match="variant must be one of"):
            two_sample_t([1.0, 2.0], [1.0, 3.0], variant="student")


class TestAnova:
    def test_golden_decomposition(self):
        result, decomposition = one_way_anova([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert decomposition.ss_treatment == pytest.approx(1.5, abs=1e-12)
        assert decomposition.ss_error == pytest.approx(4.0, abs=1e-12)
        assert result.statistic == pytest.approx(1.5, abs=1e-12)
        assert result.df == (1, 4)
        assert result.p_value == pytest.approx(0.2878641347, abs=1e-9)

    def test_equal_means_give_zero_f(self):
        result, decomposition = one_way_anova([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert decomposition.ss_treatment == pytest.approx(0.0, abs=1e-12)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_group_permutation_invariance(self):
        groups = [[1.0, 2.0], [4.0, 5.0, 6.0], [2.5, 2.5, 3.0]]
        base, _ = one_way_anova(groups)
        permuted, _ = one_way_anova([groups[2], groups[0], groups[1]])
        assert permuted.statistic == pytest.approx(base.statistic, abs=1e-12)
        assert permuted.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_mse_zero_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            one_way_anova([[1.0, 1.0], [2.0, 2.0]])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            one_way_anova([[1.0, 2.0]])
        with pytest.raises(ValueError):
            one_way_anova([[1.0], [2.0]])
        with pytest.raises(ValueError):
            one_way_anova([[1.0, 2.0], []])


def _random_groups(rng, k=None):
    k = k or rng.randint(2, 5)
    return [
        [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(2, 8))] for _ in range(k)
    ]


class TestAlgebraicInvariants:
    def test_p_value_reproducible_from_result_fields(self):
        from reviewaudit.special import (
            chi_square_upper_tail,
            f_upper_tail,
            student_t_upper_tail,
        )

        rng = random.Random(59)
        for _ in range(30):
            a, b = _random_groups(rng, k=2)
            try:
                t = two_sample_t(a, b)
                f, _ = one_way_anova([a, b])
            except DegenerateSampleError:
                continue
            assert t.p_value == pytest.approx(
                2.0 * student_t_upper_tail(abs(t.statistic), t.df), abs=1e-9
            )
            assert f.p_value == pytest.approx(
                f_upper_tail(f.statistic, *f.df), abs=1e-9
            )
        chi = chi_square_independence(ContingencyTable.from_observed([[7, 11], [13, 5]]))
        assert chi.p_value == pytest.approx(
            chi_square_upper_tail(chi.statistic, chi.df), abs=1e-9
        )

    def test_f_equals_pooled_t_squared(self):
        rng = random.Random(61)
        for _ in range(200):
            a, b = _random_groups(rng, k=2)
            try:
                t = two_sample_t(a, b, variant="pooled")
                f, _ = one_way_anova([a, b])
            except DegenerateSampleError:
                continue
            assert f.statistic == pytest.approx(t.statistic**2, abs=1e-9)
            assert f.p_value == pytest.approx(t.p_value, abs=1e-9)

    def test_sum_of_squares_decomposition(self):
        rng = random.Random(67)
        for _ in range(100):
            groups = _random_groups(rng)
            try:
                _, decomposition = one_way_anova(groups)
            except DegenerateSampleError:
                continue
            everything = [x for g in groups for x in g]
            grand = sum(everything) / len(everything)
            sst = sum((x - grand) ** 2 for x in everything)
            assert decomposition.ss_treatment + decomposition.ss_error == pytest.approx(
                sst, rel=1e-9, abs=1e-12
            )

    def test_sse_forms_agree(self):
        # deviation form vs sum of (n_i - 1) s_i^2
        rng = random.Random(71)
        for _ in range(100):
            groups = _random_groups(rng)
            try:
                _, decomposition = one_way_anova(groups)
            except DegenerateSampleError:
                continue
            via_variances = 0.0
            for g in groups:
                m = sum(g) / len(g)
                if len(g) > 1:
                    s2 = sum((x - m) ** 2 for x in g) / (len(g) - 1)
                    via_variances += (len(g) - 1) * s2
            assert decomposition.ss_error == pytest.approx(via_variances, rel=1e-9, abs=1e-12)

    def test_location_invariance(self):
        rng = random.Random(73)
        for _ in range(50):
            a, b = _random_groups(rng, k=2)
            shift = rng.uniform(-100.0, 100.0)
            try:
                base_t = two_sample_t(a, b)
                base_f, _ = one_way_anova([a, b])
            except DegenerateSampleError:
                continue
            sa = [x + shift for x in a]
            sb = [x + shift for x in b]
            assert two_sample_t(sa, sb).statistic == pytest.approx(
                base_t.statistic, abs=1e-9
            )
            shifted_f, _ = one_way_anova([sa, sb])
            assert shifted_f.statistic == pytest.approx(base_f.statistic, abs=1e-9)

    def test_scale_invariance(self):
        rng = random.Random(79)
        for _ in range(50):
            a, b = _random_groups(rng, k=2)
            c = rng.uniform(0.01, 50.0)
            try:
                base_t = two_sample_t(a, b)
                base_f, _ = one_way_anova([a, b])
            except DegenerateSampleError:
                continue
            sa = [x * c for x in a]
            sb = [x * c for x in b]
            scaled_t = two_sample_t(sa, sb)
            scaled_f, _ = one_way_anova([sa, sb])
            assert scaled_t.statistic == pytest.approx(base_t.statistic, rel=1e-9)
            assert scaled_t.p_value == pytest.approx(base_t.p_value, abs=1e-9)
            assert scaled_f.p_value == pytest.approx(base_f.p_value, abs=1e-9)
