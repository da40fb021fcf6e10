"""Chi-square independence, one/two-sample location tests, one-way ANOVA.

Tail semantics: "upper" tests H_a: parameter above the null, "lower" below,
"two_sided" doubles the smaller tail. The chi-square statistic is the
undivided sum((O - E)^2 / E) compared against chi-square((R-1)(C-1)); a
mean-chi-square variant (sum divided by the degrees of freedom) circulates
in some write-ups, but only the undivided form is the quantity the
chi-square distribution describes, so that is what is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateSampleError, DegenerateTableError
from .model import ContingencyTable
from .special import (
    chi_square_upper_tail,
    f_upper_tail,
    normal_upper_tail,
    student_t_upper_tail,
    tail_area,
)

TAILS = ("upper", "lower", "two_sided")
TWO_SAMPLE_VARIANTS = ("pooled", "welch")


@dataclass(frozen=True)
class TestResult:
    test_kind: str
    statistic: float
    df: float | tuple[int, int] | None
    p_value: float
    tail: str
    alpha: float
    reject_null: bool
    warnings: tuple[str, ...] = ()


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_tail(tail: str) -> None:
    if tail not in TAILS:
        raise ValueError(f"tail must be one of {TAILS}, got {tail!r}")


def _mean(xs: Sequence[float]) -> float:
    return math.fsum(xs) / len(xs)


def _sample_variance(xs: Sequence[float], mean: float) -> float:
    return math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def chi_square_independence(
    table: ContingencyTable, alpha: float = 0.05, yates: bool = False
) -> TestResult:
    """Chi-square test of independence on a contingency table.

    The result carries a warning (not a refusal) when any expected count is
    below 5. The optional Yates continuity correction is off by default.
    """
    _check_alpha(alpha)
    if table.is_degenerate():
        raise DegenerateTableError(
            f"table of shape {table.shape[0]}x{table.shape[1]} with margins "
            f"{table.row_totals}/{table.col_totals} is degenerate"
        )
    statistic = 0.0
    low_expected = 0
    n_cells = 0
    for obs_row, exp_row in zip(table.observed, table.expected):
        for o, e in zip(obs_row, exp_row):
            n_cells += 1
            if e < 5.0:
                low_expected += 1
            diff = abs(o - e)
            if yates:
                diff = max(diff - 0.5, 0.0)
            statistic += diff * diff / e
    rows, cols = table.shape
    df = (rows - 1) * (cols - 1)
    p = chi_square_upper_tail(statistic, df)
    warnings = ()
    if low_expected:
        warnings = (
            f"{low_expected} of {n_cells} cells have expected count below 5",
        )
    return TestResult(
        test_kind="chi_square",
        statistic=statistic,
        df=df,
        p_value=p,
        tail="upper",
        alpha=alpha,
        reject_null=p < alpha,
        warnings=warnings,
    )


def one_sample_location_test(
    sample: Sequence[float],
    mu0: float,
    tail: str = "two_sided",
    sigma: float | None = None,
    alpha: float = 0.05,
) -> TestResult:
    """Test the sample mean against mu0.

    With a known population standard deviation the statistic is
    z = (mean - mu0) / (sigma / sqrt(n)) against the normal; otherwise
    t = (mean - mu0) / (s / sqrt(n)) with n - 1 degrees of freedom.
    """
    _check_alpha(alpha)
    _check_tail(tail)
    n = len(sample)
    if n == 0:
        raise ValueError("sample must be non-empty")
    if sigma is not None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        z = (_mean(sample) - mu0) / (sigma / math.sqrt(n))
        p = tail_area(normal_upper_tail, z, tail)
        return TestResult(
            test_kind="z",
            statistic=z,
            df=None,
            p_value=p,
            tail=tail,
            alpha=alpha,
            reject_null=p < alpha,
        )
    if n < 2:
        raise ValueError("sample size must be >= 2 when sigma is unknown")
    mean = _mean(sample)
    s2 = _sample_variance(sample, mean)
    if s2 == 0.0:
        raise DegenerateSampleError(
            "sample standard deviation is zero; t statistic is undefined"
        )
    t = (mean - mu0) / math.sqrt(s2 / n)
    df = n - 1
    p = tail_area(student_t_upper_tail, t, tail, df)
    return TestResult(
        test_kind="t_one_sample",
        statistic=t,
        df=df,
        p_value=p,
        tail=tail,
        alpha=alpha,
        reject_null=p < alpha,
    )


def two_sample_t(
    a: Sequence[float],
    b: Sequence[float],
    variant: str = "welch",
    tail: str = "two_sided",
    alpha: float = 0.05,
) -> TestResult:
    """Two-sample comparison of means.

    "pooled" is the classical equal-variance t with n_a + n_b - 2 degrees
    of freedom; "welch" (default) uses the Welch statistic with the
    Welch-Satterthwaite degrees of freedom, which are fractional.
    """
    _check_alpha(alpha)
    _check_tail(tail)
    if variant not in TWO_SAMPLE_VARIANTS:
        raise ValueError(f"variant must be one of {TWO_SAMPLE_VARIANTS}, got {variant!r}")
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("each sample must have size >= 2")
    ma, mb = _mean(a), _mean(b)
    va, vb = _sample_variance(a, ma), _sample_variance(b, mb)
    if variant == "pooled":
        df: float = na + nb - 2
        sp2 = ((na - 1) * va + (nb - 1) * vb) / df
        se = math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    else:
        qa, qb = va / na, vb / nb
        se = math.sqrt(qa + qb)
        if se > 0.0:
            df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
        else:
            df = float(na + nb - 2)
    if se == 0.0:
        raise DegenerateSampleError(
            "both samples have zero variance; t statistic is undefined"
        )
    t = (ma - mb) / se
    p = tail_area(student_t_upper_tail, t, tail, df)
    return TestResult(
        test_kind="t_two_sample",
        statistic=t,
        df=df,
        p_value=p,
        tail=tail,
        alpha=alpha,
        reject_null=p < alpha,
    )


@dataclass(frozen=True)
class AnovaDecomposition:
    ss_treatment: float
    ss_error: float
    ms_treatment: float
    ms_error: float
    f_obs: float
    v1: int
    v2: int
    group_means: tuple[float, ...]
    grand_mean: float


def one_way_anova(
    groups: Sequence[Sequence[float]], alpha: float = 0.05
) -> tuple[TestResult, AnovaDecomposition]:
    """One-way ANOVA F test of equal group means.

    SSTr = sum_i n_i (mean_i - grand)^2, SSE = within-group squared
    deviations; F = MSTr / MSE with (k - 1, n - k) degrees of freedom,
    rejecting for large F (upper tail).
    """
    _check_alpha(alpha)
    k = len(groups)
    if k < 2:
        raise ValueError(f"ANOVA requires at least 2 groups, got {k}")
    if any(len(g) == 0 for g in groups):
        raise ValueError("every group must be non-empty")
    n = sum(len(g) for g in groups)
    if n <= k:
        raise ValueError(f"total observations ({n}) must exceed group count ({k})")
    group_means = tuple(_mean(g) for g in groups)
    grand_mean = math.fsum(math.fsum(g) for g in groups) / n
    ss_treatment = math.fsum(
        len(g) * (m - grand_mean) ** 2 for g, m in zip(groups, group_means)
    )
    ss_error = math.fsum(
        math.fsum((x - m) ** 2 for x in g) for g, m in zip(groups, group_means)
    )
    v1 = k - 1
    v2 = n - k
    ms_error = ss_error / v2
    if ms_error == 0.0:
        raise DegenerateSampleError(
            "all groups are internally constant (MSE = 0); F statistic is undefined"
        )
    ms_treatment = ss_treatment / v1
    f_obs = ms_treatment / ms_error
    p = f_upper_tail(f_obs, v1, v2)
    result = TestResult(
        test_kind="anova_f",
        statistic=f_obs,
        df=(v1, v2),
        p_value=p,
        tail="upper",
        alpha=alpha,
        reject_null=p < alpha,
    )
    decomposition = AnovaDecomposition(
        ss_treatment=ss_treatment,
        ss_error=ss_error,
        ms_treatment=ms_treatment,
        ms_error=ms_error,
        f_obs=f_obs,
        v1=v1,
        v2=v2,
        group_means=group_means,
        grand_mean=grand_mean,
    )
    return result, decomposition
