"""Error-rate extrapolation and bias-factor modeling.

Binomial confidence intervals extrapolate a sampled error rate to the
population: Clopper-Pearson inverts the exact binomial tails by bisection
to 1e-10, Wilson is the closed-form score interval. Each bisection's answer
is reached by Newton steps that bracket the root, then an exact replay of
the bisection that calls the kernel only inside that bracket. Bias factors
are estimated by fitting an ordinary least-squares model and a logistic
model (IRLS) to a one-hot design of rubric answers against the binary final
classification and ranking factors by coefficient magnitude.

Both fits take a keyword-only ``counts``, a positive integer multiplicity
per design row (all ones if None): a row with count c stands for c equal
rows. Least squares scales each row by sqrt(c); IRLS weights its Hessian,
gradient, log-likelihood and Fisher information by c; the row-count check
and the residual degrees of freedom use the sum of the counts. Unit counts
give the same floats as a row each. A bias design of at least MERGE_UNITS
units is fitted on its distinct (answers, team, target) rows with their
unit counts; a smaller one on a row per unit.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DatasetValidationError,
    NonBinaryTargetError,
    RankDeficiencyError,
    ReviewAuditError,
    SeparationError,
)
from .model import ANSWER, CLASSIFICATION, QUESTION, TEAM, ReviewDataset, _pair_counts, is_int
from .special import _log_beta, normal_upper_tail, regularized_incomplete_beta

CI_METHODS = ("clopper_pearson", "wilson")
SEPARATION_BOUND = 30.0
# A bias design of at least this many units is fitted on its distinct rows
# with their unit counts. Below it every unit keeps its own row, so the fits'
# last digits stay those of a row per unit.
MERGE_UNITS = 1024

_BISECT_TOL = 1e-10
_NEWTON_MAX_STEPS = 24
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BinomialInterval:
    x: int
    n: int
    level: float
    lower: float
    upper: float
    method: str

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _bisection_root(fn: Callable[[float], float], newton: Callable[[float, float], float],
                    start: float, lo: float, hi: float, tol: float, rising: bool = True) -> float:
    """The midpoint that bisecting the monotone fn on [lo, hi] down to a
    width below tol returns, reached with few calls of fn.

    The bisection moves lo to a midpoint where fn <= 0 holds as it does at
    lo (fn(lo) <= 0 when fn is rising, > 0 when falling), so its answer is
    fixed by the signs of fn at its midpoints. Safeguarded Newton steps from
    start, t -> newton(t, fn(t)), first close a bracket (a, b) narrower than
    tol / 16 around the sign change; the bisection is then replayed, calling
    fn only at midpoints strictly inside (a, b), since monotonicity gives the
    side of every other midpoint.
    """
    a, b = lo, hi
    t = start
    steps = 0
    while b - a >= tol / 16.0:
        if steps >= _NEWTON_MAX_STEPS or not a < t < b:
            t = 0.5 * (a + b)
        steps += 1
        value = fn(t)
        if (value <= 0.0) == rising:
            a, past = t, tol / 64.0
        else:
            b, past = t, -tol / 64.0
        # Aim just past the root so that the bracket closes from both sides;
        # a NaN estimate falls back to the midpoint above.
        t = newton(t, value) + past

    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and (fn(mid) <= 0.0) == rising):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _approx_normal_quantile_upper(tail: float) -> float:
    """z with P(Z >= z) ~ tail to 4.5e-4 (Abramowitz-Stegun 26.2.23)."""
    if tail >= 0.5:
        return 0.0
    t = math.sqrt(-2.0 * math.log(tail))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )


@functools.lru_cache(maxsize=256)
def _normal_quantile_upper(tail: float) -> float:
    """z with P(Z >= z) = tail, for tail in (0, 0.5]; internal use only.
    Cached per tail, which a Wilson interval takes from its level alone."""
    if tail >= 0.5:
        return 0.0
    return _bisection_root(
        lambda z: normal_upper_tail(z) - tail,
        _log_tail_newton(tail, 1.0, lambda z: -math.exp(-0.5 * z * z) / _SQRT_2PI),
        _approx_normal_quantile_upper(tail), 0.0, 40.0, 1e-12, rising=False,
    )


def _log_tail_newton(
    target: float, sign: float, slope: Callable[[float], float]
) -> Callable[[float, float], float]:
    """Newton map for fn = sign * (T - target) with fn' = slope, T a tail
    probability: each step solves log T = log target on the tangent, which
    stays fast where T is many times target or a tiny fraction of it. NaN
    where the step is undefined."""

    def estimate(t: float, value: float) -> float:
        tail = target + sign * value
        d = slope(t)
        if tail > 0.0 and d != 0.0 and math.isfinite(d):
            return t - sign * math.log(tail / target) * tail / d
        return math.nan

    return estimate


def _beta_density(a: int, b: int) -> Callable[[float], float]:
    """The Beta(a, b) density on (0, 1); inf where exp would overflow."""
    log_norm = _log_beta(a, b)

    def density(p: float) -> float:
        log_density = log_norm + (a - 1) * math.log(p) + (b - 1) * math.log1p(-p)
        return math.exp(log_density) if log_density < 709.0 else math.inf

    return density


def _wilson(x: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for x of n at normal quantile z."""
    phat = x / n
    z2n = z * z / n
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / (1.0 + z2n)
    return max(0.0, center - half), min(1.0, center + half)


def binomial_ci(
    x: int, n: int, level: float = 0.95, method: str = "clopper_pearson"
) -> BinomialInterval:
    """Confidence interval for a binomial proportion.

    clopper_pearson: exact equal-tail inversion, lower solves
    P(X >= x | p) = (1-level)/2 and upper solves P(X <= x | p) = (1-level)/2,
    each by bisection to 1e-10; x = 0 pins the lower bound at 0 and x = n
    the upper at 1. The bisection's float is reached by a Newton bracket
    started at the Wilson bound, then an exact replay of the bisection.
    wilson: closed-form score interval; its normal quantile z is bisected
    once per level and then cached.
    """
    if not (is_int(x) and is_int(n)):
        raise ValueError("x and n must be integers")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"n must be at most the largest float, {sys.float_info.max:g}")
    if not (0 <= x <= n):
        raise ValueError(f"x must be in [0, n], got x={x}, n={n}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method not in CI_METHODS:
        raise ValueError(f"method must be one of {CI_METHODS}, got {method!r}")
    half_alpha = (1.0 - level) / 2.0
    if method == "wilson":
        lower, upper = _wilson(x, n, _normal_quantile_upper(half_alpha))
    else:
        # P(X >= x | p) = I_p(x, n - x + 1) and P(X <= x | p) = I_{1-p}(n - x, x + 1);
        # the Wilson bounds at an approximate z start the Newton steps.
        start_lower, start_upper = _wilson(x, n, _approx_normal_quantile_upper(half_alpha))
        lower = 0.0 if x == 0 else _bisection_root(
            lambda p: regularized_incomplete_beta(p, x, n - x + 1) - half_alpha,
            _log_tail_newton(half_alpha, 1.0, _beta_density(x, n - x + 1)), start_lower, 0.0, 1.0, _BISECT_TOL,
        )
        upper = 1.0 if x == n else _bisection_root(
            lambda p: half_alpha - regularized_incomplete_beta(1.0 - p, n - x, x + 1),
            _log_tail_newton(half_alpha, -1.0, _beta_density(x + 1, n - x)), start_upper, 0.0, 1.0, _BISECT_TOL,
        )
    return BinomialInterval(x=x, n=n, level=level, lower=lower, upper=upper, method=method)


@dataclass(frozen=True)
class RegressionFit:
    model: str
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    design_column_names: tuple[str, ...]
    converged: bool
    iterations: int
    residual_sum_squares: float | None = None
    log_likelihood: float | None = None

    @property
    def intercept(self) -> float:
        return self.coefficients[0]


def _as_design(
    design: Sequence[Sequence[float]],
    response: Sequence[float],
    column_names: Sequence[str] | None,
    response_name: str,
    counts: Sequence[int] | None,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """Prepend the intercept column and resolve column names; the response
    (response_name in errors) and counts (all ones if None; returned as
    floats) must have one value per row, and the rows they stand for must
    outnumber the columns. The design is laid out in C order whatever the
    caller's, since the fits' last digits depend on it."""
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError("design must be a 2-D array of reals")
    n, k = x.shape
    if column_names is None:
        names = tuple(f"x{j + 1}" for j in range(k))
    else:
        names = tuple(column_names)
        if len(names) != k:
            raise ValueError(f"expected {k} column names, got {len(names)}")
    y = np.asarray(response, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"{response_name} must have length {n}")
    counts = np.ones(n) if counts is None else np.asarray(counts)
    if counts.shape != (n,) or counts.dtype.kind not in "iuf":
        raise ValueError(f"counts must be {n} numbers, one per row")
    counts = counts.astype(float)
    if not np.all((counts >= 1.0) & np.isfinite(counts) & (counts == np.floor(counts))):
        raise ValueError("counts must be positive integers")
    rows = int(counts.sum())
    if rows <= k:
        raise ValueError(f"need at least {k + 1} rows for {k} factors plus intercept, got {rows}")
    full = np.empty((n, k + 1))
    full[:, 0] = 1.0
    full[:, 1:] = x
    return full, y, names, counts


def _check_rank(full: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise RankDeficiencyError naming the first dependent design column."""
    n, p = full.shape
    if np.linalg.matrix_rank(full) == p:
        return
    rank = np.linalg.matrix_rank(full[:, :1])
    for j in range(1, p):
        new_rank = np.linalg.matrix_rank(full[:, : j + 1])
        if new_rank == rank:
            raise RankDeficiencyError(column_index=j - 1, column_name=names[j - 1])
        rank = new_rank
    raise RankDeficiencyError(column_index=p - 2, column_name=names[-1])


def ols_fit(
    design: Sequence[Sequence[float]],
    response: Sequence[float],
    column_names: Sequence[str] | None = None,
    *,
    counts: Sequence[int] | None = None,
) -> RegressionFit:
    """Least squares with an implicit intercept column.

    Solved by SVD-backed least squares (never the raw normal equations);
    standard errors come from sigma^2 (X'X)^-1 with
    sigma^2 = RSS / (n - p), reported as 0 for an exact interpolation.
    counts are the rows' multiplicities (all ones if None): each row and
    its response are scaled by sqrt(count), and n is the sum of the counts.
    """
    full, y, names, counts = _as_design(design, response, column_names, "response", counts)
    root = np.sqrt(counts)
    full *= root[:, None]
    y = y * root
    n, p = counts.sum(), full.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(full, y, rcond=None)
    if rank < p:
        _check_rank(full, names)
    residuals = y - full @ beta
    rss = float(residuals @ residuals)
    dof = n - p
    sigma2 = rss / dof if dof > 0 else 0.0
    xtx_inv = np.linalg.inv(full.T @ full)
    se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
    return RegressionFit(
        model="ols",
        coefficients=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        design_column_names=names,
        converged=True,
        iterations=0,
        residual_sum_squares=rss,
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -500.0, 500.0)))


def logistic_fit(
    design: Sequence[Sequence[float]],
    labels: Sequence[float],
    max_iter: int = 100,
    tol: float = 1e-10,
    column_names: Sequence[str] | None = None,
    *,
    counts: Sequence[int] | None = None,
) -> RegressionFit:
    """Logistic maximum likelihood via iteratively reweighted least squares.

    Convergence is max coefficient change below tol. Separation (labels
    perfectly predicted, so the MLE diverges) is detected when any
    coefficient magnitude passes SEPARATION_BOUND and raises a structured
    error; hitting max_iter without either event returns converged=False.
    counts are the rows' multiplicities (all ones if None); they weight
    the Hessian, gradient, log-likelihood and Fisher information.
    """
    full, y, names, counts = _as_design(design, labels, column_names, "labels", counts)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    _check_rank(full, names)
    beta = np.zeros(full.shape[1])
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mu = _sigmoid(full @ beta)
        w = counts * np.maximum(mu * (1.0 - mu), 1e-12)
        hessian = full.T @ (w[:, None] * full)
        gradient = full.T @ (counts * (y - mu))
        delta = np.linalg.solve(hessian, gradient)
        beta = beta + delta
        max_beta = float(np.max(np.abs(beta)))
        if max_beta > SEPARATION_BOUND:
            raise SeparationError(max_coefficient=max_beta, bound=SEPARATION_BOUND)
        if float(np.max(np.abs(delta))) < tol:
            converged = True
            break
    mu = _sigmoid(full @ beta)
    mu_safe = np.clip(mu, 1e-12, 1.0 - 1e-12)
    log_lik = float((counts * y) @ np.log(mu_safe) + (counts * (1.0 - y)) @ np.log(1.0 - mu_safe))
    w = counts * np.maximum(mu * (1.0 - mu), 1e-12)
    fisher = full.T @ (w[:, None] * full)
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    return RegressionFit(
        model="logistic",
        coefficients=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        design_column_names=names,
        converged=converged,
        iterations=iterations,
        log_likelihood=log_lik,
    )


@dataclass(frozen=True)
class FactorEffect:
    name: str
    ols_coefficient: float
    logistic_coefficient: float | None


@dataclass(frozen=True)
class BiasFactorReport:
    """Side-by-side OLS and logistic coefficients per one-hot factor level.

    Rows are ranked by absolute logistic coefficient when the logistic fit
    succeeded, otherwise by absolute OLS coefficient (ranked_by says
    which). A failed logistic fit contributes None coefficients and its
    error message. OLS fails only on a bad design, which fails the whole
    report, so ols_error is always None; the report schema keeps it.
    """

    target_labels: tuple[str, str]
    n_rows: int
    factors: tuple[str, ...]
    ranked_by: str
    ols_intercept: float
    logistic_intercept: float | None
    ols_error: None
    logistic_error: str | None
    effects: tuple[FactorEffect, ...]


def _merge_rows(
    digits: np.ndarray, radices: list[int], target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (digits row, target) pairs, in increasing mixed-radix
    key order, and how many rows hold each. digits is int64 with column j
    below radices[j]; the radices' product times 2 must fit an int64."""
    strides = np.cumprod([1, *radices[:0:-1]], dtype=np.int64)[::-1]
    keys, counts = _pair_counts(digits @ strides, target, 2)
    group, target = np.divmod(keys, 2)
    return group[:, None] // strides % radices, target, counts


def _encode_units(
    dataset: ReviewDataset, factors: Sequence[str]
) -> tuple[np.ndarray, list[str], np.ndarray, tuple[str, str], np.ndarray]:
    """One-hot design, 0/1 target and row counts over (product, reviewer)
    units.

    A unit enters only if it has a record for every factor question; its
    0/1 target is its majority classification from the dataset's unit table.
    Reference level per factor is the lexicographically first label. Below
    MERGE_UNITS units each unit is a row, in sorted unit order, and counts
    are ones. From MERGE_UNITS on, units with equal factor answers, team and
    target share one row, and counts holds its number of units; the rows
    are in mixed-radix key order.
    """
    questions = [f for f in factors if f != "team"]
    use_team = "team" in factors
    positions = []
    for q in questions:
        try:
            positions.append(dataset._question_index[q])
        except (KeyError, TypeError):  # unknown, or unhashable
            raise DatasetValidationError(f"factor {q!r} is not a question in the dataset") from None

    units = dataset.units
    unit, _ = dataset._unit_rows
    codes = dataset.records.codes
    # A unit holds a question at most once, so it is covered when it has a
    # record for every factor question; a factor named twice is never covered.
    factor = np.zeros(len(dataset.questions), bool)
    factor[positions] = True
    counted = factor[codes[QUESTION]]
    covered = np.bincount(unit[counted], minlength=len(units.product)) == len(questions)
    if not covered.any():
        raise DatasetValidationError("no (product, reviewer) unit covers every factor")
    # The covered units' factor answers, a row per unit; the records are
    # sorted, so each row holds them in question order.
    answers = codes[ANSWER][counted & covered[unit]].reshape(int(covered.sum()), len(questions))

    # Each design column marks one answer code in one column of answers; a
    # declared level that no record uses has no code.
    code = {label: i for i, label in enumerate(dataset.records.labels[ANSWER])}
    place = {position: i for i, position in enumerate(sorted(positions))}
    columns, column_places, column_codes = [], [], []
    for q, position in zip(questions, positions):
        levels = dataset.category_space[q][1:]
        columns.extend(f"{q}={label}" for label in levels)
        column_places.extend([place[position]] * len(levels))
        column_codes.extend(code.get(label, -1) for label in levels)

    # codes index sorted label tables, so code order is label order
    classes = units.classification[covered]
    table = dataset.records.labels[CLASSIFICATION]
    used = np.flatnonzero(np.bincount(classes, minlength=len(table)))
    labels = tuple(map(table.__getitem__, used.tolist()))
    if len(labels) != 2:
        raise NonBinaryTargetError(labels)
    target = (classes == used[1]).astype(np.int64)

    # The key digits are int64: under NEP 50 an int32 array times a Python
    # int stays int32, and the key would wrap.
    digits, radices = answers.astype(np.int64), [len(code)] * len(questions)
    if use_team:
        teams = units.team[covered]
        if not teams.all():  # code 0 is no team
            raise DatasetValidationError("factor 'team' requested but some units lack a team")
        levels = np.unique(teams)[1:]
        names = dataset.records.labels[TEAM]
        columns.extend(f"team={names[level]}" for level in levels.tolist())
        digits = np.column_stack([digits, teams.astype(np.int64)])
        radices.append(len(names))
    if len(target) >= MERGE_UNITS and 2 * math.prod(radices) <= 2**63:
        digits, target, counts = _merge_rows(digits, radices, target)
    else:
        counts = np.ones(len(target), np.int64)

    # Laid out in C order, as the fits' floats depend on the layout.
    design = (digits[:, column_places] == column_codes).astype(float, order="C")
    if use_team:
        design = np.hstack([design, (digits[:, -1:] == levels).astype(float)])
    return design, columns, target.astype(float), labels, counts


def bias_factor_report(
    dataset: ReviewDataset, factors: Sequence[str] | None = None
) -> BiasFactorReport:
    """Rank candidate bias factors by influence on the final classification.

    Fits OLS on the 0/1-encoded classification and logistic regression on
    the same design and reports coefficients side by side. A design that
    OLS cannot fit (fewer rows than columns, rank deficiency) raises; a
    logistic failure is reported in logistic_error.
    """
    if factors is None:
        factors = dataset.questions
    factors = list(factors)
    if not factors:
        raise ValueError("factors must be non-empty")
    design, columns, target, labels, counts = _encode_units(dataset, factors)
    ols_result = ols_fit(design, target, column_names=columns, counts=counts)
    logistic_result: RegressionFit | None = None
    logistic_error = None
    try:
        logistic_result = logistic_fit(design, target, column_names=columns, counts=counts)
    except (ReviewAuditError, ValueError) as exc:
        logistic_error = str(exc)
    else:
        if not logistic_result.converged:
            logistic_error = (
                f"logistic fit did not converge in {logistic_result.iterations} iterations"
            )
            logistic_result = None

    effects = [
        FactorEffect(
            name=name,
            ols_coefficient=ols_result.coefficients[j + 1],
            logistic_coefficient=(
                None if logistic_result is None else logistic_result.coefficients[j + 1]
            ),
        )
        for j, name in enumerate(columns)
    ]
    ranked_by = "logistic" if logistic_result is not None else "ols"

    def rank_key(e: FactorEffect) -> tuple[float, str]:
        magnitude = (
            e.logistic_coefficient if ranked_by == "logistic" else e.ols_coefficient
        )
        return (-abs(magnitude), e.name)

    effects.sort(key=rank_key)
    return BiasFactorReport(
        target_labels=labels,
        n_rows=int(counts.sum()),
        factors=tuple(factors),
        ranked_by=ranked_by,
        ols_intercept=ols_result.intercept,
        logistic_intercept=None if logistic_result is None else logistic_result.intercept,
        ols_error=None,
        logistic_error=logistic_error,
        effects=tuple(effects),
    )
