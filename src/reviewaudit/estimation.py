"""Error-rate extrapolation and bias-factor modeling.

Binomial confidence intervals extrapolate a sampled error rate to the
population: Clopper-Pearson inverts the exact binomial tails by bisection,
Wilson is the closed-form score interval. Bias factors are estimated by
fitting an ordinary least-squares model and a logistic model (IRLS) to a
one-hot design of rubric answers against the binary final classification
and ranking factors by coefficient magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DatasetValidationError,
    NonBinaryTargetError,
    RankDeficiencyError,
    ReviewAuditError,
    SeparationError,
)
from .model import ReviewDataset
from .special import normal_upper_tail, regularized_incomplete_beta

CI_METHODS = ("clopper_pearson", "wilson")
SEPARATION_BOUND = 30.0

_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class BinomialInterval:
    x: int
    n: int
    level: float
    lower: float
    upper: float
    method: str

    @property
    def point_estimate(self) -> float:
        return self.x / self.n

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _bisect(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a monotone function by bisection; fn(lo) and fn(hi) must bracket 0."""
    f_lo = fn(lo)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        f_mid = fn(mid)
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _binomial_sf_at_least(x: int, n: int, p: float) -> float:
    """P(X >= x) for X ~ Binomial(n, p), via the incomplete beta identity."""
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    return regularized_incomplete_beta(p, x, n - x + 1)


def _binomial_cdf_at_most(x: int, n: int, p: float) -> float:
    """P(X <= x) for X ~ Binomial(n, p)."""
    if x >= n:
        return 1.0
    if x < 0:
        return 0.0
    return regularized_incomplete_beta(1.0 - p, n - x, x + 1)


def _normal_quantile_upper(tail: float) -> float:
    """z with P(Z >= z) = tail, for tail in (0, 0.5]; internal use only."""
    if tail >= 0.5:
        return 0.0
    return _bisect(lambda z: normal_upper_tail(z) - tail, 0.0, 40.0, 1e-12)


def binomial_ci(
    x: int, n: int, level: float = 0.95, method: str = "clopper_pearson"
) -> BinomialInterval:
    """Confidence interval for a binomial proportion.

    clopper_pearson: exact equal-tail inversion, lower solves
    P(X >= x | p) = (1-level)/2 and upper solves P(X <= x | p) = (1-level)/2,
    each by bisection to 1e-10; x = 0 pins the lower bound at 0 and x = n
    the upper at 1. wilson: closed-form score interval.
    """
    if not isinstance(x, int) or not isinstance(n, int):
        raise ValueError("x and n must be integers")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= x <= n):
        raise ValueError(f"x must be in [0, n], got x={x}, n={n}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method not in CI_METHODS:
        raise ValueError(f"method must be one of {CI_METHODS}, got {method!r}")
    half_alpha = (1.0 - level) / 2.0
    if method == "clopper_pearson":
        lower = 0.0 if x == 0 else _bisect(
            lambda p: _binomial_sf_at_least(x, n, p) - half_alpha,
            0.0, 1.0, _BISECT_TOL,
        )
        upper = 1.0 if x == n else _bisect(
            lambda p: half_alpha - _binomial_cdf_at_most(x, n, p),
            0.0, 1.0, _BISECT_TOL,
        )
    else:
        z = _normal_quantile_upper(half_alpha)
        phat = x / n
        z2n = z * z / n
        center = (phat + z2n / 2.0) / (1.0 + z2n)
        half = (
            z
            * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
            / (1.0 + z2n)
        )
        lower = max(0.0, center - half)
        upper = min(1.0, center + half)
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
    design: Sequence[Sequence[float]], column_names: Sequence[str] | None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Prepend the intercept column and resolve column names."""
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
    full = np.hstack([np.ones((n, 1)), x])
    return full, names


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
) -> RegressionFit:
    """Least squares with an implicit intercept column.

    Solved by SVD-backed least squares (never the raw normal equations);
    standard errors come from sigma^2 (X'X)^-1 with
    sigma^2 = RSS / (n - p), reported as 0 for an exact interpolation.
    """
    full, names = _as_design(design, column_names)
    y = np.asarray(response, dtype=float)
    n, p = full.shape
    if y.shape != (n,):
        raise ValueError(f"response must have length {n}")
    if n < p:
        raise ValueError(f"need at least {p} rows for {p - 1} factors plus intercept, got {n}")
    _check_rank(full, names)
    beta, _, _, _ = np.linalg.lstsq(full, y, rcond=None)
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
) -> RegressionFit:
    """Logistic maximum likelihood via iteratively reweighted least squares.

    Convergence is max coefficient change below tol. Separation (labels
    perfectly predicted, so the MLE diverges) is detected when any
    coefficient magnitude passes SEPARATION_BOUND and raises a structured
    error; hitting max_iter without either event returns converged=False.
    """
    full, names = _as_design(design, column_names)
    y = np.asarray(labels, dtype=float)
    n, p = full.shape
    if y.shape != (n,):
        raise ValueError(f"labels must have length {n}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    if n < p:
        raise ValueError(f"need at least {p} rows for {p - 1} factors plus intercept, got {n}")
    _check_rank(full, names)
    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mu = _sigmoid(full @ beta)
        w = np.maximum(mu * (1.0 - mu), 1e-12)
        hessian = full.T @ (w[:, None] * full)
        gradient = full.T @ (y - mu)
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
    log_lik = float(y @ np.log(mu_safe) + (1.0 - y) @ np.log(1.0 - mu_safe))
    w = np.maximum(mu * (1.0 - mu), 1e-12)
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


def _encode_units(
    dataset: ReviewDataset, factors: Sequence[str]
) -> tuple[np.ndarray, list[str], list[int], tuple[str, str]]:
    """One-hot design over (product, reviewer) units, in sorted unit order.

    A unit enters only if it has a record for every factor question; its
    target is its majority classification from the dataset's unit table.
    Reference level per factor is the lexicographically first label.
    """
    questions = [f for f in factors if f != "team"]
    use_team = "team" in factors
    for q in questions:
        if q not in dataset.questions:
            raise DatasetValidationError(f"factor {q!r} is not a question in the dataset")

    units = dataset.units
    # A factor named twice can never be covered by a unit's distinct answers.
    covered = np.full(len(units), len(set(questions)) == len(questions))
    columns: list[str] = []
    blocks: list[np.ndarray] = []
    for q in questions:
        levels = dataset.category_space[q][1:]
        answered, indicators = dataset.unit_indicators(q, levels)
        covered &= answered
        columns.extend(f"{q}={label}" for label in levels)
        blocks.append(indicators)
    keys = list(compress(units, covered.tolist()))
    if not keys:
        raise DatasetValidationError("no (product, reviewer) unit covers every factor")

    classes = [units[key].classification for key in keys]
    labels = tuple(sorted(set(classes)))
    if len(labels) != 2:
        raise NonBinaryTargetError(labels)

    design = (np.hstack([block[covered] for block in blocks]) if blocks
              else np.zeros((len(keys), 0)))
    if use_team:
        teams = [units[key].team for key in keys]
        if None in teams:
            raise DatasetValidationError("factor 'team' requested but some units lack a team")
        team_levels = sorted(set(teams))[1:]
        columns.extend(f"team={level}" for level in team_levels)
        design = np.hstack([design, np.array(
            [[team == level for level in team_levels] for team in teams], dtype=float
        )])
    target = [0 if label == labels[0] else 1 for label in classes]
    return design, columns, target, labels


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
    design, columns, target, labels = _encode_units(dataset, factors)
    ols_result = ols_fit(design, [float(t) for t in target], column_names=columns)
    logistic_result: RegressionFit | None = None
    logistic_error = None
    try:
        logistic_result = logistic_fit(design, [float(t) for t in target], column_names=columns)
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
        n_rows=len(design),
        factors=tuple(factors),
        ranked_by=ranked_by,
        ols_intercept=ols_result.intercept,
        logistic_intercept=None if logistic_result is None else logistic_result.intercept,
        ols_error=None,
        logistic_error=logistic_error,
        effects=tuple(effects),
    )
