"""Difference-in-Differences estimation of review-process-change effects.

The panel holds (group, period, outcome) observations, as a group code, an
int64 period and a float64 outcome array, split by a change period into pre
and post eras. Under the parallel-trends assumption the treated group's
post-era counterfactual is its pre-era mean shifted by the control group's
movement, and the treatment effect is

    effect = (treated_post - treated_pre) - (control_post - control_pre)

computed over unweighted era means (a period-balanced variant averages
period means instead). The per-period counterfactual series reproduces the
dotted hypothetical-trajectory view for plotting. Every mean is
math.fsum(xs) / len(xs): np.bincount sums non-negative integer outcomes
(0/1 errors among them) exactly below 2**53, and math.fsum sums any others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .errors import PanelError
from .hypotheses import _mean
from .model import PERIOD, PRODUCT, ReviewDataset, is_int
from .rng import SplitMix64Array, derive_stream

GROUPS = ("treated", "control")
_BAD = (f"group must be one of {GROUPS}, got {{!r}}", "period must be an integer, got {!r}",
        "outcome must be finite, got {!r}")


def _require(nonempty: bool, change_period) -> None:
    if not nonempty:
        raise PanelError("panel has no observations")
    if not is_int(change_period):
        raise PanelError(f"change_period must be an integer, got {change_period!r}")


def _int64(periods: Sequence[int]) -> np.ndarray:
    try:
        return np.array(periods, np.int64)
    except OverflowError:
        raise PanelError("periods must fit in 64 bits") from None


@dataclass(frozen=True, init=False, eq=False)
class DidPanel:
    """Observations as aligned read-only arrays, group (codes into GROUPS),
    period and outcome, and the period from which the change is in effect.
    Each group needs observations before and from it. The constructor takes
    (group, period, outcome) tuples and names the first that is not one."""

    group: np.ndarray
    period: np.ndarray
    outcome: np.ndarray
    change_period: int

    def __init__(self, observations: Sequence[tuple[str, int, float]], change_period: int):
        _require(bool(observations), change_period)
        groups, periods, outcomes = zip(*observations, strict=True)
        named, n = np.fromiter(groups, object, len(groups)), len(groups)
        group = np.select([named == GROUPS[0], named == GROUPS[1]], [0, 1], -1)
        integer = np.fromiter(map(isinstance, periods, repeat(int)), bool, n)
        integer &= ~np.fromiter(map(isinstance, periods, repeat(bool)), bool, n)
        real = np.fromiter(map(isinstance, outcomes, repeat(Real)), bool, n)
        outcome = np.zeros(n)
        outcome[real] = np.fromiter(compress(outcomes, real), np.float64)
        bad = np.stack([group < 0, ~integer, ~(real & np.isfinite(outcome))], axis=1)
        if bad.any():
            i, column = divmod(int(bad.argmax()), 3)
            raise PanelError(_BAD[column].format(observations[i][column]))
        self._hold(group, _int64(periods), outcome, change_period)

    @classmethod
    def from_arrays(cls, group: np.ndarray, period: np.ndarray, outcome: np.ndarray,
                    change_period: int) -> "DidPanel":
        """A panel over the arrays, which are neither checked nor copied."""
        _require(len(group) > 0, change_period)
        panel = cls.__new__(cls)
        panel._hold(group, period, outcome, change_period)
        return panel

    def _hold(self, group, period, outcome, change_period) -> None:
        for name, value in zip(("group", "period", "outcome"), (group, period, outcome)):
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "change_period", change_period)
        eras = np.bincount(2 * group + (period >= change_period), minlength=4)
        if not eras.all():
            group, post = divmod(int(np.argmin(eras)), 2)
            raise PanelError(f"{GROUPS[group]} group has no "
                             f"{('pre', 'post')[post]}-period observations")

    @property
    def observations(self) -> tuple[tuple[str, int, float], ...]:
        return tuple(zip(map(GROUPS.__getitem__, self.group.tolist()), self.period.tolist(),
                         self.outcome.tolist()))


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


def _means(key: np.ndarray, outcome: np.ndarray, size: int, exact: bool) -> np.ndarray:
    """Per key below size, math.fsum of its outcomes / their count (nan
    where none); exact says np.bincount sums the outcomes exactly."""
    count = np.bincount(key, minlength=size)
    if exact:
        total = np.bincount(key, outcome, size)
    else:
        values, ends = outcome[np.argsort(key, kind="stable")].tolist(), np.cumsum(count).tolist()
        total = np.array([math.fsum(values[a:b]) for a, b in zip([0, *ends], ends)])
    return np.divide(total, count, out=np.full(size, np.nan), where=count > 0)


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
    comparison. Replicate r draws once per observation from
    derive_stream(seed, 0xD1D, r), in a fixed order: groups in GROUPS
    order, a group's periods in order of first sight, panel order within.
    """
    if bootstrap is not None and not (is_int(bootstrap) and bootstrap >= 1):
        raise ValueError(f"bootstrap replicate count must be an integer >= 1, got {bootstrap!r}")
    group, y, n = panel.group, panel.outcome, len(panel.group)
    periods, index = np.unique(panel.period, return_inverse=True)
    cell = group * len(periods) + index.ravel()  # cells in (group, period) order
    era = 2 * group + (panel.period >= panel.change_period)  # eras in (group, pre/post) order
    count = np.bincount(cell, minlength=2 * len(periods))
    present = count.reshape(2, -1) > 0
    post = periods >= panel.change_period
    exact = not np.signbit(y).any() and y.max() * n < 2 ** 53 and (y == np.trunc(y)).all()

    def estimate(outcome: np.ndarray) -> tuple[float, list[float]]:
        if period_balanced:
            means = _means(cell, outcome, 2 * len(periods), exact).reshape(2, -1)
            eras = [_mean(row[has & (post == late)].tolist())
                    for row, has in zip(means, present) for late in (False, True)]
        else:
            eras = _means(era, outcome, 4, exact).tolist()
        t_pre, t_post, c_pre, c_post = eras
        return (t_post - t_pre) - (c_post - c_pre), eras

    effect, (t_pre, t_post, c_pre, c_post) = estimate(y)
    means = _means(cell, y, 2 * len(periods), exact).reshape(2, -1)
    series = {name: tuple(zip(periods[has].tolist(), row[has].tolist()))
              for name, row, has in zip(GROUPS, means, present)}
    both = present.all(0) & post
    counterfactual = tuple(zip(periods[both].tolist(), (t_pre + (means[1][both] - c_pre)).tolist()))

    effect_se = None
    if bootstrap is not None:
        first = np.full(2 * len(periods), n)
        np.minimum.at(first, cell, np.arange(n))
        key = group * n + first[cell]
        order = np.argsort(key, kind="stable")  # the draw order
        key = key[order]
        start, size = np.searchsorted(key, key), count[cell[order]]
        replicates = []
        for rep in range(bootstrap):
            draws = SplitMix64Array.following(derive_stream(seed, 0xD1D, rep), n).randbelow(size)
            resampled = np.empty(n)
            resampled[order] = y[order[start + draws]]
            replicates.append(estimate(resampled)[0])
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
    columns = []
    for code, dataset in enumerate((treated, control)):
        units = dataset.units  # first, so a team conflict is reported first
        periods = reviewer_classifications(dataset)
        errors, _ = dataset.unit_errors(ground_truth)
        if not periods.all():  # code 0 is no period
            product = units.product[np.argmin(periods)]
            raise PanelError(
                f"record for product {dataset.records.labels[PRODUCT][product]!r} lacks a "
                "period; difference-in-differences needs period-tagged data"
            )
        table = _int64(dataset.records.labels[PERIOD][1:])
        columns.append((np.full(len(periods), code), table[periods - 1], errors))
    group, period, outcome = map(np.concatenate, zip(*columns))
    panel = DidPanel.from_arrays(group, period, outcome.astype(np.float64), change_period)
    return did_estimate(panel, period_balanced=period_balanced)
