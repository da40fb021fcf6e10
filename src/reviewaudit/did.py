"""Difference-in-Differences estimation of review-process-change effects.

The panel holds (group, period, outcome) observations split by a change
period into pre and post eras. Under the parallel-trends assumption the
treated group's post-era counterfactual is its pre-era mean shifted by the
control group's movement, and the treatment effect is

    effect = (treated_post - treated_pre) - (control_post - control_pre)

computed over unweighted era means (a period-balanced variant averages
period means instead). The per-period counterfactual series reproduces the
dotted hypothetical-trajectory view for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import PanelError
from .model import ReviewDataset
from .rng import derive_stream

GROUPS = ("treated", "control")


@dataclass(frozen=True)
class DidPanel:
    observations: tuple[tuple[str, int, float], ...]
    change_period: int

    def __post_init__(self):
        if not self.observations:
            raise PanelError("panel has no observations")
        for group, period, outcome in self.observations:
            if group not in GROUPS:
                raise PanelError(f"group must be one of {GROUPS}, got {group!r}")
            if not isinstance(period, int):
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


def _era_mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _collect(panel: DidPanel) -> dict[str, dict[int, list[float]]]:
    cells: dict[str, dict[int, list[float]]] = {g: {} for g in GROUPS}
    for group, period, outcome in panel.observations:
        cells[group].setdefault(period, []).append(outcome)
    return cells


def _estimate(cells: dict[str, dict[int, list[float]]], change_period: int,
              period_balanced: bool) -> tuple[float, float, float, float]:
    means = []
    for group in GROUPS:
        for pre in (True, False):
            periods = [p for p in cells[group] if (p < change_period) == pre]
            if period_balanced:
                means.append(
                    _era_mean([_era_mean(cells[group][p]) for p in sorted(periods)])
                )
            else:
                pooled = [v for p in periods for v in cells[group][p]]
                means.append(_era_mean(pooled))
    return means[0], means[1], means[2], means[3]


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
    t_pre, t_post, c_pre, c_post = _estimate(cells, panel.change_period, period_balanced)
    effect = (t_post - t_pre) - (c_post - c_pre)

    series = {
        group: tuple(
            (p, _era_mean(cells[group][p])) for p in sorted(cells[group])
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
        if bootstrap < 1:
            raise ValueError(f"bootstrap replicate count must be >= 1, got {bootstrap}")
        replicates = []
        for rep in range(bootstrap):
            stream = derive_stream(seed, 0xD1D, rep)
            resampled: dict[str, dict[int, list[float]]] = {g: {} for g in GROUPS}
            for group in GROUPS:
                for period, values in cells[group].items():
                    resampled[group][period] = [
                        values[stream.randbelow(len(values))] for _ in values
                    ]
            rt_pre, rt_post, rc_pre, rc_post = _estimate(
                resampled, panel.change_period, period_balanced
            )
            replicates.append((rt_post - rt_pre) - (rc_post - rc_pre))
        mean_rep = math.fsum(replicates) / len(replicates)
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


def reviewer_classifications(dataset: ReviewDataset) -> dict[tuple[str, str], int | None]:
    """Period per (product, reviewer) unit, keyed in sorted unit order.

    Every record of a unit must carry the same period (or none); a unit
    spanning periods raises PanelError.
    """
    periods, conflict = dataset.unit_field("period")
    if conflict is not None:
        (product, reviewer), _, _ = conflict
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
        for key in units:
            if periods[key] is None:
                raise PanelError(
                    f"record for product {key[0]!r} lacks a period; "
                    "difference-in-differences needs period-tagged data"
                )
            observations.append((group, periods[key], float(errors[key])))
    panel = DidPanel(observations=tuple(observations), change_period=change_period)
    return did_estimate(panel, period_balanced=period_balanced)
