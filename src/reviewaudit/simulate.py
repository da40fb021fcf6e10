"""Deterministic synthetic review-panel generator.

Products carry a latent true answer per question; each reviewer reports it
but, with probability equal to the question's difficulty, redraws from the
category space weighted by their preference weights (uniform when no bias
is configured). With probability `anchoring` a reviewer other than the
first copies the immediately previous reviewer's answer instead of judging
independently, which models sequential review visibility. A reviewer's
final classification is the majority vote over their own answer indices
across questions (ties break to the lowest index); ground truth applies the
same rule to the latent answers.

All randomness comes from SplitMix64 substreams keyed by
(seed, group, period, product, ...), so identical configurations produce
byte-identical panels on every platform and product order never affects
draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

from .errors import ConfigError
from .model import FIELDS, RecordColumns, ReviewDataset, majority, validate_dataset
from .rng import SplitMix64, derive_stream

_FLIP_KEY = 0x7E4  # distinguishes classification-flip streams from answer streams


@dataclass(frozen=True)
class QuestionSpec:
    question_id: str
    n_categories: int
    difficulty: float

    def __post_init__(self):
        if not isinstance(self.question_id, str) or not self.question_id:
            raise ConfigError(f"question_id must be a non-empty string, got {self.question_id!r}")
        if self.n_categories < 2:
            raise ConfigError(
                f"question {self.question_id!r} needs >= 2 categories, got {self.n_categories}"
            )
        if not (0.0 <= self.difficulty <= 1.0):
            raise ConfigError(
                f"question {self.question_id!r} difficulty must be in [0, 1], "
                f"got {self.difficulty}"
            )


@dataclass(frozen=True)
class Treatment:
    change_period: int
    error_rate_delta: float

    def __post_init__(self):
        if not isinstance(self.change_period, int):
            raise ConfigError(f"change_period must be an integer, got {self.change_period!r}")
        if not (0.0 <= self.error_rate_delta <= 1.0):
            raise ConfigError(
                f"error_rate_delta must be in [0, 1], got {self.error_rate_delta}"
            )


@dataclass(frozen=True)
class SimulationConfig:
    n_products: int
    n_reviewers: int
    questions: tuple[QuestionSpec, ...]
    reviewer_bias: Mapping[str, tuple[float, ...]] | None = None
    anchoring: float = 0.0
    treatment: Treatment | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_products < 1:
            raise ConfigError(f"n_products must be >= 1, got {self.n_products}")
        if self.n_reviewers < 1:
            raise ConfigError(f"n_reviewers must be >= 1, got {self.n_reviewers}")
        if not self.questions:
            raise ConfigError("at least one question is required")
        ids = [q.question_id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise ConfigError("question ids must be distinct")
        if not (0.0 <= self.anchoring <= 1.0):
            raise ConfigError(f"anchoring must be in [0, 1], got {self.anchoring}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.reviewer_bias:
            known = set(self.reviewer_ids)
            for reviewer, weights in self.reviewer_bias.items():
                if reviewer not in known:
                    raise ConfigError(f"bias for unknown reviewer {reviewer!r}")
                if any(w < 0 for w in weights):
                    raise ConfigError(f"bias weights for {reviewer!r} must be non-negative")
                for q in self.questions:
                    head = list(weights[: q.n_categories])
                    if len(head) < q.n_categories:
                        raise ConfigError(
                            f"bias weights for {reviewer!r} cover {len(weights)} categories "
                            f"but question {q.question_id!r} has {q.n_categories}"
                        )
                    if sum(head) <= 0:
                        raise ConfigError(
                            f"bias weights for {reviewer!r} are all zero over question "
                            f"{q.question_id!r}"
                        )

    @property
    def reviewer_ids(self) -> tuple[str, ...]:
        return tuple(f"r{i}" for i in range(self.n_reviewers))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SimulationConfig":
        try:
            questions = tuple(
                QuestionSpec(
                    question_id=str(q["id"]),
                    n_categories=int(q["n_categories"]),
                    difficulty=float(q["difficulty"]),
                )
                for q in payload["questions"]
            )
            treatment = None
            if payload.get("treatment") is not None:
                t = payload["treatment"]
                treatment = Treatment(
                    change_period=int(t["change_period"]),
                    error_rate_delta=float(t["error_rate_delta"]),
                )
            bias = None
            if payload.get("reviewer_bias"):
                bias = {
                    str(r): tuple(float(w) for w in ws)
                    for r, ws in payload["reviewer_bias"].items()
                }
            return cls(
                n_products=int(payload["n_products"]),
                n_reviewers=int(payload["n_reviewers"]),
                questions=questions,
                reviewer_bias=bias,
                anchoring=float(payload.get("anchoring", 0.0)),
                treatment=treatment,
                seed=int(payload.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed simulation config: {exc}") from exc

    @classmethod
    def from_json(cls, stream: IO[str] | str) -> "SimulationConfig":
        text = stream if isinstance(stream, str) else stream.read()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _labels(prefix: str, k: int) -> list[str]:
    width = len(str(k - 1))
    return [f"{prefix}{j:0{width}d}" for j in range(k)]


def _draw_answer(
    stream: SplitMix64,
    latent: int,
    question: QuestionSpec,
    bias: Sequence[float] | None,
) -> int:
    if stream.random() >= question.difficulty:
        return latent
    if bias is None:
        return stream.randbelow(question.n_categories)
    return stream.weighted_index(list(bias[: question.n_categories]))


def _generate_records(
    config: SimulationConfig,
    columns: Sequence[list],
    *,
    salt: tuple[int, ...] = (),
    product_prefix: str = "p",
    period: int | None = None,
    flip_delta: float = 0.0,
) -> dict[str, str]:
    """Append a panel's records to columns, one value list per ReviewRecord
    field, and return its ground truth."""
    products, reviewer_ids, question_ids, answer_ids, classifications, teams, periods = columns
    reviewers = config.reviewer_ids
    questions = [q.question_id for q in config.questions]
    answer_labels = [_labels("a", q.n_categories) for q in config.questions]
    class_labels = _labels("class", max(q.n_categories for q in config.questions))
    width = len(str(config.n_products - 1)) if config.n_products > 1 else 1
    per_product = len(reviewers) * len(questions)
    truth: dict[str, str] = {}
    for i in range(config.n_products):
        product_id = f"{product_prefix}{i:0{width}d}"
        latent_votes: list[int] = []
        answers: list[list[int]] = [[] for _ in reviewers]  # per reviewer, per question
        for qi, question in enumerate(config.questions):
            stream = derive_stream(config.seed, *salt, i, qi)
            latent = stream.randbelow(question.n_categories)
            latent_votes.append(latent)
            previous = None
            for ri, reviewer in enumerate(reviewers):
                if ri > 0 and config.anchoring > 0.0 and stream.random() < config.anchoring:
                    answer = previous
                else:
                    bias = (
                        config.reviewer_bias.get(reviewer)
                        if config.reviewer_bias
                        else None
                    )
                    answer = _draw_answer(stream, latent, question, bias)
                answers[ri].append(answer)
                previous = answer
        truth_index = majority(latent_votes)
        truth[product_id] = class_labels[truth_index]
        products.extend([product_id] * per_product)
        for ri, reviewer in enumerate(reviewers):
            verdict = majority(answers[ri])
            if flip_delta > 0.0:
                flip_stream = derive_stream(config.seed, *salt, i, _FLIP_KEY, ri)
                if flip_stream.random() < flip_delta and verdict == truth_index:
                    # force a wrong classification: lowest index differing from truth
                    verdict = 0 if truth_index != 0 else 1
            reviewer_ids.extend([reviewer] * len(questions))
            question_ids.extend(questions)
            answer_ids.extend(map(list.__getitem__, answer_labels, answers[ri]))
            classifications.extend([class_labels[verdict]] * len(questions))
    teams.extend([None] * (per_product * config.n_products))
    periods.extend([period] * (per_product * config.n_products))
    return truth


def simulate_panel(config: SimulationConfig) -> tuple[ReviewDataset, dict[str, str]]:
    """Generate one review panel and its ground-truth classifications."""
    columns: list[list] = [[] for _ in FIELDS]
    truth = _generate_records(config, columns)
    return validate_dataset(RecordColumns.from_values(columns)), truth


@dataclass(frozen=True)
class DidPair:
    """Treated and control panels spanning pre/post periods, for DiD."""

    treated: ReviewDataset
    control: ReviewDataset
    ground_truth: Mapping[str, str]
    change_period: int


def inject_review_change(
    config: SimulationConfig, periods: Sequence[int] = (0, 1)
) -> DidPair:
    """Generate paired treated/control panels with the configured treatment.

    Every (group, period) combination gets a fresh panel of n_products
    products; the treated group's post-change classifications are forced
    wrong with probability error_rate_delta, shifting its error rate by
    roughly that amount while ground truth is retained for recovery.
    """
    if config.treatment is None:
        raise ConfigError("config has no treatment block")
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in periods):
        raise ConfigError(f"periods must be integers, got {list(periods)}")
    change = config.treatment.change_period
    if not any(p < change for p in periods) or not any(p >= change for p in periods):
        raise ConfigError(
            f"periods {list(periods)} must straddle the change period {change}"
        )
    truth: dict[str, str] = {}
    datasets = {}
    for gi, group in enumerate(("control", "treated")):
        columns: list[list] = [[] for _ in FIELDS]
        for period in periods:
            delta = (
                config.treatment.error_rate_delta
                if group == "treated" and period >= change
                else 0.0
            )
            truth.update(_generate_records(
                config,
                columns,
                salt=(gi, period),
                product_prefix=f"{group}-{period}-p",
                period=period,
                flip_delta=delta,
            ))
        datasets[group] = validate_dataset(RecordColumns.from_values(columns))
    return DidPair(
        treated=datasets["treated"],
        control=datasets["control"],
        ground_truth=truth,
        change_period=change,
    )
