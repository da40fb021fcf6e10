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

A panel is generated with array kernels (rng.SplitMix64Array): one stream
per (product, question), all advanced together one reviewer step at a
time, each making only the draws its scalar counterpart would. The output
is int32 code columns that index the final sorted label tables directly:
the simulator knows each table's order by construction, so it codes
through small lookup tables and makes no per-record label string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .model import (RecordColumns, ReviewDataset, cut_unused, is_int, is_label, label_codes,
                    majority, validate_dataset)
from .rng import SplitMix64Array, derive_stream, weighted_index

_FLIP_KEY = 0x7E4  # distinguishes classification-flip streams from answer streams


def _require_int(name: str, value) -> None:
    """Reject a non-integer, including a bool."""
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QuestionSpec:
    question_id: str
    n_categories: int
    difficulty: float

    def __post_init__(self):
        if not is_label(self.question_id):
            raise ConfigError(f"question_id must be a non-empty string, got {self.question_id!r}")
        _require_int("n_categories", self.n_categories)
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
        _require_int("change_period", self.change_period)
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
        _require_int("n_products", self.n_products)
        _require_int("n_reviewers", self.n_reviewers)
        _require_int("seed", self.seed)
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
        if self.reviewer_bias:
            known = set(self.reviewer_ids)
            for reviewer, weights in self.reviewer_bias.items():
                if reviewer not in known:
                    raise ConfigError(f"bias for unknown reviewer {reviewer!r}")
                if not all(math.isfinite(w) and w >= 0 for w in weights):
                    raise ConfigError(
                        f"bias weights for {reviewer!r} must be finite and non-negative"
                    )
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
                    n_categories=q["n_categories"],
                    difficulty=float(q["difficulty"]),
                )
                for q in payload["questions"]
            )
            treatment = None
            if payload.get("treatment") is not None:
                t = payload["treatment"]
                treatment = Treatment(
                    change_period=t["change_period"],
                    error_rate_delta=float(t["error_rate_delta"]),
                )
            bias = None
            if payload.get("reviewer_bias"):
                bias = {
                    str(r): tuple(float(w) for w in ws)
                    for r, ws in payload["reviewer_bias"].items()
                }
            return cls(
                n_products=payload["n_products"],
                n_reviewers=payload["n_reviewers"],
                questions=questions,
                reviewer_bias=bias,
                anchoring=float(payload.get("anchoring", 0.0)),
                treatment=treatment,
                seed=payload.get("seed", 0),
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


def _generate_records(
    config: SimulationConfig,
    *,
    salt: tuple[int, ...] = (),
    flip_delta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a chunk of n_products products: each product's latent truth
    index, the (product, reviewer, question) answer indices and each
    (product, reviewer) unit's classification index.

    Every (product, question) stream is drawn from at once, one reviewer
    step at a time: an anchoring draw, a difficulty draw for the streams
    that judge, and a redraw for those that miss.
    """
    n_products, n_reviewers = config.n_products, config.n_reviewers
    categories = [q.n_categories for q in config.questions]
    difficulty = np.array([q.difficulty for q in config.questions], np.float64)
    bias = config.reviewer_bias or {}
    products = np.arange(n_products, dtype=np.int32)
    prefix = derive_stream(config.seed, *salt)
    streams = SplitMix64Array.derive(prefix, products[:, None], np.arange(len(categories)))
    latent = streams.randbelow(categories)
    answers = np.zeros((n_products, n_reviewers, len(categories)), np.int32)
    for ri, reviewer in enumerate(config.reviewer_ids):
        judged = np.ones(latent.shape, bool)  # the streams whose reviewer does not copy
        if ri > 0 and config.anchoring > 0.0:
            judged = streams.random() >= config.anchoring
        redraw = judged & (streams.random(judged) < difficulty)
        if reviewer in bias:
            u = streams.random(redraw)
            drawn = latent.copy()
            for qi, k in enumerate(categories):
                rows = redraw[:, qi]
                drawn[rows, qi] = weighted_index(u[rows, qi], bias[reviewer][:k])
        else:
            drawn = np.where(redraw, streams.randbelow(categories, redraw), latent)
        answers[:, ri] = np.where(judged, drawn, answers[:, ri - 1])
    per_unit = len(categories)
    truth_index = majority(np.repeat(products, per_unit), latent.ravel())
    verdict = majority(np.repeat(np.arange(n_products * n_reviewers), per_unit), answers.ravel())
    verdict = verdict.reshape(n_products, n_reviewers).astype(np.int32)
    if flip_delta > 0.0:
        flips = SplitMix64Array.derive(prefix, products[:, None], _FLIP_KEY, np.arange(n_reviewers))
        # force a wrong classification: the lowest index differing from truth
        wrong = (flips.random() < flip_delta) & (verdict == truth_index[:, None])
        verdict = np.where(wrong, (truth_index == 0)[:, None].astype(np.int32), verdict)
    return truth_index, answers, verdict


def _dataset(
    config: SimulationConfig,
    chunks: Sequence[tuple[str, int | None, tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> tuple[ReviewDataset, dict[str, str]]:
    """Validate the records of chunks, (product prefix, period, draws)
    triples in record order, as one dataset; return it and the chunks'
    ground truth.

    The codes index the final sorted label tables by construction. A
    chunk's zero-padded product ids are sorted, and no prefix begins
    another, so a chunk's products are one run of the product table: a
    product's code is its prefix's offset plus its index (chunks of one
    prefix share their ids). Reviewers, questions and answers are coded
    through small sorted tables; only the answer and class tables can hold
    labels no record uses (categories never drawn), so only they are cut.
    """
    n, per_unit = config.n_products, len(config.questions)
    per_product = config.n_reviewers * per_unit
    categories = [q.n_categories for q in config.questions]
    prefixes = sorted({prefix for prefix, _, _ in chunks})
    periods = sorted({period for _, period, _ in chunks} - {None})
    width = len(str(n - 1))
    ids = {prefix: list(map(f"{prefix}%0{width}d".__mod__, range(n))) for prefix in prefixes}
    class_labels = _labels("class", max(categories))
    truth: dict[str, str] = {}
    for prefix, _, (truth_index, _, _) in chunks:
        truth.update(zip(ids[prefix], map(class_labels.__getitem__, truth_index.tolist())))

    offsets = np.array([prefixes.index(prefix) * n for prefix, _, _ in chunks], np.int32)
    products = (offsets[:, None] + np.arange(n, dtype=np.int32)).ravel()
    period_codes = [0 if period is None else 1 + periods.index(period) for _, period, _ in chunks]
    reviewers, reviewer_codes = label_codes(config.reviewer_ids)
    questions, question_codes = label_codes([q.question_id for q in config.questions])
    answer_labels, answer_codes = label_codes([a for k in categories for a in _labels("a", k)])
    answers = np.concatenate([draws[1] for _, _, draws in chunks]).reshape(-1, per_unit)
    answers += np.cumsum([0] + categories[:-1], dtype=np.int32)  # into one table for all questions
    verdicts, class_labels = cut_unused(
        np.concatenate([draws[2] for _, _, draws in chunks]).ravel(), class_labels)
    product_ids = tuple(chain.from_iterable(map(ids.__getitem__, prefixes)))
    columns = (
        (np.repeat(products, per_product), product_ids),
        (np.tile(np.repeat(reviewer_codes, per_unit), len(products)), reviewers),
        (np.tile(question_codes, len(products) * config.n_reviewers), questions),
        cut_unused(np.take(answer_codes, answers.ravel()), answer_labels),
        (np.repeat(verdicts, per_unit), class_labels),
        (np.zeros(len(products) * per_product, np.int32), (None,)),
        (np.repeat(np.array(period_codes, np.int32), n * per_product), (None, *periods)),
    )
    return validate_dataset(RecordColumns(*zip(*columns))), truth


def simulate_panel(config: SimulationConfig) -> tuple[ReviewDataset, dict[str, str]]:
    """Generate one review panel and its ground-truth classifications."""
    return _dataset(config, [("p", None, _generate_records(config))])


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
    if not all(map(is_int, periods)):
        raise ConfigError(f"periods must be integers, got {list(periods)}")
    change = config.treatment.change_period
    if not any(p < change for p in periods) or not any(p >= change for p in periods):
        raise ConfigError(
            f"periods {list(periods)} must straddle the change period {change}"
        )
    truth: dict[str, str] = {}
    datasets = {}
    for gi, group in enumerate(("control", "treated")):
        chunks = []
        for period in periods:
            delta = (
                config.treatment.error_rate_delta
                if group == "treated" and period >= change
                else 0.0
            )
            draws = _generate_records(config, salt=(gi, period), flip_delta=delta)
            chunks.append((f"{group}-{period}-p", period, draws))
        datasets[group], group_truth = _dataset(config, chunks)
        truth.update(group_truth)
    return DidPair(
        treated=datasets["treated"],
        control=datasets["control"],
        ground_truth=truth,
        change_period=change,
    )
