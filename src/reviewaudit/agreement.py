"""Agreement rate and Fleiss kappa over validated review panels.

Fleiss' kappa corrects multi-rater agreement for chance:

    kappa = (p_bar - p_e_bar) / (1 - p_e_bar)

where p_bar is the mean per-subject proportion of agreeing rater pairs and
p_e_bar is the chance agreement implied by the marginal category
proportions. The per-subject agreement uses the pair-count identity
P_i = (sum_j n_ij^2 - n) / (n (n - 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    EmptyMatrixError,
    KappaUndefinedError,
    NoCompleteProductsError,
)
from .model import RatingMatrix, ReviewDataset, rating_matrix

OVERALL_KAPPA_MODES = ("pooled", "mean_of_questions")


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    p_bar: float
    p_e_bar: float
    n_subjects: int
    n_raters: int
    n_categories: int


def fleiss_kappa(matrix: RatingMatrix) -> KappaResult:
    """Fleiss' kappa for a rating matrix.

    Raises KappaUndefinedError when every rating falls in one category
    (chance agreement is exactly 1 and the statistic has a zero
    denominator); that situation is detected on the integer counts, never
    by floating-point comparison.
    """
    n = matrix.n
    n_subjects = matrix.n_subjects
    total_ratings = n_subjects * n
    col_totals = [
        sum(row[j] for row in matrix.counts) for j in range(matrix.n_categories)
    ]
    if any(t == total_ratings for t in col_totals):
        raise KappaUndefinedError(
            "all ratings fall in a single category; kappa is undefined"
        )
    p_bar = math.fsum(
        (sum(c * c for c in row) - n) / (n * (n - 1)) for row in matrix.counts
    ) / n_subjects
    p_j = [t / total_ratings for t in col_totals]
    p_e_bar = math.fsum(p * p for p in p_j)
    kappa = (p_bar - p_e_bar) / (1.0 - p_e_bar)
    return KappaResult(
        kappa=kappa,
        p_bar=p_bar,
        p_e_bar=p_e_bar,
        n_subjects=n_subjects,
        n_raters=n,
        n_categories=matrix.n_categories,
    )


def agreement_rate(dataset: ReviewDataset) -> float:
    """Fraction of fully-rated products with complete reviewer consensus.

    A product counts toward the denominator only when it has a complete
    cell for every question; it counts toward the numerator when all
    reviewers gave identical answers on every question.
    """
    cells = dataset._cells
    unanimous = (cells.answers == cells.answers[:, :1]).all(axis=1)
    n_questions = len(dataset.questions)
    complete = int(np.count_nonzero(np.bincount(cells.product) == n_questions))
    consensus = int(np.count_nonzero(np.bincount(cells.product[unanimous]) == n_questions))
    if complete == 0:
        raise NoCompleteProductsError(
            "no product has complete ratings on every question"
        )
    return consensus / complete


@dataclass(frozen=True)
class AgreementReport:
    """Per-question and overall agreement diagnostics.

    disagreement_ranking lists the questions with a computable kappa in
    ascending kappa order (highest disagreement first), ties broken
    lexicographically; questions whose kappa could not be computed are in
    annotations instead. overall_detail carries the pooled computation's
    full result and is None under mean_of_questions, whose aggregate is a
    plain mean of per-question kappas.
    """

    overall_mode: str
    overall_kappa: float
    overall_detail: KappaResult | None
    agreement_rate: float | None
    per_question: Mapping[str, KappaResult]
    annotations: Mapping[str, str]
    disagreement_ranking: tuple[str, ...]
    notes: tuple[str, ...]


def pooled_rating_matrix(dataset: ReviewDataset) -> RatingMatrix:
    """All complete (product, question) cells as subjects over the union
    category space."""
    union: set[str] = set()
    for q in dataset.questions:
        union.update(dataset.category_space[q])
    categories = tuple(sorted(union))
    if len(categories) < 2:
        raise KappaUndefinedError(
            "union category space has a single category; agreement is undefined"
        )
    counts, products = dataset._category_counts(slice(None), categories)
    if not counts:
        raise EmptyMatrixError("dataset has no complete cells")
    per_question = np.diff(dataset._cells.bounds)
    questions = np.repeat(np.arange(len(per_question)), per_question).tolist()
    return RatingMatrix(
        counts=counts,
        n=dataset.n_raters,
        categories=categories,
        subjects=tuple(map("{}/{}".format, products,
                           map(dataset.questions.__getitem__, questions))),
    )


def analyze_agreement(dataset: ReviewDataset, mode: str = "pooled") -> AgreementReport:
    """Per-question kappa, overall kappa under the requested mode, the
    consensus agreement rate, and the disagreement ranking.

    Per-question failures (no complete cells, single-category ratings)
    become annotations; the call fails only if no question is computable.
    """
    if mode not in OVERALL_KAPPA_MODES:
        raise ValueError(f"mode must be one of {OVERALL_KAPPA_MODES}, got {mode!r}")
    per_question: dict[str, KappaResult] = {}
    annotations: dict[str, str] = {}
    for q in dataset.questions:
        try:
            per_question[q] = fleiss_kappa(rating_matrix(dataset, q))
        except (EmptyMatrixError, KappaUndefinedError) as exc:
            annotations[q] = str(exc)
    if not per_question:
        raise EmptyMatrixError("no question yields a computable kappa")

    notes: list[str] = []
    if mode == "pooled":
        detail = fleiss_kappa(pooled_rating_matrix(dataset))
        overall = detail.kappa
    else:
        detail = None
        overall = math.fsum(r.kappa for r in per_question.values()) / len(per_question)

    try:
        rate: float | None = agreement_rate(dataset)
    except NoCompleteProductsError as exc:
        rate = None
        notes.append(f"agreement rate unavailable: {exc}")

    ranking = tuple(sorted(per_question, key=lambda q: (per_question[q].kappa, q)))
    return AgreementReport(
        per_question=MappingProxyType(dict(sorted(per_question.items()))),
        annotations=MappingProxyType(dict(sorted(annotations.items()))),
        overall_mode=mode,
        overall_kappa=overall,
        overall_detail=detail,
        agreement_rate=rate,
        disagreement_ranking=ranking,
        notes=tuple(notes),
    )
