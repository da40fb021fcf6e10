"""Domain types and dataset validation.

A review panel is a long-format collection of records: one row per
(product, reviewer, question). Validation enforces uniqueness, derives the
reviewer roster and per-question category spaces, and applies the
incomplete-cell policy. Analysis-ready structures (rating matrices for
agreement, contingency tables for independence tests) are derived from the
validated dataset, as is the per-unit table: one row per (product,
reviewer) unit with the reviewer's majority classification and team. All
types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .errors import (
    DatasetValidationError,
    DegenerateTableError,
    DuplicateRecordError,
    EmptyMatrixError,
    IncompleteCellError,
    KappaUndefinedError,
    MissingGroundTruthError,
    UnknownQuestionError,
)

INCOMPLETE_CELL_POLICIES = ("drop", "strict")

L = TypeVar("L", bound=Hashable)


def majority(labels: Iterable[L]) -> L:
    """The most frequent label; a tie goes to the smallest label."""
    counts: dict[L, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], label))


@dataclass(frozen=True, order=True)
class ReviewRecord:
    """One reviewer's answer to one rubric question about one product."""

    product_id: str
    reviewer_id: str
    question_id: str
    answer: str
    final_classification: str
    team: str | None = None
    period: int | None = None

    def __post_init__(self):
        for name in ("product_id", "reviewer_id", "question_id", "answer",
                     "final_classification"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise DatasetValidationError(f"{name} must be a non-empty string, got {value!r}")
        if self.team is not None and (not isinstance(self.team, str) or not self.team):
            raise DatasetValidationError(f"team must be None or a non-empty string, got {self.team!r}")
        if self.period is not None and not isinstance(self.period, int):
            raise DatasetValidationError(f"period must be None or an integer, got {self.period!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.product_id, self.reviewer_id, self.question_id)


@dataclass(frozen=True)
class ValidationSummary:
    """What validation kept and what it dropped."""

    n_input_records: int
    n_records: int
    n_dropped_cells: int
    n_dropped_records: int
    dropped_cells: tuple[tuple[str, str], ...]
    policy: str


class Unit(NamedTuple):
    """One (product, reviewer) unit: the reviewer's majority final
    classification over the product's questions, and the team that every
    record of the unit carries."""

    classification: str
    team: str | None


@dataclass(frozen=True)
class ReviewDataset:
    """A validated panel. Construct via validate_dataset, not directly.

    reviewers and questions are the distinct identifiers observed in the
    input (before any dropping), sorted lexicographically. n_raters is the
    size of the reviewer roster; every surviving (product, question) cell
    carries exactly n_raters ratings.
    """

    records: tuple[ReviewRecord, ...]
    reviewers: tuple[str, ...]
    questions: tuple[str, ...]
    category_space: Mapping[str, tuple[str, ...]]
    n_raters: int
    summary: ValidationSummary
    _cells: Mapping[tuple[str, str], tuple[ReviewRecord, ...]] = field(
        repr=False, compare=False, default_factory=dict
    )

    @property
    def products(self) -> tuple[str, ...]:
        return tuple(sorted({r.product_id for r in self.records}))

    @cached_property
    def units(self) -> Mapping[tuple[str, str], Unit]:
        """The per-unit table, keyed by (product, reviewer) in sorted order.

        Built on first use and kept, so validation itself does no extra work.
        Raises DatasetValidationError when a unit's records disagree on team.
        """
        labels: dict[tuple[str, str], list[str]] = {}
        teams: dict[tuple[str, str], str | None] = {}
        for rec in self.records:
            key = (rec.product_id, rec.reviewer_id)
            if key in labels:
                labels[key].append(rec.final_classification)
                if rec.team != teams[key]:
                    raise DatasetValidationError(
                        f"unit (product={key[0]!r}, reviewer={key[1]!r}) has records "
                        f"in teams {teams[key]!r} and {rec.team!r}"
                    )
            else:
                labels[key] = [rec.final_classification]
                teams[key] = rec.team
        return MappingProxyType(
            {key: Unit(majority(labels[key]), teams[key]) for key in sorted(labels)}
        )

    def unit_errors(
        self, ground_truth: Mapping[str, str] | None
    ) -> tuple[dict[tuple[str, str], int], str]:
        """0/1 misclassification indicator per unit, and the basis used.

        Compared against ground truth when supplied, otherwise against the
        product's consensus classification (the majority of its units'
        classifications, ties lexicographic).
        """
        units = self.units
        if ground_truth is None:
            by_product: dict[str, list[str]] = {}
            for (product, _), unit in units.items():
                by_product.setdefault(product, []).append(unit.classification)
            reference = {product: majority(labels) for product, labels in by_product.items()}
            basis = "consensus"
        else:
            reference, basis = ground_truth, "ground_truth"
        outcomes = {}
        for key, unit in units.items():
            if key[0] not in reference:
                raise MissingGroundTruthError(key[0])
            outcomes[key] = int(unit.classification != reference[key[0]])
        return outcomes, basis

    def records_for_question(self, question: str) -> tuple[ReviewRecord, ...]:
        if question not in self.questions:
            raise UnknownQuestionError(question)
        return tuple(r for r in self.records if r.question_id == question)

    def cell(self, product: str, question: str) -> tuple[ReviewRecord, ...]:
        return self._cells.get((product, question), ())

    def cells_for_question(self, question: str) -> list[tuple[str, tuple[ReviewRecord, ...]]]:
        """Complete cells for a question, sorted by product id."""
        if question not in self.questions:
            raise UnknownQuestionError(question)
        out = [(p, recs) for (p, q), recs in self._cells.items() if q == question]
        out.sort(key=lambda item: item[0])
        return out


def validate_dataset(
    records: Iterable[ReviewRecord],
    policy: str = "drop",
    declared_categories: Mapping[str, Sequence[str]] | None = None,
) -> ReviewDataset:
    """Validate records into an analysis-ready dataset.

    The rater count n is the number of distinct reviewers in the input; a
    (product, question) cell with fewer than n ratings is incomplete and is
    dropped (policy="drop", with an audit trail in the summary) or rejected
    (policy="strict"). An optional declared category list per question
    replaces the observed label union; observed labels outside it are
    rejected.
    """
    if policy not in INCOMPLETE_CELL_POLICIES:
        raise ValueError(f"policy must be one of {INCOMPLETE_CELL_POLICIES}, got {policy!r}")
    records = list(records)
    if not records:
        raise DatasetValidationError("input records must be non-empty")

    seen: set[tuple[str, str, str]] = set()
    for rec in records:
        if rec.key in seen:
            raise DuplicateRecordError(rec.key)
        seen.add(rec.key)

    reviewers = tuple(sorted({r.reviewer_id for r in records}))
    questions = tuple(sorted({r.question_id for r in records}))
    n_raters = len(reviewers)

    by_cell: dict[tuple[str, str], list[ReviewRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.product_id, rec.question_id), []).append(rec)

    incomplete = sorted(cell for cell, recs in by_cell.items() if len(recs) < n_raters)
    if incomplete and policy == "strict":
        raise IncompleteCellError(incomplete)

    kept_cells = {
        cell: tuple(sorted(recs))
        for cell, recs in by_cell.items()
        if len(recs) == n_raters
    }
    kept_records = tuple(sorted(r for recs in kept_cells.values() for r in recs))
    n_dropped_records = len(records) - len(kept_records)

    categories: dict[str, tuple[str, ...]] = {}
    for q in questions:
        observed = sorted({r.answer for r in kept_records if r.question_id == q})
        if declared_categories is not None and q in declared_categories:
            declared = sorted(set(declared_categories[q]))
            extra = [a for a in observed if a not in declared]
            if extra:
                raise DatasetValidationError(
                    f"question {q!r} has observed answers outside the declared "
                    f"category list: {extra}"
                )
            categories[q] = tuple(declared)
        else:
            categories[q] = tuple(observed)

    summary = ValidationSummary(
        n_input_records=len(records),
        n_records=len(kept_records),
        n_dropped_cells=len(incomplete),
        n_dropped_records=n_dropped_records,
        dropped_cells=tuple(incomplete),
        policy=policy,
    )
    return ReviewDataset(
        records=kept_records,
        reviewers=reviewers,
        questions=questions,
        category_space=MappingProxyType(categories),
        n_raters=n_raters,
        summary=summary,
        _cells=MappingProxyType(kept_cells),
    )


@dataclass(frozen=True)
class RatingMatrix:
    """Per-subject category counts: N subjects x K categories, n raters each."""

    counts: tuple[tuple[int, ...], ...]
    n: int
    categories: tuple[str, ...]
    subjects: tuple[str, ...]

    def __post_init__(self):
        if self.n < 2:
            raise EmptyMatrixError(f"rating matrix requires n >= 2 raters, got {self.n}")
        if len(self.counts) < 1:
            raise EmptyMatrixError("rating matrix requires at least one subject")
        if len(self.categories) < 2:
            raise KappaUndefinedError(
                "rating matrix spans a single category; agreement is undefined"
            )
        if len(self.subjects) != len(self.counts):
            raise ValueError("subjects and counts must have equal length")
        for subject, row in zip(self.subjects, self.counts):
            if len(row) != len(self.categories):
                raise ValueError(f"row width mismatch for subject {subject!r}")
            if any(c < 0 for c in row):
                raise ValueError(f"negative count for subject {subject!r}")
            if sum(row) != self.n:
                raise ValueError(
                    f"row for subject {subject!r} sums to {sum(row)}, expected n={self.n}"
                )

    @property
    def n_subjects(self) -> int:
        return len(self.counts)

    @property
    def n_categories(self) -> int:
        return len(self.categories)


def rating_matrix(dataset: ReviewDataset, question: str) -> RatingMatrix:
    """Count, per product, how many reviewers chose each category.

    Rows are restricted to products with a complete cell for the question,
    in sorted product order; columns follow the question's category space.
    """
    cells = dataset.cells_for_question(question)
    if dataset.n_raters < 2:
        raise EmptyMatrixError(
            f"question {question!r} has {dataset.n_raters} rater(s); need at least 2"
        )
    if not cells:
        raise EmptyMatrixError(f"question {question!r} has no complete cells")
    categories = dataset.category_space[question]
    if len(categories) < 2:
        raise KappaUndefinedError(
            f"question {question!r} has a single-category space; agreement is undefined"
        )
    index = {label: j for j, label in enumerate(categories)}
    rows = []
    subjects = []
    for product, recs in cells:
        row = [0] * len(categories)
        for rec in recs:
            row[index[rec.answer]] += 1
        rows.append(tuple(row))
        subjects.append(product)
    return RatingMatrix(
        counts=tuple(rows),
        n=dataset.n_raters,
        categories=categories,
        subjects=tuple(subjects),
    )


@dataclass(frozen=True)
class ContingencyTable:
    """Observed and expected counts of answer (rows) x classification (cols)."""

    observed: tuple[tuple[int, ...], ...]
    expected: tuple[tuple[float, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.observed)

    @property
    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[c] for row in self.observed) for c in range(len(self.col_labels)))

    @property
    def grand_total(self) -> int:
        return sum(self.row_totals)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    @classmethod
    def from_observed(
        cls,
        observed: Sequence[Sequence[int]],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ) -> "ContingencyTable":
        """Build a table from observed counts, deriving expected from margins."""
        rows = tuple(tuple(int(v) for v in row) for row in observed)
        if not rows or not rows[0]:
            raise DegenerateTableError("observed counts must form a non-empty table")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("observed rows must have equal length")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("observed counts must be non-negative")
        if row_labels is None:
            row_labels = tuple(f"r{i}" for i in range(len(rows)))
        if col_labels is None:
            col_labels = tuple(f"c{j}" for j in range(width))
        if len(row_labels) != len(rows) or len(col_labels) != width:
            raise ValueError("label lengths must match table shape")
        grand = sum(v for row in rows for v in row)
        if grand == 0:
            raise DegenerateTableError("table has no observations")
        row_totals = [sum(row) for row in rows]
        col_totals = [sum(row[c] for row in rows) for c in range(width)]
        expected = tuple(
            tuple(row_totals[r] * col_totals[c] / grand for c in range(width))
            for r in range(len(rows))
        )
        return cls(
            observed=rows,
            expected=expected,
            row_labels=tuple(row_labels),
            col_labels=tuple(col_labels),
        )

    def is_degenerate(self) -> bool:
        return (
            len(self.row_labels) < 2
            or len(self.col_labels) < 2
            or any(t == 0 for t in self.row_totals)
            or any(t == 0 for t in self.col_totals)
        )


def contingency_from(dataset: ReviewDataset, question: str) -> ContingencyTable:
    """Cross-tabulate a question's answers against final classifications.

    Each (product, reviewer) answer instance contributes one count. A table
    with fewer than two distinct answers or classifications, or with a zero
    margin (possible under a declared category space), is degenerate and
    raises rather than being silently reduced.
    """
    records = dataset.records_for_question(question)
    if not records:
        raise EmptyMatrixError(f"question {question!r} has no records")
    answers = dataset.category_space[question]
    classifications = tuple(sorted({r.final_classification for r in records}))
    table_counts = {(a, c): 0 for a in answers for c in classifications}
    for rec in records:
        table_counts[(rec.answer, rec.final_classification)] += 1
    observed = [[table_counts[(a, c)] for c in classifications] for a in answers]
    table = ContingencyTable.from_observed(observed, answers, classifications)
    if table.is_degenerate():
        raise DegenerateTableError(
            f"question {question!r} yields a degenerate {table.shape[0]}x{table.shape[1]} "
            "table (needs >= 2 answers and >= 2 classifications with non-zero margins)"
        )
    return table
