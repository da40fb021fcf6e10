"""Domain types and dataset validation.

A review panel is a long-format collection of records: one row per
(product, reviewer, question). Validation enforces uniqueness, derives the
reviewer roster and per-question category spaces, and applies the
incomplete-cell policy. Analysis-ready structures (rating matrices for
agreement, contingency tables for independence tests) are derived from the
validated dataset, as is the per-unit table: one row per (product,
reviewer) unit with the reviewer's majority classification and team. All
types are immutable after construction and all operations are pure.

A validated panel is stored column-wise (RecordColumns): one int32 code
array per record field, each code an index into the field's sorted label
table, so that code order is label order and every derived input is a
sort or a bincount over codes. Record objects given to validation are not
kept: a record read from a panel is made from its label tables.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

import numpy as np

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
        if self.period is not None and (not isinstance(self.period, int)
                                        or isinstance(self.period, bool)):
            raise DatasetValidationError(f"period must be None or an integer, got {self.period!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.product_id, self.reviewer_id, self.question_id)


FIELDS = tuple(f.name for f in fields(ReviewRecord))
PRODUCT, REVIEWER, QUESTION, ANSWER, CLASSIFICATION, TEAM, PERIOD = range(len(FIELDS))
OPTIONAL = (TEAM, PERIOD)


class ColumnCoder:
    """Integer codes for one column's values, added in chunks.

    Values are numbered in order of first sight while chunks arrive;
    finish() renumbers them so that the codes index the sorted label table.
    An optional column's table starts with None.
    """

    def __init__(self, optional: bool = False):
        self.optional = optional
        self.index: dict = {None: 0} if optional else {}
        self.parts: list[np.ndarray] = []

    def add(self, values: Sequence) -> set:
        """Code a chunk of values; returns the values not seen before."""
        index = self.index
        new = set(values).difference(index)
        if new:
            index.update(zip(new, range(len(index), len(index) + len(new))))
        self.parts.append(np.fromiter(map(index.__getitem__, values), np.int32, len(values)))
        return new

    def finish(self, convert: Callable | None = None) -> tuple[np.ndarray, tuple]:
        """The codes and the label table; convert maps each distinct value
        to its label (values converting to one label share its code)."""
        seen = list(self.index)
        if convert is not None:
            seen = [convert(value) for value in seen]
        table = sorted(set(seen) - {None})
        if self.optional:
            table.insert(0, None)
        position = {label: i for i, label in enumerate(table)}
        lut = np.array([position[label] for label in seen], np.int32)
        if not self.parts:
            return np.zeros(0, np.int32), tuple(table)
        raw = self.parts[0] if len(self.parts) == 1 else np.concatenate(self.parts)
        return lut[raw], tuple(table)


class RecordColumns(Sequence[ReviewRecord]):
    """Review records stored as one int32 code array per ReviewRecord field.

    codes[f][i] indexes labels[f], the field's sorted label table (None
    first for team and period), so code order is label order. Indexing and
    iteration give records made from the labels; no record object is kept.
    """

    __slots__ = ("codes", "labels")

    def __init__(self, codes: Sequence[np.ndarray], labels: Sequence[tuple]):
        self.codes = tuple(codes)
        self.labels = tuple(labels)

    @classmethod
    def from_values(cls, values: Sequence[Sequence]) -> "RecordColumns":
        """Columns over one value list per ReviewRecord field, in FIELDS
        order; the values must be valid ReviewRecord field values."""
        coded = []
        for i, column in enumerate(values):
            coder = ColumnCoder(i in OPTIONAL)
            coder.add(column)
            coded.append(coder.finish())
        return cls(*zip(*coded))

    @classmethod
    def from_records(cls, records: Sequence[ReviewRecord]) -> "RecordColumns":
        """Columns over the records' field values; the records are not kept."""
        return cls.from_values([list(map(operator.attrgetter(name), records))
                                for name in FIELDS])

    def __len__(self) -> int:
        return len(self.codes[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return ReviewRecord(*(table[c[index]] for c, table in zip(self.codes, self.labels)))

    def __iter__(self) -> Iterator[ReviewRecord]:
        return map(ReviewRecord, *(map(table.__getitem__, c.tolist())
                                   for c, table in zip(self.codes, self.labels)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordColumns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def take(self, index: np.ndarray) -> "RecordColumns":
        """The rows at the given positions, over the same label tables."""
        return RecordColumns([c[index] for c in self.codes], self.labels)

    def compact(self) -> "RecordColumns":
        """The same rows, with label tables cut to the values they use."""
        codes, labels = [], []
        for i, (c, table) in enumerate(zip(self.codes, self.labels)):
            used = np.bincount(c, minlength=len(table)) > 0
            if i in OPTIONAL:
                used[0] = True
            if not used.all():
                c = (np.cumsum(used, dtype=np.int32) - 1)[c]
                table = tuple(compress(table, used.tolist()))
            codes.append(c)
            labels.append(table)
        return RecordColumns(codes, labels)


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


class _Cells(NamedTuple):
    """Kept records as blocks of n_raters, one block per (product, question)
    cell, cells in (question, product) order and reviewers sorted within."""

    product: np.ndarray  # product code per cell
    answers: np.ndarray  # cells x n_raters answer codes
    classifications: np.ndarray  # cells x n_raters classification codes
    bounds: np.ndarray  # the cells of question i are bounds[i]:bounds[i + 1]


def _mode(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The most frequent value of each group, a tie going to the smallest;
    groups are numbered 0, 1, ... and each occurs."""
    width = int(values.max()) + 1 if len(values) else 1
    pairs, counts = np.unique(groups.astype(np.int64) * width + values, return_counts=True)
    group, value = np.divmod(pairs, width)
    order = np.lexsort((value, -counts, group))
    group, value = group[order], value[order]
    head = np.ones(len(order), bool)
    head[1:] = group[1:] != group[:-1]
    return value[head]


@dataclass(frozen=True)
class ReviewDataset:
    """A validated panel. Construct via validate_dataset, not directly.

    reviewers and questions are the distinct identifiers observed in the
    input (before any dropping), sorted lexicographically. n_raters is the
    size of the reviewer roster; every surviving (product, question) cell
    carries exactly n_raters ratings. records holds the kept records, sorted,
    as code columns whose reviewer and question tables are reviewers and
    questions; products and the per-unit table are derived from it on first
    use.
    """

    reviewers: tuple[str, ...]
    questions: tuple[str, ...]
    category_space: Mapping[str, tuple[str, ...]]
    n_raters: int
    summary: ValidationSummary
    records: RecordColumns = field(repr=False)

    @cached_property
    def products(self) -> tuple[str, ...]:
        table = self.records.labels[PRODUCT]
        used = np.bincount(self.records.codes[PRODUCT], minlength=len(table))
        return tuple(map(table.__getitem__, np.flatnonzero(used).tolist()))

    @cached_property
    def _unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each kept record's unit number and each unit's first record; units
        are numbered in sorted (product, reviewer) order."""
        product, reviewer = self.records.codes[PRODUCT], self.records.codes[REVIEWER]
        first = np.ones(len(product), bool)
        first[1:] = (product[1:] != product[:-1]) | (reviewer[1:] != reviewer[:-1])
        return np.cumsum(first, dtype=np.int32) - 1, np.flatnonzero(first)

    @cached_property
    def _unit_keys(self) -> list[tuple[str, str]]:
        starts = self._unit_rows[1]
        products, reviewers = self.records.labels[PRODUCT], self.records.labels[REVIEWER]
        return list(zip(map(products.__getitem__, self.records.codes[PRODUCT][starts].tolist()),
                        map(reviewers.__getitem__, self.records.codes[REVIEWER][starts].tolist())))

    def unit_field(self, name: str) -> tuple[dict[tuple[str, str], object], tuple | None]:
        """A field that should be constant within each unit: its value per
        unit, keyed by (product, reviewer) in sorted order and taken from the
        unit's first record, and the first conflict in sorted order, as
        (unit key, first value, differing value), or None."""
        i = FIELDS.index(name)
        unit, starts = self._unit_rows
        codes, table = self.records.codes[i], self.records.labels[i]
        first = codes[starts]
        keys = self._unit_keys
        conflict = None
        differing = np.flatnonzero(codes != first[unit])
        if differing.size:
            row = differing[0]
            conflict = (keys[unit[row]], table[first[unit[row]]], table[codes[row]])
        return dict(zip(keys, map(table.__getitem__, first.tolist()))), conflict

    @cached_property
    def units(self) -> Mapping[tuple[str, str], Unit]:
        """The per-unit table, keyed by (product, reviewer) in sorted order.

        Built on first use and kept, so validation itself does no extra work.
        Raises DatasetValidationError when a unit's records disagree on team.
        """
        teams, conflict = self.unit_field("team")
        if conflict is not None:
            (product, reviewer), first, other = conflict
            raise DatasetValidationError(
                f"unit (product={product!r}, reviewer={reviewer!r}) has records "
                f"in teams {first!r} and {other!r}"
            )
        labels = self.records.labels[CLASSIFICATION]
        votes = map(labels.__getitem__, self._unit_votes.tolist())
        return MappingProxyType(dict(zip(teams, map(Unit, votes, teams.values()))))

    @cached_property
    def _unit_votes(self) -> np.ndarray:
        """Each unit's majority classification code."""
        return _mode(self._unit_rows[0], self.records.codes[CLASSIFICATION])

    def unit_errors(
        self, ground_truth: Mapping[str, str] | None
    ) -> tuple[dict[tuple[str, str], int], str]:
        """0/1 misclassification indicator per unit, and the basis used.

        Compared against ground truth when supplied, otherwise against the
        product's consensus classification (the majority of its units'
        classifications, ties lexicographic).
        """
        units = self.units
        votes = self._unit_votes
        products = self.records.codes[PRODUCT][self._unit_rows[1]]
        if ground_truth is None:
            # units are sorted by product, so a product's units are adjacent
            first = np.ones(len(products), bool)
            first[1:] = products[1:] != products[:-1]
            group = np.cumsum(first) - 1
            reference = _mode(group, votes)[group]
            basis = "consensus"
        else:
            for product in self.products:
                if product not in ground_truth:
                    raise MissingGroundTruthError(product)
            index = {label: i for i, label in enumerate(self.records.labels[CLASSIFICATION])}
            truth = [index.get(ground_truth.get(product), -1)
                     for product in self.records.labels[PRODUCT]]
            reference = np.array(truth, np.int64)[products]
            basis = "ground_truth"
        return dict(zip(units, (votes != reference).astype(int).tolist())), basis

    def unit_indicators(
        self, question: str, labels: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per unit, in sorted order: whether it has a record for the
        question, and a 0/1 float column per label marking its answer."""
        unit, starts = self._unit_rows
        rows = np.flatnonzero(self.records.codes[QUESTION] == self.questions.index(question))
        answered = np.zeros(len(starts), bool)
        answered[unit[rows]] = True
        column = self._answer_positions(labels)[self.records.codes[ANSWER][rows]]
        marked = column >= 0
        indicators = np.zeros((len(starts), len(labels)))
        indicators[unit[rows][marked], column[marked]] = 1.0
        return answered, indicators

    def _answer_positions(self, labels: Sequence[str]) -> np.ndarray:
        """Each answer code's position in labels, or -1."""
        index = {label: j for j, label in enumerate(labels)}
        return np.array([index.get(label, -1) for label in self.records.labels[ANSWER]], np.int64)

    @cached_property
    def _cells(self) -> _Cells:
        codes, n = self.records.codes, self.n_raters
        # lexsort is stable, so each cell keeps its reviewers in sorted order
        order = np.lexsort((codes[PRODUCT], codes[QUESTION]))
        questions = codes[QUESTION][order][::n]
        return _Cells(
            product=codes[PRODUCT][order][::n],
            answers=codes[ANSWER][order].reshape(-1, n),
            classifications=codes[CLASSIFICATION][order].reshape(-1, n),
            bounds=np.searchsorted(questions, np.arange(len(self.questions) + 1)),
        )

    def _question_cells(self, question: str) -> slice:
        """The cells of a question in _cells."""
        try:
            i = self.questions.index(question)
        except ValueError:
            raise UnknownQuestionError(question) from None
        bounds = self._cells.bounds
        return slice(int(bounds[i]), int(bounds[i + 1]))

    def _category_counts(
        self, cells: slice, categories: tuple[str, ...]
    ) -> tuple[tuple[tuple[int, ...], ...], list[str]]:
        """Per cell, how many reviewers chose each category (which must
        cover the cells' answers), and the cells' products."""
        chosen = self._answer_positions(categories)[self._cells.answers[cells]]
        n_cells, width = len(chosen), len(categories)
        flat = (np.arange(n_cells)[:, None] * width + chosen).ravel()
        counts = np.bincount(flat, minlength=n_cells * width).reshape(n_cells, width)
        products = self.records.labels[PRODUCT]
        return (tuple(map(tuple, counts.tolist())),
                list(map(products.__getitem__, self._cells.product[cells].tolist())))


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Whether each sorted row after the first repeats its predecessor's key."""
    same = np.ones(len(keys[0]) - 1, bool)
    for key in keys:
        same &= key[1:] == key[:-1]
    return same


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
    rejected. Records may be record objects or RecordColumns (as ingest_csv
    and the simulator give); either way the dataset keeps code columns only,
    and dataset.records makes a record object only for a row that is read.
    """
    if policy not in INCOMPLETE_CELL_POLICIES:
        raise ValueError(f"policy must be one of {INCOMPLETE_CELL_POLICIES}, got {policy!r}")
    if not isinstance(records, RecordColumns):
        records = RecordColumns.from_records(list(records))
    if not len(records):
        raise DatasetValidationError("input records must be non-empty")
    records = records.compact()
    products, reviewers, questions = records.labels[:3]
    product, reviewer, question = records.codes[:3]

    # Sorted by (product, question, reviewer), a cell's records are adjacent,
    # and so are the repeats of a key; the sort is stable, so the smallest
    # repeat position is the first record whose key was seen before.
    order = np.lexsort((reviewer, question, product))
    p, q = product[order], question[order]
    same_cell = _repeats(p, q)
    repeat = same_cell & _repeats(reviewer[order])
    if repeat.any():
        i = int(order[1:][repeat].min())
        raise DuplicateRecordError(
            (products[product[i]], reviewers[reviewer[i]], questions[question[i]])
        )

    n_raters = len(reviewers)
    starts = np.flatnonzero(np.concatenate(([True], ~same_cell)))
    sizes = np.diff(np.append(starts, len(order)))
    short = sizes < n_raters
    incomplete = [(products[i], questions[j])
                  for i, j in zip(p[starts[short]].tolist(), q[starts[short]].tolist())]
    if incomplete and policy == "strict":
        raise IncompleteCellError(incomplete)
    rows = order[np.repeat(~short, sizes)]
    del order, p, q, same_cell, repeat  # freed before the kept columns are made
    kept = records.take(rows[np.lexsort((question[rows], reviewer[rows], product[rows]))])

    answers = kept.labels[ANSWER]
    observed: dict[str, list[str]] = {}
    pairs = np.unique(kept.codes[QUESTION].astype(np.int64) * len(answers) + kept.codes[ANSWER])
    for pair in pairs.tolist():
        observed.setdefault(questions[pair // len(answers)], []).append(answers[pair % len(answers)])
    categories: dict[str, tuple[str, ...]] = {}
    for q in questions:
        seen = observed.get(q, [])
        if declared_categories is not None and q in declared_categories:
            declared = sorted(set(declared_categories[q]))
            extra = [a for a in seen if a not in declared]
            if extra:
                raise DatasetValidationError(
                    f"question {q!r} has observed answers outside the declared "
                    f"category list: {extra}"
                )
            categories[q] = tuple(declared)
        else:
            categories[q] = tuple(seen)

    summary = ValidationSummary(
        n_input_records=len(records),
        n_records=len(kept),
        n_dropped_cells=len(incomplete),
        n_dropped_records=len(records) - len(kept),
        dropped_cells=tuple(incomplete),
        policy=policy,
    )
    return ReviewDataset(
        reviewers=reviewers,
        questions=questions,
        category_space=MappingProxyType(categories),
        n_raters=n_raters,
        summary=summary,
        records=kept,
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
        width = len(self.categories)
        if (set(map(len, self.counts)) == {width} and min(map(min, self.counts)) >= 0
                and set(map(sum, self.counts)) == {self.n}):
            return
        for subject, row in zip(self.subjects, self.counts):
            if len(row) != width:
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
    cells = dataset._question_cells(question)
    if dataset.n_raters < 2:
        raise EmptyMatrixError(
            f"question {question!r} has {dataset.n_raters} rater(s); need at least 2"
        )
    if cells.start == cells.stop:
        raise EmptyMatrixError(f"question {question!r} has no complete cells")
    categories = dataset.category_space[question]
    if len(categories) < 2:
        raise KappaUndefinedError(
            f"question {question!r} has a single-category space; agreement is undefined"
        )
    counts, products = dataset._category_counts(cells, categories)
    return RatingMatrix(
        counts=counts,
        n=dataset.n_raters,
        categories=categories,
        subjects=tuple(products),
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
    cells = dataset._question_cells(question)
    if cells.start == cells.stop:
        raise EmptyMatrixError(f"question {question!r} has no records")
    answers = dataset.category_space[question]
    row = dataset._answer_positions(answers)[dataset._cells.answers[cells].ravel()]
    used, column = np.unique(dataset._cells.classifications[cells].ravel(), return_inverse=True)
    labels = dataset.records.labels[CLASSIFICATION]
    classifications = tuple(map(labels.__getitem__, used.tolist()))
    width = len(classifications)
    observed = np.bincount(row * width + column, minlength=len(answers) * width)
    observed = observed.reshape(len(answers), width).tolist()
    table = ContingencyTable.from_observed(observed, answers, classifications)
    if table.is_degenerate():
        raise DegenerateTableError(
            f"question {question!r} yields a degenerate {table.shape[0]}x{table.shape[1]} "
            "table (needs >= 2 answers and >= 2 classifications with non-zero margins)"
        )
    return table
