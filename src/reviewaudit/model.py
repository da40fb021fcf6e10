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

Validation costs one O(n) order check of the (product, reviewer, question)
keys; only records out of that order are sorted, once. Its count tables
hold at most _CELLS_PER_ROW cells a record: a sparser table is not laid
out, and its pairs are sorted instead.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

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


def is_int(value) -> bool:
    """Whether value is an int and not a bool (which is an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_label(value) -> bool:
    """Whether value is a string with non-whitespace content."""
    return isinstance(value, str) and value != "" and not value.isspace()


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
        for name in REQUIRED_FIELDS:
            value = getattr(self, name)
            if not is_label(value):
                raise DatasetValidationError(f"{name} must be a non-empty string, got {value!r}")
        if self.team is not None and not is_label(self.team):
            raise DatasetValidationError(f"team must be None or a non-empty string, got {self.team!r}")
        if self.period is not None and not is_int(self.period):
            raise DatasetValidationError(f"period must be None or an integer, got {self.period!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.product_id, self.reviewer_id, self.question_id)


FIELDS = tuple(f.name for f in fields(ReviewRecord))
PRODUCT, REVIEWER, QUESTION, ANSWER, CLASSIFICATION, TEAM, PERIOD = range(len(FIELDS))
OPTIONAL = (TEAM, PERIOD)
REQUIRED_FIELDS = FIELDS[:TEAM]  # each a non-empty string in every record


def label_codes(values: Sequence, convert: Callable | None = None,
                optional: bool = False) -> tuple[tuple, np.ndarray]:
    """The sorted table of the distinct labels of values, None first when
    optional is set, and each value's int32 code in that table. convert
    maps each value other than None to its label; values that convert to
    one label share its code. Each distinct value is converted once."""
    distinct = list(dict.fromkeys(values))
    labels = distinct if convert is None else [
        None if value is None else convert(value) for value in distinct]
    table = sorted(set(labels) - {None})
    if optional:
        table.insert(0, None)
    position = {label: i for i, label in enumerate(table)}
    code = dict(zip(distinct, map(position.__getitem__, labels)))
    return tuple(table), np.fromiter(map(code.__getitem__, values), np.int32, len(values))


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
    def from_records(cls, records: Sequence[ReviewRecord]) -> "RecordColumns":
        """Columns over the records' field values; the records are not kept."""
        labels, codes = zip(*(label_codes(list(map(operator.attrgetter(name), records)),
                                          optional=i in OPTIONAL) for i, name in enumerate(FIELDS)))
        return cls(codes, labels)

    def __len__(self) -> int:
        return len(self.codes[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index]).compact()
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
        return RecordColumns([np.take(c, index) for c in self.codes], self.labels)

    def compact(self) -> "RecordColumns":
        """The same rows, with each label table cut to the values it uses;
        an optional column keeps its None."""
        cut = [cut_unused(codes, table, i in OPTIONAL)
               for i, (codes, table) in enumerate(zip(self.codes, self.labels))]
        return RecordColumns(*zip(*cut))


def cut_unused(codes: np.ndarray, table: tuple,
               optional: bool = False) -> tuple[np.ndarray, tuple]:
    """Codes into table, and the table, with the labels no code uses taken
    out by one bincount; an optional table keeps its leading None."""
    used = np.bincount(codes, minlength=len(table)) > 0
    if optional:
        used[0] = True
    if used.all():
        return codes, table
    codes = np.take(np.cumsum(used, dtype=np.int32) - 1, codes)
    return codes, tuple(compress(table, used.tolist()))


@dataclass(frozen=True)
class ValidationSummary:
    """What validation kept and what it dropped."""

    n_input_records: int
    n_records: int
    n_dropped_cells: int
    n_dropped_records: int
    dropped_cells: tuple[tuple[str, str], ...]
    policy: str


class Units(NamedTuple):
    """The per-unit table: one row per (product, reviewer) unit, in sorted
    order. Each column holds codes into the field's records.labels table."""

    product: np.ndarray
    reviewer: np.ndarray
    classification: np.ndarray  # the reviewer's majority final classification
    team: np.ndarray  # the team every record of the unit carries


class _Cells(NamedTuple):
    """The complete (product, question) cells, in (question, product)
    order, and how many of a cell's reviewers chose each answer, as (cell,
    answer code, count) for each pair that occurs, in (cell, answer) order.
    Every rating matrix and the agreement rate are read from these."""

    product: np.ndarray  # product code per cell
    bounds: np.ndarray  # the cells of question i are bounds[i]:bounds[i + 1]
    cell: np.ndarray
    answer: np.ndarray
    count: np.ndarray


_CELLS_PER_ROW = 4  # a sparser (group, value) count table is not laid out
_ABSENT = object()  # what unit_errors reads for a product its ground truth lacks


def _pair_counts(groups: np.ndarray, values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (group, value) pairs that occur, as increasing keys group * k +
    value, and how many rows hold each; groups and values are codes >= 0,
    values below k. Where the table has at most _CELLS_PER_ROW cells a row,
    it is counted by one bincount; a sparser one is not laid out, and the
    keys are sorted instead."""
    keys = np.multiply(groups, k, dtype=np.int64)
    keys += values
    n_cells = (int(groups.max()) + 1) * k if len(groups) else 0
    if n_cells > _CELLS_PER_ROW * len(keys):
        return np.unique(keys, return_counts=True)
    counts = np.bincount(keys, minlength=n_cells)
    del keys  # so the keys and the pairs found in the table are not held at once
    pairs = np.flatnonzero(counts)
    return pairs, counts[pairs]


def _triple_counts(first: np.ndarray, second: np.ndarray, values: np.ndarray,
                   sizes: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """The (first, second, value) code triples that occur, in increasing
    order, as three arrays, and how many rows hold each; sizes bound the
    columns' codes. They are counted by _pair_counts over (first, second)
    groups, which are numbered first where a packed key could pass 2**63."""
    groups = np.multiply(first, sizes[1], dtype=np.int64)
    groups += second
    heads = None
    if math.prod(sizes) >= 1 << 63:
        heads, groups = np.unique(groups, return_inverse=True)
    keys, counts = _pair_counts(groups, values, sizes[2])
    group, value = np.divmod(keys, sizes[2])
    if heads is not None:
        group = heads[group]
    return (*np.divmod(group, sizes[1]), value, counts)


def majority(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The most frequent value of each group, a tie going to the smallest.
    groups is sorted and numbered 0, 1, ... with each occurring; values are
    codes >= 0. Where the (group, value) table has at most _CELLS_PER_ROW
    cells a row, it is counted by one bincount (argmax takes the first
    maximum); a sparser one is not laid out, and the pairs are counted by
    _pair_counts."""
    n_groups = int(groups[-1]) + 1 if len(groups) else 0
    k = int(values.max()) + 1 if len(values) else 1
    if n_groups * k <= _CELLS_PER_ROW * len(groups):
        flat = np.multiply(groups, k, dtype=np.int64)
        flat += values
        return np.bincount(flat, minlength=n_groups * k).reshape(n_groups, k).argmax(1)
    keys, counts = _pair_counts(groups, values, k)
    group, value = np.divmod(keys, k)
    edges = np.flatnonzero(np.diff(group, prepend=-1))
    # Runs are in (group, value) order, so a group's smallest most
    # frequent value is in its first run of the largest count.
    most = np.repeat(np.maximum.reduceat(counts, edges), np.diff(edges, append=len(group)))
    first = np.flatnonzero(counts == most)
    return value[first[np.diff(group[first], prepend=-1) != 0]]


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

    def unit_field(self, name: str) -> tuple[np.ndarray, tuple | None]:
        """A field that should be constant within each unit: its code per
        unit, taken from the unit's first record, and the first conflict in
        sorted order, as (product, reviewer, first value, differing value),
        or None."""
        i = FIELDS.index(name)
        unit, starts = self._unit_rows
        codes, labels = self.records.codes, self.records.labels
        first = codes[i][starts]
        differing = np.flatnonzero(codes[i] != first[unit])
        if not differing.size:
            return first, None
        row = differing[0]
        return first, (labels[PRODUCT][codes[PRODUCT][row]], labels[REVIEWER][codes[REVIEWER][row]],
                       labels[i][first[unit[row]]], labels[i][codes[i][row]])

    @cached_property
    def units(self) -> Units:
        """The per-unit table.

        Built on first use and kept, so validation itself does no extra work.
        Raises DatasetValidationError when a unit's records disagree on team.
        """
        team, conflict = self.unit_field("team")
        if conflict is not None:
            product, reviewer, first, other = conflict
            raise DatasetValidationError(
                f"unit (product={product!r}, reviewer={reviewer!r}) has records "
                f"in teams {first!r} and {other!r}"
            )
        unit, starts = self._unit_rows
        codes = self.records.codes
        return Units(codes[PRODUCT][starts], codes[REVIEWER][starts],
                     majority(unit, codes[CLASSIFICATION]), team)

    def unit_errors(self, ground_truth: Mapping[str, str] | None) -> tuple[np.ndarray, str]:
        """0/1 misclassification indicator per unit, aligned with units, and
        the basis used.

        Compared against ground truth when supplied, otherwise against the
        product's consensus classification (the majority of its units'
        classifications, ties lexicographic).
        """
        units = self.units
        if ground_truth is None:
            group = np.unique(units.product, return_inverse=True)[1]
            reference = majority(group, units.classification)[group]
            basis = "consensus"
        else:
            # One pass codes each product's truth: -1 for a label no record
            # carries, -2 for a product the ground truth lacks.
            index = {label: i for i, label in enumerate(self.records.labels[CLASSIFICATION])}
            index[_ABSENT] = -2
            products = self.records.labels[PRODUCT]
            truth = map(index.get, map(ground_truth.get, products, repeat(_ABSENT)), repeat(-1))
            reference = np.fromiter(truth, np.int64, len(products))[units.product]
            absent = reference == -2
            if absent.any():  # units are in product order: the first is the smallest
                raise MissingGroundTruthError(products[units.product[absent.argmax()]])
            basis = "ground_truth"
        return (units.classification != reference).astype(int), basis

    def _answer_positions(self, labels: Sequence[str], codes: np.ndarray) -> np.ndarray:
        """The position in labels (which are sorted, as a category space is)
        of each answer code in codes, which labels must hold. Only labels
        are looked up, by bisection of the sorted answer table."""
        table = self.records.labels[ANSWER]
        found, positions = [], []
        for j, label in enumerate(labels):
            code = bisect_left(table, label)
            if code < len(table) and table[code] == label:
                found.append(code)
                positions.append(j)
        return np.array(positions, np.int64)[np.searchsorted(found, codes)]

    @cached_property
    def _cells(self) -> _Cells:
        codes, labels = self.records.codes, self.records.labels
        question, product, answer, count = _triple_counts(
            codes[QUESTION], codes[PRODUCT], codes[ANSWER],
            (len(self.questions), len(labels[PRODUCT]), len(labels[ANSWER])))
        first = np.diff(question, prepend=-1) != 0  # each cell's first pair
        first[1:] |= product[1:] != product[:-1]
        bounds = np.searchsorted(question[first], np.arange(len(self.questions) + 1))
        return _Cells(product[first], bounds, np.cumsum(first) - 1, answer, count)

    @cached_property
    def _verdict_counts(self) -> tuple[np.ndarray, ...]:
        """How many kept records of a question pair an answer with a final
        classification: (question, classification, answer, count) for each
        triple that occurs, in that order. Every contingency table is read
        from these."""
        codes, labels = self.records.codes, self.records.labels
        return _triple_counts(codes[QUESTION], codes[CLASSIFICATION], codes[ANSWER],
                              (len(self.questions), len(labels[CLASSIFICATION]),
                               len(labels[ANSWER])))

    @cached_property
    def _question_index(self) -> dict[str, int]:
        return {question: i for i, question in enumerate(self.questions)}

    def _question_number(self, question: str) -> int:
        try:
            return self._question_index[question]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise UnknownQuestionError(question) from None

    def _question_cells(self, question: str) -> slice:
        """The cells of a question in _cells."""
        i = self._question_number(question)
        bounds = self._cells.bounds
        return slice(int(bounds[i]), int(bounds[i + 1]))

    def _cell_products(self, cells: slice) -> Callable[[], tuple[str, ...]]:
        """A function giving the cells' product ids; it keeps the codes and
        the label table, not the dataset."""
        codes, labels = self._cells.product[cells], self.records.labels[PRODUCT]
        return lambda: tuple(map(labels.__getitem__, codes.tolist()))


def _sort_order(keys: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray | None:
    """The stable order of rows by code columns, the first most significant,
    as np.lexsort(keys[::-1]) gives it; sizes bounds each column's codes.
    The columns are packed into one int64 key, unless the sizes' product
    reaches 2**63 (then np.lexsort sorts them). None means the packed key
    strictly increases: the rows are in order already, no two equal, and
    nothing is sorted."""
    if math.prod(sizes) >= 1 << 63:
        return np.lexsort(keys[::-1])
    packed = keys[0].astype(np.int64)
    for key, size in zip(keys[1:], sizes[1:]):
        packed *= size
        packed += key
    if (packed[1:] > packed[:-1]).all():
        return None
    return np.argsort(packed, kind="stable")


def _short_cells(product: np.ndarray, question: np.ndarray, n_questions: int,
                 n_raters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows with no (product, question, reviewer) key twice: which rows lie
    in a (product, question) cell of fewer than n_raters rows, and those
    cells' product and question codes in (product, question) order."""
    cells, sizes = _pair_counts(product, question, n_questions)
    short = cells[sizes < n_raters]
    rows = np.zeros(len(product), bool)
    if len(short):
        keys = np.multiply(product, n_questions, dtype=np.int64)
        keys += question
        rows = np.isin(keys, short)
    return rows, *np.divmod(short, n_questions)


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
    A RecordColumns' label tables must hold only values its records use
    (an optional column's None aside), as the readers, from_records and a
    slice give them and as the simulator builds them, sorted and cut by
    construction; compact() makes any other so.

    Cost: one O(n) check that the packed (product, reviewer, question) key
    strictly increases, as it does for the simulator's and write_panel_csv's
    records; only input out of that order takes one stable sort. Cell sizes
    and the observed (question, answer) pairs are counted by _pair_counts:
    one bincount where the product x question or question x answer table
    has at most _CELLS_PER_ROW cells a record, one sort of the pairs where
    it would have more. Input in order with no cell dropped keeps its
    columns as they are.
    """
    if policy not in INCOMPLETE_CELL_POLICIES:
        raise ValueError(f"policy must be one of {INCOMPLETE_CELL_POLICIES}, got {policy!r}")
    if not isinstance(records, RecordColumns):
        records = RecordColumns.from_records(list(records))
    if not len(records):
        raise DatasetValidationError("input records must be non-empty")
    products, reviewers, questions = records.labels[:3]
    columns = records.codes[:3]

    # Sorted, the repeats of a key are adjacent; the sort is stable, so the
    # smallest repeat position is the first record whose key was seen before.
    order = _sort_order(columns, tuple(map(len, (products, reviewers, questions))))
    if order is not None:
        p, r, q = (np.take(c, order) for c in columns)
        repeat = (p[1:] == p[:-1]) & (r[1:] == r[:-1]) & (q[1:] == q[:-1])
        if repeat.any():
            i = int(order[1:][repeat].min())
            raise DuplicateRecordError(tuple(t[c[i]] for c, t in zip(columns, records.labels)))
        del r, repeat
    else:
        p, q = columns[0], columns[2]

    n_raters = len(reviewers)
    drop, short_p, short_q = _short_cells(p, q, len(questions), n_raters)
    incomplete = list(zip(map(products.__getitem__, short_p.tolist()),
                          map(questions.__getitem__, short_q.tolist())))
    if incomplete and policy == "strict":
        raise IncompleteCellError(incomplete)
    del p, q
    if incomplete:
        keep = np.flatnonzero(~drop)
        order = keep if order is None else np.take(order, keep)
    kept = records if order is None else records.take(order)  # in key order

    answers = kept.labels[ANSWER]
    pairs, _ = _pair_counts(kept.codes[QUESTION], kept.codes[ANSWER], len(answers))
    observed: dict[str, list[str]] = {}
    for key in pairs.tolist():
        observed.setdefault(questions[key // len(answers)], []).append(answers[key % len(answers)])
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


def _is_integer(value) -> bool:
    """is_int, or a numpy integer."""
    return is_int(value) or isinstance(value, np.integer)


def _count_array(counts, width: int) -> tuple[np.ndarray, int]:
    """The leading rows of counts that hold width integers each, as an int64
    array, and how many rows that is (all of them for an integer array of
    the right width)."""
    if isinstance(counts, np.ndarray) and counts.dtype.kind in "iu" and counts.shape[1:] == (width,):
        return counts.astype(np.int64, copy=False), len(counts)
    rows = counts.tolist() if isinstance(counts, np.ndarray) else counts
    valid = next((i for i, row in enumerate(rows)
                  if len(row) != width or not all(map(_is_integer, row))), len(rows))
    return np.array(rows[:valid], np.int64).reshape(valid, width), valid


@dataclass(frozen=True, init=False, eq=False)
class RatingMatrix:
    """Per-subject category counts: N subjects x K categories, n raters each.

    The counts are held as their nonzero entries, pairs: three read-only
    int64 arrays of subject, category and count, in (subject, category)
    order, at least one entry per subject. The N x K array, array, is laid
    out when first read, and counts reads it as a tuple of int tuples. The
    constructor takes the counts as rows; subjects may be given as a
    function returning the N subject names, which is then called when they
    are first read. Counts and n must be integers (not bools) and the
    categories distinct.
    """

    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    n_subjects: int
    n: int
    categories: tuple[str, ...]

    def __init__(
        self,
        counts: Sequence[Sequence[int]] | np.ndarray,
        n: int,
        categories: Sequence[str],
        subjects: Sequence[str] | Callable[[], Sequence[str]],
    ):
        if not _is_integer(n):
            raise ValueError(f"rating matrix requires an integer n, got {n!r}")
        if n < 2:
            raise EmptyMatrixError(f"rating matrix requires n >= 2 raters, got {n}")
        if len(counts) < 1:
            raise EmptyMatrixError("rating matrix requires at least one subject")
        categories = tuple(categories)
        if len(categories) < 2:
            raise KappaUndefinedError(
                "rating matrix spans a single category; agreement is undefined"
            )
        if len(set(categories)) != len(categories):
            raise ValueError(f"rating matrix categories must be distinct, got {categories!r}")
        if not callable(subjects):
            subjects = tuple(subjects)
            if len(subjects) != len(counts):
                raise ValueError("subjects and counts must have equal length")
        object.__setattr__(self, "_names", subjects)  # for the errors below
        array, valid = _count_array(counts, len(categories))
        sums = array.sum(axis=1)
        bad = np.flatnonzero((array < 0).any(axis=1) | (sums != n))
        if bad.size:
            i = int(bad[0])
            if array[i].min() < 0:
                raise ValueError(f"negative count for subject {self.subjects[i]!r}")
            raise ValueError(
                f"row for subject {self.subjects[i]!r} sums to {sums[i]}, expected n={n}"
            )
        if valid < len(counts):
            if len(counts[valid]) != len(categories):
                raise ValueError(f"row width mismatch for subject {self.subjects[valid]!r}")
            value = next(c for c in counts[valid] if not _is_integer(c))
            raise ValueError(
                f"count {value!r} for subject {self.subjects[valid]!r} is not an integer"
            )
        subject, category = np.nonzero(array)
        self._hold((subject, category, array[subject, category]), len(array), n, categories,
                   subjects)

    @classmethod
    def _from_pairs(cls, pairs: tuple[np.ndarray, np.ndarray, np.ndarray], n_subjects: int,
                    n: int, categories: tuple[str, ...],
                    subjects: Sequence[str] | Callable[[], Sequence[str]]) -> "RatingMatrix":
        """A matrix of counts given as pairs, which hold valid counts by
        construction: only n is checked."""
        if n < 2:
            raise EmptyMatrixError(f"rating matrix requires n >= 2 raters, got {n}")
        matrix = cls.__new__(cls)
        matrix._hold(pairs, n_subjects, n, categories, subjects)
        return matrix

    def _hold(self, pairs, n_subjects: int, n: int, categories: tuple[str, ...],
              subjects) -> None:
        pairs = tuple(np.asarray(a, np.int64).view() for a in pairs)
        for a in pairs:
            a.flags.writeable = False
        object.__setattr__(self, "_names", subjects)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "n_subjects", n_subjects)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "categories", categories)

    @cached_property
    def array(self) -> np.ndarray:
        subject, category, count = self.pairs
        array = np.zeros((self.n_subjects, self.n_categories), np.int64)
        array[subject, category] = count
        array.flags.writeable = False
        return array

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def subjects(self) -> tuple[str, ...]:
        names = self._names
        return tuple(names()) if callable(names) else names

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (self.n == other.n and self.categories == other.categories
                and self.n_subjects == other.n_subjects
                and all(map(np.array_equal, self.pairs, other.pairs))
                and self.subjects == other.subjects)

    def __hash__(self) -> int:
        return hash((*(a.tobytes() for a in self.pairs), self.n, self.categories, self.subjects))

    def __reduce__(self):
        return RatingMatrix._from_pairs, (self.pairs, self.n_subjects, self.n, self.categories,
                                          self.subjects)


def rating_matrix(dataset: ReviewDataset, question: str) -> RatingMatrix:
    """Count, per product, how many reviewers chose each category.

    Rows are restricted to products with a complete cell for the question,
    in sorted product order; columns follow the question's category space.
    The counts are the question's slice of dataset._cells' answer counts.
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
    _, _, cell, answer, count = dataset._cells
    lo, hi = np.searchsorted(cell, (cells.start, cells.stop)).tolist()
    pairs = (cell[lo:hi] - cells.start, dataset._answer_positions(categories, answer[lo:hi]),
             count[lo:hi])
    return RatingMatrix._from_pairs(pairs, cells.stop - cells.start, dataset.n_raters,
                                    categories, dataset._cell_products(cells))


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
        """Build a table from integer counts, deriving expected from margins."""
        rows = tuple(map(tuple, observed))
        if not rows or not rows[0]:
            raise DegenerateTableError("observed counts must form a non-empty table")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("observed rows must have equal length")
        bad = [v for row in rows for v in row if not _is_integer(v)]
        if bad:
            raise ValueError(f"observed count {bad[0]!r} is not an integer")
        rows = tuple(tuple(map(int, row)) for row in rows)
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

    Each (product, reviewer) answer instance contributes one count; the
    counts are the question's slice of dataset._verdict_counts. A table
    with fewer than two distinct answers or classifications, or with a zero
    margin (possible under a declared category space), is degenerate and
    raises rather than being silently reduced.
    """
    i = dataset._question_number(question)
    q, classification, answer, count = dataset._verdict_counts
    lo, hi = np.searchsorted(q, (i, i + 1)).tolist()
    if lo == hi:
        raise EmptyMatrixError(f"question {question!r} has no records")
    answers = dataset.category_space[question]
    rows = dataset._answer_positions(answers, answer[lo:hi]).tolist()
    classes = classification[lo:hi].tolist()
    # The question's classifications come in order: each one used is a column.
    column = {code: j for j, code in enumerate(dict.fromkeys(classes))}
    observed = [[0] * len(column) for _ in answers]
    for row, code, n in zip(rows, classes, count[lo:hi].tolist()):
        observed[row][column[code]] = n
    if len(answers) < 2 or len(column) < 2 or not all(map(any, observed)):
        raise DegenerateTableError(
            f"question {question!r} yields a degenerate {len(answers)}x{len(column)} "
            "table (needs >= 2 answers and >= 2 classifications with non-zero margins)"
        )
    labels = dataset.records.labels[CLASSIFICATION]
    return ContingencyTable.from_observed(observed, answers,
                                          tuple(map(labels.__getitem__, column)))
