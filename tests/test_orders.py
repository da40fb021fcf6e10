"""The record orders behind validation, the cell table and the bias design,
checked against constructions that sort by np.lexsort or loop in Python."""

import collections
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import DatasetValidationError, validate_dataset
from reviewaudit import model
from reviewaudit.errors import NonBinaryTargetError
from reviewaudit.estimation import _encode_units, bias_factor_report
from reviewaudit.model import (
    ANSWER, PRODUCT, QUESTION, RecordColumns, _sort_order,
)

from _helpers import read_outcome, rec, traced_peak


def _columns(keys, answers, sizes) -> RecordColumns:
    """Code columns over label tables of the given sizes, cut to the labels
    used, as every producer hands them to validation."""
    n_products, n_reviewers, n_questions = sizes
    product, reviewer, question = np.array(keys, np.int32).T
    answer = np.array(answers, np.int32)
    zeros = np.zeros(len(keys), np.int32)
    codes = (product, reviewer, question, answer, (answer + product) % 2, zeros, zeros)
    labels = (tuple(f"p{i}" for i in range(n_products)), tuple(f"r{i}" for i in range(n_reviewers)),
              tuple(f"q{i}" for i in range(n_questions)), ("a", "b", "c"), ("c0", "c1"),
              (None,), (None,))
    return RecordColumns(codes, labels).compact()


def _lexsort_validation(records: RecordColumns, policy: str):
    """What validate_dataset gives, found by np.lexsort: ("ok", kept codes,
    kept labels, summary fields) or ("error", class, message)."""
    records = records.compact()
    products, reviewers, questions = records.labels[:3]
    product, reviewer, question = records.codes[:3]
    order = np.lexsort((reviewer, question, product))
    keys = np.stack([product, question, reviewer])[:, order]
    repeat = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    if repeat.any():
        i = int(order[1:][repeat].min())
        return ("error", model.DuplicateRecordError,
                str(model.DuplicateRecordError(
                    (products[product[i]], reviewers[reviewer[i]], questions[question[i]]))))
    size = collections.Counter(zip(product.tolist(), question.tolist()))
    short = sorted(cell for cell, n in size.items() if n < len(reviewers))
    incomplete = tuple((products[p], questions[q]) for p, q in short)
    if incomplete and policy == "strict":
        return ("error", model.IncompleteCellError, str(model.IncompleteCellError(incomplete)))
    rows = np.array([i for i in order.tolist() if (product[i], question[i]) not in set(short)],
                    np.int64)
    rows = rows[np.lexsort((question[rows], reviewer[rows], product[rows]))]
    kept = records.take(rows)
    return ("ok", [c.tolist() for c in kept.codes], kept.labels,
            (len(records), len(kept), len(incomplete), len(records) - len(kept), incomplete,
             policy))


def _validation(records: RecordColumns, policy: str):
    outcome, result = read_outcome(lambda r: validate_dataset(r, policy=policy), records)
    if outcome[0] == "error":
        return outcome[:3]
    s = result.summary
    return ("ok", [c.tolist() for c in result.records.codes], result.records.labels,
            (s.n_input_records, s.n_records, s.n_dropped_cells, s.n_dropped_records,
             s.dropped_cells, s.policy))


def _lexsort_cells(dataset) -> tuple:
    """The cell table as two-key np.lexsort builds it, with each cell's
    (answer, count) pairs counted by a Counter."""
    codes, n = dataset.records.codes, dataset.n_raters
    order = np.lexsort((codes[PRODUCT], codes[QUESTION]))
    questions = codes[QUESTION][order][::n]
    pairs = [(cell, answer, count) for cell, answers in
             enumerate(codes[ANSWER][order].reshape(-1, n).tolist())
             for answer, count in sorted(collections.Counter(answers).items())]
    return (codes[PRODUCT][order][::n],
            np.searchsorted(questions, np.arange(len(dataset.questions) + 1)),
            *(np.array(column, np.int64) for column in zip(*pairs)))


def _assert_cells(dataset) -> None:
    for got, want in zip(dataset._cells, _lexsort_cells(dataset), strict=True):
        np.testing.assert_array_equal(got, want)


@st.composite
def code_panels(draw):
    """Records on a small (product, reviewer, question) grid: in any order,
    or in key order as the simulator and write_panel_csv give them, with
    some keys missing, so cells fall short, or every key present; and
    sometimes a key repeated."""
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(3))
    grid = [(p, r, q) for p in range(sizes[0]) for r in range(sizes[1]) for q in range(sizes[2])]
    layout = draw(st.sampled_from(["any", "sorted", "complete"]))
    if layout == "complete":
        keys = list(grid)
    else:
        keys = draw(st.lists(st.sampled_from(grid), unique=True, min_size=1, max_size=len(grid)))
    if draw(st.booleans()) and draw(st.booleans()):
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    if layout != "any":
        keys.sort()
    answers = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)))
    return _columns(keys, answers, sizes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records=code_panels(), policy=st.sampled_from(model.INCOMPLETE_CELL_POLICIES),
       cells_per_row=st.sampled_from([0, 1 << 40]))
def test_validation_matches_a_lexsort_oracle(records, policy, cells_per_row):
    # With no cells a row allowed, the cells and answer pairs are found by
    # sorting, as in a sparse panel; with a huge allowance, by counting.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_CELLS_PER_ROW", cells_per_row)
        assert _validation(records, policy) == _lexsort_validation(records, policy)
        dataset = read_outcome(validate_dataset, records)[1]
    if not isinstance(dataset, Exception) and len(dataset.records):
        _assert_cells(dataset)


@st.composite
def pairs(draw):
    """Group and value codes, values below k, as int32 columns, and k."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    groups = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array(groups, np.int32), np.array(values, np.int32), k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=pairs(), cells_per_row=st.sampled_from([0, 1 << 40]))
def test_pair_counts_match_a_counter(case, cells_per_row):
    # With no cells a row allowed the pairs are sorted, with a huge
    # allowance counted in a table; the other route is forbidden.
    groups, values, k = case
    forbidden = "bincount" if cells_per_row == 0 else "unique"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_CELLS_PER_ROW", cells_per_row)
        patch.setattr(np, forbidden, lambda *a, **kw: pytest.fail(f"pairs counted by {forbidden}"))
        keys, counts = model._pair_counts(groups, values, k)
    want = sorted(collections.Counter(groups.astype(int) * k + values).items())
    assert list(zip(keys.tolist(), counts.tolist())) == want


def test_an_ordered_complete_panel_is_neither_sorted_nor_gathered(monkeypatch):
    records = RecordColumns.from_records(_panel(0, missing=0.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("an ordered, complete panel is sorted or gathered")

    for name in ("argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(RecordColumns, "take", forbidden)
    dataset = validate_dataset(records)
    assert dataset.summary.n_records == len(records) == 30 * 4 * 4
    assert all(kept is given for kept, given in zip(dataset.records.codes, records.codes))
    # With the last record moved to the front, one argsort puts it back.
    monkeypatch.undo()
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(1) or argsort(*args, **kw))
    moved = validate_dataset(RecordColumns([np.roll(c, 1) for c in records.codes], records.labels))
    assert len(calls) == 1
    assert all(map(np.array_equal, moved.records.codes, records.codes))


def test_sort_order_packs_keys_below_two_to_the_63(monkeypatch):
    rng = np.random.default_rng(7)
    keys = [rng.integers(0, n, 200).astype(np.int32) for n in (3, 5, 4)]
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: calls.append(len(k)) or lexsort(k))
    want = lexsort(keys[::-1])
    np.testing.assert_array_equal(_sort_order(keys, (3, 5, 4)), want)
    assert calls == []
    # The sizes bound the codes; a product of 2**63 or more keeps lexsort.
    for sizes in [(2 ** 21, 2 ** 21, 2 ** 21), (3, 2 ** 62, 5), (2 ** 64, 1, 1)]:
        np.testing.assert_array_equal(_sort_order(keys, sizes), want)
    assert calls == [3, 3, 3]
    np.testing.assert_array_equal(_sort_order(keys, (2 ** 21, 2 ** 21, 2 ** 21 - 1)), want)
    assert calls == [3, 3, 3]


def test_a_sparse_panel_validates_in_bounded_memory(monkeypatch):
    # Every product, question and answer distinct: a product x question or
    # question x answer table would hold 2.5e9 cells. Validation holds a few
    # arrays of the records' size instead.
    n = 50_000
    rng = np.random.default_rng(11)
    product, question = rng.permutation(n).astype(np.int32), rng.permutation(n).astype(np.int32)
    zeros = np.zeros(n, np.int32)
    codes = (product, zeros, question, np.arange(n, dtype=np.int32), product % 2, zeros, zeros)
    labels = (tuple(f"p{i:05d}" for i in range(n)), ("r0",), tuple(f"q{i:05d}" for i in range(n)),
              tuple(f"a{i:05d}" for i in range(n)), ("c0", "c1"), (None,), (None,))
    records = RecordColumns(codes, labels)
    dataset, peak = traced_peak(lambda: validate_dataset(records))
    assert peak < 64 << 20
    assert dataset.summary.n_records == n and dataset.summary.n_dropped_cells == 0
    assert dataset.category_space["q00007"] == (f"a{np.flatnonzero(question == 7)[0]:05d}",)
    np.testing.assert_array_equal(dataset.records.codes[PRODUCT], np.arange(n))

    # Tables whose sizes' product reaches 2**63 cannot be packed into one
    # int64 key: the rows go through np.lexsort, in order or not.
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: calls.append(len(k)) or lexsort(k))
    keys = (product, zeros, question)
    order, peak = traced_peak(lambda: _sort_order(keys, (n, 2 ** 40, 2 ** 40)))
    assert calls == [3] and peak < 64 << 20
    np.testing.assert_array_equal(order, np.argsort(product))
    in_order = tuple(np.take(k, order) for k in keys)
    np.testing.assert_array_equal(_sort_order(in_order, (n, 2 ** 40, 2 ** 40)), np.arange(n))
    assert calls == [3, 3]
    assert _sort_order(in_order, (n, 1, n)) is None and calls == [3, 3]


def _panel(seed: int, n_products=30, n_reviewers=4, n_questions=4, missing=0.05,
           team=True):
    """A panel with about missing of its records left out, so cells drop;
    the classification varies within a unit, so the majority decides."""
    rng = random.Random(seed)
    records = []
    for p in range(n_products):
        for r in range(n_reviewers):
            for q in range(n_questions):
                if rng.random() < missing:
                    continue
                records.append(rec(f"p{p:02d}", f"r{r}", f"q{q}", rng.choice("abc"[:2 + q % 2]),
                                   rng.choice(["flag", "ok", "ok"]),
                                   team=f"t{r % 3}" if team else None))
    return records


@pytest.mark.parametrize("seed", range(4))
def test_cells_match_the_two_key_lexsort(seed):
    dataset = validate_dataset(_panel(seed, missing=0.08))
    assert dataset.summary.n_dropped_cells > 0
    _assert_cells(dataset)


def _design_oracle(dataset, factors):
    """_encode_units as the per-question loop built it, in plain Python over
    dataset.records: ("ok", design rows, columns, target, labels) or
    ("error", class, message)."""
    questions = [f for f in factors if f != "team"]
    for q in questions:
        if q not in dataset.questions:
            return ("error", DatasetValidationError,
                    f"factor {q!r} is not a question in the dataset")
    answers, votes, teams = {}, {}, {}
    for r in dataset.records:
        unit = (r.product_id, r.reviewer_id)
        answers.setdefault(unit, {})[r.question_id] = r.answer
        votes.setdefault(unit, collections.Counter())[r.final_classification] += 1
        teams[unit] = r.team
    units = sorted(answers)
    covered = [u for u in units if len(set(questions)) == len(questions)
               and all(q in answers[u] for q in questions)]
    if not covered:
        return ("error", DatasetValidationError, "no (product, reviewer) unit covers every factor")
    target = [min(votes[u], key=lambda c: (-votes[u][c], c)) for u in covered]
    labels = tuple(sorted(set(target)))
    if len(labels) != 2:
        return ("error", NonBinaryTargetError, str(NonBinaryTargetError(labels)))
    columns, rows = [], [[] for _ in covered]
    for q in questions:
        for level in dataset.category_space[q][1:]:
            columns.append(f"{q}={level}")
            for row, u in zip(rows, covered):
                row.append(1.0 if answers[u][q] == level else 0.0)
    if "team" in factors:
        if any(teams[u] is None for u in covered):
            return ("error", DatasetValidationError,
                    "factor 'team' requested but some units lack a team")
        for level in sorted({teams[u] for u in covered})[1:]:
            columns.append(f"team={level}")
            for row, u in zip(rows, covered):
                row.append(1.0 if teams[u] == level else 0.0)
    return ("ok", rows, columns, [float(t == labels[1]) for t in target], labels)


def _design(dataset, factors):
    outcome, result = read_outcome(lambda d: _encode_units(d, factors), dataset)
    if outcome[0] == "error":
        return outcome[:3]
    design, columns, target, labels, counts = result
    # The fits' last digits depend on the design's memory layout too.
    assert design.dtype == np.float64 and design.flags.c_contiguous
    assert design.shape == (len(target), len(columns))
    assert counts.tolist() == [1] * len(target)  # below MERGE_UNITS, a row per unit
    return ("ok", design.tolist(), columns, target.tolist(), labels)


FACTORS = [
    ["q0", "q1", "q2", "q3"],
    ["q0", "q1", "q2", "q3", "team"],
    ["q2", "team", "q0"],
    ["team"],
    ["q1", "q1"],  # named twice: no unit covers it
    ["q3", "q9"],
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factors", FACTORS, ids=lambda f: "-".join(f))
def test_design_matches_a_per_question_loop(seed, factors):
    records = _panel(seed)
    for declared in (None, {"q0": ["a", "b", "zz-unused"], "q2": ["b", "c", "a"]}):
        dataset = validate_dataset(records, declared_categories=declared)
        assert dataset.summary.n_dropped_cells > 0
        assert _design(dataset, factors) == _design_oracle(dataset, factors)


def test_design_without_team_labels():
    dataset = validate_dataset(_panel(1, team=False))
    for factors in (["q0", "team"], ["q0", "q3"]):
        assert _design(dataset, factors) == _design_oracle(dataset, factors)


def test_sparse_unit_majorities_are_sorted_not_counted():
    # 50,000 single-record units, each with its own classification: a
    # (unit, classification) count table would hold 2.5e9 cells.
    n = 50_000
    zeros, codes = np.zeros(n, np.int32), np.arange(n, dtype=np.int32)
    records = RecordColumns(
        (codes, zeros, zeros, zeros, codes[::-1].copy(), zeros, zeros),
        (tuple(f"p{i:05d}" for i in range(n)), ("r0",), ("q0",), ("a",),
         tuple(f"c{i:05d}" for i in range(n)), (None,), (None,)))
    dataset = validate_dataset(records)
    start = time.perf_counter()
    units, (errors, basis) = dataset.units, dataset.unit_errors(None)
    assert time.perf_counter() - start < 0.2
    np.testing.assert_array_equal(units.classification, codes[::-1])
    assert basis == "consensus" and not errors.any()
    dataset = validate_dataset(records)
    _, peak = traced_peak(lambda: (dataset.units, dataset.unit_errors(None)))
    assert peak < 12 << 20


def test_bias_design_memory_grows_with_the_records():
    # 4,000 single-reviewer products, each answering its own question: a
    # units x questions matrix would hold 16e6 cells. The design is built
    # from each unit's factor records, so the peak is a few arrays of the
    # records' size.
    n = 4000
    dataset = validate_dataset([rec(f"p{i:04d}", "r0", f"q{i:04d}", "a", f"c{i % 2}")
                                for i in range(n)])
    outcome, peak = traced_peak(lambda: read_outcome(bias_factor_report, dataset)[0])
    assert outcome[:3] == ("error", DatasetValidationError,
                           "no (product, reviewer) unit covers every factor")
    assert peak < 4 << 20
    outcome, peak = traced_peak(lambda: read_outcome(
        lambda d: bias_factor_report(d, ["q0001"]), dataset)[0])
    assert outcome[:2] == ("error", NonBinaryTargetError) and peak < 4 << 20
