"""Dataset validation and derived analysis structures."""

import io
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import (
    ContingencyTable,
    DatasetValidationError,
    DegenerateTableError,
    DuplicateRecordError,
    EmptyMatrixError,
    IncompleteCellError,
    KappaUndefinedError,
    MissingGroundTruthError,
    QuestionSpec,
    ReviewRecord,
    SimulationConfig,
    Treatment,
    UnknownQuestionError,
    contingency_from,
    ingest_csv,
    pooled_rating_matrix,
    rating_matrix,
    simulate,
    validate_dataset,
)
from reviewaudit.model import RatingMatrix, RecordColumns, ReviewDataset, label_codes
from reviewaudit.report import ingest_csv_groups

from _helpers import rec


class TestReviewRecord:
    def test_minimal(self):
        r = rec("p1", "r1", "q1", "yes")
        assert r.key == ("p1", "r1", "q1")
        assert r.team is None and r.period is None

    @pytest.mark.parametrize(
        "field", ["product_id", "reviewer_id", "question_id", "answer", "final_classification"]
    )
    def test_empty_identifier_rejected(self, field):
        kwargs = dict(
            product_id="p", reviewer_id="r", question_id="q",
            answer="a", final_classification="c",
        )
        for blank in ("", " \t"):
            kwargs[field] = blank
            with pytest.raises(DatasetValidationError, match=f"{field} must be a non-empty string"):
                ReviewRecord(**kwargs)

    def test_bad_team_and_period(self):
        with pytest.raises(DatasetValidationError):
            rec("p", "r", "q", "a", team="")
        with pytest.raises(DatasetValidationError, match="team must be None or a non-empty"):
            rec("p", "r", "q", "a", team=" ")
        with pytest.raises(DatasetValidationError):
            rec("p", "r", "q", "a", period="1")
        with pytest.raises(DatasetValidationError, match="period must be None or an integer"):
            rec("p", "r", "q", "a", period=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(
           ["1", " 1", "1 ", "01", "+1", "-1", "10", "2", "a", " a", "b", "B", "é"])),
           max_size=40),
       st.sampled_from([None, str.strip, int]), st.booleans())
def test_label_codes_matches_a_plain_oracle(values, convert, optional):
    # Values that convert to one label share its code; None is a label only
    # in an optional column, where it comes first.
    if convert is int:
        values = [v for v in values if v is None or v.strip().lstrip("+-").isdigit()]
    if not optional:
        values = [v for v in values if v is not None]
    labels = [v if v is None or convert is None else convert(v) for v in values]
    table = sorted(set(labels) - {None})
    if optional:
        table.insert(0, None)
    got_table, codes = label_codes(values, convert, optional)
    assert got_table == tuple(table)
    assert codes.dtype == np.int32
    assert codes.tolist() == [table.index(label) for label in labels]


class TestValidateDataset:
    def test_minimal_complete_panel(self):
        records = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        ds = validate_dataset(records)
        assert ds.n_raters == 3
        assert ds.summary.n_dropped_cells == 0
        assert [(r.product_id, r.question_id) for r in ds.records] == [("p1", "q1")] * 3

    def test_drop_policy_reports_dropped_cell(self):
        records = [rec("p1", "r1", "q1", "yes"), rec("p1", "r2", "q1", "yes")]
        records.append(rec("p2", "r3", "q1", "no"))  # third reviewer exists elsewhere
        ds = validate_dataset(records, policy="drop")
        # both cells are incomplete against the 3-reviewer roster
        assert ds.n_raters == 3
        assert ds.summary.n_dropped_cells == 2
        assert ds.records == ()
        assert [column.tolist() for column in ds.units] == [[], [], [], []]
        for truth, basis in ((None, "consensus"), ({}, "ground_truth")):
            errors, got = ds.unit_errors(truth)
            assert (errors.tolist(), got) == ([], basis)

    def test_first_missing_ground_truth_product_is_named(self):
        # p2 is only in a dropped cell, so it needs no truth; of the kept
        # products, p3 and p5 have none, and p3 is named.
        records = [rec(p, f"r{i}", "q1", "yes", "good")
                   for p in ("p1", "p3", "p4", "p5") for i in range(2)]
        records.append(rec("p2", "r0", "q1", "no", "good"))
        ds = validate_dataset(records)
        assert ds.summary.n_dropped_cells == 1
        truth = {"p1": "good", "p4": "bad", "p9": "good"}
        with pytest.raises(MissingGroundTruthError) as err:
            ds.unit_errors(truth)
        assert err.value.product_id == "p3"
        truth.update(p3="good", p5="unseen")
        errors, basis = ds.unit_errors(truth)
        assert (errors.tolist(), basis) == ([0, 0, 0, 0, 1, 1, 1, 1], "ground_truth")

    def test_single_missing_reviewer_drops_cell(self):
        complete = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        partial = [rec("p2", "r0", "q1", "no"), rec("p2", "r1", "q1", "no")]
        ds = validate_dataset(complete + partial)
        assert ds.summary.n_dropped_cells == 1
        assert ds.summary.dropped_cells == (("p2", "q1"),)
        assert ds.summary.n_dropped_records == 2
        assert {r.product_id for r in ds.records} == {"p1"}

    def test_strict_policy_raises(self):
        records = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        records.append(rec("p2", "r0", "q1", "no"))
        with pytest.raises(IncompleteCellError, match=r"p2"):
            validate_dataset(records, policy="strict")

    def test_duplicate_rejected(self):
        records = [rec("p1", "r1", "q1", "yes"), rec("p1", "r1", "q1", "no")]
        with pytest.raises(DuplicateRecordError):
            validate_dataset(records)

    def test_unit_with_two_teams_rejected(self):
        records = [
            rec("p1", "r0", "q1", "yes", team="A"),
            rec("p1", "r0", "q2", "yes", team="B"),
            rec("p1", "r1", "q1", "yes", team="A"),
            rec("p1", "r1", "q2", "yes", team="A"),
        ]
        ds = validate_dataset(records)
        with pytest.raises(
            DatasetValidationError,
            match=r"unit \(product='p1', reviewer='r0'\) has records in teams 'A' and 'B'",
        ):
            ds.units

    def test_records_are_the_given_objects_in_sorted_order(self):
        records = [rec("p2", "r0", "q1", "a"), rec("p1", "r1", "q1", "b"),
                   rec("p1", "r0", "q1", "a"), rec("p2", "r1", "q1", "b")]
        ds = validate_dataset(records)
        assert [r.key for r in ds.records] == [
            ("p1", "r0", "q1"), ("p1", "r1", "q1"), ("p2", "r0", "q1"), ("p2", "r1", "q1")]

    def test_records_from_csv_built_on_first_use(self, monkeypatch):
        import io

        from reviewaudit import ingest_csv, run_audit

        made = []
        check = ReviewRecord.__post_init__
        monkeypatch.setattr(ReviewRecord, "__post_init__", lambda r: made.append(check(r)))
        text = "product_id,reviewer_id,question_id,answer,final_classification\n"
        text += "".join(f"p{p},r{r},q1,{'ab'[(p + r) % 2]},c{p % 2}\n"
                        for p in range(4) for r in range(2))
        ds = validate_dataset(ingest_csv(io.StringIO(text)))
        run_audit(ds)
        assert made == []
        assert ds.records[0] == rec("p0", "r0", "q1", "a", "c0")
        assert len(ds.records) == 8

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetValidationError):
            validate_dataset([])

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            validate_dataset([rec("p", "r", "q", "a")], policy="ignore")

    def test_category_space_is_sorted_union(self):
        records = [
            rec("p1", "r1", "q1", "zebra"),
            rec("p1", "r2", "q1", "apple"),
        ]
        ds = validate_dataset(records)
        assert ds.category_space["q1"] == ("apple", "zebra")

    def test_declared_categories_override(self):
        records = [rec("p1", "r1", "q1", "yes"), rec("p1", "r2", "q1", "yes")]
        ds = validate_dataset(records, declared_categories={"q1": ["no", "yes"]})
        assert ds.category_space["q1"] == ("no", "yes")

    def test_declared_categories_must_cover_observed(self):
        records = [rec("p1", "r1", "q1", "maybe"), rec("p1", "r2", "q1", "yes")]
        with pytest.raises(DatasetValidationError, match="maybe"):
            validate_dataset(records, declared_categories={"q1": ["no", "yes"]})


class TestRatingMatrix:
    def _panel(self):
        answers = {"p_a": ["yes", "yes", "yes"], "p_b": ["yes", "yes", "no"]}
        return validate_dataset(
            [
                rec(p, f"r{i}", "q1", a)
                for p, ans in answers.items()
                for i, a in enumerate(ans)
            ]
        )

    def test_direct_counts(self):
        m = rating_matrix(self._panel(), "q1")
        assert m.categories == ("no", "yes")
        assert m.counts == ((0, 3), (1, 2))
        assert m.subjects == ("p_a", "p_b")
        assert m.n == 3

    def test_unknown_question(self):
        with pytest.raises(UnknownQuestionError):
            rating_matrix(self._panel(), "q9")

    @pytest.mark.parametrize("question", [["q1"], {"q1": 1}, 1, None],
                             ids=["list", "dict", "int", "none"])
    def test_unhashable_or_non_string_question(self, question):
        dataset = self._panel()
        with pytest.raises(UnknownQuestionError):
            rating_matrix(dataset, question)
        with pytest.raises(UnknownQuestionError):
            contingency_from(dataset, question)

    def test_no_complete_cells(self):
        records = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        records += [rec("p1", "r0", "q2", "no")]
        ds = validate_dataset(records)
        with pytest.raises(EmptyMatrixError):
            rating_matrix(ds, "q2")

    def test_fewer_than_two_raters(self):
        ds = validate_dataset([rec("p1", "r1", "q1", "yes")])
        with pytest.raises(EmptyMatrixError, match="2"):
            rating_matrix(ds, "q1")

    def test_single_category_is_kappa_undefined(self):
        records = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        ds = validate_dataset(records)
        with pytest.raises(KappaUndefinedError):
            rating_matrix(ds, "q1")

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError, match="sums to"):
            RatingMatrix(counts=((1, 1),), n=3, categories=("a", "b"), subjects=("s",))
        with pytest.raises(EmptyMatrixError):
            RatingMatrix(counts=(), n=3, categories=("a", "b"), subjects=())
        with pytest.raises(EmptyMatrixError):
            RatingMatrix(counts=((1,),), n=1, categories=("a",), subjects=("s",))
        with pytest.raises(KappaUndefinedError):
            RatingMatrix(counts=((3,),), n=3, categories=("a",), subjects=("s",))

    @pytest.mark.parametrize("counts, n, categories, message", [
        (((1.5, 1.5), (3, 0)), 3, ("a", "b"), "count 1.5 for subject 's' is not an integer"),
        (((3, 0), (2.0, 1)), 3, ("a", "b"), "count 2.0 for subject 't' is not an integer"),
        (((True, 2), (3, 0)), 3, ("a", "b"), "count True for subject 's' is not an integer"),
        (((3, 0), (2, 1)), 3.0, ("a", "b"), "requires an integer n, got 3.0"),
        (((3, 0), (2, 1)), True, ("a", "b"), "requires an integer n, got True"),
        (((3, 0), (2, 1)), 3, ("a", "a"), "categories must be distinct"),
    ])
    def test_non_integer_input_rejected(self, counts, n, categories, message):
        with pytest.raises(ValueError, match=message):
            RatingMatrix(counts=counts, n=n, categories=categories, subjects=("s", "t"))

    def test_float_and_bool_arrays_rejected(self):
        for counts in (np.array([[1.5, 1.5], [3.0, 0.0]]), np.array([[True, False]] * 2)):
            with pytest.raises(ValueError, match="for subject 's' is not an integer"):
                RatingMatrix(counts=counts, n=3, categories=("a", "b"), subjects=("s", "t"))

    def test_first_bad_subject_named(self):
        def build(*counts):
            subjects = tuple(f"s{i}" for i in range(len(counts)))
            RatingMatrix(counts=counts, n=3, categories=("a", "b"), subjects=subjects)

        with pytest.raises(ValueError, match="row for subject 's1' sums to 2, expected n=3"):
            build((3, 0), (1, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="negative count for subject 's1'"):
            build((3, 0), (4, -1), (1, 1))
        with pytest.raises(ValueError, match="row width mismatch for subject 's1'"):
            build((3, 0), (1, 1, 1), (4, -1))
        with pytest.raises(ValueError, match="subject 's2' is not an integer"):
            build((3, 0), (1, 2), (1.0, 2))

    def test_array_backed_views(self):
        m = rating_matrix(self._panel(), "q1")
        assert m.array.dtype == np.int64 and m.array.tolist() == [[0, 3], [1, 2]]
        assert not m.array.flags.writeable
        assert type(m.counts[0][0]) is int and type(m.subjects) is tuple

    def test_pickle_round_trip_and_hash(self):
        dataset = self._panel()
        for m in (rating_matrix(dataset, "q1"), pooled_rating_matrix(dataset)):
            assert pickle.loads(pickle.dumps(m)) == m
            plain = RatingMatrix(counts=m.counts, n=m.n, categories=m.categories,
                                 subjects=tuple(m.subjects))
            assert plain == m and hash(plain) == hash(m)
        # the pooled matrix names its subjects by a callable, made when first read
        assert pooled_rating_matrix(dataset).subjects == ("p_a/q1", "p_b/q1")

    def test_permutation_invariance_and_total_roundtrip(self):
        rng = random.Random(99)
        records = [
            rec(f"p{p}", f"r{i}", "q1", rng.choice(["a", "b", "c"]))
            for p in range(10)
            for i in range(4)
        ]
        base = rating_matrix(validate_dataset(records), "q1")
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            again = rating_matrix(validate_dataset(shuffled), "q1")
            assert again == base
        assert sum(sum(row) for row in base.counts) == len(records)


class TestContingency:
    def test_expected_from_margins(self):
        t = ContingencyTable.from_observed([[10, 20], [20, 10]])
        assert t.expected == ((15.0, 15.0), (15.0, 15.0))
        assert t.grand_total == 60

    def test_expected_margins_match_observed(self):
        rng = random.Random(5)
        for _ in range(20):
            obs = [[rng.randint(1, 30) for _ in range(3)] for _ in range(4)]
            t = ContingencyTable.from_observed(obs)
            for r, total in enumerate(t.row_totals):
                assert sum(t.expected[r]) == pytest.approx(total, rel=1e-9)
            for c, total in enumerate(t.col_totals):
                assert sum(row[c] for row in t.expected) == pytest.approx(total, rel=1e-9)
            grand_expected = sum(sum(row) for row in t.expected)
            assert grand_expected == pytest.approx(t.grand_total, rel=1e-9)

    def test_proportional_rows_expected_equals_observed(self):
        t = ContingencyTable.from_observed([[10, 20], [20, 40]])
        for obs_row, exp_row in zip(t.observed, t.expected):
            for o, e in zip(obs_row, exp_row):
                assert e == pytest.approx(o, rel=1e-12)

    def test_from_dataset(self):
        records = []
        for p in range(5):
            for i in range(2):
                answer = "yes" if (p + i) % 2 else "no"
                cls = "approve" if p % 2 else "reject"
                records.append(rec(f"p{p}", f"r{i}", "q1", answer, cls))
        table = contingency_from(validate_dataset(records), "q1")
        assert table.row_labels == ("no", "yes")
        assert table.col_labels == ("approve", "reject")
        assert table.grand_total == 10

    def test_degenerate_single_answer(self):
        records = [
            rec("p1", "r1", "q1", "yes", "approve"),
            rec("p1", "r2", "q1", "yes", "approve"),
        ]
        ds = validate_dataset(records)
        with pytest.raises(DegenerateTableError):
            contingency_from(ds, "q1")

    def test_degenerate_zero_margin_under_declared_categories(self):
        records = [
            rec("p1", "r1", "q1", "yes", "approve"),
            rec("p1", "r2", "q1", "yes", "reject"),
        ]
        ds = validate_dataset(records, declared_categories={"q1": ["no", "yes"]})
        with pytest.raises(DegenerateTableError):
            contingency_from(ds, "q1")

    @pytest.mark.parametrize("observed, value", [
        ([[10, 1.5], [20, 10]], "1.5"),
        ([[10.9, 20], [20, 1]], "10.9"),
        ([[10, 20], [20, True]], "True"),
        ([[10, 20], ["3", 1]], "'3'"),
    ])
    def test_from_observed_rejects_non_integer_counts(self, observed, value):
        with pytest.raises(ValueError, match=f"observed count {value} is not an integer"):
            ContingencyTable.from_observed(observed)

    def test_from_observed_takes_numpy_integers_as_ints(self):
        t = ContingencyTable.from_observed(np.array([[10, 20], [20, 10]]))
        assert t.observed == ((10, 20), (20, 10))
        assert all(type(v) is int for row in t.observed for v in row)

    def test_from_observed_rejects_empty(self):
        with pytest.raises(DegenerateTableError):
            ContingencyTable.from_observed([])
        with pytest.raises(DegenerateTableError):
            ContingencyTable.from_observed([[0, 0], [0, 0]])


def test_sparse_questions_look_up_only_their_own_answers():
    # 5,000 products x 2 reviewers, each product with its own question and
    # two answer labels of its own, so 10,000 answer labels in all. A call
    # looks up only its question's labels: the 10,000 calls below take about
    # 1 s on a 2 vCPU Xeon, where a lookup of every label on each call took 9 s.
    records = [rec(f"p{p:04d}", f"r{r}", f"q{p:04d}", f"a{p:04d}-{r}", ("reject", "approve")[r])
               for p in range(5000) for r in range(2)]
    dataset = validate_dataset(RecordColumns.from_records(records))
    start = time.perf_counter()
    for q in dataset.questions:
        matrix = rating_matrix(dataset, q)
        table = contingency_from(dataset, q)
    elapsed = time.perf_counter() - start
    assert (matrix.categories, matrix.counts) == (("a4999-0", "a4999-1"), ((1, 1),))
    assert table.observed == ((0, 1), (1, 0))
    assert elapsed < 3.0


def _uses_every_label(records) -> bool:
    """Whether each label table holds only values the records use (an
    optional column's None aside): what validate_dataset requires."""
    return records.compact().labels == records.labels


def test_every_producer_uses_every_label(tmp_path, monkeypatch):
    rows = ["p1,r1,q1,yes,approve,A,0,treated", "p1,r2,q1,no,reject,,0,treated",
            "p2,r3,q2,maybe,hold,B,,control", "p2,r1,q2,no,approve,B,1,control"]
    text = "product_id,reviewer_id,question_id,answer,final_classification,team,period,group\n"
    text += "\n".join(rows) + "\n"
    path = tmp_path / "panel.csv"
    path.write_text(text)
    # A file takes the block reader, a stream the csv module.
    produced = [ingest_csv(path), ingest_csv(io.StringIO(text)), *ingest_csv_groups(path).values(),
                *ingest_csv_groups(io.StringIO(text)).values(), ingest_csv(path)[1:3],
                RecordColumns.from_records(list(ingest_csv(path)))]

    given = []
    monkeypatch.setattr(simulate, "validate_dataset", lambda records: given.append(records))
    config = SimulationConfig(n_products=2, n_reviewers=2, questions=(QuestionSpec("q1", 9, 0.5),),
                              treatment=Treatment(change_period=1, error_rate_delta=0.5), seed=3)
    simulate.simulate_panel(config)
    simulate.inject_review_change(config)
    assert len(given) == 3
    for records in produced + given:
        assert _uses_every_label(records)


def test_verdict_counts_whose_packed_keys_would_overflow():
    # 2**21 + 1 questions, classifications and answers: a (question,
    # classification, answer) key packed from the table sizes passes 2**63,
    # so the (question, classification) pairs that occur are numbered first.
    size = (1 << 21) + 1
    triples = [(size - 1, size - 1, size - 1), (size - 1, 0, 5), (0, size - 1, 3),
               (size - 1, size - 1, size - 1), (7, 7, 7)]
    question, classification, answer = (np.array(c, np.int32) for c in zip(*triples))
    zeros = np.zeros(len(triples), np.int32)
    records = RecordColumns((zeros, zeros, question, answer, classification, zeros, zeros),
                            (("p",), ("r",), range(size), range(size), range(size), (None,),
                             (None,)))
    dataset = ReviewDataset(reviewers=("r",), questions=range(size), category_space={},
                            n_raters=1, summary=None, records=records)
    got = [column.tolist() for column in dataset._verdict_counts]
    assert list(zip(*got)) == [(0, size - 1, 3, 1), (7, 7, 7, 1), (size - 1, 0, 5, 1),
                               (size - 1, size - 1, size - 1, 2)]
