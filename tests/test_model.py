"""Dataset validation and derived analysis structures."""

import random

import pytest

from reviewaudit import (
    ContingencyTable,
    DatasetValidationError,
    DegenerateTableError,
    DuplicateRecordError,
    EmptyMatrixError,
    IncompleteCellError,
    KappaUndefinedError,
    ReviewRecord,
    UnknownQuestionError,
    contingency_from,
    rating_matrix,
    validate_dataset,
)

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
        kwargs[field] = ""
        with pytest.raises(DatasetValidationError, match=field):
            ReviewRecord(**kwargs)

    def test_bad_team_and_period(self):
        with pytest.raises(DatasetValidationError):
            rec("p", "r", "q", "a", team="")
        with pytest.raises(DatasetValidationError):
            rec("p", "r", "q", "a", period="1")
        with pytest.raises(DatasetValidationError, match="period must be None or an integer"):
            rec("p", "r", "q", "a", period=True)


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
        assert ds.units == {}
        assert ds.unit_errors(None) == ({}, "consensus")
        assert ds.unit_errors({}) == ({}, "ground_truth")

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
        from reviewaudit.model import RatingMatrix

        with pytest.raises(ValueError, match="sums to"):
            RatingMatrix(counts=((1, 1),), n=3, categories=("a", "b"), subjects=("s",))
        with pytest.raises(EmptyMatrixError):
            RatingMatrix(counts=(), n=3, categories=("a", "b"), subjects=())
        with pytest.raises(EmptyMatrixError):
            RatingMatrix(counts=((1,),), n=1, categories=("a",), subjects=("s",))
        with pytest.raises(KappaUndefinedError):
            RatingMatrix(counts=((3,),), n=3, categories=("a",), subjects=("s",))

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

    def test_from_observed_rejects_empty(self):
        with pytest.raises(DegenerateTableError):
            ContingencyTable.from_observed([])
        with pytest.raises(DegenerateTableError):
            ContingencyTable.from_observed([[0, 0], [0, 0]])
