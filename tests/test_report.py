"""CSV ingestion, audit orchestration, serialization round trips."""

import dataclasses
import io
import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import (
    AgreementReport,
    BiasFactorReport,
    ConvergenceError,
    CsvFormatError,
    DidPanel,
    DidResult,
    ingest_csv,
    validate_dataset,
)
from reviewaudit import report as report_module
from reviewaudit.model import RecordColumns
from reviewaudit.report import (
    AuditReport,
    emit_report,
    ingest_csv_groups,
    parse_report,
    read_ground_truth_csv,
    read_outcome_panel_csv,
    render_text,
    run_audit,
)

from _helpers import csv_outcome, read_outcome, rec, traced_peak


CSV_HEADER = "product_id,reviewer_id,question_id,answer,final_classification"


def csv_stream(*rows, header=CSV_HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


@pytest.fixture
def routes(tmp_path):
    """read(reader, stream): reader on a StringIO, on a file holding its
    text, and on that file with the block reader turned off, so that the
    csv module reads it. All three must return equal results or raise the
    same error class, message, row and column; the stream's result is
    returned or its error raised. (A text with a bare CR is left out: a
    file opened with newline="" ends a line there, a StringIO does not.)"""
    paths = (tmp_path / f"input{i}.csv" for i in itertools.count())

    def read(reader, stream):
        path = next(paths)
        path.write_bytes(stream.getvalue().encode("utf-8"))
        (on_stream, result), (on_file, _) = read_outcome(reader, stream), read_outcome(
            reader, str(path))
        assert on_file == on_stream == csv_outcome(reader, str(path))
        if on_stream[0] == "error":
            raise result
        return result

    return read


class TestIngestCsv:
    def test_single_row(self, routes):
        records = routes(ingest_csv, csv_stream("p1,r1,q1,yes,approve"))
        assert len(records) == 1
        assert records[0].product_id == "p1"
        assert records[0].team is None and records[0].period is None

    def test_optional_columns(self, routes):
        stream = csv_stream(
            "p1,r1,q1,yes,approve,teamA,3",
            "p2,r1,q1,no,reject,,",
            header=CSV_HEADER + ",team,period",
        )
        records = routes(ingest_csv, stream)
        assert records[0].team == "teamA" and records[0].period == 3
        assert records[1].team is None and records[1].period is None

    def test_missing_required_column_named(self, routes):
        stream = io.StringIO("product_id,reviewer_id,question_id,final_classification\n"
                             "p1,r1,q1,approve\n")
        with pytest.raises(CsvFormatError, match="answer"):
            routes(ingest_csv, stream)

    def test_unparseable_period_cites_row(self, routes):
        rows = ["p%d,r1,q1,yes,approve,1" % i for i in range(5)]
        rows.append("p9,r1,q1,yes,approve,abc")
        stream = csv_stream(*rows, header=CSV_HEADER + ",period")
        with pytest.raises(CsvFormatError, match="row 7") as err:
            routes(ingest_csv, stream)
        assert err.value.row == 7

    def test_empty_file(self, routes):
        with pytest.raises(CsvFormatError, match="empty"):
            routes(ingest_csv, io.StringIO(""))

    def test_header_only(self, routes):
        with pytest.raises(CsvFormatError, match="no data rows"):
            routes(ingest_csv, io.StringIO(CSV_HEADER + "\n"))

    def test_blank_required_value_cites_row_and_column(self, routes):
        stream = csv_stream("p1,r1,q1,yes,approve", "p2,r1,,yes,approve")
        with pytest.raises(CsvFormatError, match="question_id") as err:
            routes(ingest_csv, stream)
        assert err.value.row == 3

    def test_utf8_bom_header(self, tmp_path):
        # a plain file takes the block reader, a quoted field the csv module
        path = tmp_path / "bom.csv"
        for row in ["p1,r1,q1,yes,approve", '"p1",r1,q1,yes,approve']:
            path.write_bytes(("\ufeff" + CSV_HEADER + "\n" + row + "\n").encode("utf-8"))
            records = ingest_csv(str(path))
            assert records[0].product_id == "p1"

    def test_blank_lines_skipped_and_counted(self, routes):
        stream = io.StringIO(CSV_HEADER + "\n\np1,r1,q1,yes,approve\n\n\np2,r1,q1,,approve\n")
        with pytest.raises(CsvFormatError, match="empty answer on row 6"):
            routes(ingest_csv, stream)
        stream = io.StringIO(CSV_HEADER + "\n\np1,r1,q1,yes,approve\n\n")
        assert list(routes(ingest_csv, stream)) == [rec("p1", "r1", "q1", "yes")]

    def test_short_row_reads_missing_fields_as_empty(self, routes):
        stream = csv_stream("p1,r1,q1,yes", header=CSV_HEADER)
        with pytest.raises(CsvFormatError, match="empty final_classification on row 2"):
            routes(ingest_csv, stream)
        stream = csv_stream("p1,r1,q1,yes,approve", header=CSV_HEADER + ",team,period")
        assert list(routes(ingest_csv, stream)) == [rec("p1", "r1", "q1", "yes")]
        # a long row then a short one: as many commas as two full rows
        stream = csv_stream("p1,r1,q1,yes,approve,x", "p2,r1,q1,yes")
        with pytest.raises(CsvFormatError, match="empty final_classification on row 3"):
            routes(ingest_csv, stream)

    def test_extra_fields_ignored(self, routes):
        stream = csv_stream("p1,r1,q1,yes,approve,teamA,4,extra,more",
                            header=CSV_HEADER + ",team,period")
        assert list(routes(ingest_csv, stream)) == [
            rec("p1", "r1", "q1", "yes", team="teamA", period=4)]

    def test_duplicated_header_takes_last_column(self, routes):
        stream = csv_stream("first,p1,r1,q1,yes,approve,last",
                            header="answer," + CSV_HEADER + ",answer")
        assert list(routes(ingest_csv, stream)) == [rec("p1", "r1", "q1", "last")]

    def test_first_empty_required_column_before_period(self, routes):
        header = "final_classification,period,answer,question_id,reviewer_id,product_id"
        stream = csv_stream("approve,1,yes,q1,r1,p1", ",bad,yes,q1,r1,", header=header)
        with pytest.raises(CsvFormatError, match="empty product_id on row 3") as err:
            routes(ingest_csv, stream)
        assert err.value.column == "product_id"

    def test_period_parsed_by_int(self, routes):
        stream = csv_stream("p1,r1,q1,yes,approve, 7 ", "p2,r1,q1,yes,approve,+3",
                            "p3,r1,q1,yes,approve,1_0", "p4,r1,q1,yes,approve,-2",
                            header=CSV_HEADER + ",period")
        assert [r.period for r in routes(ingest_csv, stream)] == [7, 3, 10, -2]

    def test_repeated_bad_period_cites_first_line(self, routes):
        stream = csv_stream("p1,r1,q1,yes,approve,1", "p2,r1,q1,yes,approve,1.5",
                            "p3,r1,q1,yes,approve,1.5", header=CSV_HEADER + ",period")
        with pytest.raises(CsvFormatError, match=r"unparseable period '1\.5' on row 3") as err:
            routes(ingest_csv, stream)
        assert (err.value.row, err.value.column) == (3, "period")

    def test_quoted_newline_counts_file_lines(self, routes):
        stream = csv_stream('p1,r1,q1,"two\nlines",approve', "p2,r1,q1,yes,")
        with pytest.raises(CsvFormatError, match="empty final_classification on row 4"):
            routes(ingest_csv, stream)
        stream = csv_stream('p1,r1,q1,"two\nlines",approve')
        assert list(routes(ingest_csv, stream)) == [rec("p1", "r1", "q1", "two\nlines")]

    def test_error_after_many_rows_cites_its_line(self, routes):
        rows = [f"p{i},r1,q1,yes,approve" for i in range(5000)]
        rows.insert(4500, "")
        rows.append("p,r1,q1,,approve")
        with pytest.raises(CsvFormatError, match="empty answer on row 5003"):
            routes(ingest_csv, csv_stream(*rows))

    def test_bad_field_reported_before_a_later_malformed_row(self, routes):
        stream = csv_stream("p1,r1,q1,,approve", "p2,r1,q1,a\rb,approve")
        with pytest.raises(CsvFormatError, match="empty answer on row 2"):
            routes(ingest_csv, stream)

    def test_values_stripped(self, routes):
        stream = csv_stream(" p1 , r1 ,q1,\tyes ,approve ,  ,", header=CSV_HEADER + ",team,period")
        records = routes(ingest_csv, stream)
        assert len(records) == 1
        assert records[0] == rec("p1", "r1", "q1", "yes")
        assert records[-1] == records[0]

    def test_groups_split_one_parse(self, routes):
        stream = csv_stream("p1,r1,q1,yes,approve,treated", "p2,r1,q1,no,reject,control",
                            "p3,r1,q1,no,reject,control", "p4,r1,q1,yes,approve, treated ",
                            header=CSV_HEADER + ",group")
        groups = routes(report_module.ingest_csv_groups, stream)
        assert {g: list(records) for g, records in groups.items()} == {
            "treated": [rec("p1", "r1", "q1", "yes"), rec("p4", "r1", "q1", "yes")],
            "control": [rec("p2", "r1", "q1", "no", "reject"),
                        rec("p3", "r1", "q1", "no", "reject")],
        }
        with pytest.raises(CsvFormatError, match="empty answer on row 3"):
            routes(report_module.ingest_csv_groups,
                   csv_stream("p1,r1,q1,yes,approve,treated", "p2,r1,q1,,approve,control",
                              header=CSV_HEADER + ",group"))

    @pytest.mark.parametrize("row, message", [
        ("p2,r1,q1,no,reject,1", "empty group on row 3"),  # a short row's group is blank
        ("p2,r1,q1,no,reject,1, ", "empty group on row 3"),
        ("p2,r1,q1,no,reject,x,", "empty group on row 3"),  # before the period
        ("p2,r1,q1,,reject,1,", "empty answer on row 3"),  # after the required fields
    ])
    def test_blank_group_is_an_error(self, row, message, routes):
        stream = csv_stream("p1,r1,q1,yes,approve,1,treated", row,
                            header=CSV_HEADER + ",period,group")
        with pytest.raises(CsvFormatError) as err:
            routes(report_module.ingest_csv_groups, stream)
        assert (str(err.value), err.value.row) == (message, 3)
        assert err.value.column == message.split()[1]
        # ingest_csv does not read the group column
        stream = csv_stream("p1,r1,q1,yes,approve,1,", header=CSV_HEADER + ",period,group")
        assert len(routes(ingest_csv, stream)) == 1

    def test_ground_truth_reader(self, routes):
        truth = routes(read_ground_truth_csv,
                       io.StringIO("product_id,classification\np1,good\np2,bad\n"))
        assert truth == {"p1": "good", "p2": "bad"}
        with pytest.raises(CsvFormatError, match="classification"):
            routes(read_ground_truth_csv, io.StringIO("product_id\np1\n"))

    def test_ground_truth_conflict_cites_the_later_row(self, routes):
        text = "product_id,classification\np1,good\np2,bad\n\np1, good \np1,bad\n"
        with pytest.raises(CsvFormatError) as err:
            routes(read_ground_truth_csv, io.StringIO(text))
        assert str(err.value) == "conflicting ground truth for product 'p1' on row 6: 'bad' after 'good'"
        assert (err.value.row, err.value.column) == (6, "classification")
        exact_repeat = routes(read_ground_truth_csv, io.StringIO(text.rsplit("p1,bad", 1)[0]))
        assert exact_repeat == {"p1": "good", "p2": "bad"}

    @pytest.mark.parametrize("text, message, row", [
        ("product_id,classification\np1,good\np2, \n", "blank ground-truth entry on row 3", 3),
        # a row short of the classification reads it as blank
        ("product_id,classification\np1\n", "blank ground-truth entry on row 2", 2),
        ("product_id,classification\n\n", "ground-truth file has no data rows", None),
    ])
    def test_ground_truth_entry_errors(self, text, message, row, routes):
        with pytest.raises(CsvFormatError) as err:
            routes(read_ground_truth_csv, io.StringIO(text))
        assert (str(err.value), err.value.row) == (message, row)

    def test_outcome_panel_without_rows(self, routes):
        with pytest.raises(CsvFormatError, match="^no data rows$"):
            routes(read_outcome_panel_csv, io.StringIO("group,period,outcome\n\n"))

    @pytest.mark.parametrize("reader, text, message", [
        (read_ground_truth_csv, "", "empty file: no header row"),
        (read_ground_truth_csv, "id,label\np1,good\n",
         "missing required column(s): product_id, classification"),
        (read_outcome_panel_csv, "", "empty file: no header row"),
        (read_outcome_panel_csv, "group,value\ntreated,1\n",
         "missing required column(s): period, outcome"),
    ])
    def test_header_errors_name_every_missing_column(self, reader, text, message, routes):
        with pytest.raises(CsvFormatError) as err:
            routes(reader, io.StringIO(text))
        assert str(err.value) == message

    @pytest.mark.parametrize("reader, header, rows", [
        (ingest_csv, CSV_HEADER, ("p1,r1,q1,yes,approve", "p2,r1,q1,{},approve")),
        (read_ground_truth_csv, "product_id,classification", ("p1,good", "p2,{}")),
        (read_outcome_panel_csv, "group,period,outcome", ("treated,0,0.5", "{},1,0.25")),
    ])
    def test_oversize_field_cites_its_line(self, reader, header, rows, routes):
        # the csv module refuses a field over 131,072 characters
        text = "\n".join([header, "", rows[0], rows[1].format("x" * 200_000)]) + "\n"
        with pytest.raises(CsvFormatError, match="^malformed CSV on row 4: field larger") as err:
            routes(reader, io.StringIO(text))
        assert err.value.row == 4

    @pytest.mark.parametrize("reader", [ingest_csv, read_ground_truth_csv, read_outcome_panel_csv])
    def test_malformed_header_cites_line_one(self, reader):
        with pytest.raises(CsvFormatError, match="^malformed CSV on row 1: ") as err:
            reader(io.StringIO("product_id,a\rb\n"))
        assert err.value.row == 1

    def test_outcome_panel_reader(self, routes):
        rows = routes(read_outcome_panel_csv,
                      io.StringIO("group,period,outcome\ntreated,0,0.5\ncontrol,1,0.25\n"))
        assert rows == [("treated", 0, 0.5), ("control", 1, 0.25)]
        with pytest.raises(CsvFormatError, match="row 3"):
            routes(read_outcome_panel_csv,
                   io.StringIO("group,period,outcome\ntreated,0,0.5\ncontrol,x,1\n"))


@pytest.mark.parametrize("reader, text", [
    (ingest_csv, CSV_HEADER + ",team\np1,r1,q1,yes,ok,t\np1,r2,q1,no,ok,\n"),
    (ingest_csv_groups, CSV_HEADER + ",group\np1,r1,q1,yes,ok,treated\np1,r1,q1,no,ok,control\n"),
    (read_ground_truth_csv, "product_id,classification\np1,ok\np2,flag\n"),
    (read_outcome_panel_csv, "group,period,outcome\ntreated,0,1.5\ncontrol,1,0.25\n"),
], ids=lambda value: getattr(value, "__name__", "text"))
def test_a_path_object_reads_as_its_str(tmp_path, monkeypatch, reader, text):
    # A review CSV named by a Path takes the block reader, as its str does.
    path = tmp_path / "input.csv"
    path.write_text(text)
    on_str = read_outcome(reader, str(path))[0]
    assert on_str[0] == "ok"

    def no_csv_path(stream, group):
        raise AssertionError("the csv module read a plain file")

    monkeypatch.setattr(report_module, "_read_csv_stream", no_csv_path)
    assert read_outcome(reader, pathlib.Path(path))[0] == on_str


def _team_panel(n_teams=2, n_products=8):
    """Reviewers split across teams; r0 misclassifies odd products."""
    team_of = {}
    reviewers = []
    for t in range(n_teams):
        for j in range(2):
            reviewer = f"r{t * 2 + j}"
            reviewers.append(reviewer)
            team_of[reviewer] = f"team{t}"
    records = []
    for p in range(n_products):
        for reviewer in reviewers:
            wrong = reviewer == "r0" and p % 2 == 1
            cls = "bad" if wrong else "good"
            answer = "yes" if (p + len(reviewer)) % 2 else "no"
            records.append(
                rec(f"p{p}", reviewer, "q1", answer, cls, team=team_of[reviewer])
            )
    truth = {f"p{p}": "good" for p in range(n_products)}
    return validate_dataset(records), truth


def _rows(count, start=0):
    return [f"p{i},r1,q1,yes,approve" for i in range(start, start + count)]


class TestIngestAtBatchBoundary:
    """A text stream is copied into a file of bytes report._BATCH lines at
    a time (see report._byte_file); an error near the end of a copied batch
    cites the same file line as anywhere else. The header is line 1, so the
    i-th data row (from 0) is on line i + 2 when no row is blank or spans
    lines."""

    batch = report_module._BATCH

    @pytest.mark.parametrize("bad_row", [report_module._BATCH - 1, report_module._BATCH])
    def test_bad_field_either_side_of_the_boundary(self, bad_row, routes):
        rows = _rows(self.batch + 10)
        rows[bad_row] = "p,r1,q1,,approve"
        with pytest.raises(CsvFormatError, match=f"empty answer on row {bad_row + 2}$") as err:
            routes(ingest_csv, csv_stream(*rows))
        assert err.value.row == bad_row + 2

    def test_bad_period_in_the_second_batch(self, routes):
        rows = [row + ",1" for row in _rows(self.batch + 10)]
        rows[self.batch + 3] = "p,r1,q1,yes,approve,x"
        with pytest.raises(CsvFormatError, match=f"unparseable period 'x' on row {self.batch + 5}$"):
            routes(ingest_csv, csv_stream(*rows, header=CSV_HEADER + ",period"))

    def test_blank_rows_straddling_the_boundary(self, routes):
        rows = _rows(self.batch + 10)
        rows[self.batch:self.batch] = ["", ""]  # after the last row of the first batch
        rows[self.batch + 2] = "p,r1,q1,yes,"
        with pytest.raises(CsvFormatError,
                           match=f"empty final_classification on row {self.batch + 4}$"):
            routes(ingest_csv, csv_stream(*rows))
        rows[self.batch + 2] = "p,r1,q1,yes,approve"
        assert len(routes(ingest_csv, csv_stream(*rows))) == self.batch + 10

    def test_multiline_field_straddling_the_boundary(self, routes):
        rows = _rows(self.batch + 10)
        rows[self.batch - 1] = 'p,r1,q1,"two\nlines",approve'  # last row of the first batch
        rows[self.batch] = "p,r1,,yes,approve"
        with pytest.raises(CsvFormatError, match=f"empty question_id on row {self.batch + 3}$"):
            routes(ingest_csv, csv_stream(*rows))
        rows[self.batch - 1] = 'p,r1,q1,"two\nlines",'  # a bad row that spans two lines
        with pytest.raises(CsvFormatError,
                           match=f"empty final_classification on row {self.batch + 2}$"):
            routes(ingest_csv, csv_stream(*rows))

    def test_bad_field_then_malformed_row_in_one_batch(self):
        rows = _rows(self.batch + 10)
        rows[self.batch + 3] = "p,r1,q1,,approve"
        rows[self.batch + 5] = "p,r1,q1,a\rb,approve"
        with pytest.raises(CsvFormatError, match=f"empty answer on row {self.batch + 5}$"):
            ingest_csv(csv_stream(*rows))
        rows[self.batch + 3] = "p,r1,q1,yes,approve"
        with pytest.raises(CsvFormatError, match=f"^malformed CSV on row {self.batch + 7}: ") as err:
            ingest_csv(csv_stream(*rows))
        assert err.value.row == self.batch + 7

    def test_unseekable_stream(self):
        class Lines:
            def __init__(self, text):
                self.lines = iter(text.splitlines(keepends=True))

            def __iter__(self):
                return self.lines

        rows = _rows(2 * self.batch + 10)
        rows[2 * self.batch + 1] = "p,,q1,yes,approve"
        with pytest.raises(CsvFormatError, match=f"empty reviewer_id on row {2 * self.batch + 3}$"):
            ingest_csv(Lines(csv_stream(*rows).getvalue()))


class TestRunAudit:
    def test_two_teams_use_t_test(self):
        dataset, truth = _team_panel(n_teams=2)
        report = run_audit(dataset, ground_truth=truth)
        team = report.section("team_comparison")
        assert team["status"] == "ok"
        assert team["test"]["test_kind"] == "t_two_sample"
        assert team["outcome_basis"] == "ground_truth"

    def test_three_teams_use_anova(self):
        dataset, truth = _team_panel(n_teams=3)
        report = run_audit(dataset, ground_truth=truth)
        team = report.section("team_comparison")
        assert team["status"] == "ok"
        assert team["test"]["test_kind"] == "anova_f"
        assert "anova" in team

    def test_no_team_column_skips(self):
        records = [
            rec(f"p{p}", f"r{i}", "q1", "yes" if (p + i) % 2 else "no",
                "good" if p % 2 else "bad")
            for p in range(6)
            for i in range(3)
        ]
        report = run_audit(validate_dataset(records))
        team = report.section("team_comparison")
        assert team["status"] == "skipped"
        assert "no team data" in team["reason"]

    def test_extrapolation_covers_all_and_reviewers(self):
        dataset, truth = _team_panel()
        report = run_audit(dataset, ground_truth=truth)
        groups = report.section("error_extrapolation")["groups"]
        assert "all" in groups
        assert "reviewer:r0" in groups
        assert groups["all"]["method"] == "clopper_pearson"
        # r0 misclassifies 4 of 8 products
        assert groups["reviewer:r0"]["x"] == 4
        assert groups["reviewer:r0"]["n"] == 8

    def test_consensus_basis_without_truth(self):
        dataset, _ = _team_panel()
        report = run_audit(dataset)
        assert report.section("error_extrapolation")["outcome_basis"] == "consensus"

    def test_missing_truth_fails_only_dependent_sections(self):
        dataset, truth = _team_panel()
        del truth["p0"]
        report = run_audit(dataset, ground_truth=truth)
        statuses = report.statuses()
        assert statuses["team_comparison"] == "error"
        assert statuses["error_extrapolation"] == "error"
        assert statuses["agreement"] == "ok"
        assert statuses["chi_square"] == "ok"

    def test_conflicting_teams_fail_unit_sections(self):
        dataset, truth = _team_panel()
        # a second question whose record for unit (p3, r1) names another team
        records = list(dataset.records) + [
            dataclasses.replace(
                r, question_id="q2", team="other" if r.key[:2] == ("p3", "r1") else r.team
            )
            for r in dataset.records
        ]
        report = run_audit(validate_dataset(records), ground_truth=truth)
        message = "unit (product='p3', reviewer='r1') has records in teams 'team0' and 'other'"
        for name in ("team_comparison", "error_extrapolation", "bias_factors"):
            assert report.section(name) == {"status": "error", "error": message}, name
        assert report.section("agreement")["status"] == "ok"
        assert report.section("chi_square")["status"] == "ok"

    def test_corrupt_team_data_changes_only_team_section(self):
        dataset, truth = _team_panel()
        base = run_audit(dataset, ground_truth=truth)
        corrupted_records = [
            rec(
                r.product_id, r.reviewer_id, r.question_id, r.answer,
                r.final_classification,
                team=f"scrambled-{sum(map(ord, r.reviewer_id)) % 3}",
            )
            for r in dataset.records
        ]
        corrupted = run_audit(validate_dataset(corrupted_records), ground_truth=truth)
        assert corrupted.section("team_comparison") != base.section("team_comparison")
        for name in ("agreement", "chi_square", "error_extrapolation", "bias_factors", "did"):
            assert corrupted.section(name) == base.section(name), name

    def test_did_section_from_panel(self):
        dataset, truth = _team_panel()
        panel = DidPanel(
            observations=(
                ("control", 0, 10.0), ("control", 1, 14.0),
                ("treated", 0, 20.0), ("treated", 1, 30.0),
            ),
            change_period=1,
        )
        report = run_audit(dataset, ground_truth=truth, did_panel=panel)
        did = report.section("did")
        assert did["status"] == "ok"
        assert did["effect"] == 6.0
        assert did["counterfactual"] == [[1, 24.0]]

    def test_dataset_summary(self):
        dataset, truth = _team_panel()
        report = run_audit(dataset, ground_truth=truth)
        summary = report.dataset_summary
        assert summary["n_raters"] == 4
        assert summary["n_products"] == 8
        assert summary["incomplete_cell_policy"] == "drop"

    def test_alpha_validation(self):
        dataset, _ = _team_panel()
        with pytest.raises(ValueError):
            run_audit(dataset, alpha=1.5)

    @pytest.mark.parametrize("option, message", [
        ({"overall_kappa_mode": "median"}, "overall_kappa_mode must be one of "
         "('pooled', 'mean_of_questions'), got 'median'"),
        ({"ci_method": "exact"}, "ci_method must be one of ('clopper_pearson', 'wilson'), "
         "got 'exact'"),
        ({"ci_level": 1.0}, "ci_level must be in (0, 1), got 1.0"),
    ])
    def test_option_validation(self, option, message):
        dataset, _ = _team_panel()
        with pytest.raises(ValueError) as err:
            run_audit(dataset, **option)
        assert str(err.value) == message


def _did_panel():
    return DidPanel(
        observations=(
            ("control", 0, 10.0), ("control", 1, 14.0),
            ("treated", 0, 20.0), ("treated", 1, 30.0),
        ),
        change_period=1,
    )


class TestSectionGuard:
    """A fault inside one section becomes that section's error body; the
    other sections are unchanged and run_audit itself does not raise."""

    @pytest.mark.parametrize("section, target, exc", [
        ("agreement", "analyze_agreement", ConvergenceError("kappa", 7)),
        ("chi_square", "chi_square_independence", ValueError("bad table")),
        ("team_comparison", "two_sample_t", ConvergenceError("t tail", 7)),
        ("error_extrapolation", "binomial_ci", ConvergenceError("beta", 500)),
        ("bias_factors", "bias_factor_report", ConvergenceError("IRLS", 100)),
        ("did", "did_estimate", ValueError("bad panel")),
    ])
    def test_fault_stays_in_its_section(self, monkeypatch, section, target, exc):
        dataset, truth = _team_panel()
        base = run_audit(dataset, ground_truth=truth, did_panel=_did_panel())
        assert set(base.statuses().values()) == {"ok"}

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(report_module, target, fail)
        faulty = run_audit(dataset, ground_truth=truth, did_panel=_did_panel())
        body = faulty.section(section)
        assert body["status"] == "error"
        assert body["error"] == str(exc)
        for name in base.sections:
            if name != section:
                assert faulty.section(name) == base.section(name), name

    def test_team_error_keeps_sizes_and_rates(self, monkeypatch):
        dataset, truth = _team_panel()

        def fail(*args, **kwargs):
            raise ConvergenceError("t tail", 7)

        monkeypatch.setattr(report_module, "two_sample_t", fail)
        team = run_audit(dataset, ground_truth=truth).section("team_comparison")
        assert team["group_sizes"] == {"team0": 16, "team1": 16}
        assert team["group_error_rates"] == {"team0": 0.25, "team1": 0.0}

    def test_chi_square_error_keeps_per_question(self, monkeypatch):
        dataset, truth = _team_panel()

        def fail(*args, **kwargs):
            raise ConvergenceError("gamma", 500)

        monkeypatch.setattr(report_module, "chi_square_independence", fail)
        chi = run_audit(dataset, ground_truth=truth).section("chi_square")
        assert chi["status"] == "error"
        assert chi["per_question"] == {
            "q1": {"status": "error",
                   "error": "gamma did not converge within 500 iterations"},
        }


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: float(f"{x:.12g}")),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
                     0.1, 1e16, 123456789012.0, 0.000123456789012]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f\u2028", "é中😀\ud800", ""]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text() | st.sampled_from(['"k"', "\\", "\n", "ü"]), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestSerialization:
    def test_round_trip_and_determinism(self):
        dataset, truth = _team_panel()
        report = run_audit(dataset, ground_truth=truth)
        emitted = emit_report(report)
        assert parse_report(emitted) == report
        again = emit_report(run_audit(dataset, ground_truth=truth))
        assert emitted == again

    def test_floats_serialized_at_12_significant_digits(self):
        dataset, truth = _team_panel()
        report = run_audit(dataset, ground_truth=truth)
        payload = json.loads(emit_report(report))

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    yield from walk(v)
            elif isinstance(node, list):
                for v in node:
                    yield from walk(v)
            elif isinstance(node, float):
                yield node

        floats = list(walk(payload))
        assert floats, "report should contain floating-point values"
        for value in floats:
            assert value == float(f"{value:.12g}")

    def test_section_body_is_status_plus_result_fields(self):
        dataset, truth = _team_panel()
        report = run_audit(dataset, ground_truth=truth, did_panel=_did_panel())
        for name, result_type in (("agreement", AgreementReport),
                                  ("bias_factors", BiasFactorReport), ("did", DidResult)):
            fields = [f.name for f in dataclasses.fields(result_type)]
            assert list(report.section(name)) == ["status", *fields], name

    def test_stable_key_order(self):
        dataset, truth = _team_panel()
        emitted = emit_report(run_audit(dataset, ground_truth=truth))
        parsed = json.loads(emitted)
        assert list(parsed) == sorted(parsed)

    def test_nan_is_refused(self):
        dataset, _ = _team_panel()
        report = run_audit(dataset)
        broken = dataclasses.replace(report, config={**report.config, "alpha": float("nan")})
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_report(broken, "json")

    def test_format_validation(self):
        dataset, truth = _team_panel()
        with pytest.raises(ValueError):
            emit_report(run_audit(dataset, ground_truth=truth), "yaml")

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_writer_matches_json_dumps(self, payload):
        expected = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert report_module._json_text(payload) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [lambda v: v, lambda v: {"a": [1, {"b": v}]},
                                       lambda v: (0.5, [v])])
    def test_writer_refuses_nan_and_infinity(self, bad, where):
        payload = where(bad)
        with pytest.raises(ValueError, match="JSON compliant") as ours:
            report_module._json_text(payload)
        with pytest.raises(ValueError) as theirs:
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("payload", [{1: "a"}, {None: 0}, {"a": {1.5: 0}}, {1, 2},
                                         [b"x"], {"a": object()}])
    def test_writer_refuses_non_str_keys_and_other_types(self, payload):
        with pytest.raises(TypeError):
            report_module._json_text(payload)


class TestTextRendering:
    def test_ranking_leads_and_did_block_present(self):
        dataset, truth = _team_panel()
        panel = DidPanel(
            observations=(
                ("control", 0, 1.0), ("control", 1, 2.0),
                ("treated", 0, 1.0), ("treated", 1, 4.0),
            ),
            change_period=1,
        )
        report = run_audit(dataset, ground_truth=truth, did_panel=panel)
        text = render_text(report)
        assert text.index("Disagreement ranking") < text.index("Chi-square")
        assert "counterfactual series" in text
        assert "effect: 2" in text

    def test_skip_reasons_rendered(self):
        records = [
            rec(f"p{p}", f"r{i}", "q1", "yes" if (p + i) % 2 else "no",
                "good" if p % 2 else "bad")
            for p in range(6)
            for i in range(3)
        ]
        text = render_text(run_audit(validate_dataset(records)))
        assert "skipped: no team data" in text
        assert "skipped: no difference-in-differences input" in text


# Hand-made section bodies that reach every branch of render_text. The
# expected texts are literals recorded from the renderer as it was before
# its sections shared one status rule.
_SUMMARY = {"n_records": 12, "n_products": 2, "n_reviewers": 3, "n_questions": 2}
_OK_SECTIONS = dict(
    agreement={"status": "ok", "disagreement_ranking": ["q2", "q1"],
               "per_question": {"q1": {"kappa": 0.5}, "q2": {"kappa": None}},
               "annotations": {"q2": "kappa undefined"}, "overall_mode": "pooled",
               "overall_kappa": 0.25, "agreement_rate": 0.75,
               "notes": ["one rater pair", "small panel"]},
    chi_square={"status": "ok", "per_question": {
        "q1": {"status": "ok", "statistic": 3.5, "df": 1, "p_value": 0.0614,
               "alpha": 0.05, "reject_null": False, "warnings": ["low counts", "yates"]},
        "q2": {"status": "error", "error": "degenerate table"}}},
    team_comparison={"status": "ok", "test": {"test_kind": "welch_t", "statistic": -1.5,
                                              "df": 7.5, "p_value": 0.17, "alpha": 0.05,
                                              "reject_null": False},
                     "outcome_basis": "consensus", "teams": ["a", "b"],
                     "group_sizes": {"a": 4, "b": 5},
                     "group_error_rates": {"a": 0.25, "b": 0.4}},
    error_extrapolation={"status": "ok", "outcome_basis": "consensus", "groups": {
        "all": {"x": 3, "n": 9, "level": 0.95, "lower": 0.0749, "upper": 0.7008,
                "method": "clopper_pearson"}}},
    bias_factors={"status": "ok", "target_labels": ["bad", "good"], "n_rows": 9,
                  "ranked_by": "ols",
                  "effects": [{"name": "q1=yes", "ols_coefficient": 0.5,
                               "logistic_coefficient": None}],
                  "ols_error": "rank deficient", "logistic_error": "separation"},
    did={"status": "ok", "effect": 2.0, "treated_pre_mean": 1.0, "treated_post_mean": 4.0,
         "control_pre_mean": 1.0, "control_post_mean": 2.0,
         "per_group_series": {"control": [[0, 1.0], [1, 2.0]],
                              "treated": [[0, 1.0], [1, 4.0]]},
         "counterfactual": [[1, 2.0]], "effect_se": 0.125},
)
_FAILED_SECTIONS = dict(
    agreement={"status": "error", "error": "kappa failed"},
    chi_square={"status": "error", "error": "no question yields a testable contingency table",
                "per_question": {"q1": {"status": "error", "error": "degenerate table"}}},
    team_comparison={"status": "error", "error": "t tail failed",
                     "outcome_basis": "consensus", "teams": ["a", "b"]},
    error_extrapolation={"status": "error", "error": "beta failed"},
    bias_factors={"status": "error", "error": "IRLS failed"},
    did={"status": "error", "error": "bad panel"},
)
_SKIPPED_SECTIONS = dict(
    _FAILED_SECTIONS,
    chi_square={"status": "error", "error": "chi-square failed"},
    team_comparison={"status": "skipped", "reason": "no team data"},
    error_extrapolation={"status": "skipped", "reason": "no units to extrapolate"},
    did={"status": "skipped", "reason": "no difference-in-differences input"},
)
_HEADER = "REVIEW AUDIT REPORT (schema 1, toolkit 9.9)\n"


def _synthetic(sections, dropped=0):
    return AuditReport(1, "9.9", {}, {**_SUMMARY, "n_dropped_cells": dropped}, sections)


class TestTextRenderingBranches:
    def test_every_ok_branch(self):
        assert render_text(_synthetic(_OK_SECTIONS, dropped=4)) == _HEADER + """\
dataset: 12 records, 2 products, 3 reviewers, 2 questions (4 incomplete cells dropped)

== Disagreement ranking (highest disagreement first) ==
  1. q2  kappa=n/a
  2. q1  kappa=0.5
  -- q2: kappa undefined

== Agreement ==
  overall kappa (pooled): 0.25
  consensus agreement rate: 0.75
  note: one rater pair
  note: small panel

== Chi-square: answer vs classification ==
  q1: statistic=3.5 df=1 p=0.0614 reject@0.05=False  [low counts; yates]
  q2: error: degenerate table

== Team comparison ==
  welch_t: statistic=-1.5 df=7.5 p=0.17 reject@0.05=False
  outcome basis: consensus
  team a: n=4 error_rate=0.25
  team b: n=5 error_rate=0.4

== Error-rate extrapolation ==
  outcome basis: consensus
  all: 3/9 errors, 95% CI [0.0749, 0.7008] (clopper_pearson)

== Bias factors (ranked by influence) ==
  target: bad vs good over 9 units, ranked by ols
  q1=yes: ols=0.5 logistic=n/a
  ols error: rank deficient
  logistic error: separation

== Difference-in-differences ==
  effect: 2
  treated: pre=1 post=4; control: pre=1 post=2
  actual control series: (0, 1) (1, 2)
  actual treated series: (0, 1) (1, 4)
  counterfactual series: (1, 2)
  bootstrap SE: 0.125
"""

    def test_every_error_branch(self):
        # A failed chi-square body that kept its per-question bodies lists
        # them, and the Agreement block is empty when agreement failed.
        assert render_text(_synthetic(_FAILED_SECTIONS)) == _HEADER + """\
dataset: 12 records, 2 products, 3 reviewers, 2 questions

== Disagreement ranking (highest disagreement first) ==
  unavailable: kappa failed

== Agreement ==

== Chi-square: answer vs classification ==
  q1: error: degenerate table

== Team comparison ==
  error: t tail failed

== Error-rate extrapolation ==
  error: beta failed

== Bias factors (ranked by influence) ==
  error: IRLS failed

== Difference-in-differences ==
  error: bad panel
"""

    def test_skipped_and_unavailable_branches(self):
        assert render_text(_synthetic(_SKIPPED_SECTIONS)) == _HEADER + """\
dataset: 12 records, 2 products, 3 reviewers, 2 questions

== Disagreement ranking (highest disagreement first) ==
  unavailable: kappa failed

== Agreement ==

== Chi-square: answer vs classification ==
  unavailable: chi-square failed

== Team comparison ==
  skipped: no team data

== Error-rate extrapolation ==
  skipped: no units to extrapolate

== Bias factors (ranked by influence) ==
  error: IRLS failed

== Difference-in-differences ==
  skipped: no difference-in-differences input
"""


def _sparse_panel(n: int) -> RecordColumns:
    """n products x 2 reviewers, each product with its own question and two
    answer labels of its own; reviewer r0 rejects, r1 approves."""
    product = np.arange(n, dtype=np.int32).repeat(2)
    reviewer = np.tile(np.array([0, 1], np.int32), n)
    zeros = np.zeros(2 * n, np.int32)
    return RecordColumns(
        (product, reviewer, product, np.arange(2 * n, dtype=np.int32), 1 - reviewer, zeros, zeros),
        (tuple(f"p{i:05d}" for i in range(n)), ("r0", "r1"), tuple(f"q{i:05d}" for i in range(n)),
         tuple(f"a{i:05d}-{r}" for i in range(n) for r in range(2)), ("approve", "reject"),
         (None,), (None,)))


def test_a_sparse_panel_audits_in_memory_that_grows_with_the_records():
    # 20,000 products x 2 reviewers (40,000 records): a cells x union
    # categories table for the pooled kappa would hold 20,000 x 40,000
    # counts, 6 GB. The kappas and tables are read from pair counts, so
    # run_audit takes about 2 s on a 2 vCPU Xeon, and its traced peak is
    # about 35 MB (about 15 s with tracemalloc on).
    records = _sparse_panel(20_000)
    start = time.perf_counter()
    report = run_audit(validate_dataset(records))
    assert time.perf_counter() - start < 10
    assert report.statuses() == {
        "agreement": "ok", "chi_square": "ok", "team_comparison": "skipped",
        "error_extrapolation": "ok", "bias_factors": "error", "did": "skipped"}
    # No cell agrees, and each of the 40,000 categories holds one rating.
    assert report.section("agreement")["overall_kappa"] == pytest.approx(-1 / 39_999, rel=1e-9)
    dataset = validate_dataset(records)
    traced, peak = traced_peak(lambda: run_audit(dataset))
    assert traced == report and peak < 64 << 20
