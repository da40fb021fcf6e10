"""CSV ingestion, audit orchestration, serialization round trips."""

import dataclasses
import io
import json

import pytest

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
from reviewaudit.report import (
    emit_report,
    parse_report,
    read_ground_truth_csv,
    read_outcome_panel_csv,
    render_text,
    run_audit,
)

from _helpers import rec


CSV_HEADER = "product_id,reviewer_id,question_id,answer,final_classification"


def csv_stream(*rows, header=CSV_HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


class TestIngestCsv:
    def test_single_row(self):
        records = ingest_csv(csv_stream("p1,r1,q1,yes,approve"))
        assert len(records) == 1
        assert records[0].product_id == "p1"
        assert records[0].team is None and records[0].period is None

    def test_optional_columns(self):
        stream = csv_stream(
            "p1,r1,q1,yes,approve,teamA,3",
            "p2,r1,q1,no,reject,,",
            header=CSV_HEADER + ",team,period",
        )
        records = ingest_csv(stream)
        assert records[0].team == "teamA" and records[0].period == 3
        assert records[1].team is None and records[1].period is None

    def test_missing_required_column_named(self):
        stream = io.StringIO("product_id,reviewer_id,question_id,final_classification\n"
                             "p1,r1,q1,approve\n")
        with pytest.raises(CsvFormatError, match="answer"):
            ingest_csv(stream)

    def test_unparseable_period_cites_row(self):
        rows = ["p%d,r1,q1,yes,approve,1" % i for i in range(5)]
        rows.append("p9,r1,q1,yes,approve,abc")
        stream = csv_stream(*rows, header=CSV_HEADER + ",period")
        with pytest.raises(CsvFormatError, match="row 7") as err:
            ingest_csv(stream)
        assert err.value.row == 7

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="empty"):
            ingest_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(CsvFormatError, match="no data rows"):
            ingest_csv(io.StringIO(CSV_HEADER + "\n"))

    def test_blank_required_value_cites_row_and_column(self):
        stream = csv_stream("p1,r1,q1,yes,approve", "p2,r1,,yes,approve")
        with pytest.raises(CsvFormatError, match="question_id") as err:
            ingest_csv(stream)
        assert err.value.row == 3

    def test_utf8_bom_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + CSV_HEADER + "\np1,r1,q1,yes,approve\n").encode("utf-8"))
        records = ingest_csv(str(path))
        assert records[0].product_id == "p1"

    def test_blank_lines_skipped_and_counted(self):
        stream = io.StringIO(CSV_HEADER + "\n\np1,r1,q1,yes,approve\n\n\np2,r1,q1,,approve\n")
        with pytest.raises(CsvFormatError, match="empty answer on row 6"):
            ingest_csv(stream)
        stream = io.StringIO(CSV_HEADER + "\n\np1,r1,q1,yes,approve\n\n")
        assert list(ingest_csv(stream)) == [rec("p1", "r1", "q1", "yes")]

    def test_short_row_reads_missing_fields_as_empty(self):
        stream = csv_stream("p1,r1,q1,yes", header=CSV_HEADER)
        with pytest.raises(CsvFormatError, match="empty final_classification on row 2"):
            ingest_csv(stream)
        stream = csv_stream("p1,r1,q1,yes,approve", header=CSV_HEADER + ",team,period")
        assert list(ingest_csv(stream)) == [rec("p1", "r1", "q1", "yes")]

    def test_extra_fields_ignored(self):
        stream = csv_stream("p1,r1,q1,yes,approve,teamA,4,extra,more",
                            header=CSV_HEADER + ",team,period")
        assert list(ingest_csv(stream)) == [rec("p1", "r1", "q1", "yes", team="teamA", period=4)]

    def test_duplicated_header_takes_last_column(self):
        stream = csv_stream("first,p1,r1,q1,yes,approve,last",
                            header="answer," + CSV_HEADER + ",answer")
        assert list(ingest_csv(stream)) == [rec("p1", "r1", "q1", "last")]

    def test_first_empty_required_column_before_period(self):
        header = "final_classification,period,answer,question_id,reviewer_id,product_id"
        stream = csv_stream("approve,1,yes,q1,r1,p1", ",bad,yes,q1,r1,", header=header)
        with pytest.raises(CsvFormatError, match="empty product_id on row 3") as err:
            ingest_csv(stream)
        assert err.value.column == "product_id"

    def test_period_parsed_by_int(self):
        stream = csv_stream("p1,r1,q1,yes,approve, 7 ", "p2,r1,q1,yes,approve,+3",
                            "p3,r1,q1,yes,approve,1_0", "p4,r1,q1,yes,approve,-2",
                            header=CSV_HEADER + ",period")
        assert [r.period for r in ingest_csv(stream)] == [7, 3, 10, -2]

    def test_repeated_bad_period_cites_first_line(self):
        stream = csv_stream("p1,r1,q1,yes,approve,1", "p2,r1,q1,yes,approve,1.5",
                            "p3,r1,q1,yes,approve,1.5", header=CSV_HEADER + ",period")
        with pytest.raises(CsvFormatError, match=r"unparseable period '1\.5' on row 3") as err:
            ingest_csv(stream)
        assert (err.value.row, err.value.column) == (3, "period")

    def test_quoted_newline_counts_file_lines(self):
        stream = csv_stream('p1,r1,q1,"two\nlines",approve', "p2,r1,q1,yes,")
        with pytest.raises(CsvFormatError, match="empty final_classification on row 4"):
            ingest_csv(stream)
        stream = csv_stream('p1,r1,q1,"two\nlines",approve')
        assert list(ingest_csv(stream)) == [rec("p1", "r1", "q1", "two\nlines")]

    def test_error_after_many_rows_cites_its_line(self):
        rows = [f"p{i},r1,q1,yes,approve" for i in range(5000)]
        rows.insert(4500, "")
        rows.append("p,r1,q1,,approve")
        with pytest.raises(CsvFormatError, match="empty answer on row 5003"):
            ingest_csv(csv_stream(*rows))

    def test_bad_field_reported_before_a_later_malformed_row(self):
        stream = csv_stream("p1,r1,q1,,approve", "p2,r1,q1,a\rb,approve")
        with pytest.raises(CsvFormatError, match="empty answer on row 2"):
            ingest_csv(stream)

    def test_values_stripped(self):
        stream = csv_stream(" p1 , r1 ,q1,\tyes ,approve ,  ,", header=CSV_HEADER + ",team,period")
        records = ingest_csv(stream)
        assert len(records) == 1
        assert records[0] == rec("p1", "r1", "q1", "yes")
        assert records[-1] == records[0]

    def test_groups_split_one_parse(self):
        stream = csv_stream("p1,r1,q1,yes,approve,treated", "p2,r1,q1,no,reject,control",
                            "p3,r1,q1,no,reject", "p4,r1,q1,yes,approve, treated ",
                            header=CSV_HEADER + ",group")
        groups = report_module.ingest_csv_groups(stream)
        assert {g: list(records) for g, records in groups.items()} == {
            "treated": [rec("p1", "r1", "q1", "yes"), rec("p4", "r1", "q1", "yes")],
            "control": [rec("p2", "r1", "q1", "no", "reject")],
            "": [rec("p3", "r1", "q1", "no", "reject")],
        }
        with pytest.raises(CsvFormatError, match="empty answer on row 3"):
            report_module.ingest_csv_groups(
                csv_stream("p1,r1,q1,yes,approve,treated", "p2,r1,q1,,approve,control",
                           header=CSV_HEADER + ",group"))

    def test_ground_truth_reader(self):
        truth = read_ground_truth_csv(
            io.StringIO("product_id,classification\np1,good\np2,bad\n")
        )
        assert truth == {"p1": "good", "p2": "bad"}
        with pytest.raises(CsvFormatError, match="classification"):
            read_ground_truth_csv(io.StringIO("product_id\np1\n"))

    @pytest.mark.parametrize("reader, text, message", [
        (read_ground_truth_csv, "", "empty file: no header row"),
        (read_ground_truth_csv, "id,label\np1,good\n",
         "missing required column(s): product_id, classification"),
        (read_outcome_panel_csv, "", "empty file: no header row"),
        (read_outcome_panel_csv, "group,value\ntreated,1\n",
         "missing required column(s): period, outcome"),
    ])
    def test_header_errors_name_every_missing_column(self, reader, text, message):
        with pytest.raises(CsvFormatError) as err:
            reader(io.StringIO(text))
        assert str(err.value) == message

    def test_outcome_panel_reader(self):
        rows = read_outcome_panel_csv(
            io.StringIO("group,period,outcome\ntreated,0,0.5\ncontrol,1,0.25\n")
        )
        assert rows == [("treated", 0, 0.5), ("control", 1, 0.25)]
        with pytest.raises(CsvFormatError, match="row 3"):
            read_outcome_panel_csv(
                io.StringIO("group,period,outcome\ntreated,0,0.5\ncontrol,x,1\n")
            )


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
