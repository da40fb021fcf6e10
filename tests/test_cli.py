"""CLI subcommands, exit codes, and end-to-end determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from reviewaudit import SimulationConfig, cli, did_with_error_rates, inject_review_change
from reviewaudit.cli import build_parser, main
from reviewaudit.report import ingest_csv_groups

REVIEW_HEADER = "product_id,reviewer_id,question_id,answer,final_classification\n"


def write_config(path, **overrides):
    payload = {
        "n_products": 60,
        "n_reviewers": 3,
        "seed": 41,
        "questions": [
            {"id": "q1", "n_categories": 2, "difficulty": 0.1},
            {"id": "q2", "n_categories": 2, "difficulty": 0.6},
        ],
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def panel(tmp_path, capsys):
    config = write_config(tmp_path / "config.json")
    panel_path = tmp_path / "panel.csv"
    truth_path = tmp_path / "truth.csv"
    code, _, err = run(capsys, [
        "simulate", "--config", str(config),
        "--output", str(panel_path), "--truth-output", str(truth_path),
    ])
    assert code == 0, err
    return panel_path, truth_path


class TestSimulate:
    def test_deterministic_csv_bytes(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, ["simulate", "--config", str(config), "--output", str(a)])[0] == 0
        assert run(capsys, ["simulate", "--config", str(config), "--output", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["simulate", "--config", str(config), "--output", str(a)])
        run(capsys, ["simulate", "--config", str(config), "--seed", "999",
                     "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n_products\": 0}")
        code, _, err = run(capsys, ["simulate", "--config", str(bad)])
        assert code == 2
        assert "invalid input" in err
        # config integers are checked, never rounded or converted
        for overrides, message in [
            ({"n_products": 10.7}, "n_products must be an integer, got 10.7"),
            ({"n_reviewers": 2.5}, "n_reviewers must be an integer, got 2.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"questions": [{"id": "q1", "n_categories": 2.5, "difficulty": 0.1}]},
             "n_categories must be an integer, got 2.5"),
            ({"treatment": {"change_period": 1.9, "error_rate_delta": 0.1}},
             "change_period must be an integer, got 1.9"),
        ]:
            write_config(bad, **overrides)
            code, out, err = run(capsys, ["simulate", "--config", str(bad)])
            assert (code, out) == (2, "")
            assert f"reviewaudit: invalid input: {message}" in err

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # 3,000 products x 3 reviewers x 2 questions is far more CSV than a
        # pipe buffers, so the writer meets the closed pipe mid-panel.
        config = write_config(tmp_path / "config.json", n_products=3000)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "reviewaudit.cli", "simulate", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"product_id,")
        assert err == b""


class TestAudit:
    def test_end_to_end_json(self, panel, capsys):
        panel_path, truth_path = panel
        code, out, _ = run(capsys, [
            "audit", "--input", str(panel_path), "--ground-truth", str(truth_path),
        ])
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        statuses = {k: v["status"] for k, v in report["sections"].items()}
        assert statuses["agreement"] == "ok"
        assert statuses["team_comparison"] == "skipped"

    def test_byte_identical_reports(self, panel, capsys):
        panel_path, truth_path = panel
        argv = ["audit", "--input", str(panel_path), "--ground-truth", str(truth_path)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_text_format(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["audit", "--input", str(panel_path),
                                    "--format", "text"])
        assert code == 0
        assert out.startswith("REVIEW AUDIT REPORT")
        assert "Disagreement ranking" in out

    def test_output_file(self, panel, tmp_path, capsys):
        panel_path, _ = panel
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["audit", "--input", str(panel_path),
                                    "--output", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema_version"] == 1

    def test_utf8_bom_input(self, panel, tmp_path, capsys):
        panel_path, truth_path = panel
        plain = run(capsys, ["audit", "--input", str(panel_path),
                             "--ground-truth", str(truth_path)])
        bom_panel, bom_truth = tmp_path / "bom_panel.csv", tmp_path / "bom_truth.csv"
        bom_panel.write_bytes(b"\xef\xbb\xbf" + panel_path.read_bytes())
        bom_truth.write_bytes(b"\xef\xbb\xbf" + truth_path.read_bytes())
        with_bom = run(capsys, ["audit", "--input", str(bom_panel),
                                "--ground-truth", str(bom_truth)])
        assert with_bom == plain

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["audit", "--input", "/nonexistent.csv"])
        assert code == 2
        assert "invalid input" in err

    def test_directory_input_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, ["audit", "--input", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("reviewaudit: invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, column", [("--input", 3), ("--ground-truth", 1)])
    def test_oversize_field_exit_2(self, panel, tmp_path, capsys, flag, column):
        paths = dict(zip(("--input", "--ground-truth"), panel))
        lines = paths[flag].read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[column] = "x" * 200_000  # over the csv module's 131,072-character limit
        lines[2] = ",".join(cells)
        paths[flag] = tmp_path / "oversize.csv"
        paths[flag].write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["audit", *(str(v) for kv in paths.items() for v in kv)])
        assert (code, out) == (2, "")
        assert err == ("reviewaudit: invalid input: malformed CSV on row 3: "
                       "field larger than field limit (131072)\n")

    def test_did_input_needs_change_period_exit_2(self, panel, tmp_path, capsys):
        did_csv = tmp_path / "did.csv"
        did_csv.write_text("group,period,outcome\ncontrol,0,10\ntreated,0,20\n")
        code, out, err = run(capsys, ["audit", "--input", str(panel[0]),
                                      "--did-input", str(did_csv)])
        assert (code, out) == (2, "")
        assert err == "reviewaudit: invalid input: --did-input requires --change-period\n"

    def test_did_input_section(self, panel, tmp_path, capsys):
        panel_path, _ = panel
        did_csv = tmp_path / "did.csv"
        did_csv.write_text(
            "group,period,outcome\n"
            "control,0,10\ncontrol,1,14\ntreated,0,20\ntreated,1,30\n"
        )
        code, out, _ = run(capsys, [
            "audit", "--input", str(panel_path),
            "--did-input", str(did_csv), "--change-period", "1",
        ])
        assert code == 0
        assert json.loads(out)["sections"]["did"]["effect"] == 6.0

    def test_unusable_did_panel_is_the_did_section_error(self, panel, tmp_path, capsys):
        # The control group has no post-period rows: the other sections'
        # report is still written, with the did section's error body.
        panel_path, _ = panel
        did_csv = tmp_path / "did.csv"
        did_csv.write_text("group,period,outcome\ncontrol,0,10\ntreated,0,20\ntreated,1,30\n")
        code, out, err = run(capsys, [
            "audit", "--input", str(panel_path),
            "--did-input", str(did_csv), "--change-period", "1",
        ])
        assert (code, err) == (1, "")
        sections = json.loads(out)["sections"]
        assert sections["did"] == {"status": "error",
                                   "error": "control group has no post-period observations"}
        assert sections["agreement"]["status"] == "ok"


class TestAgreementCommand:
    def test_json_payload(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["agreement", "--input", str(panel_path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["overall_mode"] == "pooled"
        assert payload["disagreement_ranking"][0] == "q2"

    def test_mean_mode_flag(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, [
            "agreement", "--input", str(panel_path), "--overall-kappa", "mean",
        ])
        assert code == 0
        assert json.loads(out)["overall_mode"] == "mean_of_questions"


class TestChisqCommand:
    def test_all_questions(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["chisq", "--input", str(panel_path)])
        payload = json.loads(out)
        assert set(payload["per_question"]) == {"q1", "q2"}
        assert code in (0, 1)

    def test_single_question(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["chisq", "--input", str(panel_path),
                                    "--question", "q1"])
        payload = json.loads(out)
        assert list(payload["per_question"]) == ["q1"]

    def test_question_not_in_the_panel_exit_2(self, panel, capsys):
        panel_path, _ = panel
        assert run(capsys, ["chisq", "--input", str(panel_path), "--question", "nope"]) == (
            2, "", "reviewaudit: invalid input: question 'nope' not present in dataset\n")

    def test_every_question_degenerate_exit_1(self, tmp_path, capsys):
        # One classification throughout: every question's table is
        # degenerate, and each question's error is printed.
        path = tmp_path / "degenerate.csv"
        path.write_text(REVIEW_HEADER + "".join(
            f"p{p},{r},q1,{'yes' if p % 2 else 'no'},good\np{p},{r},q2,yes,good\n"
            for p in range(4) for r in ("r1", "r2")))
        code, out, err = run(capsys, ["chisq", "--input", str(path)])
        assert (code, err) == (1, "")
        needs = "(needs >= 2 answers and >= 2 classifications with non-zero margins)"
        assert json.loads(out) == {"per_question": {
            "q1": {"status": "error", "error": f"question 'q1' yields a degenerate 2x1 table {needs}"},
            "q2": {"status": "error", "error": f"question 'q2' yields a degenerate 1x1 table {needs}"},
        }}


def _write_team_csv(path, n_teams):
    lines = ["product_id,reviewer_id,question_id,answer,final_classification,team"]
    reviewers = [(f"r{i}", f"team{i % n_teams}") for i in range(2 * n_teams)]
    for p in range(10):
        for reviewer, team in reviewers:
            wrong = reviewer == "r0" and p % 2
            cls = "bad" if wrong else "good"
            answer = "yes" if (p + int(reviewer[1:])) % 3 else "no"
            lines.append(f"p{p},{reviewer},q1,{answer},{cls},{team}")
    path.write_text("\n".join(lines) + "\n")
    truth = path.parent / "team_truth.csv"
    truth.write_text("product_id,classification\n" +
                     "\n".join(f"p{p},good" for p in range(10)) + "\n")
    return path, truth


class TestTeamCommands:
    def test_ttest_two_teams(self, tmp_path, capsys):
        panel_path, truth = _write_team_csv(tmp_path / "teams.csv", 2)
        code, out, _ = run(capsys, ["ttest", "--input", str(panel_path),
                                    "--ground-truth", str(truth)])
        assert code == 0
        payload = json.loads(out)
        assert payload["test"]["test_kind"] == "t_two_sample"
        assert payload["teams"] == ["team0", "team1"]

    def test_ttest_rejects_three_teams(self, tmp_path, capsys):
        panel_path, truth = _write_team_csv(tmp_path / "teams.csv", 3)
        code, _, err = run(capsys, ["ttest", "--input", str(panel_path),
                                    "--ground-truth", str(truth)])
        assert code == 2
        assert "anova" in err

    def test_ttest_needs_two_teams_exit_2(self, panel, tmp_path, capsys):
        one_team, truth = _write_team_csv(tmp_path / "teams.csv", 1)
        for path, reason in ((one_team, "single team 'team0'"), (panel[0], "no team data")):
            code, out, err = run(capsys, ["ttest", "--input", str(path)])
            assert (code, out) == (2, "")
            assert err == ("reviewaudit: invalid input: team comparison needs >= 2 "
                           f"teams: {reason}\n")

    def test_anova_three_teams(self, tmp_path, capsys):
        panel_path, truth = _write_team_csv(tmp_path / "teams.csv", 3)
        code, out, _ = run(capsys, ["anova", "--input", str(panel_path),
                                    "--ground-truth", str(truth)])
        assert code == 0
        payload = json.loads(out)
        assert payload["test"]["test_kind"] == "anova_f"
        assert payload["anova"]["ss_treatment"] >= 0.0

    @pytest.mark.parametrize("command", ["ttest", "anova", "ci", "regress"])
    def test_unit_with_two_teams_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "teams.csv"
        lines = ["product_id,reviewer_id,question_id,answer,final_classification,team"]
        for p in range(4):
            for reviewer, team in (("r0", "a"), ("r1", "a"), ("r2", "b"), ("r3", "b")):
                for q in ("q1", "q2"):
                    moved = (p, reviewer, q) == (2, "r1", "q2")
                    lines.append(f"p{p},{reviewer},{q},{'yes' if p % 2 else 'no'},"
                                 f"{'bad' if p % 2 else 'good'},{'b' if moved else team}")
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert "unit (product='p2', reviewer='r1') has records in teams 'a' and 'b'" in err

    def test_degenerate_outcomes_exit_1(self, tmp_path, capsys):
        # nobody misclassifies: zero-variance outcomes in both teams
        path = tmp_path / "teams.csv"
        lines = ["product_id,reviewer_id,question_id,answer,final_classification,team"]
        for p in range(4):
            for reviewer, team in (("r0", "a"), ("r1", "a"), ("r2", "b"), ("r3", "b")):
                lines.append(f"p{p},{reviewer},q1,yes,good,{team}")
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, ["ttest", "--input", str(path)])
        assert code == 1
        assert "analysis failed" in err


class TestCiCommand:
    def test_direct_counts(self, capsys):
        code, out, _ = run(capsys, ["ci", "--x", "5", "--n", "50"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(0.0333, abs=2e-4)
        assert payload["method"] == "clopper_pearson"

    def test_wilson_flag(self, capsys):
        code, out, _ = run(capsys, ["ci", "--x", "5", "--n", "50",
                                    "--ci-method", "wilson"])
        assert json.loads(out)["method"] == "wilson"

    def test_from_panel(self, panel, capsys):
        panel_path, truth_path = panel
        code, out, _ = run(capsys, ["ci", "--input", str(panel_path),
                                    "--ground-truth", str(truth_path)])
        assert code == 0
        payload = json.loads(out)
        assert "all" in payload["groups"]
        assert payload["outcome_basis"] == "ground_truth"

    def test_requires_counts_or_input(self, capsys):
        code, _, err = run(capsys, ["ci"])
        assert code == 2

    def test_x_without_n_exit_2(self, capsys):
        code, out, err = run(capsys, ["ci", "--x", "3"])
        assert (code, out) == (2, "")
        assert err == "reviewaudit: invalid input: --x and --n must be given together\n"

    def test_x_out_of_range_exit_2(self, capsys):
        code, _, _ = run(capsys, ["ci", "--x", "51", "--n", "50"])
        assert code == 2

    def test_n_beyond_float_range_exit_2(self, capsys):
        for method in ("clopper-pearson", "wilson"):
            code, out, err = run(capsys, ["ci", "--x", "1", "--n", str(10**310),
                                          "--ci-method", method])
            assert (code, out) == (2, "")
            assert "largest float" in err and "Traceback" not in err

    def test_huge_n_kernel_failure_exit_1(self, capsys):
        code, out, err = run(capsys, ["ci", "--x", "1", "--n", str(10**200)])
        assert (code, out) == (1, "")
        assert err == ("reviewaudit: analysis failed: incomplete beta continued "
                       "fraction did not converge within 500 iterations\n")

    def test_kernel_failure_exit_1(self, capsys):
        # ROADMAP item 3: the incomplete-beta continued fraction fails where
        # both shapes are near 10^6 and p is within about 1e-5 of 0.5.
        code, out, err = run(capsys, ["ci", "--x", "1000000", "--n", "2000000",
                                      "--level", "0.01"])
        assert (code, out) == (1, "")
        assert err == ("reviewaudit: analysis failed: incomplete beta continued "
                       "fraction did not converge within 500 iterations\n")


class TestInputErrorExitCodes:
    @pytest.mark.parametrize("files, argv, code, err", [
        ({"truth.csv": "product_id,classification\np1,good\np2, \n"},
         ["ci", "--input", "panel.csv", "--ground-truth", "truth.csv"],
         2, "invalid input: blank ground-truth entry on row 3"),
        ({"did.csv": "group,period,outcome\n"}, ["did", "--input", "did.csv", "--change-period",
                                                "1"], 2, "invalid input: no data rows"),
        ({"did.csv": "group,period,outcome\ncontrol,0,1\ncontrol,9223372036854775808,2\n"
                     "treated,0,1\ntreated,1,2\n"},
         ["did", "--input", "did.csv", "--change-period", "1"],
         2, "invalid input: period 9223372036854775808 on row 3 does not fit in 64 bits"),
        ({"did.csv": "group,period,outcome\ncontrol,0,1\nexposed,0,1\ncontrol,1,2\n"
                     "treated,0,1\ntreated,1,2\n"},
         ["did", "--input", "did.csv", "--change-period", "1"],
         2, "invalid input: unknown group 'exposed' on row 3"),
        *(({"did.csv": f"group,period,outcome\ncontrol,0,1\ncontrol,1,{outcome}\n"
                       "treated,0,1\ntreated,1,2\n"},
           ["did", "--input", "did.csv", "--change-period", "1"],
           2, f"invalid input: outcome {outcome} on row 3 is not finite")
          for outcome in ("nan", "inf", "1e999")),
        # every cell has one of the roster's two reviewers, so all are dropped
        ({"dropped.csv": REVIEW_HEADER + "p1,r1,q1,yes,good\np2,r2,q1,no,good\n"},
         ["ci", "--input", "dropped.csv"], 2, "invalid input: no units to extrapolate"),
        ({"config.json": json.dumps({
            "n_products": 10, "n_reviewers": 2, "seed": 1,
            "questions": [{"id": "q1", "n_categories": 2, "difficulty": 0.1}],
            "treatment": {"change_period": 1, "error_rate_delta": 1.5}})},
         ["simulate", "--config", "config.json", "--did-pair", "--output", "out.csv"],
         2, "invalid input: error_rate_delta must be in [0, 1], got 1.5"),
        ({}, ["audit", "--input", "panel.csv", "--level", "1.0"],
         2, "invalid input: ci_level must be in (0, 1), got 1.0"),
    ], ids=["blank truth", "empty did panel", "period over int64", "unknown group",
            "nan outcome", "inf outcome", "overflowing outcome", "all cells dropped",
            "treatment delta", "audit level"])
    def test_exit_code_and_message(self, tmp_path, capsys, monkeypatch, files, argv, code, err):
        files = {"panel.csv": REVIEW_HEADER + "p1,r1,q1,yes,good\np1,r2,q1,no,bad\n", **files}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, argv) == (code, "", f"reviewaudit: {err}\n")

    @pytest.mark.parametrize("argv", [
        ["audit", "--input", "panel.csv", "--ground-truth", ""],
        ["chisq", "--input", "panel.csv", "--question", ""],
        ["regress", "--input", "panel.csv", "--factors", ""],
        ["audit", "--input", "panel.csv", "--did-input", "", "--change-period", "1"],
        ["agreement", "--input", "panel.csv", "--output", ""],
        ["simulate", "--config", "config.json", "--truth-output", ""],
        ["ci", "--input", ""],
        ["did", "--input", str(Path(__file__).resolve().parent / "fixtures" / "golden"
                               / "did_review.csv"), "--change-period", "1", "--ground-truth", ""],
    ], ids=["ground truth", "question", "factors", "did input", "output", "truth output",
            "ci input", "did ground truth"])
    def test_empty_option_value_exit_2(self, panel, capsys, monkeypatch, argv):
        # An empty value names no file, question or factor; it is not the
        # option left out, so the error names the empty value.
        monkeypatch.chdir(panel[0].parent)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("reviewaudit: invalid input: ") and "''" in err

    def test_header_name_over_the_field_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(REVIEW_HEADER.rstrip("\n") + "," + "x" * 30 + "\n")
        limit = csv.field_size_limit(24)
        try:
            assert run(capsys, ["agreement", "--input", str(path)]) == (
                2, "", "reviewaudit: invalid input: malformed CSV on row 1: field larger than "
                "field limit (24)\n")
        finally:
            csv.field_size_limit(limit)

    def test_agreement_without_a_complete_product_notes_it(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(REVIEW_HEADER + "p1,r1,q1,yes,good\np1,r2,q1,no,bad\n"
                        "p2,r1,q2,yes,good\np2,r2,q2,no,bad\n")
        code, out, _ = run(capsys, ["agreement", "--input", str(path)])
        payload = json.loads(out)
        assert (code, payload["agreement_rate"]) == (0, None)
        assert payload["notes"] == [
            "agreement rate unavailable: no product has complete ratings on every question"]


class TestRegressCommand:
    def test_ranked_effects(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["regress", "--input", str(panel_path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["effects"]

    def test_factor_subset(self, panel, capsys):
        panel_path, _ = panel
        code, out, _ = run(capsys, ["regress", "--input", str(panel_path),
                                    "--factors", "q1"])
        assert code == 0
        payload = json.loads(out)
        assert all(e["name"].startswith("q1=") for e in payload["effects"])


class TestDidCommand:
    def test_outcome_panel(self, tmp_path, capsys):
        did_csv = tmp_path / "did.csv"
        did_csv.write_text(
            "group,period,outcome\n"
            "control,0,10\ncontrol,1,14\ntreated,0,20\ntreated,1,30\n"
        )
        code, out, _ = run(capsys, ["did", "--input", str(did_csv),
                                    "--change-period", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["effect"] == 6.0
        assert payload["counterfactual"] == [[1, 24.0]]

    def test_review_format_with_truth(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json",
            n_products=800,
            questions=[{"id": "q1", "n_categories": 2, "difficulty": 0.1}],
            treatment={"change_period": 1, "error_rate_delta": 0.15},
        )
        panel_path = tmp_path / "did_panel.csv"
        truth_path = tmp_path / "did_truth.csv"
        code, _, err = run(capsys, [
            "simulate", "--config", str(config), "--did-pair",
            "--output", str(panel_path), "--truth-output", str(truth_path),
        ])
        assert code == 0, err
        code, out, _ = run(capsys, [
            "did", "--input", str(panel_path), "--change-period", "1",
            "--ground-truth", str(truth_path),
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["effect"] == pytest.approx(0.15, abs=0.05)
        # The written panel reads back as the simulated pair, so the CLI's
        # effect is the library's on that pair, rounded as the report rounds.
        pair = inject_review_change(SimulationConfig.from_json(config.read_text()))
        groups = ingest_csv_groups(str(panel_path))
        assert list(groups) == ["control", "treated"]
        assert groups["control"] == pair.control.records
        assert groups["treated"] == pair.treated.records
        result = did_with_error_rates(pair.treated, pair.control, pair.ground_truth, 1)
        assert payload["effect"] == float(f"{result.effect:.12g}")

    def test_quoted_outcome_header(self, tmp_path, capsys):
        did_csv = tmp_path / "did.csv"
        did_csv.write_text(
            '"group","period","outcome"\n'
            "control,0,10\ncontrol,1,14\ntreated,0,20\ntreated,1,30\n"
        )
        code, out, err = run(capsys, ["did", "--input", str(did_csv),
                                      "--change-period", "1"])
        assert code == 0, err
        assert json.loads(out)["effect"] == 6.0

    def test_review_format_errors_cite_file_lines(self, tmp_path, capsys):
        panel_path = tmp_path / "did_panel.csv"
        panel_path.write_text(
            "product_id,reviewer_id,question_id,answer,final_classification,period,group\n"
            "p1,r1,q1,yes,approve,0,control\n"
            "p2,r1,q1,yes,approve,0,treated\n"
            "p3,r1,q1,yes,approve,x,control\n"
        )
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("product_id,classification\np1,approve\n")
        code, _, err = run(capsys, ["did", "--input", str(panel_path), "--change-period", "1",
                                    "--ground-truth", str(truth_path)])
        assert code == 2
        assert "row 4" in err

    def test_review_format_blank_group_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "did_panel.csv"
        panel_path.write_text(
            "product_id,reviewer_id,question_id,answer,final_classification,period,group\n"
            "p1,r1,q1,yes,approve,0,control\n"
            "p2,r1,q1,yes,approve,1,treated\n"
            "p3,r1,q1,yes,approve,1, \n"
        )
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("product_id,classification\np1,approve\np2,approve\n")
        code, out, err = run(capsys, ["did", "--input", str(panel_path), "--change-period",
                                      "1", "--ground-truth", str(truth_path)])
        assert (code, out) == (2, "")
        assert err == "reviewaudit: invalid input: empty group on row 4\n"

    def test_review_format_without_treated_rows_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "did_panel.csv"
        panel_path.write_text(
            "product_id,reviewer_id,question_id,answer,final_classification,period,group\n"
            "p1,r1,q1,yes,approve,0,control\n"
            "p2,r1,q1,yes,approve,1,control\n"
        )
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("product_id,classification\np1,approve\np2,approve\n")
        code, out, err = run(capsys, ["did", "--input", str(panel_path), "--change-period",
                                      "1", "--ground-truth", str(truth_path)])
        assert (code, out) == (2, "")
        assert err == "reviewaudit: invalid input: DiD input lacks group(s): ['treated']\n"

    @pytest.mark.parametrize("kind", ["outcome panel", "review format"])
    def test_a_named_pipe_is_opened_once(self, tmp_path, kind):
        # A pipe written once is read once: its header tells the format and
        # the same bytes are read, where a second open would wait forever.
        if kind == "outcome panel":
            data = "group,period,outcome\ncontrol,0,10\ncontrol,1,14\ntreated,0,20\ntreated,1,30\n"
            flags, expected = [], 6.0
        else:
            rows = [f"p{g}{t},r{r},q1,yes,{'approve' if g == 'c' or t == 0 or r else 'reject'},"
                    f"{t},{'control' if g == 'c' else 'treated'}"
                    for g in "ct" for t in (0, 1) for r in (0, 1)]
            data = "product_id,reviewer_id,question_id,answer,final_classification,period,group\n"
            data += "\n".join(rows) + "\n"
            truth = tmp_path / "truth.csv"
            truth.write_text("product_id,classification\n" + "".join(
                f"p{g}{t},approve\n" for g in "ct" for t in (0, 1)))
            flags, expected = ["--ground-truth", str(truth)], 0.5
        fifo = tmp_path / "did.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(data,), daemon=True)
        writer.start()
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "reviewaudit.cli", "did", "--input", str(fifo),
             "--change-period", "1", *flags],
            capture_output=True, env=env, timeout=30,
        )
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["effect"] == expected

    def test_review_format_requires_truth(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json",
            treatment={"change_period": 1, "error_rate_delta": 0.1},
        )
        panel_path = tmp_path / "did_panel.csv"
        run(capsys, ["simulate", "--config", str(config), "--did-pair",
                     "--output", str(panel_path)])
        code, _, err = run(capsys, ["did", "--input", str(panel_path),
                                    "--change-period", "1"])
        assert code == 2
        assert "ground-truth" in err


COMMANDS = ("agreement", "chisq", "ttest", "anova", "ci", "regress", "did", "simulate",
            "audit")

# Each subcommand's options as (default, choices, required, type, action),
# recorded from the parser before shared options were declared once.
_STORE, _FLAG = "_StoreAction", (False, None, False, None, "_StoreTrueAction")
_PATH = (None, None, False, None, _STORE)
_ALPHA = (0.05, None, False, "float", _STORE)
_COMMON = {
    "--input": (None, None, True, None, _STORE),
    "--format": ("json", ("json", "text"), False, None, _STORE),
    "--policy": ("drop", ("drop", "strict"), False, None, _STORE),
    "--output": _PATH,
}
_KAPPA = ("pooled", ("pooled", "mean"), False, None, _STORE)
_LEVEL = (0.95, None, False, "float", _STORE)
_CI_METHOD = ("clopper-pearson", ("clopper-pearson", "wilson"), False, None, _STORE)
OPTIONS = {
    "agreement": {**_COMMON, "--overall-kappa": _KAPPA},
    "chisq": {**_COMMON, "--question": _PATH, "--alpha": _ALPHA, "--yates": _FLAG},
    "ttest": {**_COMMON, "--ground-truth": _PATH, "--alpha": _ALPHA,
              "--variant": ("welch", ("pooled", "welch"), False, None, _STORE),
              "--tail": ("two_sided", ("upper", "lower", "two_sided"), False, None, _STORE)},
    "anova": {**_COMMON, "--ground-truth": _PATH, "--alpha": _ALPHA},
    "ci": {**_COMMON, "--input": _PATH, "--x": (None, None, False, "int", _STORE),
           "--n": (None, None, False, "int", _STORE), "--level": _LEVEL,
           "--ci-method": _CI_METHOD, "--ground-truth": _PATH},
    "regress": {**_COMMON, "--factors": _PATH},
    "did": {**_COMMON, "--change-period": (None, None, True, "int", _STORE),
            "--ground-truth": _PATH, "--period-balanced": _FLAG},
    "simulate": {"--config": (None, None, True, None, _STORE),
                 "--seed": (None, None, False, "int", _STORE), "--output": _PATH,
                 "--truth-output": _PATH, "--did-pair": _FLAG},
    "audit": {**_COMMON, "--alpha": _ALPHA, "--overall-kappa": _KAPPA,
              "--ci-method": _CI_METHOD, "--level": _LEVEL, "--yates": _FLAG,
              "--ground-truth": _PATH, "--did-input": _PATH,
              "--change-period": (None, None, False, "int", _STORE)},
}


class TestParser:
    def test_option_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert tuple(sub.choices) == COMMANDS
        for name, parser in sub.choices.items():
            options = {
                a.option_strings[0]: (a.default, a.choices and tuple(a.choices), a.required,
                                      getattr(a.type, "__name__", None), type(a).__name__)
                for a in parser._actions if not isinstance(a, argparse._HelpAction)
            }
            assert options == OPTIONS[name], name

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: reviewaudit {command} ")

    def test_one_parser_serves_every_call(self, panel, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        cli._parser.cache_clear()
        panel_path, truth_path = panel
        audit = ["audit", "--input", str(panel_path), "--ground-truth", str(truth_path)]
        a, b = tmp_path / "a.json", tmp_path / "b.json"

        assert run(capsys, [*audit, "--yates", "--output", str(a)])[0] == 0
        first_build = len(built)
        assert first_build > 0
        assert run(capsys, [*audit, "--overall-kappa", "mean", "--output", str(b)])[0] == 0
        code, out, _ = run(capsys, ["ci", "--x", "5", "--n", "50"])
        assert (code, json.loads(out)["x"]) == (0, 5)
        with pytest.raises(SystemExit) as exit_info:
            main([*audit, "--no-such-flag"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, audit)
        assert code == 0
        assert len(built) == first_build

        defaults = {"alpha": 0.05, "ci_level": 0.95, "ci_method": "clopper_pearson",
                    "ground_truth_provided": True, "overall_kappa_mode": "pooled",
                    "yates": False}
        assert json.loads(a.read_text())["config"] == {**defaults, "yates": True}
        assert json.loads(b.read_text())["config"] == {
            **defaults, "overall_kappa_mode": "mean_of_questions"}
        assert json.loads(out)["config"] == defaults

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_in_process_leaks_no_descriptor(tmp_path, monkeypatch):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            assert main(["ci", "--x", "5", "--n", "50"]) == 1
        assert len(os.listdir("/proc/self/fd")) == before


class TestOutputFile:
    """--output is written only when the command produces output."""

    def test_invalid_input_leaves_file_as_it_was(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"earlier report\r\n")
        code, out, _ = run(capsys, ["audit", "--input", "/nonexistent.csv",
                                    "--output", str(target)])
        assert (code, out) == (2, "")
        assert target.read_bytes() == b"earlier report\r\n"

    def test_failed_analysis_leaves_file_as_it_was(self, tmp_path, capsys):
        target = tmp_path / "ci.json"
        target.write_bytes(b"earlier interval\n")
        code, out, err = run(capsys, ["ci", "--x", "1000000", "--n", "2000000",
                                      "--level", "0.01", "--output", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("reviewaudit: analysis failed: ")
        assert target.read_bytes() == b"earlier interval\n"

    def test_missing_file_is_not_created(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert run(capsys, ["audit", "--input", "/nonexistent.csv",
                            "--output", str(target)])[0] == 2
        assert not target.exists()

    def test_partial_report_is_written(self, tmp_path, capsys):
        golden = Path(__file__).resolve().parent / "fixtures" / "golden"
        target = tmp_path / "report.json"
        target.write_text("earlier report\n")
        code, out, _ = run(capsys, ["audit", "--input", str(golden / "panel2.csv"),
                                    "--ground-truth", str(golden / "truth2_missing.csv"),
                                    "--output", str(target)])
        assert (code, out) == (1, "")
        expected = golden / "out" / "audit2_missing_truth_json.txt"
        assert target.read_bytes() == expected.read_bytes()

    def test_unwritable_truth_output_leaves_panel_as_it_was(self, panel, tmp_path, capsys):
        panel_path, _ = panel
        before = panel_path.read_bytes()
        code, out, _ = run(capsys, ["simulate", "--config", str(tmp_path / "config.json"),
                                    "--seed", "5", "--output", str(panel_path),
                                    "--truth-output", str(tmp_path / "no" / "truth.csv")])
        assert (code, out) == (2, "")
        assert panel_path.read_bytes() == before
