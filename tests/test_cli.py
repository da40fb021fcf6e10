"""CLI subcommands, exit codes, and end-to-end determinism."""

import json

import pytest

from reviewaudit.cli import main


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

    def test_x_out_of_range_exit_2(self, capsys):
        code, _, _ = run(capsys, ["ci", "--x", "51", "--n", "50"])
        assert code == 2


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
