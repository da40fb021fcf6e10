"""Write the golden inputs and the CLI outputs that tests/test_golden.py pins.

    PYTHONPATH=src python tests/fixtures/golden/record.py

Inputs are seeded simulator panels with a team column added (2 and 3 teams;
one of them has enough units for a merged bias design),
a copy of the 2-team panel whose classifications are all one label (so the
sections that report a partial payload on error do so), ground-truth files
(one with a product missing), a DiD pair in review format and a DiD outcome
panel. Each case in ``cases.json`` is one CLI call; its stdout is stored in
``out/<name>.txt`` and its exit code in the case.

The goldens pin the program's output at the time they were recorded. Do not
re-record them to make a failing golden test pass: a deliberate change of
output is listed in CHANGES.md together with the re-recorded cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[2] / "src"))

from reviewaudit import (  # noqa: E402
    QuestionSpec,
    ReviewRecord,
    SimulationConfig,
    Treatment,
    inject_review_change,
    simulate_panel,
)
from reviewaudit.cli import main  # noqa: E402
from reviewaudit.report import write_ground_truth_csv, write_panel_csv  # noqa: E402

QUESTIONS = (
    QuestionSpec("q1", 2, 0.10),
    QuestionSpec("q2", 2, 0.45),
    QuestionSpec("q3", 2, 0.25),
    QuestionSpec("q4", 2, 0.60),
)


def _with_teams(records, teams, classification=None):
    return [
        ReviewRecord(
            product_id=r.product_id,
            reviewer_id=r.reviewer_id,
            question_id=r.question_id,
            answer=r.answer,
            final_classification=classification or r.final_classification,
            team=teams[r.reviewer_id],
        )
        for r in records
    ]


def make_inputs(directory: Path = HERE) -> None:
    def _write(name: str, write, *args) -> None:
        with open(directory / name, "w", encoding="utf-8", newline="") as stream:
            write(stream, *args)

    two, truth2 = simulate_panel(SimulationConfig(
        n_products=40, n_reviewers=4, questions=QUESTIONS,
        reviewer_bias={"r0": (0.75, 0.25)}, anchoring=0.1, seed=11,
    ))
    teams2 = {"r0": "A", "r1": "A", "r2": "B", "r3": "B"}
    _write("panel2.csv", write_panel_csv, [(None, _with_teams(two.records, teams2))])
    _write("truth2.csv", write_ground_truth_csv, truth2)
    missing = dict(truth2)
    del missing[sorted(missing)[3]]
    _write("truth2_missing.csv", write_ground_truth_csv, missing)
    _write("degenerate.csv", write_panel_csv,
           [(None, _with_teams(two.records, teams2, classification="class0"))])
    _write("truth_degenerate.csv", write_ground_truth_csv,
           {product: "class0" for product in truth2})

    three, truth3 = simulate_panel(SimulationConfig(
        n_products=30, n_reviewers=6, questions=QUESTIONS, anchoring=0.2, seed=23,
    ))
    teams3 = {"r0": "A", "r1": "A", "r2": "B", "r3": "B", "r4": "C", "r5": "C"}
    _write("panel3.csv", write_panel_csv, [(None, _with_teams(three.records, teams3))])
    _write("truth3.csv", write_ground_truth_csv, truth3)

    # 1,040 units, at least MERGE_UNITS, so its bias design is fitted on
    # merged rows.
    large, truth_large = simulate_panel(SimulationConfig(
        n_products=260, n_reviewers=4, questions=QUESTIONS[:3], anchoring=0.1, seed=37,
    ))
    _write("panel_large.csv", write_panel_csv, [(None, _with_teams(large.records, teams2))])
    _write("truth_large.csv", write_ground_truth_csv, truth_large)

    config = SimulationConfig(
        n_products=12, n_reviewers=3, questions=QUESTIONS[:3],
        treatment=Treatment(change_period=1, error_rate_delta=0.3), seed=5,
    )
    pair = inject_review_change(config)
    _write("did_review.csv", write_panel_csv,
           [("control", pair.control.records), ("treated", pair.treated.records)])
    _write("did_truth.csv", write_ground_truth_csv, pair.ground_truth)
    (directory / "did_outcome.csv").write_text(
        "group,period,outcome\n"
        "control,0,10\ncontrol,0,12\ncontrol,1,14\ncontrol,2,15\n"
        "treated,0,20\ntreated,0,21\ntreated,1,30\ntreated,2,33\n",
        encoding="utf-8",
    )
    (directory / "sim.json").write_text(json.dumps({
        "n_products": 5, "n_reviewers": 3, "seed": 3,
        "questions": [{"id": "q1", "n_categories": 2, "difficulty": 0.3},
                      {"id": "q2", "n_categories": 3, "difficulty": 0.5}],
        "treatment": {"change_period": 1, "error_rate_delta": 0.4},
    }, sort_keys=True), encoding="utf-8")
    # Generation order is not label order here: reviewer r10 sorts before
    # r2, and question q2 comes first in the config but sorts after q10.
    (directory / "sim_order.json").write_text(json.dumps({
        "n_products": 4, "n_reviewers": 11, "seed": 9, "anchoring": 0.3,
        "questions": [{"id": "q2", "n_categories": 3, "difficulty": 0.6},
                      {"id": "q10", "n_categories": 2, "difficulty": 0.4}],
        "reviewer_bias": {"r10": [0.6, 0.3, 0.1], "r2": [0.1, 0.2, 0.7]},
    }, sort_keys=True), encoding="utf-8")


# (name, argv); an argument starting with "@" names a file in this directory.
CASES = [
    ("audit2_json", ["audit", "--input", "@panel2.csv"]),
    ("audit2_truth_json", ["audit", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv"]),
    ("audit2_truth_mean_wilson_json",
     ["audit", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv",
      "--overall-kappa", "mean", "--ci-method", "wilson", "--level", "0.9"]),
    ("audit2_yates_json", ["audit", "--input", "@panel2.csv", "--yates", "--alpha", "0.1"]),
    ("audit2_text", ["audit", "--input", "@panel2.csv", "--format", "text"]),
    ("audit2_truth_text",
     ["audit", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv", "--format", "text"]),
    ("audit2_mean_wilson_text",
     ["audit", "--input", "@panel2.csv", "--overall-kappa", "mean",
      "--ci-method", "wilson", "--format", "text"]),
    ("audit3_truth_json", ["audit", "--input", "@panel3.csv", "--ground-truth", "@truth3.csv"]),
    ("audit3_mean_wilson_json",
     ["audit", "--input", "@panel3.csv", "--overall-kappa", "mean", "--ci-method", "wilson"]),
    ("audit3_truth_text",
     ["audit", "--input", "@panel3.csv", "--ground-truth", "@truth3.csv", "--format", "text"]),
    ("audit2_missing_truth_json",
     ["audit", "--input", "@panel2.csv", "--ground-truth", "@truth2_missing.csv"]),
    ("audit2_missing_truth_text",
     ["audit", "--input", "@panel2.csv", "--ground-truth", "@truth2_missing.csv",
      "--format", "text"]),
    ("audit_degenerate_json",
     ["audit", "--input", "@degenerate.csv", "--ground-truth", "@truth_degenerate.csv"]),
    ("audit_degenerate_text",
     ["audit", "--input", "@degenerate.csv", "--ground-truth", "@truth_degenerate.csv",
      "--format", "text"]),
    ("audit_large_truth_json",
     ["audit", "--input", "@panel_large.csv", "--ground-truth", "@truth_large.csv"]),
    ("audit2_did_json",
     ["audit", "--input", "@panel2.csv", "--did-input", "@did_outcome.csv",
      "--change-period", "1"]),
    ("audit2_did_text",
     ["audit", "--input", "@panel2.csv", "--did-input", "@did_outcome.csv",
      "--change-period", "1", "--format", "text"]),
    ("agreement2", ["agreement", "--input", "@panel2.csv"]),
    ("agreement3_mean_text",
     ["agreement", "--input", "@panel3.csv", "--overall-kappa", "mean", "--format", "text"]),
    ("chisq2", ["chisq", "--input", "@panel2.csv"]),
    ("chisq2_yates_text", ["chisq", "--input", "@panel2.csv", "--yates", "--format", "text"]),
    ("chisq2_question", ["chisq", "--input", "@panel2.csv", "--question", "q2"]),
    ("chisq2_unknown_question", ["chisq", "--input", "@panel2.csv", "--question", "q9"]),
    ("chisq3", ["chisq", "--input", "@panel3.csv", "--alpha", "0.01"]),
    ("chisq_degenerate", ["chisq", "--input", "@degenerate.csv"]),
    ("ttest2", ["ttest", "--input", "@panel2.csv"]),
    ("ttest2_truth", ["ttest", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv"]),
    ("ttest2_pooled_upper_text",
     ["ttest", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv",
      "--variant", "pooled", "--tail", "upper", "--format", "text"]),
    ("ttest2_lower", ["ttest", "--input", "@panel2.csv", "--tail", "lower"]),
    ("ttest2_missing_truth",
     ["ttest", "--input", "@panel2.csv", "--ground-truth", "@truth2_missing.csv"]),
    ("ttest3", ["ttest", "--input", "@panel3.csv"]),
    ("ttest_degenerate",
     ["ttest", "--input", "@degenerate.csv", "--ground-truth", "@truth_degenerate.csv"]),
    ("anova2", ["anova", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv"]),
    ("anova3", ["anova", "--input", "@panel3.csv", "--ground-truth", "@truth3.csv"]),
    ("anova3_consensus_text", ["anova", "--input", "@panel3.csv", "--format", "text"]),
    ("ci_xn", ["ci", "--x", "7", "--n", "40"]),
    ("ci_xn_wilson_text",
     ["ci", "--x", "7", "--n", "40", "--ci-method", "wilson", "--level", "0.9",
      "--format", "text"]),
    ("ci_input2_truth", ["ci", "--input", "@panel2.csv", "--ground-truth", "@truth2.csv"]),
    ("ci_input3_wilson", ["ci", "--input", "@panel3.csv", "--ci-method", "wilson"]),
    ("ci_input2_text", ["ci", "--input", "@panel2.csv", "--format", "text"]),
    ("ci_input2_missing_truth",
     ["ci", "--input", "@panel2.csv", "--ground-truth", "@truth2_missing.csv"]),
    ("regress2_q1_team", ["regress", "--input", "@panel2.csv", "--factors", "q1,team"]),
    ("regress3_q1_team", ["regress", "--input", "@panel3.csv", "--factors", "q1,team"]),
    ("regress3_team", ["regress", "--input", "@panel3.csv", "--factors", "team"]),
    ("regress2_all_text", ["regress", "--input", "@panel2.csv", "--format", "text"]),
    ("did_outcome", ["did", "--input", "@did_outcome.csv", "--change-period", "1"]),
    ("did_outcome_balanced_text",
     ["did", "--input", "@did_outcome.csv", "--change-period", "1", "--period-balanced",
      "--format", "text"]),
    ("did_review",
     ["did", "--input", "@did_review.csv", "--ground-truth", "@did_truth.csv",
      "--change-period", "1"]),
    ("did_review_balanced",
     ["did", "--input", "@did_review.csv", "--ground-truth", "@did_truth.csv",
      "--change-period", "1", "--period-balanced"]),
    ("simulate", ["simulate", "--config", "@sim.json"]),
    ("simulate_did_pair", ["simulate", "--config", "@sim.json", "--did-pair", "--seed", "8"]),
    ("simulate_label_order", ["simulate", "--config", "@sim_order.json"]),
]


def resolve(argv: list[str], directory: Path) -> list[str]:
    return [str(directory / a[1:]) if a.startswith("@") else a for a in argv]


def run_case(argv: list[str], directory: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolve(argv, directory))
    return code, out.getvalue()


def main_record() -> None:
    make_inputs()
    (HERE / "out").mkdir(exist_ok=True)
    cases = []
    for name, argv in CASES:
        code, stdout = run_case(argv, HERE)
        (HERE / "out" / f"{name}.txt").write_text(stdout, encoding="utf-8")
        cases.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_record()
