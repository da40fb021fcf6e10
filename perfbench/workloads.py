"""Workloads of the reviewaudit benchmark: input generation, ops and checks.

Each workload is closed loop: one caller, and an op starts when the previous
one returns. Inputs are made from the seed by ``generate`` in a child process
(run this file as a script), so the simulator's own peak memory never shows
in the process that runs the timed ops, and the program sees only generated
files and objects.

    python3 perfbench/workloads.py <workload> <seed> <outdir> <tiny 0|1>

writes the inputs and a ``manifest.json`` into ``outdir``; the manifest also
holds the child's reference-loop samples (see hostspeed.py).

Why these three workloads:

* ``audit-large`` audits one big panel, so per-record Python work (ingest,
  validation, the agreement loops, unit maps, design encoding, GC)
  dominates and numerical kernels are negligible.
* ``audit-batch`` audits many small, varied panels, so per-analysis fixed
  costs dominate (special-function kernels, small-matrix fits, argparse,
  report emission); it is the only workload with enough ops for a tail.
* ``simulate-did`` runs the generator, DiD and the CSV writer and no audit
  layer, so shared layers (validation, CSV) are used the other way round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# Question difficulties of the acceptance-criterion-10 panel (q1..q9).
CRITERION10_DIFFICULTIES = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.90)

SECTIONS = ("agreement", "chi_square", "team_comparison",
            "error_extrapolation", "bias_factors", "did")
# Every generated audit panel is screened so that these are the statuses a
# correct program reports; anything else fails the op.
EXPECTED_STATUS = {name: "ok" for name in SECTIONS} | {"did": "skipped"}

PANEL_HEADER = ["product_id", "reviewer_id", "question_id", "answer",
                "final_classification", "team"]

KAPPA_FLAGS = {"pooled": "pooled", "mean": "mean_of_questions"}
CI_FLAGS = {"clopper-pearson": "clopper_pearson", "wilson": "wilson"}


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _import_reviewaudit():
    """Import the package from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import reviewaudit

    if not Path(reviewaudit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"reviewaudit resolved outside {SRC}: {reviewaudit.__file__}")
    return reviewaudit


# --- correctness checks shared by the audit workloads -----------------------

def check_report_schema(payload: dict) -> list[str]:
    """The report-schema checks of acceptance criterion 10, as a problem list."""
    problems = []
    if not isinstance(payload.get("schema_version"), int):
        problems.append("schema_version is not an int")
    if not isinstance(payload.get("toolkit_version"), str):
        problems.append("toolkit_version is not a string")
    if not isinstance(payload.get("config"), dict):
        problems.append("config is not an object")
    summary = payload.get("dataset_summary", {})
    for key in ("n_records", "n_input_records", "n_dropped_cells", "n_dropped_records",
                "n_products", "n_reviewers", "n_questions", "n_raters"):
        if not isinstance(summary.get(key), int):
            problems.append(f"dataset_summary.{key} is not an int")
    sections = payload.get("sections", {})
    if set(sections) != set(SECTIONS):
        return problems + [f"sections are {sorted(sections)}"]
    for name, body in sections.items():
        status = body.get("status")
        if status not in ("ok", "error", "skipped"):
            problems.append(f"{name}: status {status!r}")
        if status == "error" and not isinstance(body.get("error"), str):
            problems.append(f"{name}: error without message")
        if status == "skipped" and not isinstance(body.get("reason"), str):
            problems.append(f"{name}: skipped without reason")
    agreement = sections["agreement"]
    if agreement.get("status") == "ok":
        if not isinstance(agreement.get("disagreement_ranking"), list):
            problems.append("agreement.disagreement_ranking is not a list")
        if not isinstance(agreement.get("per_question"), dict):
            problems.append("agreement.per_question is not an object")
        else:
            for q, result in agreement["per_question"].items():
                for key in ("kappa", "p_bar", "p_e_bar"):
                    if not isinstance(result.get(key), float):
                        problems.append(f"agreement.per_question.{q}.{key} is not a float")
    return problems


def check_audit_report(payload: dict, expect: dict) -> list[str]:
    """Schema, expected section statuses, and what the generator knows."""
    problems = check_report_schema(payload)
    if problems:
        return problems
    sections = payload["sections"]
    for name, want in EXPECTED_STATUS.items():
        got = sections[name]["status"]
        if got != want:
            problems.append(f"{name}: status {got!r}, expected {want!r} "
                            f"({sections[name].get('error')})")
    for key, want in expect["summary"].items():
        got = payload["dataset_summary"].get(key)
        if got != want:
            problems.append(f"dataset_summary.{key} = {got!r}, expected {want!r}")
    for key, want in expect["config"].items():
        got = payload["config"].get(key)
        if got != want:
            problems.append(f"config.{key} = {got!r}, expected {want!r}")
    if problems:
        return problems
    team = sections["team_comparison"]
    if team["test"]["test_kind"] != expect["team_test"]:
        problems.append(f"team test {team['test']['test_kind']!r}, "
                        f"expected {expect['team_test']!r}")
    if not 0.0 <= team["test"]["p_value"] <= 1.0:
        problems.append(f"team p-value {team['test']['p_value']!r}")
    groups = sections["error_extrapolation"]["groups"]
    if len(groups) != expect["ci_groups"]:
        problems.append(f"{len(groups)} CI groups, expected {expect['ci_groups']}")
    for name, body in groups.items():
        if not 0.0 <= body["lower"] <= body["x"] / body["n"] <= body["upper"] <= 1.0:
            problems.append(f"CI {name} [{body['lower']}, {body['upper']}] "
                            f"misses {body['x']}/{body['n']}")
    if sections["bias_factors"]["n_rows"] != expect["bias_rows"]:
        problems.append(f"bias n_rows {sections['bias_factors']['n_rows']}, "
                        f"expected {expect['bias_rows']}")
    ranking = sections["agreement"]["disagreement_ranking"]
    first = expect.get("ranking_first")
    if first is not None and (not ranking or ranking[0] != first):
        problems.append(f"disagreement ranking starts {ranking[:1]}, expected {first!r}")
    for q, body in sections["chi_square"]["per_question"].items():
        if body["status"] == "ok" and not 0.0 <= body["p_value"] <= 1.0:
            problems.append(f"chi-square {q} p-value {body['p_value']!r}")
    return problems


def _expectations(records, truth: dict, kappa: str, ci: str, yates: bool):
    """What a correct audit of ``records`` reports, or None if a section
    could legitimately fail on this panel (the generator then redraws it).

    records are (product, reviewer, question, answer, classification, team)
    tuples; every (product, reviewer) unit has one classification and team.
    """
    reviewers = sorted({r[1] for r in records})
    questions = sorted({r[2] for r in records})
    cell_size = Counter((r[0], r[2]) for r in records)
    kept = [r for r in records if cell_size[r[0], r[2]] == len(reviewers)]
    observed: dict[str, set] = {q: set() for q in questions}
    unit_label, unit_team, unit_answers = {}, {}, {}
    for p, r, q, answer, label, team in kept:
        observed[q].add(answer)
        unit_label[(p, r)] = label
        unit_team[(p, r)] = team
        unit_answers.setdefault((p, r), {})[q] = answer
    if any(len(labels) < 2 for labels in observed.values()):
        return None
    # team comparison: 0/1 error per unit against ground truth
    groups: dict[str, list[int]] = {}
    for unit, label in unit_label.items():
        groups.setdefault(unit_team[unit], []).append(int(label != truth[unit[0]]))
    if len(groups) < 2 or any(len(g) < 2 for g in groups.values()):
        return None
    if not any(0 < sum(g) < len(g) for g in groups.values()):
        return None
    # bias factors: full-rank one-hot design over units covering every question,
    # the lexicographically first answer of each question being the reference
    complete = sorted(u for u, answers in unit_answers.items() if len(answers) == len(questions))
    columns = [(q, label) for q in questions for label in sorted(observed[q])[1:]]
    if len(complete) <= len(columns) + 1:
        return None
    if len({unit_label[u] for u in complete}) != 2:
        return None
    column = {c: j + 1 for j, c in enumerate(columns)}
    design = np.zeros((len(complete), len(columns) + 1))
    design[:, 0] = 1.0
    for i, unit in enumerate(complete):
        for q, answer in unit_answers[unit].items():
            if (q, answer) in column:
                design[i, column[q, answer]] = 1.0
    if np.linalg.matrix_rank(design) != design.shape[1]:
        return None
    return {
        "summary": {
            "n_input_records": len(records),
            "n_records": len(kept),
            "n_dropped_cells": sum(n < len(reviewers) for n in cell_size.values()),
            "n_dropped_records": len(records) - len(kept),
            "n_products": len({r[0] for r in kept}),
            "n_reviewers": len(reviewers),
            "n_questions": len(questions),
            "n_raters": len(reviewers),
        },
        "config": {
            "overall_kappa_mode": KAPPA_FLAGS[kappa],
            "ci_method": CI_FLAGS[ci],
            "yates": yates,
            "ground_truth_provided": True,
        },
        "team_test": "t_two_sample" if len(groups) == 2 else "anova_f",
        "ci_groups": len(reviewers) + 1,
        "bias_rows": len(complete),
    }


# --- input generation (runs in the child process) ---------------------------

LARGE_PRODUCTS = 2000


def generate_audit_large(seed: int, outdir: Path, tiny: bool) -> dict:
    """One criterion-10 panel (2-category questions) with 5 reviewers in 3 teams."""
    reviewaudit = _import_reviewaudit()
    n_products = 40 if tiny else LARGE_PRODUCTS
    config = reviewaudit.SimulationConfig(
        n_products=n_products,
        n_reviewers=5,
        questions=tuple(reviewaudit.QuestionSpec(f"q{i + 1}", 2, d)
                        for i, d in enumerate(CRITERION10_DIFFICULTIES)),
        seed=seed,
    )
    dataset, truth = reviewaudit.simulate_panel(config)
    teams = {"r0": "t0", "r1": "t0", "r2": "t1", "r3": "t1", "r4": "t2"}
    records = [(r.product_id, r.reviewer_id, r.question_id, r.answer,
                r.final_classification, teams[r.reviewer_id]) for r in dataset.records]
    expect = _expectations(records, truth, "pooled", "clopper-pearson", False)
    if expect is None:
        raise RuntimeError(f"seed {seed} gives an audit-large panel with a failing section")
    expect["ranking_first"] = "q9"  # highest difficulty, lowest kappa
    _write_rows(outdir / "panel.csv", PANEL_HEADER, records)
    _write_rows(outdir / "truth.csv", ["product_id", "classification"], sorted(truth.items()))
    return {"panels": [{"csv": "panel.csv", "truth": "truth.csv", "flags": [],
                        "records": len(records), "expect": expect}], "block": 1}


def _batch_panel(rng: random.Random, n_products: int, n_reviewers: int, n_questions: int):
    n_teams = rng.randint(2, 4)
    cats = [rng.randint(2, 3) for _ in range(n_questions)]
    difficulty = [rng.uniform(0.05, 0.6) for _ in range(n_questions)]
    flip_rate = [rng.uniform(0.05, 0.35) for _ in range(n_teams)]
    width = len(str(n_products - 1))

    def verdict(indices):
        # approve when at least 40% of the answers are the first category
        return "approve" if 5 * sum(i == 0 for i in indices) >= 2 * n_questions else "reject"

    reviewers = [(f"r{j}", f"t{j % n_teams}", flip_rate[j % n_teams])
                 for j in range(n_reviewers)]
    questions = [f"q{q + 1}" for q in range(n_questions)]
    answer_labels = ("a0", "a1", "a2")
    uniform = rng.random
    records, truth = [], {}
    for i in range(n_products):
        product = f"p{i:0{width}d}"
        latent = [rng.randrange(k) for k in cats]
        truth[product] = verdict(latent)
        for reviewer, team, flip in reviewers:
            answers = [lat if uniform() >= d else rng.randrange(k)
                       for lat, d, k in zip(latent, difficulty, cats)]
            label = verdict(answers)
            if uniform() < flip:
                label = "reject" if label == "approve" else "approve"
            for question, a in zip(questions, answers):
                if uniform() >= 0.01:  # about 1% of records go missing
                    records.append((product, reviewer, question, answer_labels[a], label, team))
    return records, truth


# (products, reviewers, questions) levels of the batch pool. Every seed uses
# the whole grid, so the pool's mix of panel sizes, and with it the op-time
# distribution, is the same for every seed; the seed draws the contents.
BATCH_GRID = ((20, 35, 50, 65, 80), tuple(range(4, 11)), tuple(range(3, 10)))
BATCH_GRID_TINY = ((20,), (4, 6), (3, 5))


def generate_audit_batch(seed: int, outdir: Path, tiny: bool) -> dict:
    """The pool in blocks of one panel per (products, reviewers) pair, with the
    question count assigned as a Latin square, so every block has the same
    mix of sizes and a run that stops at a block boundary has it too."""
    rng = random.Random(seed)
    products, reviewers, questions = BATCH_GRID_TINY if tiny else BATCH_GRID
    shapes = [(p, r, questions[(i + j + block) % len(questions)])
              for block in range(len(questions))
              for i, p in enumerate(products) for j, r in enumerate(reviewers)]
    panels = []
    for k, (n_products, n_reviewers, n_questions) in enumerate(shapes):
        kappa = rng.choice(sorted(KAPPA_FLAGS))
        ci = rng.choice(sorted(CI_FLAGS))
        yates = rng.random() < 0.5
        while True:
            records, truth = _batch_panel(rng, n_products, n_reviewers, n_questions)
            expect = _expectations(records, truth, kappa, ci, yates)
            if expect is not None:
                break
        _write_rows(outdir / f"panel{k}.csv", PANEL_HEADER, records)
        _write_rows(outdir / f"truth{k}.csv", ["product_id", "classification"],
                    sorted(truth.items()))
        flags = ["--overall-kappa", kappa, "--ci-method", ci] + (["--yates"] if yates else [])
        panels.append({"csv": f"panel{k}.csv", "truth": f"truth{k}.csv", "flags": flags,
                       "records": len(records), "expect": expect})
    return {"panels": panels, "block": len(products) * len(reviewers)}


# Every simulate-did op cycles through this many (seed, index) inputs, so that
# later ops repeat earlier inputs and byte determinism is checked in-run.
DID_INPUTS = 3
DID_DELTA = 0.08


def did_config(seed: int, index: int, tiny: bool) -> dict:
    """SimulationConfig payload of op input ``index``: the criterion-10 shape
    with anchoring, a biased reviewer r0 and a treatment of delta 0.08."""
    return {
        "n_products": 60 if tiny else 1528,
        "n_reviewers": 3,
        "questions": [{"id": f"q{i + 1}", "n_categories": 2, "difficulty": d}
                      for i, d in enumerate(CRITERION10_DIFFICULTIES)],
        "reviewer_bias": {"r0": [0.8, 0.2]},
        "anchoring": 0.2,
        "treatment": {"change_period": 1, "error_rate_delta": DID_DELTA},
        "seed": seed + index,
    }


def generate_simulate_did(seed: int, outdir: Path, tiny: bool) -> dict:
    reviewaudit = _import_reviewaudit()
    configs = []
    for index in range(DID_INPUTS):
        payload = did_config(seed, index, tiny)
        reviewaudit.SimulationConfig.from_dict(payload)  # reject a bad config at set-up
        name = f"config{index}.json"
        (outdir / name).write_text(json.dumps(payload, sort_keys=True))
        configs.append(name)
    return {"configs": configs}


GENERATORS = {
    "audit-large": generate_audit_large,
    "audit-batch": generate_audit_batch,
    "simulate-did": generate_simulate_did,
}


# --- ops and checks (run in the benchmark process) --------------------------

class AuditWorkload:
    """Each op is one ``reviewaudit audit`` CLI call on the next panel."""

    def __init__(self, indir: Path, manifest: dict):
        from reviewaudit import cli

        self.cli = cli
        self.indir = indir
        self.panels = manifest["panels"]
        self.output = indir / "report.json"
        self.digests: dict[int, str] = {}
        self.n_inputs = len(self.panels)
        self.block = manifest["block"]

    def _panel(self, k: int) -> tuple[int, dict]:
        index = k % len(self.panels)
        return index, self.panels[index]

    def records(self, k: int) -> int:
        return self._panel(k)[1]["records"]

    def op(self, k: int):
        _, panel = self._panel(k)
        return self.cli.main(["audit", "--input", str(self.indir / panel["csv"]),
                              "--ground-truth", str(self.indir / panel["truth"]),
                              "--output", str(self.output), *panel["flags"]])

    def check(self, k: int, code, corrupt: bool = False) -> list[str]:
        index, panel = self._panel(k)
        if code != 0:
            return [f"exit code {code}"]
        data = self.output.read_bytes()
        self.output.unlink()  # so the next op cannot pass on this op's file
        if corrupt:
            data = data.replace(b'"status": "ok"', b'"status": "error"', 1)
        try:
            problems = check_audit_report(json.loads(data), panel["expect"])
        except ValueError as exc:
            problems = [f"report is not JSON: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if not problems and self.digests.setdefault(index, digest) != digest:
            problems.append(f"panel {index}: report bytes differ from an earlier op")
        return problems

    def finish(self) -> tuple[str, list[str]]:
        """The report's sha256 for one panel, else a digest over every panel's
        report; a panel never audited is a problem."""
        missing = [i for i in range(len(self.panels)) if i not in self.digests]
        if len(self.panels) == 1 and not missing:
            return self.digests[0], []
        digest = hashlib.sha256("".join(
            f"{i}:{self.digests[i]}\n" for i in sorted(self.digests)).encode()).hexdigest()
        return digest, [f"panels never audited: {missing}"] if missing else []


def _check_did_csv(panel: str, truth: str, records: int) -> list[str]:
    """Every record written once, each row's group and period matching its
    product (ids are "<group>-<period>-p<n>"), and ground truth for exactly
    the products written."""
    lines = panel.splitlines()
    if lines[0] != ",".join(PANEL_HEADER + ["period", "group"]):
        return [f"panel CSV header {lines[0]!r}"]
    if len(lines) - 1 != records:
        return [f"panel CSV has {len(lines) - 1} rows, expected {records}"]
    products = set()
    for line in lines[1:]:
        fields = line.split(",")
        if not fields[0].startswith(f"{fields[7]}-{fields[6]}-p"):
            return [f"panel CSV row {line!r} has the wrong group or period"]
        products.add(fields[0])
    truth_products = {line.split(",")[0] for line in truth.splitlines()[1:]}
    if truth_products != products:
        return [f"ground truth covers {len(truth_products)} products, "
                f"the panel {len(products)}"]
    return []


class SimulateDidWorkload:
    """Each op simulates a treated/control pair, estimates DiD on error rates
    and writes the panel and ground truth as CSV."""

    def __init__(self, indir: Path, manifest: dict):
        from reviewaudit import did, report, simulate

        self.did, self.report, self.simulate = did, report, simulate
        self.configs = [simulate.SimulationConfig.from_json((indir / name).read_text())
                        for name in manifest["configs"]]
        self.panel_path = indir / "did_panel.csv"
        self.truth_path = indir / "did_truth.csv"
        self.digests: dict[int, str] = {}
        self.results: dict[int, object] = {}
        self.n_inputs = len(self.configs)
        self.block = 1

    def records(self, k: int) -> int:
        config = self.configs[k % len(self.configs)]
        return 4 * config.n_products * config.n_reviewers * len(config.questions)

    def op(self, k: int):
        config = self.configs[k % len(self.configs)]
        pair = self.simulate.inject_review_change(config)
        result = self.did.did_with_error_rates(
            pair.treated, pair.control, pair.ground_truth, pair.change_period)
        with open(self.panel_path, "w", encoding="utf-8", newline="") as stream:
            self.report.write_panel_csv(
                stream, [("control", pair.control.records), ("treated", pair.treated.records)])
        with open(self.truth_path, "w", encoding="utf-8", newline="") as stream:
            self.report.write_ground_truth_csv(stream, pair.ground_truth)
        return result

    def check(self, k: int, result, corrupt: bool = False) -> list[str]:
        index = k % len(self.configs)
        panel = self.panel_path.read_bytes()
        if corrupt:
            panel = panel.replace(b"treated", b"control", 1)
        truth = self.truth_path.read_bytes()
        self.panel_path.unlink()  # so the next op cannot pass on this op's files
        self.truth_path.unlink()
        problems = _check_did_csv(panel.decode(), truth.decode(), self.records(k))
        values = [result.effect, result.treated_pre_mean, result.treated_post_mean,
                  result.control_pre_mean, result.control_post_mean]
        if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values):
            problems.append(f"DiD values out of range: {values}")
        digest = hashlib.sha256(panel + b"\0" + truth).hexdigest()
        if not problems and self.digests.setdefault(index, digest) != digest:
            problems.append(f"input {index}: CSV bytes differ from an earlier op")
        if not problems:
            self.results.setdefault(index, result)
        return problems

    def finish(self) -> tuple[str, list[str]]:
        """Digest over the inputs' CSV bytes, and recovery of the injected delta.

        The treatment flips only classifications that were correct, so the
        expected effect is delta * (1 - treated pre-period error rate). As in
        acceptance criterion 8 the mean recovered effect must sit within 0.02
        of it, widened to four standard errors of that mean: one input's gap
        has a standard deviation of 0.014 at the full shape (30 seeds), taken
        as 0.015 and scaled by the panel size.
        """
        digest = hashlib.sha256("".join(
            f"{i}:{self.digests[i]}\n" for i in sorted(self.digests)).encode()).hexdigest()
        problems = []
        if len(self.digests) < len(self.configs):
            problems.append(f"only {len(self.digests)} of {len(self.configs)} inputs ran")
        if self.results:
            gaps = [r.effect - DID_DELTA * (1.0 - r.treated_pre_mean)
                    for r in self.results.values()]
            units = self.configs[0].n_products * self.configs[0].n_reviewers
            se = 0.015 * math.sqrt(1528 * 3 / units / len(gaps))
            gap = math.fsum(gaps) / len(gaps)
            if abs(gap) > max(0.02, 4.0 * se):
                problems.append(f"mean DiD effect misses the injected delta by {gap:+.4f}")
        return digest, problems


WORKLOADS = {
    "audit-large": AuditWorkload,
    "audit-batch": AuditWorkload,
    "simulate-did": SimulateDidWorkload,
}


# Reference-loop samples a set-up child takes before and after its work.
SETUP_SAMPLES = 3


def _child_main(argv: list[str]) -> int:
    from hostspeed import reference_loop

    name, seed, outdir, tiny = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    samples = [reference_loop() for _ in range(SETUP_SAMPLES)]
    manifest = GENERATORS[name](seed, outdir, tiny)
    files = sorted(p for p in outdir.iterdir() if p.name != "manifest.json")
    manifest["inputs_sha256"] = hashlib.sha256("".join(
        f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in files
    ).encode()).hexdigest()
    samples += [reference_loop() for _ in range(SETUP_SAMPLES)]
    manifest["host_samples"] = samples
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
