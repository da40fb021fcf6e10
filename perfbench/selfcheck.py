"""Self-check of the benchmark at a tiny shape (about 20 s).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json, untraced and traced, a run must finish
with correct outputs and report every metric BENCHMARK.json names, with its
unit. A run whose second op has its output deliberately corrupted must count
that op as failed. Finally the audit-large digest the benchmark reports must
equal the sha256 of ``reviewaudit audit`` run as a separate CLI process on the
same input files.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

SEED = 5
SECONDS = 0.5


def _tiny_run(name: str, trace: bool, **kwargs) -> dict:
    return run.run(name, SEED, SECONDS, trace, time.perf_counter(), tiny=True, **kwargs)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            summary = _tiny_run(name, trace)
            got = summary[section]
            want = {m["name"]: m["unit"] for m in spec[section]}
            if not summary["correct"]:
                problems.append(f"{name} trace={int(trace)}: outputs failed the checks: "
                                f"{summary['problems']} {summary['failures'][:1]}")
            if set(got) != set(want):
                problems.append(f"{name} trace={int(trace)}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            problems += [f"{name}: {m} in {got[m]['unit']!r}, expected {unit!r}"
                         for m, unit in want.items() if m in got and got[m]["unit"] != unit]
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{summary['ops']} ops, correct={summary['correct']}")
        corrupted = _tiny_run(name, False, corrupt=frozenset({1}))
        if corrupted["failed"] < 1 or corrupted["correct"]:
            problems.append(f"{name}: a corrupted output was not counted as failed")
        print(f"{name} with op 1 corrupted: {corrupted['failed']} of "
              f"{corrupted['ops']} ops failed")
    return problems


def check_cli_digest() -> list[str]:
    summary = _tiny_run("audit-large", False, keep=True)
    indir = Path(summary["workdir"]) / "setup0"
    try:
        output = indir / "cli_report.json"
        subprocess.run([sys.executable, "-m", "reviewaudit.cli", "audit",
                        "--input", str(indir / "panel.csv"),
                        "--ground-truth", str(indir / "truth.csv"), "--output", str(output)],
                       check=True, timeout=120, stdin=subprocess.DEVNULL,
                       env={**os.environ, "PYTHONPATH": str(workloads.SRC)})
        cli_digest = hashlib.sha256(output.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(summary["workdir"], ignore_errors=True)
    print(f"audit-large digest {summary['digest']}, separate CLI process {cli_digest}")
    if cli_digest != summary["digest"]:
        return ["audit-large digest differs from a separate CLI process's report"]
    return []


def main() -> int:
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_cli_digest()
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
