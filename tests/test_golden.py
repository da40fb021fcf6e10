"""Golden CLI outputs: stdout and exit code of every subcommand on fixed inputs.

The inputs and outputs live in tests/fixtures/golden/ and were written by
its record.py. A difference here means the program's output changed.
"""

import json
from pathlib import Path

import pytest

from reviewaudit.cli import main

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys):
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / "out" / f"{case['name']}.txt").read_text(encoding="utf-8")
    assert code == case["exit"]


def test_cases_cover_every_subcommand():
    commands = {c["argv"][0] for c in CASES}
    assert commands == {"agreement", "chisq", "ttest", "anova", "ci", "regress", "did",
                        "simulate", "audit"}
