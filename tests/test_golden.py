"""Golden CLI outputs: stdout and exit code of every subcommand on fixed inputs.

The inputs and outputs live in tests/fixtures/golden/ and were written by
its record.py. A difference here means the program's output changed.
"""

import importlib.util
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


def test_inputs_regenerate(tmp_path):
    """record.py writes the committed inputs byte for byte, which pins the
    simulator and CSV writer bytes behind every golden input."""
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    record.make_inputs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert "panel2.csv" in written and "did_review.csv" in written
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
