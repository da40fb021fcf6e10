"""Golden CLI outputs: stdout and exit code of every subcommand on fixed inputs.

The inputs and outputs live in tests/fixtures/golden/ and were written by
its record.py. A difference here means the program's output changed.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from reviewaudit import report
from reviewaudit.agreement import AgreementReport, KappaResult
from reviewaudit.cli import main
from reviewaudit.did import DidResult
from reviewaudit.estimation import BiasFactorReport, BinomialInterval, FactorEffect
from reviewaudit.hypotheses import AnovaDecomposition
from reviewaudit.hypotheses import TestResult as HypothesisTest
from reviewaudit.report import AuditReport

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys):
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / "out" / f"{case['name']}.txt").read_text(encoding="utf-8")
    assert code == case["exit"]


def test_cached_field_names_match_dataclasses_fields(monkeypatch, capsys):
    """report._fields, which reads a type's field names once, gives what
    dataclasses.fields gives, in its order, for every result emitted by
    every golden case."""
    seen = set()
    cached = report._fields

    def checked(result):
        got = cached(result)
        expected = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        assert list(got) == list(expected)
        assert all(got[name] is expected[name] for name in got)
        seen.add(type(result))
        return got

    monkeypatch.setattr(report, "_fields", checked)
    for case in CASES:
        main([str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]])
    capsys.readouterr()
    assert {AuditReport, AgreementReport, KappaResult, HypothesisTest, AnovaDecomposition,
            BinomialInterval, BiasFactorReport, FactorEffect, DidResult} <= seen


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
