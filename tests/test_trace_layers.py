"""The benchmark's traced layer names (perfbench/tracer.py's WRAPS) stay
reachable: each wrapped module attribute exists, and an audit calls each
agreement and chi-square layer through it, so that a refactor cannot bypass
a traced name without a test failing."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from reviewaudit import QuestionSpec, SimulationConfig, cli, simulate_panel
from reviewaudit.report import write_panel_csv

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists(tracer):
    wrapped = [(module, attr) for module, attr, *_ in (*tracer.WRAPS, *tracer.COUNTED)]
    missing = [f"{module.__name__}.{attr}" for module, attr in wrapped
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_an_audit_calls_each_agreement_and_chi_square_layer(tracer, tmp_path):
    questions = tuple(QuestionSpec(f"q{i}", 2, 0.2) for i in range(3))
    dataset, _ = simulate_panel(SimulationConfig(30, 3, questions, seed=4))
    panel = tmp_path / "panel.csv"
    with open(panel, "w", encoding="utf-8", newline="") as stream:
        write_panel_csv(stream, [(None, dataset.records)])
    traced = tracer.Tracer()
    traced.begin_op(0)
    try:
        code = cli.main(["audit", "--input", str(panel), "--output", str(tmp_path / "out.json")])
    finally:
        traced.end_op()
    assert code == 0
    assert traced.report()[2] == []  # self times add up to the op's wall time
    calls = Counter(name for name, *_ in traced.spans)
    # One matrix and one table per question, and the pooled matrix once.
    expected = {
        "agreement.analyze_agreement": 1, "model.rating_matrix": 3, "agreement.fleiss_kappa": 4,
        "agreement.pooled_rating_matrix": 1, "model.contingency_from": 3,
        "hypotheses.chi_square_independence": 3}
    assert {name: calls[name] for name in expected} == expected
