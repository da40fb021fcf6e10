"""A sweep of `reviewaudit audit` over small generated panels and options.

Whatever the panel and options, the CLI keeps the README's promises: no
exception escapes, the exit code is 0, 1 or 2, a report is written on exit
0 and none on exit 2, the JSON holds no NaN or Infinity and renders as
text, and a repeat of a call gives the same bytes.
Some panels end their lines with a lone CR or leave a trailing field off a
row, which the csv module reads in place of the block reader."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit.cli import main
from reviewaudit.report import parse_report, render_text

HEADER = "product_id,reviewer_id,question_id,answer,final_classification,team,period"
CLASSES = ["approve", "reject", "escalate"]


def _refuse(constant: str):
    raise ValueError(f"non-finite number {constant} in the JSON")


@st.composite
def panels(draw) -> tuple[bytes, bytes | None]:
    """A review CSV of a few products, reviewers and questions, some with
    records left out, and a ground-truth CSV of all, some or none of its
    products."""
    products = [f"p{i}" for i in range(draw(st.integers(3, 8)))]
    reviewers = [f"r{i}" for i in range(draw(st.integers(2, 3)))]
    questions = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    answers = ["a0", "a1", "a2"][:draw(st.integers(2, 3))]
    classes = {product: draw(st.sampled_from(CLASSES)) for product in products}
    teams = draw(st.sampled_from([[""], ["A"], ["A", "B"], ["A", "B", "C"]]))
    gaps, rows = draw(st.booleans()), []
    for p, product in enumerate(products):
        for r, reviewer in enumerate(reviewers):
            for question in questions:
                if gaps and draw(st.integers(0, 9)) == 0:  # a record left out
                    continue
                period = draw(st.sampled_from(["", "0", "1"]))
                rows.append(",".join((product, reviewer, question, draw(st.sampled_from(answers)),
                                      classes[product], teams[(p + r) % len(teams)], period)))
    if rows and draw(st.booleans()):  # a ragged row: its blank period left off
        i = draw(st.integers(0, len(rows) - 1))
        if rows[i].endswith(","):
            rows[i] = rows[i][:-1]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    panel = end.join([HEADER, *rows]) + end
    truth = draw(st.sampled_from(["full", "partial", "absent"]))
    if truth == "absent":
        return panel.encode(), None
    known = products if truth == "full" else products[:len(products) // 2]
    truth_rows = ["product_id,classification"]
    truth_rows += [f"{product},{draw(st.sampled_from(CLASSES))}" for product in known]
    return panel.encode(), ("\n".join(truth_rows) + "\n").encode()


def _audit(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("sweep")
    return folder / "panel.csv", folder / "truth.csv"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(files=panels(),
       kappa=st.sampled_from(["pooled", "mean"]),
       ci_method=st.sampled_from(["clopper-pearson", "wilson"]),
       level=st.sampled_from([0.95, 0.5, 0.9, 0.99, 0.999, 0.8, 0.6, 1.0]),
       alpha=st.sampled_from([0.05, 0.01, 0.1, 0.5, 0.2, 0.3, 0.001, 0.0]),
       yates=st.booleans(),
       policy=st.sampled_from(["drop", "strict"]),
       fmt=st.sampled_from(["json", "text"]))
def test_audit_keeps_its_promises(paths, files, kappa, ci_method, level, alpha, yates, policy,
                                  fmt):
    panel, truth = files
    panel_path, truth_path = paths
    panel_path.write_bytes(panel)
    argv = ["audit", "--input", str(panel_path), "--overall-kappa", kappa,
            "--ci-method", ci_method, "--level", str(level), "--alpha", str(alpha),
            "--policy", policy, "--format", fmt]
    if yates:
        argv.append("--yates")
    if truth is not None:
        truth_path.write_bytes(truth)
        argv += ["--ground-truth", str(truth_path)]
    code, out = _audit(argv)
    assert code in (0, 1, 2)
    if code != 1:  # exit 1 is a partial report, or a failed analysis that writes none
        assert bool(out) == (code == 0)
    if out and fmt == "json":
        json.loads(out, parse_constant=_refuse)
        assert render_text(parse_report(out))
    assert _audit(argv) == (code, out)
