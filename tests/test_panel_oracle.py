"""Validated panels and the analysis inputs derived from them, checked
against the plain-Python oracle in _oracles.py on random small panels.

Each panel is validated twice: from ReviewRecord objects, and from the
same rows written as CSV and read back by ingest_csv.
"""

import io

from hypothesis import example, given, settings, strategies as st

from reviewaudit import (
    ReviewAuditError,
    ReviewRecord,
    agreement_rate,
    contingency_from,
    ingest_csv,
    pooled_rating_matrix,
    rating_matrix,
    validate_dataset,
)
from reviewaudit.report import write_panel_csv

from _oracles import (
    OracleError,
    agreement_rate_oracle,
    contingency_oracle,
    pooled_rating_matrix_oracle,
    rating_matrix_oracle,
    unit_errors_oracle,
    units_oracle,
    validate_oracle,
)

PRODUCTS = ("p2", "p10", "p1", "b")
REVIEWERS = ("r1", "r0", "R")
QUESTIONS = ("q2", "q1", "Q10")
ANSWERS = ("no", "yes", "maybe", "Yes")
CLASSES = ("reject", "approve", "escalate")
TEAMS = (None, "B", "A")
PERIODS = (None, 1, 0)


@st.composite
def panels(draw):
    products = draw(st.lists(st.sampled_from(PRODUCTS), min_size=1, max_size=4, unique=True))
    reviewers = draw(st.lists(st.sampled_from(REVIEWERS), min_size=1, max_size=3, unique=True))
    questions = draw(st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=3, unique=True))
    answers = {q: draw(st.lists(st.sampled_from(ANSWERS), min_size=1, max_size=3, unique=True))
               for q in questions}
    team_of = {r: draw(st.sampled_from(TEAMS)) for r in reviewers}
    period_of = {p: draw(st.sampled_from(PERIODS)) for p in products}
    odd = st.integers(0, 11).map(lambda k: k == 0)  # about one row in twelve
    rows = []
    for p in products:
        for q in questions:
            for r in reviewers:
                if draw(odd):
                    continue  # leaves the cell incomplete
                team = draw(st.sampled_from(TEAMS)) if draw(odd) else team_of[r]
                period = draw(st.sampled_from(PERIODS)) if draw(odd) else period_of[p]
                rows.append((p, r, q, draw(st.sampled_from(answers[q])),
                             draw(st.sampled_from(CLASSES)), team, period))
    if rows and draw(odd):
        p, r, q, *_ = draw(st.sampled_from(rows))
        rows.append((p, r, q, draw(st.sampled_from(ANSWERS)), draw(st.sampled_from(CLASSES)),
                     None, None))
    rows = draw(st.permutations(rows))
    policy = "strict" if draw(st.integers(0, 2)) == 0 else "drop"
    declared = None
    if draw(st.booleans()):
        # usually a superset of the observed answers, sometimes missing one
        declared = {q: answers.get(q, [])[draw(odd):] + draw(st.lists(st.sampled_from(ANSWERS)))
                    for q in draw(st.lists(st.sampled_from(QUESTIONS), max_size=2))}
    truth = {p: draw(st.sampled_from(CLASSES)) for p in products if not draw(odd)}
    return rows, policy, declared, truth


def _outcome(fn, *args):
    """fn's result, or the error's class name and message."""
    try:
        return fn(*args)
    except (ReviewAuditError, OracleError) as exc:
        return ("error", getattr(exc, "kind", type(exc).__name__), str(exc))


def _matrix(m):
    return (m.counts, m.n, m.categories, m.subjects)


def _table(t):
    return (t.observed, t.expected, t.row_labels, t.col_labels)


def _from_csv(rows):
    stream = io.StringIO()
    write_panel_csv(stream, [(None, [ReviewRecord(*row) for row in rows])])
    stream.seek(0)
    return ingest_csv(stream)


def _check(dataset, panel, truth):
    assert [tuple(vars(r).values()) for r in dataset.records] == panel["records"]
    assert dataset.reviewers == panel["reviewers"]
    assert dataset.questions == panel["questions"]
    assert dataset.n_raters == panel["n_raters"]
    assert dict(dataset.category_space) == panel["category_space"]
    s = dataset.summary
    assert (s.n_input_records, s.n_records, s.n_dropped_cells, s.n_dropped_records,
            s.dropped_cells, s.policy) == panel["summary"]
    assert dataset.products == panel["products"]
    assert _outcome(lambda: {k: tuple(u) for k, u in dataset.units.items()}) == \
        _outcome(units_oracle, panel)
    for reference in (None, truth):
        assert _outcome(dataset.unit_errors, reference) == \
            _outcome(unit_errors_oracle, panel, reference)
    for q in (*QUESTIONS, "missing"):
        assert _outcome(lambda: _matrix(rating_matrix(dataset, q))) == \
            _outcome(rating_matrix_oracle, panel, q)
        assert _outcome(lambda: _table(contingency_from(dataset, q))) == \
            _outcome(contingency_oracle, panel, q)
    assert _outcome(lambda: _matrix(pooled_rating_matrix(dataset))) == \
        _outcome(pooled_rating_matrix_oracle, panel)
    assert _outcome(agreement_rate, dataset) == _outcome(agreement_rate_oracle, panel)


ALL_DROPPED = (  # every cell misses a reviewer
    [("p1", "r1", "q1", "yes", "approve", "A", 0), ("p1", "r2", "q1", "no", "reject", "B", 0),
     ("p2", "r3", "q1", "no", "reject", None, 1)],
    "drop", None, {"p1": "approve"},
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(panels())
@example(ALL_DROPPED)
def test_validated_panel_matches_oracle(case):
    rows, policy, declared, truth = case
    expected = _outcome(validate_oracle, rows, policy, declared)
    sources = [[ReviewRecord(*row) for row in rows]]
    if rows:
        sources.append(_from_csv(rows))
    for records in sources:
        dataset = _outcome(validate_dataset, records, policy, declared)
        if isinstance(expected, tuple):
            assert dataset == expected
        else:
            _check(dataset, expected, truth)
