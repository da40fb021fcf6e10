"""Validated panels and the analysis inputs derived from them, checked
against the plain-Python oracle in _oracles.py on random small panels.

Each panel is validated twice: from ReviewRecord objects, and from the
same rows written as CSV and read back by ingest_csv.
"""

import io
from unittest import mock

import numpy as np
import pytest
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
from reviewaudit import did, model
from reviewaudit.agreement import OVERALL_KAPPA_MODES, analyze_agreement
from reviewaudit.hypotheses import chi_square_independence
from reviewaudit.model import (
    CLASSIFICATION, PRODUCT, REVIEWER, TEAM, ContingencyTable, RatingMatrix,
)
from reviewaudit.report import (
    _chi_square_section, _extrapolation_section, _ok, _team_section, write_panel_csv,
)

from _oracles import (
    OracleError,
    agreement_oracle,
    agreement_rate_oracle,
    contingency_oracle,
    did_observations_oracle,
    extrapolation_groups_oracle,
    pooled_rating_matrix_oracle,
    rating_matrix_oracle,
    team_groups_oracle,
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
def panels(draw, classes=CLASSES):
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
                             draw(st.sampled_from(classes)), team, period))
    if rows and draw(odd):
        p, r, q, *_ = draw(st.sampled_from(rows))
        rows.append((p, r, q, draw(st.sampled_from(ANSWERS)), draw(st.sampled_from(classes)),
                     None, None))
    rows = draw(st.permutations(rows))
    policy = "strict" if draw(st.integers(0, 2)) == 0 else "drop"
    declared = None
    if draw(st.booleans()):
        # usually a superset of the observed answers, sometimes missing one
        declared = {q: answers.get(q, [])[draw(odd):] + draw(st.lists(st.sampled_from(ANSWERS)))
                    for q in draw(st.lists(st.sampled_from(QUESTIONS), max_size=2))}
    truth = {p: draw(st.sampled_from(classes)) for p in products if not draw(odd)}
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


def _units(dataset):
    """The unit table as {(product, reviewer): (classification, team)}, in
    table order, with codes mapped through the label tables."""
    labels = dataset.records.labels
    product, reviewer, classification, team = (
        map(labels[field].__getitem__, column.tolist())
        for field, column in zip((PRODUCT, REVIEWER, CLASSIFICATION, TEAM), dataset.units))
    return dict(zip(zip(product, reviewer), zip(classification, team)))


def _unit_errors(dataset, truth):
    errors, basis = dataset.unit_errors(truth)
    return dict(zip(_units(dataset), errors.tolist())), basis


def _team_groups(dataset, truth):
    """The team section's basis, group sizes and error rates (kept when its
    test fails), or its skip reason."""
    try:
        body = _team_section(dataset, truth, 0.05)
    except (ReviewAuditError, ValueError) as exc:
        body = getattr(exc, "partial", None)
        if not body:
            raise
    if body.get("status") == "skipped":
        return ("skipped", body["reason"])
    return body["outcome_basis"], body["group_sizes"], body["group_error_rates"]


def _extrapolation_groups(dataset, truth):
    body = _extrapolation_section(dataset, truth, "wilson", 0.95)
    if body["status"] == "skipped":
        return ("skipped", body["reason"])
    return body["outcome_basis"], [(name, (ci.x, ci.n)) for name, ci in body["groups"].items()]


def _did_observations(dataset, truth):
    """The observations did_with_error_rates builds with the dataset as both
    groups, taken before panel checks and estimation."""
    def unchecked(group, period, outcome, change_period):
        return tuple(zip(map(did.GROUPS.__getitem__, group.tolist()), period.tolist(),
                         outcome.tolist()))

    with mock.patch.object(did.DidPanel, "from_arrays", unchecked), \
            mock.patch.object(did, "did_estimate", lambda panel, period_balanced: panel):
        return did.did_with_error_rates(dataset, dataset, truth, 1)


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
    assert _outcome(lambda: list(_units(dataset).items())) == \
        _outcome(lambda: list(units_oracle(panel).items()))
    for reference in (None, truth):
        assert _outcome(_unit_errors, dataset, reference) == \
            _outcome(unit_errors_oracle, panel, reference)
        assert _outcome(_team_groups, dataset, reference) == \
            _outcome(team_groups_oracle, panel, reference)
        assert _outcome(_extrapolation_groups, dataset, reference) == \
            _outcome(extrapolation_groups_oracle, panel, reference)
    assert _outcome(_did_observations, dataset, truth) == \
        _outcome(did_observations_oracle, (("treated", panel), ("control", panel)), truth)
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

TWO_TEAMS = (  # reviewer "R" sorts before "r0" and "r1", team "A" before "B"
    [("p2", "r0", "q1", "yes", "approve", "B", 0), ("p2", "R", "q1", "no", "reject", "A", 0),
     ("p2", "r1", "q1", "yes", "approve", "B", 0), ("p10", "r0", "q1", "no", "reject", "B", 1),
     ("p10", "R", "q1", "no", "approve", "A", 1), ("p10", "r1", "q1", "yes", "reject", "B", 1)],
    "strict", None, {"p2": "approve", "p10": "reject"},
)


def _check_case(case):
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(panels())
@example(ALL_DROPPED)
@example(TWO_TEAMS)
def test_validated_panel_matches_oracle(case):
    _check_case(case)


@pytest.mark.parametrize("cells_per_row", [0, 1 << 40], ids=["sorted", "counted"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(panels())
@example(ALL_DROPPED)
@example(TWO_TEAMS)
def test_validated_panel_matches_oracle_sorted_or_counted(cells_per_row, case):
    # With no cells a row allowed, cell sizes, answer pairs and the unit and
    # consensus majorities are all found by sorting their pairs; with a huge
    # allowance, by counting them in one table.
    with mock.patch.object(model, "_CELLS_PER_ROW", cells_per_row):
        _check_case(case)


MANY_CLASSES = CLASSES + tuple(f"c{i}" for i in range(12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(panels(MANY_CLASSES), st.sampled_from([0, 1 << 40]))
def test_unit_majorities_match_oracle_sorted_or_counted(case, cells_per_row):
    # With no cells a row allowed, every majority is found by sorting its
    # (group, value) keys; with a huge allowance, by counting them.
    rows, policy, declared, truth = case
    panel = _outcome(validate_oracle, rows, policy, declared)
    if isinstance(panel, tuple):
        return
    with mock.patch.object(model, "_CELLS_PER_ROW", cells_per_row):
        dataset = validate_dataset([ReviewRecord(*row) for row in rows], policy, declared)
        assert _outcome(lambda: list(_units(dataset).items())) == \
            _outcome(lambda: list(units_oracle(panel).items()))
        for reference in (None, truth):
            assert _outcome(_unit_errors, dataset, reference) == \
                _outcome(unit_errors_oracle, panel, reference)


@st.composite
def sparse_panels(draw):
    """Panels whose products mostly answer questions of their own, each
    question with answer labels of its own, some declared with labels no
    record uses: few cells per product x question, and many categories in
    the pooled space."""
    n_products = draw(st.integers(1, 6))
    reviewers = draw(st.lists(st.sampled_from(REVIEWERS), min_size=1, max_size=3, unique=True))
    odd = st.integers(0, 11).map(lambda k: k == 0)
    rows, declared = [], {}
    for p in range(n_products):
        for q in draw(st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True)):
            labels = [f"q{q}-{a}" for a in range(draw(st.integers(1, 3)))]
            if draw(odd):
                declared[f"q{q}"] = labels + [f"q{q}-unused"]
            for r in reviewers:
                if not draw(odd):
                    rows.append((f"p{p}", r, f"q{q}", draw(st.sampled_from(labels)),
                                 draw(st.sampled_from(CLASSES)), None, None))
    if not declared:
        declared = None
    return draw(st.permutations(rows)), "drop", declared, {}


def _bits(value):
    """value with every float as its hex digits, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(_bits, value))
    return value


def _kappa(k):
    return (k.kappa, k.p_bar, k.p_e_bar, k.n_subjects, k.n_raters, k.n_categories)


def _agreement(dataset, mode):
    r = analyze_agreement(dataset, mode)
    return {"per_question": {q: _kappa(k) for q, k in r.per_question.items()},
            "annotations": dict(r.annotations), "overall": r.overall_kappa,
            "detail": r.overall_detail and _kappa(r.overall_detail),
            "rate": r.agreement_rate, "notes": r.notes, "ranking": r.disagreement_ranking}


def _chi_square_from_oracle(panel, alpha, yates):
    """_chi_square_section's body, with each table taken from the oracle."""
    per_question = {}
    for q in panel["questions"]:
        try:
            observed, _, answers, classes = contingency_oracle(panel, q)
            table = ContingencyTable.from_observed(observed, answers, classes)
            per_question[q] = _ok(chi_square_independence(table, alpha=alpha, yates=yates))
        except (ReviewAuditError, OracleError) as exc:
            per_question[q] = {"status": "error", "error": str(exc)}
    if all(body["status"] == "error" for body in per_question.values()):
        return {"status": "error", "error": "no question yields a testable contingency table",
                "per_question": per_question}
    return {"status": "ok", "per_question": per_question}


def _check_sections(case):
    rows, policy, declared, _ = case
    panel = _outcome(validate_oracle, rows, policy, declared)
    if isinstance(panel, tuple):
        return
    dataset = validate_dataset([ReviewRecord(*row) for row in rows], policy, declared)
    for mode in OVERALL_KAPPA_MODES:
        assert _bits(_outcome(_agreement, dataset, mode)) == \
            _bits(_outcome(agreement_oracle, panel, mode))
    for yates in (False, True):
        assert _bits(_chi_square_section(dataset, 0.05, yates)) == \
            _bits(_chi_square_from_oracle(panel, 0.05, yates))
    # Each matrix's array, laid out from its pairs when first read, is the
    # oracle's rows, and the matrix equals the one built from those rows.
    matrices = [(lambda q=q: rating_matrix(dataset, q), lambda q=q: rating_matrix_oracle(panel, q))
                for q in panel["questions"]]
    for made, oracle in [*matrices, (lambda: pooled_rating_matrix(dataset),
                                     lambda: pooled_rating_matrix_oracle(panel))]:
        expected = _outcome(oracle)
        if expected[0] == "error":
            continue
        counts, n, categories, subjects = expected
        matrix = made()
        assert matrix.array.tolist() == [list(row) for row in counts]
        assert matrix == RatingMatrix(np.array(counts, np.int64), n, categories, subjects)


@pytest.mark.parametrize("cells_per_row", [0, 1 << 40], ids=["sorted", "counted"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(panels(), sparse_panels()))
@example(ALL_DROPPED)
@example(TWO_TEAMS)
def test_agreement_and_chi_square_sections_match_oracle(cells_per_row, case):
    # Kappas and their terms bit for bit, annotations and error messages as
    # the oracle gives them, with every pair count found by sorting or by
    # counting in one table.
    with mock.patch.object(model, "_CELLS_PER_ROW", cells_per_row):
        _check_sections(case)
