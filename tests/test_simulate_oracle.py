"""The simulator checked against the scalar generator in _oracles.py:
the same CSV bytes and ground truth for random small configurations."""

import io
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reviewaudit import (
    QuestionSpec,
    SimulationConfig,
    Treatment,
    inject_review_change,
    simulate_panel,
)
from reviewaudit import model
from reviewaudit.report import write_panel_csv

from _oracles import inject_review_change_oracle, panel_csv_oracle, simulate_oracle

QUESTION_IDS = ("q2", "q1", "q10", "Q")
UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
SEEDS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([0, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 7]),
)
WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([1.0, 0.5, 1e-3]), st.floats(0.0, 10.0))


@st.composite
def configs(draw, treated=False):
    ids = draw(st.lists(st.sampled_from(QUESTION_IDS), min_size=1, max_size=3, unique=True))
    questions = tuple(QuestionSpec(q, draw(st.integers(2, 12)), draw(UNIT)) for q in ids)
    n_reviewers = draw(st.integers(1, 12))
    widest = max(q.n_categories for q in questions)
    bias = None
    if draw(st.booleans()):
        chosen = draw(st.lists(st.integers(0, n_reviewers - 1), min_size=1, unique=True))
        bias = {f"r{i}": tuple(draw(st.lists(WEIGHTS, min_size=widest, max_size=widest)))
                for i in chosen}
        assume(all(sum(w[:q.n_categories]) > 0 for w in bias.values() for q in questions))
    treatment = None
    if treated:
        treatment = Treatment(draw(st.integers(-3, 3)), draw(UNIT))
    return SimulationConfig(
        n_products=draw(st.integers(1, 12)),
        n_reviewers=n_reviewers,
        questions=questions,
        reviewer_bias=bias,
        anchoring=draw(UNIT),
        treatment=treatment,
        seed=draw(SEEDS),
    )


@st.composite
def treated_configs(draw):
    config = draw(configs(treated=True))
    change = config.treatment.change_period
    periods = [draw(st.integers(change - 3, change - 1)), draw(st.integers(change, change + 2))]
    periods += draw(st.lists(st.integers(change - 3, change + 2), max_size=1))
    return config, tuple(draw(st.permutations(sorted(set(periods)))))


def _csv(dataset) -> str:
    stream = io.StringIO()
    write_panel_csv(stream, [(None, dataset.records)])
    return stream.getvalue()


EDGES = SimulationConfig(  # one product, twelve categories, zero weights, full anchoring
    n_products=1,
    n_reviewers=3,
    questions=(QuestionSpec("q1", 12, 1.0), QuestionSpec("q2", 2, 0.0)),
    reviewer_bias={"r1": (0.0, 1.0) + (0.0,) * 10, "r2": (2.0,) + (0.0,) * 11},
    anchoring=1.0,
    treatment=Treatment(0, 1.0),
    seed=-5,
)
LONE = SimulationConfig(  # one reviewer, a seed past 2**64, no redraws
    n_products=11,
    n_reviewers=1,
    questions=(QuestionSpec("q1", 3, 0.0),),
    anchoring=0.5,
    treatment=Treatment(-1, 0.0),
    seed=2 ** 64 + 3,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(configs())
@example(EDGES)
@example(LONE)
def test_simulate_panel_matches_scalar_generator(config):
    dataset, truth = simulate_panel(config)
    rows, expected_truth = simulate_oracle(config)
    assert _csv(dataset) == panel_csv_oracle(rows)
    assert truth == expected_truth


@settings(max_examples=100, deadline=None, derandomize=True)
@given(treated_configs())
@example((EDGES, (-2, 0)))
@example((LONE, (-1, -2, 3)))
def test_inject_review_change_matches_scalar_generator(case):
    config, periods = case
    pair = inject_review_change(config, periods)
    groups, truth = inject_review_change_oracle(config, periods)
    assert _csv(pair.treated) == panel_csv_oracle(groups["treated"])
    assert _csv(pair.control) == panel_csv_oracle(groups["control"])
    assert dict(pair.ground_truth) == truth
    assert pair.change_period == config.treatment.change_period


@pytest.mark.parametrize("cells_per_row", [0, 1 << 40], ids=["sorted", "counted"])
@pytest.mark.parametrize("config", [EDGES, LONE])
def test_majority_sorted_or_counted_matches_scalar_generator(config, cells_per_row):
    # With no cells a row allowed, the simulator's majorities and cell sizes
    # are found by sorting their pairs; with a huge allowance, by counting.
    with mock.patch.object(model, "_CELLS_PER_ROW", cells_per_row):
        dataset, truth = simulate_panel(config)
        pair = inject_review_change(config, (-3, 0))
    rows, expected_truth = simulate_oracle(config)
    assert (_csv(dataset), truth) == (panel_csv_oracle(rows), expected_truth)
    groups, pair_truth = inject_review_change_oracle(config, (-3, 0))
    assert _csv(pair.treated) == panel_csv_oracle(groups["treated"])
    assert dict(pair.ground_truth) == pair_truth


def _assert_every_label_used(dataset):
    assert dataset.records.labels == dataset.records.compact().labels


@settings(max_examples=100, deadline=None, derandomize=True)
@given(treated_configs())
@example((EDGES, (-2, 0)))
@example((LONE, (-1, -2, 3)))
def test_simulated_label_tables_hold_only_used_labels(case):
    # One product with twelve categories and no redraw on q2 leaves most
    # answer and class labels undrawn; the CSV bytes cannot show a table
    # entry that no record uses.
    config, periods = case
    _assert_every_label_used(simulate_panel(config)[0])
    pair = inject_review_change(config, periods)
    _assert_every_label_used(pair.treated)
    _assert_every_label_used(pair.control)
