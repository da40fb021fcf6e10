"""SplitMix64 known answers, and the array kernels against the scalar
generator they must match bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit.rng import SplitMix64, SplitMix64Array, derive_stream, weighted_index

EDGE_STATES = (0, 2 ** 63, 2 ** 64 - 1)


def test_reference_first_output():
    # the first output of the reference SplitMix64 seeded with 0
    assert SplitMix64(0).next_uint64() == 0xE220A8397B1DCDAF


def _arrays(states):
    return SplitMix64Array(np.array(states, np.uint64)), [SplitMix64(s) for s in states]


def test_array_draws_equal_scalar_draws_on_edge_states():
    array, scalars = _arrays(EDGE_STATES)
    for _ in range(3):
        assert array.next_uint64().tolist() == [s.next_uint64() for s in scalars]
        assert array.random().tolist() == [s.random() for s in scalars]


@pytest.mark.parametrize("n", [2, 3, 2 ** 31 + 1, 2 ** 32 - 1])
def test_array_randbelow_equals_scalar(n):
    states = EDGE_STATES + tuple(derive_stream(n, i).next_uint64() for i in range(50))
    array, scalars = _arrays(states)
    for _ in range(3):
        assert array.randbelow(n).tolist() == [s.randbelow(n) for s in scalars]


def test_randbelow_rejects_n_out_of_range():
    array, _ = _arrays(EDGE_STATES)
    for n in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            array.randbelow(n)


def test_masked_draw_advances_only_selected_streams():
    array, scalars = _arrays(EDGE_STATES)
    mask = np.array([True, False, True])
    drawn = array.next_uint64(mask)
    assert [drawn[0], drawn[2]] == [scalars[0].next_uint64(), scalars[2].next_uint64()]
    assert array.next_uint64().tolist() == [s.next_uint64() for s in scalars]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(2, 400), st.integers(0, 2 ** 64 - 1), st.lists(st.floats(0.0, 1.0),
                                                                min_size=1, max_size=6))
def test_masked_draws_equal_scalar_draws(n, seed, densities):
    # Each draw advances a random subset of the streams; every selected
    # stream must give the scalar stream's next draw.
    states = [derive_stream(seed, i).next_uint64() for i in range(n)]
    array, scalars = _arrays(states)
    pick = SplitMix64Array.following(derive_stream(seed, -1), n)
    for density in densities:
        mask = pick.random() < density
        drawn = array.next_uint64(mask)
        selected = np.flatnonzero(mask).tolist()
        assert drawn[selected].tolist() == [scalars[i].next_uint64() for i in selected]
    assert array.state.tolist() == [s._state for s in scalars]


def test_derive_equals_derive_stream():
    prefix = derive_stream(-7, 3, -1)
    array = SplitMix64Array.derive(prefix, np.arange(4)[:, None], 0x7E4, np.arange(3))
    expected = [[derive_stream(-7, 3, -1, i, 0x7E4, r).next_uint64() for r in range(3)]
                for i in range(4)]
    assert array.next_uint64().tolist() == expected


def _scalar_weighted_index(u, weights):
    total = sum(weights)
    threshold = u * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if threshold < acc:
            return i
    return len(weights) - 1


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0, 0.0), (0.1, 0.2, 0.3, 0.4), (3.0,)])
def test_weighted_index_equals_scalar_loop(weights):
    u = np.array([0.0, 1.0 - 2.0 ** -53, 0.1, 0.3, 0.5, 0.6, 0.999]
                 + SplitMix64Array(np.arange(40, dtype=np.uint64)).random().tolist())
    assert weighted_index(u, weights).tolist() == \
        [_scalar_weighted_index(x, weights) for x in u.tolist()]
