"""Deterministic 64-bit PRNG with splittable substreams.

The generator is SplitMix64 (Steele, Lea & Flood 2014): state advances by
the 64-bit golden-gamma constant and each output is the mix
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31
over Python integers masked to 64 bits, so sequences are identical on
every platform. Substreams are derived by folding integer keys into the
seed through the same mix, which makes per-product streams independent of
generation order.

SplitMix64Array draws from many such streams at once with numpy uint64
arithmetic, which wraps mod 2**64 as the masked Python integers do, so its
draws equal the scalar generator's bit for bit. Draw j of a stream with
start state s is mix(s + j * golden); a draw under a boolean mask advances
only the streams it selects, by adding golden times the mask, which lets
streams make different numbers of draws. Every uint64 operand is an array
or an explicit np.uint64: NumPy 1.x promotes a uint64 scalar mixed with a
Python int to float64 (a bool array times an np.uint64 stays uint64).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KEY_SALT = 0xD1B54A32D192ED03


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seeded SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return (self.next_uint64() * n) >> 64


def derive_stream(seed: int, *keys: int) -> SplitMix64:
    """Substream determined only by (seed, keys), not by draw order elsewhere."""
    state = _mix(seed & _MASK64)
    for key in keys:
        state = _mix((state + _GOLDEN + (key & _MASK64) * _KEY_SALT) & _MASK64)
    return SplitMix64(state)


_U = np.uint64
_GOLDEN_U, _KEY_SALT_U = _U(_GOLDEN), _U(_KEY_SALT)
_MUL1, _MUL2 = _U(0xBF58476D1CE4E5B9), _U(0x94D049BB133111EB)
_LOW32 = _U(0xFFFFFFFF)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place."""
    z ^= z >> _U(30)
    z *= _MUL1
    z ^= z >> _U(27)
    z *= _MUL2
    z ^= z >> _U(31)
    return z


class SplitMix64Array:
    """An array of SplitMix64 streams, drawn from together.

    Each draw returns, per stream, the value the scalar stream would return
    next. Given a boolean mask, a draw advances only the streams the mask
    selects; the result's other elements are then meaningless.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = np.array(state, np.uint64)

    @classmethod
    def derive(cls, stream: SplitMix64, *keys) -> "SplitMix64Array":
        """The streams derive_stream(seed, *salt, *keys) for every broadcast
        combination of the non-negative integer keys (ints or arrays), given
        stream = derive_stream(seed, *salt) before any draw."""
        state = np.full(np.broadcast_shapes(*map(np.shape, keys)), stream._state, np.uint64)
        for key in keys:
            state += _GOLDEN_U
            state += np.asarray(key, np.uint64) * _KEY_SALT_U
            _mix_array(state)
        return cls(state)

    @classmethod
    def following(cls, stream: SplitMix64, n: int) -> "SplitMix64Array":
        """n streams whose first draws are stream's next n draws, in order."""
        return cls(np.arange(n, dtype=np.uint64) * _GOLDEN_U + _U(stream._state))

    def next_uint64(self, where: np.ndarray | None = None) -> np.ndarray:
        self.state += _GOLDEN_U if where is None else _GOLDEN_U * where
        return _mix_array(self.state.copy())

    def random(self, where: np.ndarray | None = None) -> np.ndarray:
        """Uniform floats in [0, 1) with 53 random bits."""
        return (self.next_uint64(where) >> _U(11)).astype(np.float64) * 2.0 ** -53

    def randbelow(self, n, where: np.ndarray | None = None) -> np.ndarray:
        """Uniform integers in [0, n), n broadcast against the streams and in
        [1, 2**32]: the high word of the 64 x 64-bit product u * n, built
        from u's 32-bit halves so that no partial product overflows."""
        n = np.asarray(n)
        if n.min() < 1 or n.max() > 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        n = n.astype(np.uint64)
        u = self.next_uint64(where)
        high = (u >> _U(32)) * n + (((u & _LOW32) * n) >> _U(32))
        return (high >> _U(32)).astype(np.int64)


def weighted_index(u: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Per uniform u, an index drawn proportionally to non-negative finite
    weights: the first index whose running weight sum exceeds u * total, or
    the last index. The total is Python's sum and the running sums a float64
    cumsum, left to right, as a scalar loop `acc += w; if u < acc` has them.
    """
    running = np.cumsum(np.asarray(weights, np.float64))
    return np.minimum(np.searchsorted(running, u * sum(weights), side="right"), len(weights) - 1)
