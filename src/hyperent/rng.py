"""Counter-based pseudo-random generator (SplitMix64).

The generator is stateless: draw number ``i`` of the stream with 64-bit
seed ``s`` is

    mix64((s + (i + 1) * GAMMA) mod 2**64)

with ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` the SplitMix64
finalizer (two xor-shift-multiply rounds, constants 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, final ``z ^ (z >> 31)``).

Any language with 64-bit unsigned arithmetic reproduces the stream, and
draws can be generated at arbitrary positions out of order.  That is
what makes owner-computes parallel sampling deterministic: worker ``w``
uses the child stream ``child_seed(s, w)`` (itself just draw ``w`` of
the parent stream) and never touches another worker's positions.
:func:`stream_block` builds a block one cache-sized tile at a time,
each tile's counters a cached table plus one offset.

Bernoulli draws with success probability ``p`` compare a raw 64-bit
draw against ``threshold_u64(p)``; the comparison is exact whenever
``p * 2**64`` is an integer (which covers every dyadic ``p`` with
exponent <= 64), and biased by less than 2**-64 otherwise.  The one
route to Bernoulli bits is :func:`bernoulli_block`: it makes the same
stream draws a cache-sized tile at a time and thresholds each tile into
the bool output, so no uint64 copy of a whole block is held.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_TILE = 1 << 15  # draws per tile of stream_block and bernoulli_block: 256 KiB of uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def stream_at(seed: int, index: int) -> int:
    """Draw ``index`` (0-based) of the stream with the given seed."""
    return mix64((seed + (index + 1) * GAMMA) & _MASK64)


def child_seed(seed: int, worker: int) -> int:
    """Derived seed for worker ``worker``: draw ``worker`` of the parent stream."""
    return stream_at(seed, worker)


@functools.cache
def _tile_steps() -> np.ndarray:
    """(i + 1) * GAMMA mod 2**64 for i < _TILE: the counters of a tile, less its offset.

    Read-only, since every call shares it.
    """
    steps = np.arange(1, _TILE + 1, dtype=np.uint64) * np.uint64(GAMMA)
    steps.flags.writeable = False
    return steps


def stream_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the stream, as a uint64 array.

    The block is built one cache-sized tile of _TILE draws at a time:
    the counters of the tile at lo are the table (i + 1) * GAMMA plus
    the one offset (seed + (start + lo) * GAMMA) mod 2**64, and the
    finalizer runs in place on them, with one tile of scratch for the
    shifts; uint64 arithmetic wraps mod 2**64.
    """
    z = np.empty(count, dtype=np.uint64)
    tmp = np.empty(min(count, _TILE), dtype=np.uint64)
    for lo in range(0, count, _TILE):
        tile = z[lo : lo + _TILE]
        scratch = tmp[: tile.size]
        offset = np.uint64((seed + (start + lo) * GAMMA) & _MASK64)
        np.add(_tile_steps()[: tile.size], offset, out=tile)
        for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
            np.right_shift(tile, np.uint64(shift), out=scratch)
            tile ^= scratch
            tile *= np.uint64(mult)
        np.right_shift(tile, np.uint64(31), out=scratch)
        tile ^= scratch
    return z


def threshold_u64(p: Fraction) -> int:
    """Largest t in [0, 2**64] with t/2**64 <= p; draw < t has probability ~p."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability out of range: {p}")
    return (p.numerator << 64) // p.denominator


def bernoulli_block(seed: int, start: int, count: int, p: Fraction) -> np.ndarray:
    """Bernoulli(p) bools of draws [start, start+count): draw < threshold_u64(p)."""
    t = threshold_u64(Fraction(p))
    if t in (0, 1 << 64):
        return np.full(count, t > 0)
    bits = np.empty(count, dtype=bool)
    for lo in range(0, count, _TILE):
        hi = min(count, lo + _TILE)
        np.less(stream_block(seed, start + lo, hi - lo), np.uint64(t), out=bits[lo:hi])
    return bits


class CounterRng:
    """Sequential cursor over a SplitMix64 counter stream.

    Consumption is the unit of reproducibility: an operation that
    documents "consumes k draws" advances the cursor by exactly k, so
    independently written code can line up with the same stream.
    """

    def __init__(self, seed: int, cursor: int = 0):
        self.seed = seed & _MASK64
        self.cursor = cursor

    def next_u64(self) -> int:
        value = stream_at(self.seed, self.cursor)
        self.cursor += 1
        return value

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` raw draws as uint64."""
        block = stream_block(self.seed, self.cursor, count)
        self.cursor += count
        return block

    def bernoulli(self, p: Fraction, count: int) -> np.ndarray:
        """Next ``count`` Bernoulli(p) draws as a bool array (consumes count)."""
        bits = bernoulli_block(self.seed, self.cursor, count, p)
        self.cursor += count
        return bits
