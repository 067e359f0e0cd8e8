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

Bernoulli draws with success probability ``p`` compare a raw 64-bit
draw against ``threshold_u64(p)``; the comparison is exact whenever
``p * 2**64`` is an integer (which covers every dyadic ``p`` with
exponent <= 64), and biased by less than 2**-64 otherwise.  The one
route to Bernoulli bits is :func:`bernoulli_block`: it makes the same
stream draws a cache-sized tile at a time and thresholds each tile into
the bool output, so no uint64 copy of a whole block is held.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_TILE = 1 << 15  # draws per tile of bernoulli_block: 256 KiB of uint64 at a time
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


def stream_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the stream, as a uint64 array.

    The finalizer runs in place on the one output array, with one
    scratch array for the shifts; uint64 arithmetic wraps mod 2**64.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & _MASK64)
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
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
