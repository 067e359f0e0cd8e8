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
Draws are made one cache-sized tile at a time by :func:`_mix_tile`,
each tile's counters a cached table plus one offset.

Bernoulli draws with success probability ``p`` compare a raw 64-bit
draw against ``threshold_u64(p)``; the comparison is exact whenever
``p * 2**64`` is an integer (which covers every dyadic ``p`` with
exponent <= 64), and biased by less than 2**-64 otherwise.  The one
route to Bernoulli bits is :func:`bernoulli_block`: it mixes every tile
of a call into the same two uint64 tiles, allocated once per call, and
thresholds each into the bool output (or a caller's buffer), so no
uint64 copy of a whole block is held.  When the threshold is a multiple
of 2**33 (p = 1/2, and every p whose denominator is a power of two up
to 2**31) the final xor-shift cannot change the comparison and is
skipped; see :func:`bernoulli_block`.
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


def _mix_tile(tile: np.ndarray, scratch: np.ndarray, offset: int, last: bool = True) -> None:
    """Fill tile in place with the draws whose counters are the table plus offset.

    The counters of a tile are the table (i + 1) * GAMMA plus the one
    offset (seed + first index * GAMMA) mod 2**64, and the finalizer runs
    in place on them, with scratch (as long as tile) for the shifts;
    uint64 arithmetic wraps mod 2**64.  ``last=False`` stops before the
    final ``z ^ (z >> 31)``.
    """
    np.add(_tile_steps()[: tile.size], np.uint64(offset & _MASK64), out=tile)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(tile, np.uint64(shift), out=scratch)
        tile ^= scratch
        tile *= np.uint64(mult)
    if last:
        np.right_shift(tile, np.uint64(31), out=scratch)
        tile ^= scratch


def stream_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the stream, as a uint64 array, one tile at a time."""
    z = np.empty(count, dtype=np.uint64)
    scratch = np.empty(min(count, _TILE), dtype=np.uint64)
    for lo in range(0, count, _TILE):
        tile = z[lo : lo + _TILE]
        _mix_tile(tile, scratch[: tile.size], seed + (start + lo) * GAMMA)
    return z


def threshold_u64(p: Fraction) -> int:
    """Largest t in [0, 2**64] with t/2**64 <= p; draw < t has probability ~p."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability out of range: {p}")
    return (p.numerator << 64) // p.denominator


def bernoulli_block(
    seed: int, start: int, count: int, p: Fraction, out: np.ndarray | None = None
) -> np.ndarray:
    """Bernoulli(p) bools of draws [start, start+count): draw < threshold_u64(p).

    Written into ``out`` (a 1-d bool array of count entries) when given,
    else into a new array; either is returned.  Every tile is mixed into
    the same uint64 tile and scratch tile.

    Top bits decide a threshold t with t mod 2**33 = 0.  Let pre(z) be
    a draw before its final xor-shift, so the draw is
    pre(z) ^ (pre(z) >> 31).  The shifted term is below 2**33, so the
    xor leaves bits 33-63 as they are, and a 64-bit value v lies below
    t = c * 2**33 exactly when floor(v / 2**33) < c.  Draw and pre(z)
    share that floor, so draw < t iff pre(z) < t, and the final step is
    skipped.  That covers p = 1/2 and every p = m / 2**k with k <= 31.
    """
    t = threshold_u64(Fraction(p))
    bits = np.empty(count, dtype=bool) if out is None else out
    if t in (0, 1 << 64):
        bits[:] = t > 0
        return bits
    tile = np.empty(min(count, _TILE), dtype=np.uint64)
    scratch = np.empty_like(tile)
    last = t % (1 << 33) != 0
    for lo in range(0, count, _TILE):
        n = min(_TILE, count - lo)
        _mix_tile(tile[:n], scratch[:n], seed + (start + lo) * GAMMA, last)
        np.less(tile[:n], np.uint64(t), out=bits[lo : lo + n])
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
