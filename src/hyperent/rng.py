"""Counter-based pseudo-random generator (SplitMix64).

The generator is stateless: draw number ``i`` of the stream with 64-bit
seed ``s`` is

    mix64((s + (i + 1) * GAMMA) mod 2**64)

with ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` the SplitMix64
finalizer (two xor-shift-multiply rounds, constants 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, final ``z ^ (z >> 31)``).

Any language with 64-bit unsigned arithmetic reproduces the stream, and
draws can be generated at arbitrary positions out of order.  That is
what makes parallel sampling deterministic with no child streams: a run
reads one stream, that of its root seed, and each of its samples owns a
fixed range of positions in it, whichever process computes the sample
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Draws are made one cache-sized tile at a time by :func:`_mix_tile`,
each tile's counters a cached table plus one offset.

The one route to Bernoulli choices is :func:`bernoulli_block`, and it
has two layouts.  At p = 1/2 a choice is one stream bit: choice ``j``
is bit ``j & 63`` (bit 0 the lowest) of draw ``j >> 6``, and the choice
is made when that bit is 1, so 64 choices share one draw.  At any other
p, choice ``j`` is draw ``j`` compared with ``threshold_u64(p)``; the
comparison is exact whenever ``p * 2**64`` is an integer (which covers
every dyadic ``p`` with exponent <= 64), and biased by less than 2**-64
otherwise.  Either way it mixes every tile of a call into the same two
uint64 tiles, allocated once per call or handed in by a caller that
draws many blocks (:func:`bernoulli_tiles`), and writes each tile's
choices into the bool output (or a caller's buffer), so no uint64 copy
of a whole block is held.  When the threshold is a multiple of 2**33
(every p != 1/2 whose denominator is a power of two up to 2**31) the
final xor-shift cannot change the comparison and is skipped; see
:func:`bernoulli_block`.

The p = 1/2 layout also has a packed form, :func:`half_rows`: the
stream read as one little-endian bit string, choice ``j`` at bit
``j & 7`` of byte ``j >> 3`` of the draws' bytes, cut into rows of
``cols`` consecutive choices and padded to whole words.  It is the
bools of :func:`bernoulli_block` at p = 1/2, packed, with no bool ever
made.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_TILE = 1 << 15  # draws per tile of stream_block and bernoulli_block: 256 KiB of uint64
_BIT_TILE = _TILE >> 3  # draws per tile of bernoulli_block at p = 1/2: 2^18 choices
_ROW_TILE = _TILE  # draws per tile of half_rows: 256 KiB of packed choices
_HALF = Fraction(1, 2)
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


def bernoulli_tiles(count: int) -> np.ndarray:
    """The uint64 tile and scratch tile, one (2, w) array, of calls of at most count draws."""
    return np.empty((2, min(count, _TILE)), dtype=np.uint64)


def bernoulli_block(
    seed: int,
    start: int,
    count: int,
    p: Fraction,
    out: np.ndarray | None = None,
    tiles: np.ndarray | None = None,
) -> np.ndarray:
    """Bernoulli(p) bools of choices [start, start+count) of the stream.

    At p = 1/2 choice j is bit j & 63 of draw j >> 6, at any other p it
    is draw j < threshold_u64(p).  Written into ``out`` (a 1-d bool
    array of count entries) when given, else into a new array; either is
    returned.  Every tile is mixed into the same uint64 tile and scratch
    tile: the rows of ``tiles``, from :func:`bernoulli_tiles` of at
    least count, when given, else new ones.

    At p = 1/2 a tile holds at most ``_BIT_TILE`` draws; it is unpacked
    low bit first, and the choices it holds are copied into the output,
    so a call holds one tile's unpacked bits (256 KiB) beside its output.

    Top bits decide a threshold t with t mod 2**33 = 0.  Let pre(z) be
    a draw before its final xor-shift, so the draw is
    pre(z) ^ (pre(z) >> 31).  The shifted term is below 2**33, so the
    xor leaves bits 33-63 as they are, and a 64-bit value v lies below
    t = c * 2**33 exactly when floor(v / 2**33) < c.  Draw and pre(z)
    share that floor, so draw < t iff pre(z) < t, and the final step is
    skipped.  That covers every p = m / 2**k with k <= 31 but 1/2.
    """
    p = Fraction(p)
    t = threshold_u64(p)
    bits = np.empty(count, dtype=bool) if out is None else out
    if count == 0 or t in (0, 1 << 64):
        bits[:] = t > 0
        return bits
    tile, scratch = bernoulli_tiles(count) if tiles is None else tiles
    if p == _HALF:
        end = start + count
        stop = (end + 63) >> 6  # one past the draw of the last choice
        width = min(tile.size, _BIT_TILE)
        dst = bits.view(np.uint8)  # 0/1 bytes are valid bools
        for d in range(start >> 6, stop, width):
            n = min(width, stop - d)
            _mix_tile(tile[:n], scratch[:n], seed + d * GAMMA)
            lo, hi = max(start, d << 6), min(end, (d + n) << 6)
            unpacked = np.unpackbits(tile[:n].view(np.uint8), bitorder="little")
            dst[lo - start : hi - start] = unpacked[lo - (d << 6) : hi - (d << 6)]
            del unpacked  # so the next tile's bits are not held beside these
        return bits
    last = t % (1 << 33) != 0
    for lo in range(0, count, _TILE):
        n = min(_TILE, count - lo)
        _mix_tile(tile[:n], scratch[:n], seed + (start + lo) * GAMMA, last)
        np.less(tile[:n], np.uint64(t), out=bits[lo : lo + n])
    return bits


def half_rows(seed: int, start: int, count: int, cols: int, dtype) -> np.ndarray:
    """(count, words) rows of cols p = 1/2 choices each, from choice start on, packed.

    Row r holds choices [start + r cols, start + (r + 1) cols), choice
    start + r cols + c at bit c of the row: bit c mod b of word c // b,
    for the b-bit unsigned word type dtype.  A row takes the fewest
    words that hold cols bits, and its padding bits are zero, so with
    dtype ``gf2.word_dtype(cols)`` the rows are
    ``gf2.pack_rows(bernoulli_block(seed, start, count * cols, 1/2)
    .reshape(count, cols))``, made without a bool.

    Row r starts at bit (start + r cols) & 7 of byte (start + r cols) >> 3
    of the draws' bytes, and rows period = 8 / gcd(cols, 8) apart start
    at the same bit, period * cols / 8 bytes apart.  So each of the
    period bit phases is one strided view of the draws' bytes: a row at
    bit 0 is its bytes as they are (every row, when start and cols are
    multiples of 8), and a row at bit f > 0 takes byte j of the view as
    (view[j] >> f) | (view[j + 1] << 8 - f).  Bits past cols in a row's
    last byte are cleared.  The draws are made by :func:`stream_block`
    one tile of at most ``_ROW_TILE`` draws at a time (or of one row, for
    rows wider than that), and each tile's rows are copied out before
    the next, so a call holds its output and one tile.
    """
    dtype = np.dtype(dtype)
    row_bytes = -(-cols // (8 * dtype.itemsize)) * dtype.itemsize
    full = (cols + 7) >> 3  # bytes that hold a row's bits
    out = np.empty((count, row_bytes), dtype=np.uint8)
    out[:, full:] = 0
    period = 8 // math.gcd(cols, 8)
    step = period * cols >> 3  # bytes between rows of one phase
    rows = max(1, (_ROW_TILE - 2) * 64 // cols)  # rows per tile
    for lo in range(0, count, rows):
        m = min(rows, count - lo)
        first = start + lo * cols
        offset = first & 63  # bit of the tile's first draw where row lo starts
        # the last row's view reads one byte past its bits
        src = stream_block(seed, first >> 6, ((offset + (m - 1) * cols >> 3) + full + 8) >> 3)
        src = src.view(np.uint8)
        for k in range(min(period, m)):
            bit = offset + k * cols
            phase, n = bit & 7, (m - k + period - 1) // period
            view = np.lib.stride_tricks.as_strided(
                src[bit >> 3 :], shape=(n, full + 1), strides=(step, 1), writeable=False
            )
            dst = out[lo + k : lo + m : period, :full]
            if phase:
                np.right_shift(view[:, :full], phase, out=dst)
                dst |= view[:, 1:] << 8 - phase
            else:
                dst[...] = view[:, :full]
    if cols & 7:
        out[:, full - 1] &= (1 << (cols & 7)) - 1
    return out.view(dtype)


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
        """Next ``count`` Bernoulli(p) choices as a bool array.

        At p = 1/2 they are the choices [64 * cursor, 64 * cursor + count),
        bits of the next draws, and the call consumes ceil(count / 64)
        draws; at any other p it consumes count draws, one per choice.
        """
        if Fraction(p) == _HALF:
            bits = bernoulli_block(self.seed, self.cursor << 6, count, p)
            self.cursor += (count + 63) >> 6
        else:
            bits = bernoulli_block(self.seed, self.cursor, count, p)
            self.cursor += count
        return bits
