"""Counter stream reproducibility and Bernoulli threshold contracts."""

from fractions import Fraction

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperent.rng as rng_mod
from hyperent.gf2 import pack_rows, word_dtype
from hyperent.rng import (
    _TILE as TILE,
    GAMMA,
    CounterRng,
    bernoulli_block,
    bernoulli_tiles,
    half_rows,
    mix64,
    stream_at,
    stream_block,
    threshold_u64,
)

PROBABILITIES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
# thresholds that are multiples of 2^33, whose draws skip the last xor-shift,
# the extreme ones of either kind, and non-dyadic ones
BLOCK_PROBABILITIES = PROBABILITIES + [
    Fraction(1, 4),
    Fraction(3, 8),
    Fraction(1, 1 << 31),
    Fraction((1 << 31) - 1, 1 << 31),
    Fraction(1, 1 << 32),
    Fraction(3, 10),
]

# Reference outputs of the SplitMix64 sequence seeded with 1234567
# (first three next() calls of the published C implementation).
SPLITMIX_1234567 = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_matches_published_splitmix_sequence():
    assert [stream_at(1234567, i) for i in range(3)] == SPLITMIX_1234567


def test_block_equals_pointwise():
    block = stream_block((1 << 64) - 3, 5, 40)
    assert block.dtype == np.uint64
    assert block.tolist() == [stream_at((1 << 64) - 3, 5 + i) for i in range(40)]


def test_mix64_is_64_bit():
    for x in [0, 1, (1 << 64) - 1, 0xDEADBEEF]:
        assert 0 <= mix64(x) < 1 << 64


def test_cursor_advances_like_block():
    rng = CounterRng(42)
    first = [rng.next_u64() for _ in range(4)]
    rest = rng.take(4)
    assert rng.cursor == 8
    assert first + rest.tolist() == stream_block(42, 0, 8).tolist()


def test_bernoulli_thresholds():
    assert threshold_u64(Fraction(0)) == 0
    assert threshold_u64(Fraction(1)) == 1 << 64
    assert threshold_u64(Fraction(1, 2)) == 1 << 63
    rng = CounterRng(0)
    assert not CounterRng(0).bernoulli(Fraction(0), 1000).any()
    assert CounterRng(0).bernoulli(Fraction(1), 1000).all()
    frac = CounterRng(0).bernoulli(Fraction(1, 2), 100_000).mean()
    assert abs(frac - 0.5) < 0.01
    assert rng.bernoulli(Fraction(1, 2), 10).tolist() == CounterRng(0).bernoulli(
        Fraction(1, 2), 10
    ).tolist()


def test_bernoulli_rejects_bad_probability():
    try:
        threshold_u64(Fraction(3, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_block_wraps_past_2_32_and_at_top_seed():
    # the in-place finalizer must keep every uint64 wraparound of the pointwise formula
    top = (1 << 64) - 1
    for seed, start in [(top, (1 << 32) + 3), (top, (1 << 40) - 7), (0, 1 << 33)]:
        block = stream_block(seed, start, 50)
        assert block.dtype == np.uint64 and block.shape == (50,)
        assert block.tolist() == [stream_at(seed, start + i) for i in range(50)]


@pytest.mark.parametrize("count", [0, 1, TILE - 1, TILE, TILE + 1])
@pytest.mark.parametrize("seed, start", [(7, 0), ((1 << 64) - 3, (1 << 40) + 5)])
def test_block_tiles_equal_pointwise(count, seed, start):
    # each tile is the (i + 1) * GAMMA table plus one offset, and the
    # offset of every tile after the first wraps 2^64 here
    assert seed + (start + TILE) * GAMMA >= 1 << 64
    block = stream_block(seed, start, count)
    assert block.dtype == np.uint64 and block.shape == (count,)
    assert block.tolist() == [stream_at(seed, start + i) for i in range(count)]


HALF = Fraction(1, 2)


def _thresholded(seed, start, count, p):
    # reference: the whole block drawn at once, then compared with the
    # threshold, or at p = 1/2 unpacked, choice j being bit j & 63 of draw j >> 6
    if p == HALF:
        first = start >> 6
        draws = stream_block(seed, first, ((start + count + 63) >> 6) - first)
        bits = np.unpackbits(draws.view(np.uint8), bitorder="little").astype(bool)
        return bits[start - 64 * first :][:count]
    t = threshold_u64(p)
    if t >= 1 << 64:
        return np.ones(count, dtype=bool)
    return stream_block(seed, start, count) < np.uint64(t)


def _scalar_bits(seed, start, count):
    """Choices [start, start + count) at p = 1/2 from stream_at: bit j & 63 of draw j >> 6."""
    first = start >> 6
    draws = [stream_at(seed, d) for d in range(first, (start + count + 63) >> 6)]
    return [draws[(j >> 6) - first] >> (j & 63) & 1 == 1 for j in range(start, start + count)]


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    start=st.integers(0, 1 << 40) | st.integers(0, 200),
    count=st.integers(0, 300)
    | st.sampled_from([63, 64, 65, 64 * rng_mod._BIT_TILE - 1, 64 * rng_mod._BIT_TILE + 70]),
    tile_draws=st.sampled_from([1, 2, 3, 5, rng_mod._BIT_TILE]),
)
@example(seed=(1 << 64) - 1, start=(1 << 40) + 37, count=64 * rng_mod._BIT_TILE + 70,
         tile_draws=rng_mod._BIT_TILE)
def test_half_choices_are_stream_bits(seed, start, count, tile_draws):
    # the p = 1/2 path against the scalar reference, from starts inside a
    # draw and across tile boundaries: narrow tiles put many in a call
    want = _scalar_bits(seed, start, count)
    with mock.patch.object(rng_mod, "_BIT_TILE", tile_draws):
        assert bernoulli_block(seed, start, count, HALF).tolist() == want
        out = np.zeros(count + 2, dtype=bool)
        tiles = bernoulli_tiles(count + 3)  # wider than the call needs
        bernoulli_block(seed, start, count, HALF, out=out[1 : count + 1], tiles=tiles)
    assert out[1 : count + 1].tolist() == want and not out[0] and not out[-1]


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(-(1 << 70), -1)
    | st.integers(1 << 64, 1 << 70)
    | st.integers(0, (1 << 64) - 1),
    start=st.integers(0, 1 << 40) | st.integers(0, 200),
    cols=st.integers(1, 200),
    count=st.integers(0, 300),
    tile_draws=st.sampled_from([1, 3, 5, 8, 17, rng_mod._ROW_TILE]),
)
@example(seed=-1, start=(1 << 40) + 3, cols=193, count=70, tile_draws=5)
@example(seed=1 << 64, start=5, cols=16, count=300, tile_draws=17)
def test_half_rows_are_packed_half_choices(seed, start, cols, count, tile_draws):
    # the packed reader against bernoulli_block's bools, packed: seeds
    # reduced mod 2^64, starts inside a byte, every word type and 1-4
    # uint64 words per row, and rows that cross narrow tiles
    dtype = word_dtype(cols)
    want = pack_rows(bernoulli_block(seed, start, count * cols, HALF).reshape(count, cols))
    with mock.patch.object(rng_mod, "_ROW_TILE", tile_draws):
        got = half_rows(seed, start, count, cols, dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", BLOCK_PROBABILITIES)
@pytest.mark.parametrize("count", [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
@settings(deadline=None, max_examples=5)
@given(
    seed=st.integers((1 << 64) - 1000, (1 << 64) - 1) | st.integers(0, (1 << 64) - 1),
    start=st.integers(0, 1 << 40),
)
@example(seed=(1 << 64) - 3, start=(1 << 40) + 5)
def test_bernoulli_block_equals_thresholded_stream(count, p, seed, start):
    bits = bernoulli_block(seed, start, count, p)
    assert bits.dtype == bool and bits.shape == (count,)
    assert np.array_equal(bits, _thresholded(seed, start, count, p))
    out = np.ones(count + 3, dtype=bool)
    assert bernoulli_block(seed, start, count, p, out=out[:count]) is not None
    assert np.array_equal(out[:count], bits) and out[count:].all()
    # tiles handed in, wider than the call needs and used twice: the same bits
    tiles = bernoulli_tiles(count + 7)
    for _ in range(2):
        assert np.array_equal(bernoulli_block(seed, start, count, p, tiles=tiles), bits)


def test_half_choices_hold_one_tile_of_unpacked_bits():
    # a 2^21-choice piece at p = 1/2 unpacks one tile at a time into the
    # caller's buffer: no uint8 temporary as large as the piece
    count = 1 << 21
    out, tiles = np.empty(count, dtype=bool), bernoulli_tiles(count)
    bernoulli_block(3, 37, 1, HALF, tiles=tiles)  # builds the cached counter table
    tracemalloc.start()
    try:
        bernoulli_block(3, 37, count, HALF, out=out, tiles=tiles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * rng_mod._BIT_TILE + (16 << 10) < count // 4
    assert out.tolist() == _thresholded(3, 37, count, HALF).tolist()


def test_top_bit_thresholds_skip_the_last_xor_shift(monkeypatch):
    # exactly the thresholds with t mod 2^33 = 0 leave the last step out;
    # p = 0 and p = 1 mix no draws at all, and p = 1/2 mixes whole draws,
    # whose every bit is a choice: TILE + 1 of them span one tile of 513 draws
    calls = []
    real = rng_mod._mix_tile
    monkeypatch.setattr(rng_mod, "_mix_tile", lambda *a: calls.append(a[3:]) or real(*a))
    skipped = {}
    for p in BLOCK_PROBABILITIES:
        calls.clear()
        bernoulli_block(5, 0, TILE + 1, p)
        skipped[p] = [a[0] if a else True for a in calls]
    top_bits = {Fraction(3, 4), Fraction(1, 4), Fraction(3, 8),
                Fraction(1, 1 << 31), Fraction((1 << 31) - 1, 1 << 31)}
    assert skipped == {
        p: [] if p in (0, 1) else [True] if p == HALF else [p not in top_bits] * 2
        for p in BLOCK_PROBABILITIES
    }


def test_bernoulli_cursor_and_bits_unchanged():
    # each call consumes exactly count draws, and gives the choices of those
    # draws; at p = 1/2 it reads count bits from bit 64 * cursor and
    # consumes ceil(count / 64) draws
    top = (1 << 64) - 2
    for p in PROBABILITIES:
        rng = CounterRng(top, cursor=5)
        cursor = 5
        for count in [0, 1, TILE + 1, 7, 64, 65]:
            bits = rng.bernoulli(p, count)
            if p == HALF:
                assert bits.tolist() == _scalar_bits(top, 64 * cursor, count)
                cursor += -(-count // 64)
            else:
                assert np.array_equal(bits, _thresholded(top, cursor, count, p))
                cursor += count
            assert rng.cursor == cursor
        assert rng.next_u64() == stream_at(top, cursor)
    low = [stream_at(3, 2) >> j & 1 == 1 for j in range(3)]
    assert CounterRng(3, cursor=2).bernoulli(HALF, 3).tolist() == low
