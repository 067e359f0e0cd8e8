"""Counter stream reproducibility and Bernoulli threshold contracts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperent.rng as rng_mod
from hyperent.rng import (
    _TILE as TILE,
    GAMMA,
    CounterRng,
    bernoulli_block,
    child_seed,
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


def test_child_seed_is_parent_draw():
    assert child_seed(99, 7) == stream_at(99, 7)
    assert child_seed(99, 0) != 99


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


def _thresholded(seed, start, count, p):
    # reference: the whole block drawn at once, then compared with the threshold
    t = threshold_u64(p)
    if t >= 1 << 64:
        return np.ones(count, dtype=bool)
    return stream_block(seed, start, count) < np.uint64(t)


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


def test_top_bit_thresholds_skip_the_last_xor_shift(monkeypatch):
    # exactly the thresholds with t mod 2^33 = 0 leave the last step out;
    # p = 0 and p = 1 mix no draws at all
    calls = []
    real = rng_mod._mix_tile
    monkeypatch.setattr(rng_mod, "_mix_tile", lambda *a: calls.append(a[3:]) or real(*a))
    skipped = {}
    for p in BLOCK_PROBABILITIES:
        calls.clear()
        bernoulli_block(5, 0, TILE + 1, p)
        skipped[p] = [last for (last,) in calls]
    top_bits = {Fraction(1, 2), Fraction(3, 4), Fraction(1, 4), Fraction(3, 8),
                Fraction(1, 1 << 31), Fraction((1 << 31) - 1, 1 << 31)}
    assert skipped == {
        p: [] if p in (0, 1) else [p not in top_bits] * 2 for p in BLOCK_PROBABILITIES
    }


def test_bernoulli_cursor_and_bits_unchanged():
    # each call consumes exactly count draws, and gives the bits of those draws
    top = (1 << 64) - 2
    for p in PROBABILITIES:
        rng = CounterRng(top, cursor=5)
        cursor = 5
        for count in [0, 1, TILE + 1, 7]:
            bits = rng.bernoulli(p, count)
            assert np.array_equal(bits, _thresholded(top, cursor, count, p))
            cursor += count
            assert rng.cursor == cursor
        assert rng.next_u64() == stream_at(top, cursor)
