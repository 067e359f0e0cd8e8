"""Counter stream reproducibility and Bernoulli threshold contracts."""

from fractions import Fraction

import numpy as np

from hyperent.rng import CounterRng, child_seed, mix64, stream_at, stream_block, threshold_u64

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
