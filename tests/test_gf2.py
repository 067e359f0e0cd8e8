"""GF(2) rank correctness, sampling statistics, and batch elimination."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperent.formulas import rank_defect_probability
from hyperent.gf2 import (
    Gf2Matrix,
    RankHistogram,
    batch_rank,
    empirical_rank_distribution,
    pack_rows,
    random_matrix,
    rank,
)
from hyperent.rng import CounterRng

from reference import ref_gf2_rank


def test_rank_trivial_cases():
    assert rank(Gf2Matrix.zeros(3, 3)) == 0
    for n in [4, 65, 130]:
        assert rank(Gf2Matrix.from_dense(np.eye(n, dtype=np.uint8))) == n
    # third row is the sum of the first two
    m = Gf2Matrix.from_dense([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
    assert rank(m) == 2


def test_rank_copies_input():
    m = random_matrix(6, 6, CounterRng(1))
    before = m.row_words.copy()
    rank(m)
    assert np.array_equal(m.row_words, before)


def test_all_ones_rank_one():
    for n in [1, 3, 17, 65]:
        m = Gf2Matrix.from_dense(np.ones((n, n), dtype=np.uint8))
        assert rank(m) == 1


def test_rank_matches_dense_reference():
    rnd = random.Random(11)
    for _ in range(50):
        rows = rnd.randint(1, 12)
        cols = rnd.randint(1, 12)
        dense = [[rnd.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank(Gf2Matrix.from_dense(dense)) == ref_gf2_rank(dense)


def test_rank_invariant_under_row_operations():
    rng = CounterRng(5)
    rnd = random.Random(5)
    for _ in range(20):
        m = random_matrix(8, 8, rng)
        base = rank(m)
        dense = m.to_dense()
        for _ in range(10):
            i, j = rnd.sample(range(8), 2)
            dense[[i, j]] = dense[[j, i]]  # swap
            dense[i] ^= dense[j]  # add one row to another
        assert rank(Gf2Matrix.from_dense(dense)) == base


def test_rank_equals_transpose_rank():
    rng = CounterRng(6)
    for size in [5, 17, 33, 64]:
        m = random_matrix(size, size, rng)
        assert rank(m) == rank(Gf2Matrix.from_dense(m.to_dense().T))


def test_random_matrix_reproducible():
    a = random_matrix(5, 70, CounterRng(123))
    b = random_matrix(5, 70, CounterRng(123))
    assert np.array_equal(a.row_words, b.row_words)
    assert a.cols == 70 and a.row_words.shape == (5, 2)
    # tail bits beyond column 70 must be masked off
    assert not np.any(a.row_words[:, -1] >> np.uint64(6))


def test_random_matrix_bit_frequency():
    rng = CounterRng(77)
    ones = sum(random_matrix(1, 1, rng).get(0, 0) for _ in range(100_000))
    assert abs(ones / 100_000 - 0.5) < 0.01


def test_random_2x2_rank0_frequency():
    rng = CounterRng(78)
    zero = 0
    for _ in range(10_000):
        m = random_matrix(2, 2, rng)
        if rank(m) == 0:
            zero += 1
    assert abs(zero / 10_000 - 1 / 16) < 0.012


def test_batch_rank_matches_scalar():
    rng = CounterRng(9)
    for rows, cols in [(4, 4), (7, 3), (3, 7), (9, 100), (16, 16)]:
        stack = np.stack([random_matrix(rows, cols, rng).row_words for _ in range(40)])
        got = batch_rank(stack, cols)
        for i in range(40):
            assert got[i] == rank(Gf2Matrix(rows, cols, stack[i]))


def test_batch_rank_leaves_input_alone():
    stack = np.stack([random_matrix(5, 5, CounterRng(3)).row_words for _ in range(4)])
    before = stack.copy()
    batch_rank(stack, 5)
    assert np.array_equal(stack, before)


def test_histogram_merge_and_invariants():
    a = RankHistogram(4)
    a.add(0, 3)
    a.add(1, 2)
    b = RankHistogram(4)
    b.add(1, 5)
    merged = a.merge(b)
    assert merged.samples == 10
    assert merged.counts == {0: 3, 1: 7}
    assert sum(merged.counts.values()) == merged.samples
    with pytest.raises(ValueError):
        a.add(5)
    with pytest.raises(ValueError):
        a.merge(RankHistogram(3))


def test_empirical_distribution_matches_closed_form():
    samples = 60_000
    hist = empirical_rank_distribution(16, samples, CounterRng(2024))
    assert hist.samples == samples
    for s in range(4):
        q = rank_defect_probability(s)
        sigma = math.sqrt(q * (1 - q) / samples)
        assert abs(hist.frequency(s) - q) <= 5 * sigma, f"defect {s}"


def test_empirical_distribution_validates_samples():
    with pytest.raises(ValueError):
        empirical_rank_distribution(4, 0, CounterRng(0))
    for n in [0, -3]:
        with pytest.raises(ValueError):
            empirical_rank_distribution(n, 10, CounterRng(0))


def test_from_dense_packing():
    dense = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]]
    m = Gf2Matrix.from_dense(dense)
    assert m.row_words[:, 0].tolist() == [0b0011, 0b0110, 0b0101]
    assert m.to_dense().tolist() == dense
    assert rank(m) == 2
    # column 69 is bit 5 of the second word
    wide = Gf2Matrix.from_dense(np.eye(70, dtype=np.uint8)[69:])
    assert wide.row_words.tolist() == [[0, 1 << 5]]
    with pytest.raises(ValueError):
        Gf2Matrix(1, 4, np.array([[0b10000]], dtype=np.uint64))


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
def test_pack_rows_matches_dense_unpack(width):
    # entry j at word j >> 6, bit j & 63, zero padding, leading batch axes kept
    bits = np.random.default_rng(width).integers(0, 2, (3, 2, 5, width), dtype=np.uint8)
    words = pack_rows(bits)
    n_w = (width + 63) // 64
    assert words.dtype == np.uint64 and words.shape == (3, 2, 5, n_w)
    j = np.arange(64 * n_w)
    unpacked = words[..., j >> 6] >> (j & 63).astype(np.uint64) & np.uint64(1)
    assert np.array_equal(unpacked[..., :width], bits)
    assert not unpacked[..., width:].any()
    assert np.array_equal(pack_rows(bits.astype(bool)), words)
    assert np.array_equal(pack_rows(bits[1, 0]), words[1, 0])


def test_empirical_distribution_multiword():
    # n > 64 exercises multi-word rows in the batched elimination
    hist = empirical_rank_distribution(80, 60, CounterRng(2))
    assert hist.samples == 60
    assert all(0 <= s <= 80 for s in hist.counts)
    assert max(hist.counts) <= 4  # large defects are astronomically unlikely


@st.composite
def _gf2_stacks(draw):
    """Stacks of rows x cols products A.B mod 2; a small inner dimension gives rank defects."""
    rows = draw(st.integers(0, 70), label="rows")
    cols = draw(st.integers(1, 130), label="cols")
    batch = draw(st.integers(1, 6), label="batch")
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mats = []
    for _ in range(batch):
        inner = draw(st.integers(0, min(rows, cols) + 1), label="inner")
        a = rnd.integers(0, 2, size=(rows, inner))
        b = rnd.integers(0, 2, size=(inner, cols))
        mats.append(((a @ b) & 1).astype(np.uint8))
    return cols, mats


@settings(deadline=None)
@given(_gf2_stacks())
def test_batch_rank_matches_dense_oracle(case):
    # multi-word rows, rows != cols, zero and dependent rows, rank defects
    cols, mats = case
    stack = np.stack([Gf2Matrix.from_dense(d).row_words for d in mats])
    before = stack.copy()
    got = batch_rank(stack, cols)
    assert got.tolist() == [ref_gf2_rank(d) for d in mats]
    assert np.array_equal(stack, before)
