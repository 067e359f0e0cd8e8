"""GF(2) rank correctness, sampling statistics, and batch elimination."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperent.gf2 as gf2_mod
from hyperent.formulas import rank_defect_probability
from hyperent.gf2 import (
    RankHistogram,
    _random_words,
    _rank_law,
    batch_rank,
    empirical_rank_distribution,
    pack_rows,
    word_dtype,
)
from hyperent.rng import CounterRng

from reference import ref_gf2_rank


def _rank(dense) -> int:
    """Rank of one dense 0/1 matrix through the packed route, as a stack of one."""
    dense = np.asarray(dense, dtype=np.uint8)
    return int(batch_rank(pack_rows(dense)[np.newaxis], dense.shape[1])[0])


def _dense(words: np.ndarray, cols: int) -> np.ndarray:
    """0/1 entries of a packed (..., words) array, cut to cols columns."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :cols]


def test_rank_trivial_cases():
    assert _rank(np.zeros((3, 3))) == 0
    for n in [4, 65, 130]:
        assert _rank(np.eye(n)) == n
    # third row is the sum of the first two
    assert _rank([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]]) == 2


def test_rank_copies_input():
    # a strided view of a stack is ranked like its copy and left unchanged
    stack = _random_words(12, 6, 70, 1, 0)
    before = stack.copy()
    view = stack[::3]
    assert not view.flags.c_contiguous
    assert batch_rank(view, 70).tolist() == batch_rank(view.copy(), 70).tolist()
    assert np.array_equal(stack, before)


def test_all_ones_rank_one():
    for n in [1, 3, 17, 65]:
        assert _rank(np.ones((n, n))) == 1


def test_rank_matches_dense_reference():
    rnd = random.Random(11)
    for _ in range(50):
        rows = rnd.randint(1, 12)
        cols = rnd.randint(1, 12)
        dense = [[rnd.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert _rank(dense) == ref_gf2_rank(dense)


def test_rank_invariant_under_row_operations():
    rnd = random.Random(5)
    stack = _random_words(20, 8, 8, 5, 0)
    for dense, base in zip(_dense(stack, 8), batch_rank(stack, 8)):
        for _ in range(10):
            i, j = rnd.sample(range(8), 2)
            dense[[i, j]] = dense[[j, i]]  # swap
            dense[i] ^= dense[j]  # add one row to another
        assert _rank(dense) == base


def test_rank_equals_transpose_rank():
    for size in [5, 17, 33, 64]:
        dense = _dense(_random_words(1, size, size, 6, 0)[0], size)
        assert _rank(dense) == _rank(dense.T)


def test_random_matrix_reproducible():
    a = _random_words(1, 5, 70, 123, 0)
    b = _random_words(1, 5, 70, 123, 0)
    assert np.array_equal(a, b)
    assert a.shape == (1, 5, 2)
    # tail bits beyond column 70 must be masked off
    assert not np.any(a[..., -1] >> np.uint64(6))
    # matrix by matrix and row-major: a stack of two is two matrices of
    # 350 choices in a row, the second starting inside a draw
    pair = _random_words(2, 5, 70, 123, 0)
    assert np.array_equal(pair[:1], a)
    assert np.array_equal(pair[1:], _random_words(1, 5, 70, 123, 350))


def test_random_matrix_bit_frequency():
    words = _random_words(100_000, 1, 1, 77, 0)
    ones = int(np.count_nonzero(words))
    assert abs(ones / 100_000 - 0.5) < 0.01


def test_random_2x2_rank0_frequency():
    zero = int(np.count_nonzero(batch_rank(_random_words(10_000, 2, 2, 78, 0), 2) == 0))
    assert abs(zero / 10_000 - 1 / 16) < 0.012


def test_batch_rank_matches_scalar():
    # each matrix ranked alone, as a stack of one, agrees with the batch
    for rows, cols in [(4, 4), (7, 3), (3, 7), (9, 100), (16, 16)]:
        stack = _random_words(40, rows, cols, 9, rows * cols)
        got = batch_rank(stack, cols)
        for i in range(40):
            assert got[i] == batch_rank(stack[i : i + 1], cols)[0]
            assert got[i] == ref_gf2_rank(_dense(stack[i], cols))


def test_batch_rank_leaves_input_alone():
    stack = _random_words(4, 5, 5, 3, 0)
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
    words = pack_rows(np.array(dense, dtype=np.uint8))
    assert words[:, 0].tolist() == [0b0011, 0b0110, 0b0101]
    assert _dense(words, 4).tolist() == dense
    assert batch_rank(words[np.newaxis], 4).tolist() == [2]
    # column 69 is bit 5 of the second word
    assert pack_rows(np.eye(70, dtype=np.uint8)[69:]).tolist() == [[0, 1 << 5]]


_WORD_RULE = [(8, np.uint8), (16, np.uint16), (32, np.uint32)]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 130])
def test_pack_rows_matches_dense_unpack(width):
    # one word of the smallest unsigned type up to 32 columns, else uint64
    # words; entry j at word j // w, bit j % w for w-bit words, zero
    # padding, leading batch axes kept
    bits = np.random.default_rng(width).integers(0, 2, (3, 2, 5, width), dtype=np.uint8)
    words = pack_rows(bits)
    dtype = next((t for b, t in _WORD_RULE if width <= b), np.uint64)
    w = np.iinfo(dtype).bits
    n_w = (width + w - 1) // w
    assert words.dtype == dtype == word_dtype(width) and words.shape == (3, 2, 5, n_w)
    assert n_w == 1 or dtype == np.uint64
    j = np.arange(w * n_w)
    unpacked = words[..., j // w] >> (j % w).astype(dtype) & dtype(1)
    assert np.array_equal(unpacked[..., :width], bits)
    assert not unpacked[..., width:].any()
    assert np.array_equal(pack_rows(bits.astype(bool)), words)
    assert np.array_equal(pack_rows(bits[1, 0]), words[1, 0])


@pytest.mark.parametrize("cols", [8, 9, 16, 17, 32, 33, 64, 65])
def test_batch_rank_at_word_boundaries(cols):
    # the widest row of each word type and one column more, packed and drawn
    rnd = np.random.default_rng(cols)
    mats = []
    for rows in [cols, cols - 1, 3, 1]:
        inner = rnd.integers(0, min(rows, cols) + 2)
        a = rnd.integers(0, 2, size=(rows, inner))
        mats.append(((a @ rnd.integers(0, 2, size=(inner, cols))) & 1).astype(np.uint8))
    for dense in mats:
        packed = pack_rows(dense)
        assert packed.dtype == word_dtype(cols)
        assert batch_rank(packed[np.newaxis], cols).tolist() == [ref_gf2_rank(dense)]
    # the stream bits from choice 64 * 3 + 5 on, cols of them per row
    drawn = _random_words(20, cols, cols, cols, 64 * 3 + 5)
    size = 20 * cols * cols
    raw = CounterRng(cols, cursor=3).take((5 + size + 63) // 64)
    bits = np.unpackbits(raw.view(np.uint8), bitorder="little")[5 : 5 + size]
    assert drawn.dtype == word_dtype(cols)
    assert np.array_equal(drawn, pack_rows(bits.reshape(20, cols, cols)))
    assert np.array_equal(_dense(drawn, cols), bits.reshape(20, cols, cols))
    ranks = batch_rank(drawn, cols).tolist()
    assert ranks == [ref_gf2_rank(_dense(m, cols)) for m in drawn]
    assert min(ranks) < cols  # some drawn matrices are singular


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
    stack = np.stack([pack_rows(d) for d in mats])
    before = stack.copy()
    got = batch_rank(stack, cols)
    assert got.tolist() == [ref_gf2_rank(d) for d in mats]
    assert np.array_equal(stack, before)


@st.composite
def _mixed_word_stacks(draw):
    """Multi-word stacks with zero words in rows, so pivots sit in different words.

    Matrix 0 keeps every row's first word and matrix 1 zeroes all but
    the last word of every row, so at every elimination step the batch
    holds pivots in word 0 and in the last word.  The other matrices
    zero a drawn set of words per row (leading ones, or ones between
    nonzero words), and some of their rows are sums of earlier rows.
    """
    cols = draw(st.integers(65, 256), label="cols")
    n_w = (cols + 63) // 64
    rows = draw(st.integers(1, 12), label="rows")
    batch = draw(st.integers(2, 7), label="batch")
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mats = []
    for m in range(batch):
        dense = rnd.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        for i in range(rows):
            if m == 0:
                dense[i, 0] = 1
            elif m == 1:
                dense[i, : 64 * (n_w - 1)] = 0
                dense[i, 64 * (n_w - 1)] = 1
            else:
                zero = draw(st.lists(st.booleans(), min_size=n_w, max_size=n_w), label="zero")
                for w in np.flatnonzero(zero):
                    dense[i, 64 * w : 64 * (w + 1)] = 0
                if i >= 2 and draw(st.booleans(), label="dependent"):
                    dense[i] = dense[i - 1] ^ dense[i - 2]
        mats.append(dense)
    return cols, mats


@settings(deadline=None)
@given(_mixed_word_stacks())
def test_batch_rank_mixed_pivot_words(case):
    cols, mats = case
    first_word = [int(np.flatnonzero(d[0])[0]) >> 6 for d in mats[:2]]
    assert first_word[0] != first_word[1]  # the batch pivots in two words at step 0
    stack = np.stack([pack_rows(d) for d in mats])
    assert batch_rank(stack, cols).tolist() == [ref_gf2_rank(d) for d in mats]


@st.composite
def _eliminate_cases(draw):
    """(cols, mats): stacks for eliminate in each word type, or multi-word stacks of mixed pivots.

    Rows of at most 8, 16, 32 and 64 columns are one uint8, uint16,
    uint32 or uint64 word, and wider ones two or more uint64 words.  The
    matrices are low-rank products as in _gf2_stacks, or come from
    _mixed_word_stacks.
    """
    if draw(st.booleans(), label="mixed pivot words"):
        return draw(_mixed_word_stacks())
    word = st.sampled_from([(1, 8), (9, 16), (17, 32), (33, 64), (65, 128)])
    low, high = draw(word, label="columns of the word type")
    cols = draw(st.integers(low, high), label="cols")
    rows = draw(st.integers(1, 24), label="rows")
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mats = []
    for _ in range(draw(st.integers(1, 6), label="batch")):
        inner = draw(st.integers(0, min(rows, cols) + 1), label="inner")
        a = rnd.integers(0, 2, size=(rows, inner))
        mats.append(((a @ rnd.integers(0, 2, size=(inner, cols))) & 1).astype(np.uint8))
    return cols, mats


@settings(deadline=None)
@given(_eliminate_cases())
def test_eliminate_reduces_in_place(case):
    # a (rows, words, stacks) stack is reduced where it lies: its nonzero
    # rows number the rank, later rows keep no earlier pivot, and every
    # prefix of rows spans what it spanned
    cols, mats = case
    work = np.ascontiguousarray(np.stack([pack_rows(d) for d in mats]).transpose(1, 2, 0))
    assert work.dtype == word_dtype(cols) and work.shape[1] == (cols + 63) // 64
    assert gf2_mod.eliminate(work) is None
    reduced = _dense(np.ascontiguousarray(work.transpose(2, 0, 1)), cols)
    for dense, out in zip(mats, reduced):
        nonzero = out.any(axis=1)
        assert np.count_nonzero(nonzero) == ref_gf2_rank(dense)
        for i in np.flatnonzero(nonzero):
            assert not out[i + 1 :, np.flatnonzero(out[i])[0]].any()
        for i in range(1, len(dense) + 1):
            assert ref_gf2_rank(np.vstack([dense[:i], out[:i]])) == ref_gf2_rank(dense[:i])
            assert ref_gf2_rank(out[:i]) == ref_gf2_rank(dense[:i])


def test_eliminate_takes_its_own_layout_only():
    # a strided view or signed words would not be reduced where they lie
    work = np.ascontiguousarray(_random_words(4, 5, 70, 2, 0).transpose(1, 2, 0))
    for bad in (work[:, :, ::2], work.transpose(1, 0, 2), work.astype(np.int64), work[0]):
        with pytest.raises(ValueError):
            gf2_mod.eliminate(bad)


def _batch_sizes(monkeypatch) -> list:
    """Record the batch size of every batch_rank call the rank law makes."""
    sizes = []
    real = gf2_mod.batch_rank
    monkeypatch.setattr(gf2_mod, "batch_rank", lambda w, c: sizes.append(w.shape[0]) or real(w, c))
    return sizes


@pytest.mark.parametrize("n, samples", [(5, 60), (16, 45), (70, 9)])
def test_rank_distribution_independent_of_batch_cap(monkeypatch, n, samples):
    # draws are consumed in order, so the cap moves neither the counts nor the cursor
    sizes = _batch_sizes(monkeypatch)
    results = {}
    for cap in [1, 7, gf2_mod._RANK_BATCH]:
        monkeypatch.setattr(gf2_mod, "_RANK_BATCH", cap)
        sizes.clear()
        rng = CounterRng(31, cursor=5)
        hist = empirical_rank_distribution(n, samples, rng)
        assert sizes == [min(cap, samples - d) for d in range(0, samples, cap)]
        results[cap] = (hist.counts, hist.samples, rng.cursor)
    assert results[1] == results[7] == results[gf2_mod._RANK_BATCH]
    assert results[1][2] == 5 + samples * n * ((n + 63) // 64)


def test_rank_batches_capped_by_matrices_and_words(monkeypatch):
    sizes = _batch_sizes(monkeypatch)
    empirical_rank_distribution(16, 5000, CounterRng(3))
    assert sizes == [4096, 904]
    sizes.clear()
    monkeypatch.setattr(gf2_mod, "_BATCH_TARGET_WORDS", 3 * 16)  # three 16 x 16 matrices
    empirical_rank_distribution(16, 7, CounterRng(3))
    assert sizes == [3, 3, 1]


@pytest.mark.parametrize(
    "n, samples, cap, pieces",
    [
        # 2^21 // 300^2 = 23 matrices of choices per piece
        (300, 30, 1 << 21, [23, 7]),
        (5, 60, 3 * 25 + 24, [3] * 20),
        (16, 45, 7 * 256, [7] * 6 + [3]),
        (70, 9, 4900, [1] * 9),
    ],
)
def test_rank_law_draws_pieces_of_choices(monkeypatch, n, samples, cap, pieces):
    # a word cap holding the packed words of cap // n^2 whole matrices draws
    # each batch as one piece of that many matrices from the stream, and the
    # pieces move neither the counts nor the cursor
    drawn = []
    real = gf2_mod._random_words
    spy = lambda count, *args: drawn.append(count) or real(count, *args)  # noqa: E731
    monkeypatch.setattr(gf2_mod, "_random_words", spy)
    sizes = _batch_sizes(monkeypatch)
    rng = CounterRng(31, cursor=5)
    whole = empirical_rank_distribution(n, samples, rng).counts
    assert drawn == sizes == [samples]
    cursor, drawn[:], sizes[:] = rng.cursor, [], []
    words = cap // (n * n) * n * ((n + 63) // 64)
    monkeypatch.setattr(gf2_mod, "_BATCH_TARGET_WORDS", words)
    rng = CounterRng(31, cursor=5)
    assert empirical_rank_distribution(n, samples, rng).counts == whole
    assert drawn == sizes == pieces and rng.cursor == cursor


def test_rank_law_holds_packed_batches_only():
    # each batch's matrices are read packed from the stream: at n = 1024 a
    # batch is 16 matrices, 2 MiB of uint64 words, whose choices as bools
    # would take 16 MiB; the law peaks below 4 batches' packed words (the
    # stack, the elimination's working copy and its temporaries)
    n, samples = 1024, 32
    batch = gf2_mod._BATCH_TARGET_WORDS // (n * 16)
    packed = 8 * batch * n * 16
    assert (batch, packed) == (16, 2 << 20)
    _rank_law(n, 1, 5, 0)  # builds the cached counter table
    tracemalloc.start()
    try:
        hist = _rank_law(n, samples, 5, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.samples == samples and all(hist.counts.values())  # observed defects only
    assert peak < 4 * packed < batch * n * n
