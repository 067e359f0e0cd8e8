"""Packed stacks of GF(2) matrices: one elimination kernel, batched rank and the rank-defect law.

Every matrix here lives in a (batch, rows, words) stack of unsigned
words, so elimination works by word-level XOR.  :func:`word_dtype` is
the one word-width rule: a row of at most 32 columns is one word of the
smallest unsigned type that holds it (uint8, uint16 or uint32), and a
wider row is ceil(cols / 64) uint64 words, column j at word j >> 6, bit
j & 63.  Padding bits are zero.  Narrow words move 2-8x fewer bytes per
whole-array step than uint64 ones.  :func:`pack_rows` is the one packer
of 0/1 entries into that format, for single graphs' and ensembles' cut
blocks alike; uniform stacks are read into it straight from the stream.
:func:`eliminate` is the one elimination loop of the package: it
reduces a whole stack of matrices at once and in place, row by row,
with the lowest set bit of each row as its pivot and no row swaps, on
a C-contiguous (rows, words, stacks) array, so each row's words are
contiguous over the stacks.  :func:`batch_rank` makes that layout with
its one transposing copy and counts the nonzero rows, which is what
makes rank workloads of 10^5-10^6 random matrices cheap; the purity
module's Gauss-sum route builds its blocks in that layout, hands them
over uncopied and reads kernels and affine systems off the reduced
rows.  Each step masks the pivot bit out of every word with
whole-array operations, with no per-matrix index gather, so a stack of
one-word rows costs little more than its XORs.

Uniform matrices are sampled the way ensembles sample edges at
p = 1/2: :func:`_random_words` reads them packed straight from the
stream's bits with :func:`rng.half_rows`, which makes no bool.
:func:`_rank_counts` is the one loop that draws and ranks them, in
batches of at most ``_RANK_BATCH`` (4096) matrices and
``_BATCH_TARGET_WORDS`` (2^18) packed words, so each batch stays
cache-sized while a batch of wide matrices still amortises the
elimination's per-row steps over many of them (16 at n = 1024).  The
rank law (:func:`_rank_law`) and the ensembles' cut-block Monte Carlo
both run it: rank-law matrix i is bit for bit the cut block of CZ sample
i at N = 2n, n|n, whose cross universe in lexicographic order is that
block, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng, half_rows


def _n_words(cols: int) -> int:
    return (cols + 63) >> 6


_NARROW_WORDS = tuple((bits, np.dtype(f"uint{bits}")) for bits in (8, 16, 32))
_WIDE_WORD = np.dtype(np.uint64)


def word_dtype(cols: int) -> np.dtype:
    """Word type of a row of cols columns: the smallest of uint8/16/32 that holds it, else uint64."""
    for bits, dtype in _NARROW_WORDS:
        if cols <= bits:
            return dtype
    return _WIDE_WORD


def pack_rows(bits) -> np.ndarray:
    """Pack 0/1 entries along the last axis into words of ``word_dtype(cols)``, padding bits zero.

    Shape (..., cols) becomes (..., words): one word of at most 32 bits
    per row up to 32 columns, else ceil(cols / 64) uint64 words, entry j
    at word j >> 6, bit j & 63.  Any leading batch shape is kept.
    """
    bits = np.asarray(bits)
    lead, cols = bits.shape[:-1], bits.shape[-1]
    dtype = word_dtype(cols)
    if cols & 7:  # whole bytes per row, so one flat packbits keeps rows apart
        bits = np.pad(bits, [(0, 0)] * len(lead) + [(0, -cols & 7)])
    packed = np.packbits(bits, bitorder="little").reshape(*lead, (cols + 7) >> 3)
    n_bytes = _n_words(cols) * dtype.itemsize
    if packed.shape[-1] == n_bytes:
        return packed.view(dtype)
    out = np.zeros((*lead, n_bytes), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(dtype)


def eliminate(work: np.ndarray) -> None:
    """Row-reduce a stack of packed matrices in place, shape (rows, words, stacks), C-contiguous.

    Each row's words are contiguous over the stacks, so every step below
    is a whole-array pass.  Words may be of any unsigned type
    (:func:`word_dtype` picks them).  Bits past the last column must be
    zero.  Rows are taken in order; the lowest set bit of row i is its
    pivot, and row i is XORed into every later row that has that bit,
    across all stacks at once.  No later row then keeps an earlier pivot
    bit, so the nonzero rows that remain are independent, and each
    reduced row is its input row plus a combination of earlier ones.  No
    rows are swapped and nothing is copied: callers that must keep their
    input hand in a copy.

    The pivot needs no gather: ``row & -row`` keeps the lowest set bit
    of every word of row i, and every word after the row's first
    nonzero word is zeroed, so ``low`` holds the pivot bit alone (or
    nothing, for a zero row) and a later row has the pivot exactly when
    some word of ``later & low`` is nonzero.  Stacks whose pivots lie
    in different words share the step.
    """
    if work.ndim != 3 or work.dtype.kind != "u" or not work.flags.c_contiguous:
        raise ValueError(
            f"expected C-contiguous (rows, words, stacks) unsigned words, got {work.dtype}"
        )
    n_words = work.shape[1]
    for i in range(work.shape[0] - 1):
        row, later = work[i], work[i + 1 :]
        low = row & -row
        if n_words > 1:
            low[1:] *= ~np.logical_or.accumulate(row[:-1] != 0, axis=0)
            has = ((later & low) != 0).any(axis=1, keepdims=True)
        else:
            has = (later & low) != 0
        later ^= row * has


def batch_rank(words: np.ndarray, cols: int) -> np.ndarray:
    """Ranks of a stack of packed matrices, shape (batch, rows, words), of any unsigned word type.

    Bits past ``cols`` must be zero.  The rank is the count of nonzero
    rows that :func:`eliminate` leaves in a (rows, words, batch) copy of
    the stack, so the input is not modified.
    """
    work = np.array(words.transpose(1, 2, 0), order="C")
    eliminate(work)
    return np.count_nonzero(work.any(axis=1), axis=0).astype(np.int64)


def _random_words(count: int, rows: int, cols: int, seed: int, start: int) -> np.ndarray:
    """(count, rows, words) packed stack of uniform rows x cols matrices, in ``word_dtype(cols)``.

    Entry (m, r, c) is p = 1/2 choice start + (m rows + r) cols + c of the
    seed's stream: matrix by matrix and row-major, read by
    :func:`rng.half_rows`.
    """
    return half_rows(seed, start, count * rows, cols, word_dtype(cols)).reshape(count, rows, -1)


@dataclass
class RankHistogram:
    """Histogram over rank defect s = n - rank of sampled n x n matrices."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)
    samples: int = 0

    def add(self, defect: int, count: int = 1) -> None:
        if not 0 <= defect <= self.n:
            raise ValueError(f"defect {defect} out of [0, {self.n}]")
        self.counts[defect] = self.counts.get(defect, 0) + count
        self.samples += count

    def merge(self, other: "RankHistogram") -> "RankHistogram":
        if other.n != self.n:
            raise ValueError("histogram size mismatch")
        out = RankHistogram(self.n, dict(self.counts), self.samples)
        for s, c in other.counts.items():
            out.counts[s] = out.counts.get(s, 0) + c
        out.samples += other.samples
        return out

    def frequency(self, defect: int) -> float:
        return self.counts.get(defect, 0) / self.samples


_BATCH_TARGET_WORDS = 1 << 18  # packed words of one batch_rank call: 2 MiB of uint64
_RANK_BATCH = 4096  # matrices per batch_rank call: 16 x 16 stacks of 512 KiB


def _rank_counts(count: int, rows: int, cols: int, seed: int, start: int) -> np.ndarray:
    """Counts by rank of count rows x cols matrices: matrix i is choices [start + i rows cols, ...) of the seed.

    Matrix i is row-major.  Each batch is read from the choice of its
    first matrix on, so the counts do not depend on the batch size.
    """
    size = rows * cols
    batch = max(1, min(_RANK_BATCH, count, _BATCH_TARGET_WORDS // (rows * _n_words(cols))))
    counts = np.zeros(min(rows, cols) + 1, dtype=np.int64)
    for done in range(0, count, batch):
        words = _random_words(min(batch, count - done), rows, cols, seed, start + done * size)
        # cols positional: perfbench's tracer reads it as the second argument
        counts += np.bincount(batch_rank(words, cols), minlength=counts.size)
    return counts


def _rank_law(n: int, samples: int, seed: int, start: int) -> RankHistogram:
    """Rank-defect histogram of the n x n matrices read from choice start of the seed's stream.

    Matrix i is choices [start + i n^2, start + (i + 1) n^2), ranked by
    :func:`_rank_counts`.  Only observed defects enter the histogram, in
    ascending order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tally = _rank_counts(samples, n, n, seed, start)[::-1]  # index n - rank, the defect
    hist = RankHistogram(n)
    for s in np.flatnonzero(tally).tolist():
        hist.add(s, int(tally[s]))
    return hist


def empirical_rank_distribution(n: int, samples: int, rng: CounterRng) -> RankHistogram:
    """Sample iid uniform n x n matrices and histogram the rank defect.

    The matrices are the samples * n^2 p = 1/2 choices from bit
    64 * rng.cursor on, matrix by matrix and row-major.  The call
    consumes samples * n * ceil(n / 64) draws, one per 64-bit word of the
    packed rows, which covers those choices.
    """
    hist = _rank_law(n, samples, rng.seed, rng.cursor << 6)
    rng.cursor += samples * n * _n_words(n)
    return hist
