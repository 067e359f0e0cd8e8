"""Bit-packed GF(2) matrices: rank, random sampling, rank-defect statistics.

Rows are packed 64 columns per machine word so elimination works by
word-level XOR: column j sits at word j >> 6, bit j & 63, and padding
bits are zero.  :func:`pack_rows` is the one packer of that format:
``Gf2Matrix.from_dense``, ``purity.reduced_purity`` and the ensembles'
cut blocks all go through it.  ``batch_rank`` eliminates a whole stack of matrices at
once, row by row, with the lowest set bit of each row as its pivot and
no row swaps, which is what makes rank workloads of 10^5-10^6 random
matrices cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng


def _n_words(cols: int) -> int:
    return (cols + 63) >> 6


def pack_rows(bits) -> np.ndarray:
    """Pack 0/1 entries along the last axis into uint64 words, padding bits zero.

    Shape (..., cols) becomes (..., ceil(cols / 64)); entry j lands at
    word j >> 6, bit j & 63, and any leading batch shape is kept.
    """
    bits = np.asarray(bits)
    lead, cols = bits.shape[:-1], bits.shape[-1]
    if cols & 7:  # whole bytes per row, so one flat packbits keeps rows apart
        bits = np.pad(bits, [(0, 0)] * len(lead) + [(0, -cols & 7)])
    packed = np.packbits(bits, bitorder="little").reshape(*lead, (cols + 7) >> 3)
    out = np.zeros((*lead, _n_words(cols) << 3), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


@dataclass(frozen=True)
class Gf2Matrix:
    """Binary matrix; bit j of row i sits at row_words[i, j>>6], position j&63."""

    rows: int
    cols: int
    row_words: np.ndarray

    def __post_init__(self):
        shape = (self.rows, _n_words(self.cols))
        if self.row_words.dtype != np.uint64 or self.row_words.shape != shape:
            raise ValueError(f"row_words must be uint64 of shape {shape}")
        tail = self.cols & 63
        if tail and self.rows:
            if np.any(self.row_words[:, -1] >> np.uint64(tail)):
                raise ValueError("bits beyond cols must be zero")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, np.zeros((rows, _n_words(cols)), dtype=np.uint64))

    @classmethod
    def from_dense(cls, dense) -> "Gf2Matrix":
        arr = np.asarray(dense, dtype=np.uint8) & 1
        rows, cols = arr.shape
        return cls(rows, cols, pack_rows(arr))

    def get(self, i: int, j: int) -> int:
        return int(self.row_words[i, j >> 6] >> np.uint64(j & 63) & np.uint64(1))

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(self.row_words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.cols]


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank by Gaussian elimination on a scratch copy."""
    ranks = batch_rank(m.row_words[np.newaxis, :, :], m.cols)
    return int(ranks[0])


def batch_rank(words: np.ndarray, cols: int) -> np.ndarray:
    """Ranks of a stack of packed matrices, shape (batch, rows, words).

    Bits past ``cols`` must be zero.  Rows are taken in order; the
    lowest set bit of row i is its pivot, and row i is XORed into every
    later row that has that bit, across the whole batch at once.  No
    later row then keeps an earlier pivot bit, so the nonzero rows that
    remain are independent and their count is the rank.  No rows are
    swapped.  Input is not modified.
    """
    if words.ndim != 3:
        raise ValueError("expected (batch, rows, words) uint64")
    batch, n_rows, _ = words.shape
    if batch == 0 or n_rows == 0 or cols == 0:
        return np.zeros(batch, dtype=np.int64)
    # (rows, words, batch): each row's words are contiguous over the batch
    work = np.array(words.transpose(1, 2, 0), dtype=np.uint64, order="C")
    batch_ids = np.arange(batch)
    for i in range(n_rows - 1):
        row = work[i]
        w = np.argmax(row != 0, axis=0)
        p = row[w, batch_ids]
        low = p & (~p + np.uint64(1))
        later = work[i + 1 :]
        has = (later[:, w, batch_ids] & low) != 0
        later ^= row * has[:, np.newaxis, :]
    return np.count_nonzero(work.any(axis=1), axis=0).astype(np.int64)


def _random_words(count: int, rows: int, cols: int, rng: CounterRng) -> np.ndarray:
    """(count, rows, words) packed stack of uniform rows x cols matrices.

    Consumes count * rows * ceil(cols/64) draws, matrix by matrix and
    row-major; within each word the low bit is column 64w, and bits past
    the last column are dropped.
    """
    n_w = _n_words(cols)
    words = rng.take(count * rows * n_w).reshape(count, rows, n_w)
    tail = cols & 63
    if tail:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words


def random_matrix(rows: int, cols: int, rng: CounterRng) -> Gf2Matrix:
    """Uniform random matrix: iid fair bits in every entry.

    Consumes rows * ceil(cols/64) draws, laid out as in :func:`_random_words`.
    """
    return Gf2Matrix(rows, cols, _random_words(1, rows, cols, rng)[0])


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

    def to_csv_rows(self) -> list[dict]:
        """Rows with columns s, count, frequency, closed_form_Qs."""
        from .formulas import rank_defect_probability

        rows = []
        for s in sorted(self.counts):
            rows.append(
                {
                    "s": s,
                    "count": self.counts[s],
                    "frequency": self.frequency(s),
                    "closed_form_Qs": rank_defect_probability(s),
                }
            )
        return rows


_BATCH_TARGET_WORDS = 1 << 21


def empirical_rank_distribution(n: int, samples: int, rng: CounterRng) -> RankHistogram:
    """Sample iid uniform n x n matrices and histogram the rank defect."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hist = RankHistogram(n)
    chunk = max(1, _BATCH_TARGET_WORDS // (n * _n_words(n)))
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        words = _random_words(take, n, n, rng)
        defects = n - batch_rank(words, n)
        values, counts = np.unique(defects, return_counts=True)
        for s, c in zip(values.tolist(), counts.tolist()):
            hist.add(s, c)
        done += take
    return hist
