"""Exact subsystem purity and Renyi-2 entropy of phase states.

Two routes are provided and must agree: the direct route squares the
reduced density matrix using only integer arithmetic (sums of +-1
products, normalized once at the end, so results are exact dyadic
rationals), and for 2-uniform graphs the purity is 2**(-r) with r the
GF(2) rank of the cut block of the adjacency matrix, laid out by
:func:`cut_block_cells` for single graphs and ensembles alike.

The direct route has one numerator over 2**(2N), :func:`gram_numerator`:
sum((M M^T)**2) with M = 1 - 2 * bits of a batch of packed (d_A, d_B)
sign rows, by a tiled float32 BLAS matmul that stays exact.  Single
states (:func:`state_purity`) pass a batch of one and keep every BLAS
thread.  The ensembles pass many small matrices at once, inside
:func:`_one_blas_thread`: they run in forked workers, where BLAS threads
would oversubscribe the cores.

:func:`state_purity` is the one single-state route: it builds the rows
straight from the edges, factored across the cut, with no 2**N sign
table.

Subsystem indices pack a side's bits low (:func:`_side_index`): row
index a holds the A-qubit bits in ascending mask order, column index b
the rest, so independent implementations agree on intermediate dumps.
Floating point only enters at the entropy (log) step.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .gf2 import Gf2Matrix
from .hypergraph import Bipartition, Hypergraph, _n_words, check_qubit_cap, toggle_supersets


@dataclass(frozen=True)
class DyadicRational:
    """numerator / 2**exponent, canonical (odd numerator, or 0/2^0)."""

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be >= 0")
        if self.numerator == 0:
            if self.exponent != 0:
                raise ValueError("zero must be stored as 0/2^0")
        elif self.numerator % 2 == 0 and self.exponent > 0:
            raise ValueError("numerator must be odd in canonical form")

    @classmethod
    def of(cls, numerator: int, exponent: int) -> "DyadicRational":
        """Canonicalize numerator / 2**exponent."""
        if numerator == 0:
            return cls(0, 0)
        while numerator % 2 == 0 and exponent > 0:
            numerator //= 2
            exponent -= 1
        return cls(numerator, exponent)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "DyadicRational":
        den = value.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{value} is not dyadic")
        return cls.of(value.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        return self.numerator / (1 << self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"


def renyi2(p) -> float:
    """Renyi-2 entropy -log2(p) of a purity p in (0, 1]."""
    if isinstance(p, DyadicRational):
        if p.numerator <= 0:
            raise ValueError(f"purity must be positive, got {p}")
        if p.as_fraction() > 1:
            raise ValueError(f"purity must be <= 1, got {p}")
        return p.exponent - math.log2(p.numerator)
    frac = Fraction(p)
    if frac <= 0 or frac > 1:
        raise ValueError(f"purity must be in (0, 1], got {p}")
    return math.log2(frac.denominator) - math.log2(frac.numerator)


_GRAM_TILE_ENTRIES = 1 << 22  # float32 entries of one row and column tile of M
_GRAM_BATCH_ENTRIES = 1 << 18  # entries of M in one batched matmul, which stay in cache
_GRAM_EXACT_COLS = 1 << 24  # float32 holds every integer of magnitude <= 2^24
_INT64_ENTRIES = 1 << 31  # a numerator is at most entries**2, so this many fit int64


def _signs(rows: np.ndarray, col: int, n_cols: int) -> np.ndarray:
    """Columns [col, col + n_cols) of (..., d_r, words) packed rows as +-1 float32; col % 64 == 0."""
    packed = np.ascontiguousarray(rows[..., col >> 6 : (col + n_cols + 63) >> 6]).view(np.uint8)
    m = np.unpackbits(packed, axis=-1, count=n_cols, bitorder="little").astype(np.float32)
    m *= -2
    m += 1
    return m


def gram_numerator(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Per batch entry, sum((M M^T)**2) for M = 1 - 2 * bits of its packed rows.

    ``rows`` is a (batch, d_r, words) array of packed sign rows; each
    result equals 2**(2N) * purity when the rows are the sign matrix of
    a pure phase state.  Row tiles are symmetric (pairs j >= i,
    off-diagonal ones counted twice) and hold at most _GRAM_TILE_ENTRIES
    float32 entries of M; one matmul takes as many batch entries as fit
    in _GRAM_BATCH_ENTRIES, and at least one.  Column tiles are at
    most 2^24 wide, so every float32 partial sum is an integer of
    magnitude <= 2^24 and exact in any BLAS summation order; each tile
    of M M^T is accumulated over the column tiles and squared in int64.
    A single M of more than _INT64_ENTRIES entries, whose numerator can
    pass int64, is squared and summed in Python ints instead (an object
    result); batches of that size are refused.
    """
    batch, n_rows, _ = rows.shape
    wide = n_rows * n_cols > _INT64_ENTRIES
    if wide and batch > 1:
        raise ValueError(f"{batch} purity numerators of {n_rows} x {n_cols} can overflow int64")
    height = min(n_rows, 1 << (_GRAM_TILE_ENTRIES.bit_length() - 1) // 2)
    width = min(n_cols, _GRAM_EXACT_COLS, max(64, _GRAM_TILE_ENTRIES // height >> 6 << 6))
    step = max(1, _GRAM_BATCH_ENTRIES // (height * width))
    total = np.zeros(batch, dtype=object if wide else np.int64)
    for lo in range(0, batch, step):
        block = rows[lo : lo + step]
        for i in range(0, n_rows, height):
            for j in range(i, n_rows, height):
                gram = None
                for col in range(0, n_cols, width):
                    cols = min(width, n_cols - col)
                    left = _signs(block[:, i : i + height], col, cols)
                    right = left if j == i else _signs(block[:, j : j + height], col, cols)
                    tile = np.matmul(left, right.transpose(0, 2, 1)).astype(np.int64)
                    gram = tile if gram is None else gram + tile
                if wide:
                    gram = gram.astype(object)
                total[lo : lo + step] += (1 if j == i else 2) * np.einsum("bij,bij->b", gram, gram)
    return total


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if it has none.

    numpy's core extension links the library, so a handle to the
    extension also finds the library's symbols.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the old count on exit.

    Does nothing when the thread calls are not found.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def _zeta_rows(rows: np.ndarray, n_a: int) -> None:
    """In place over the A bits: row a becomes the XOR of the rows at subsets of a.

    ``rows`` is C-contiguous with shape (..., 2**n_a, words).
    """
    lead, words = rows.shape[:-2], rows.shape[-1]
    for j in range(n_a):
        pairs = rows.reshape(*lead, -1, 2, 1 << j, words)
        pairs[..., 1, :, :] ^= pairs[..., 0, :, :]


def _side_index(masks, side: int):
    """Subsystem index of masks on one side: their bits at side's set positions, packed low.

    Works on ints and int64 arrays.
    """
    out = masks & 0
    for i, pos in enumerate(p for p in range(side.bit_length()) if side >> p & 1):
        out |= (masks >> pos & 1) << i
    return out


def _cross_parts(masks: np.ndarray, part: Bipartition):
    """(positions, A parts, B parts) of the int64 edge masks that cross the cut.

    Parts are subsystem indices.  Edges inside one side only flip the
    signs of whole rows or columns of the sign matrix, which leaves
    every row overlap's magnitude, and so the purity, unchanged; they
    are dropped.
    """
    a_parts = _side_index(masks, part.a_mask)
    b_parts = _side_index(masks, part.b_mask)
    cross = np.flatnonzero((a_parts != 0) & (b_parts != 0))
    return cross, a_parts[cross], b_parts[cross]


def cut_rows(h: Hypergraph, part: Bipartition) -> np.ndarray:
    """Packed (d_A, words) sign rows of h's state across part, up to row and column signs.

    An edge with A part m_A and B part m_B flips sign bit (a, b) iff m_A
    is inside a and m_B inside b: it toggles the B superset indicator of
    m_B into row m_A, and a GF(2) zeta transform over the A bits then
    spreads row m_A to every row containing it.  No 2**N table is built.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    check_qubit_cap(h.n_qubits)
    rows = np.zeros((part.d_a, _n_words(part.n_b)), dtype=np.uint64)
    _, a_parts, b_parts = _cross_parts(np.array(h.edge_masks, dtype=np.int64), part)
    for m_a, m_b in zip(a_parts.tolist(), b_parts.tolist()):
        toggle_supersets(rows[m_a], m_b, part.n_b)
    _zeta_rows(rows, part.n_a)
    return rows


def state_purity(h: Hypergraph, part: Bipartition) -> DyadicRational:
    """Exact purity of h's state on subsystem A, from the cut factors.

    Works on the cheaper orientation (fewer rows); purity is symmetric
    under swapping A with its complement.
    """
    oriented = part if part.n_a <= part.n_b else part.complement()
    numerator = gram_numerator(cut_rows(h, oriented)[np.newaxis], oriented.d_b)[0]
    return DyadicRational.of(int(numerator), 2 * part.n_qubits)


def cut_block_cells(edges, part: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    """(positions, cells) of the 2-edges in the collection ``edges`` that cross the cut.

    edges[positions[i]] sits at cell cells[i] = row * n_B + col of the
    (n_A, n_B) cut block, whose rows are the A vertices and whose
    columns are the complement vertices, each in ascending order.
    """
    in_a = np.array([part.a_mask >> v & 1 for v in range(part.n_qubits)], dtype=bool)
    side_index = np.empty(part.n_qubits, dtype=np.intp)
    side_index[in_a] = np.arange(part.n_a)
    side_index[~in_a] = np.arange(part.n_b)
    ends = np.array(list(edges), dtype=np.intp).reshape(len(edges), 2)
    first_in_a = in_a[ends[:, 0]]
    positions = np.flatnonzero(first_in_a != in_a[ends[:, 1]])
    a_end = np.where(first_in_a, ends[:, 0], ends[:, 1])[positions]
    b_end = np.where(first_in_a, ends[:, 1], ends[:, 0])[positions]
    return positions, side_index[a_end] * part.n_b + side_index[b_end]


def graph_cut_matrix(h: Hypergraph, part: Bipartition) -> Gf2Matrix:
    """Cut block of a 2-uniform graph's adjacency matrix.

    Row order is ascending A vertex index, column order ascending
    complement vertex index; entry 1 iff that cross edge is present.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    if not h.is_k_uniform(2):
        raise ValueError("cut matrix requires a 2-uniform hypergraph")
    dense = np.zeros(part.n_a * part.n_b, dtype=np.uint8)
    dense[cut_block_cells(h.edges, part)[1]] = 1
    return Gf2Matrix.from_dense(dense.reshape(part.n_a, part.n_b))


def graph_entropy_rank(h: Hypergraph, part: Bipartition) -> int:
    """Renyi-2 entropy of a 2-uniform graph state: GF(2) rank of the cut block.

    Graph states have flat reduced spectra, so this integer equals
    -log2 of the exact purity.
    """
    return gf2.rank(graph_cut_matrix(h, part))
