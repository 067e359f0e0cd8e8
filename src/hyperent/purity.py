"""Exact subsystem purity and Renyi-2 entropy of phase states.

Two routes are provided and must agree: the direct route squares the
reduced density matrix using only integer arithmetic (sums of +-1
products, normalized once at the end, so each purity is an exact
``Fraction`` over a power of two), and for 2-uniform graphs the purity
is 2**(-r) with r the GF(2) rank of the cut block of the adjacency
matrix.  The rank route is the one packed GF(2) route: :func:`cut_cells`
names the edge at each cell of the block for single graphs
(:func:`graph_entropy_rank`) and ensembles alike, and
``gf2.batch_rank`` ranks it as a packed stack.

The direct route has one numerator over 2**(2N), :func:`gram_numerator`:
sum((M M^T)**2) with M = 1 - 2 * bits of a batch of packed (d_A, d_B)
sign rows, by a tiled float32 BLAS matmul that stays exact.  Single
states (:func:`state_purity`) pass a batch of one and keep every BLAS
thread.  The ensembles pass many small matrices at once, inside
:func:`_one_blas_thread`: they run in forked workers, where BLAS threads
would oversubscribe the cores.

:func:`state_purity` is the one single-state route: it builds the rows
straight from the edges, factored across the cut, with no 2**N sign
table.  Numerators are at most 2**(2N), exact in int64 up to the one
qubit limit :data:`MAX_QUBITS` = 31, which every exact route checks.

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
from fractions import Fraction

import numpy as np

from . import gf2
from .hypergraph import Bipartition, Hypergraph, toggle_supersets


def renyi2(p) -> float:
    """Renyi-2 entropy -log2(p) of a purity p in (0, 1]."""
    frac = Fraction(p)
    if frac <= 0 or frac > 1:
        raise ValueError(f"purity must be in (0, 1], got {p}")
    return math.log2(frac.denominator) - math.log2(frac.numerator)


_GRAM_TILE_ENTRIES = 1 << 22  # float32 entries of one row and column tile of M
_GRAM_BATCH_ENTRIES = 1 << 18  # entries of M in one batched matmul, which stay in cache
_GRAM_EXACT_COLS = 1 << 24  # float32 holds every integer of magnitude <= 2^24
MAX_QUBITS = 31  # numerators are at most 2^(2N), which int64 holds up to here
_INT64_ENTRIES = 1 << MAX_QUBITS  # a numerator is at most entries**2, so this many fit int64


def check_qubit_cap(n: int) -> None:
    """Raise ValueError when n is past MAX_QUBITS, where exact numerators can pass int64."""
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the qubit cap ({MAX_QUBITS}): numerators must fit int64")


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
    An M of more than _INT64_ENTRIES entries, whose numerator can pass
    int64, is refused, whatever the batch size.
    """
    batch, n_rows, _ = rows.shape
    if n_rows * n_cols > _INT64_ENTRIES:
        raise ValueError(f"{batch} purity numerators of {n_rows} x {n_cols} can overflow int64")
    height = min(n_rows, 1 << (_GRAM_TILE_ENTRIES.bit_length() - 1) // 2)
    width = min(n_cols, _GRAM_EXACT_COLS, max(64, _GRAM_TILE_ENTRIES // height >> 6 << 6))
    step = max(1, _GRAM_BATCH_ENTRIES // (height * width))
    total = np.zeros(batch, dtype=np.int64)
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
    rows = np.zeros((part.d_a, gf2._n_words(part.d_b)), dtype=np.uint64)
    _, a_parts, b_parts = _cross_parts(np.array(h.edge_masks, dtype=np.int64), part)
    for m_a, m_b in zip(a_parts.tolist(), b_parts.tolist()):
        toggle_supersets(rows[m_a], m_b, part.n_b)
    _zeta_rows(rows, part.n_a)
    return rows


def state_purity(h: Hypergraph, part: Bipartition) -> Fraction:
    """Exact purity of h's state on subsystem A, from the cut factors.

    The integer numerator over 2**(2N) becomes a reduced Fraction, so
    its denominator is 2**e with an odd numerator, or 1 at purity 1.
    Works on the cheaper orientation (fewer rows); purity is symmetric
    under swapping A with its complement.
    """
    oriented = part if part.n_a <= part.n_b else part.complement()
    numerator = gram_numerator(cut_rows(h, oriented)[np.newaxis], oriented.d_b)[0]
    return Fraction(int(numerator), 1 << 2 * part.n_qubits)


def cut_cells(part: Bipartition) -> np.ndarray:
    """The 2-edge at each cell of the (n_A, n_B) cut block, row-major, as (min, max) int64 rows.

    Rows are the A vertices and columns the complement vertices, each in
    ascending order; cell (a, b) holds the edge (min(a, b), max(a, b)).
    """
    a = np.array(part.a_indices, dtype=np.int64)[:, np.newaxis]
    b = np.array(part.b_indices, dtype=np.int64)
    return np.stack([np.minimum(a, b).ravel(), np.maximum(a, b).ravel()], axis=1)


def edge_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    """Codes i * n + j of the rows (i, j) of an int64 array of 2-edges; they sort as the edges."""
    return pairs[:, 0] * n + pairs[:, 1]


def graph_entropy_rank(h: Hypergraph, part: Bipartition) -> int:
    """Renyi-2 entropy of a 2-uniform graph state: GF(2) rank of the cut block.

    Graph states have flat reduced spectra, so this integer equals
    -log2 of the exact purity.  The block's rows are the A vertices and
    its columns the complement vertices; a cell is 1 iff h has the edge
    :func:`cut_cells` names there.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    if not h.is_k_uniform(2):
        raise ValueError("cut matrix requires a 2-uniform hypergraph")
    n = part.n_qubits
    edges = np.array(list(h.edges), dtype=np.int64).reshape(-1, 2)
    block = np.isin(edge_codes(cut_cells(part), n), edge_codes(edges, n))
    packed = gf2.pack_rows(block.reshape(part.n_a, part.n_b))
    return int(gf2.batch_rank(packed[np.newaxis], part.n_b)[0])
