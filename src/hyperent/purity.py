"""Exact subsystem purity and Renyi-2 entropy of phase states.

Every purity is an integer numerator over 2**(2N), normalized once at
the end, so it is an exact ``Fraction`` over a power of two; floating
point only enters at the entropy (log) step.  Numerators are at most
2**(2N), exact in int64 up to the one qubit limit :data:`MAX_QUBITS` =
31, which every exact route checks.

:func:`state_purity` computes a single state from its edges factored
across the cut, with no 2**N sign table, on the smaller side as A.  It
takes one of two routes, chosen by the cross edges:

- Every cross edge has at most three vertices (types (1,1), (1,2) and
  (2,1) by their vertex counts on A and B): the Gauss-sum route,
  :func:`_gauss_numerator`.  For x = a XOR a' the inner sum over b is a
  quadratic Gauss sum over GF(2), whose square is a power of two fixed
  by one small elimination (``gf2.eliminate``).  The cost is
  2**min(n_A, n_B) eliminations of at most 30 rows of 62 bits.
- A cross edge of four or more vertices makes the phase of higher
  degree in b: the Gram route, sum((M M^T)**2) over the cut's sign
  matrix M = 1 - 2 * bits (:func:`gram_numerator`), by a tiled float32
  BLAS matmul that stays exact.  Single states pass a batch of one and
  keep every BLAS thread.  The ensembles' Monte Carlo passes many small
  matrices at once, inside :func:`_one_blas_thread`: the caller and the
  forked children of a worker split each compute a share at once, and
  BLAS threads would oversubscribe the cores.

:func:`_sign_rows` is the one builder of a cut's packed sign bits, for
a single state (a batch of one, every cross edge chosen) and for Monte
Carlo batches of edge choices alike: the sign bits are the GF(2)
superset transform of the chosen edges laid out as (a, b).

For 2-uniform graphs the purity is also 2**(-r), with r the GF(2) rank
of the cut block of the adjacency matrix: :func:`cut_cells` names the
edge at each cell of the block for single graphs
(:func:`graph_entropy_rank`) and ensembles alike, and
``gf2.batch_rank`` ranks it as a packed stack.

Subsystem indices pack a side's bits low (:func:`_side_index`): row
index a holds the A-qubit bits in ascending mask order, column index b
the rest, so independent implementations agree on intermediate dumps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from fractions import Fraction

import numpy as np

from . import gf2
from .hypergraph import Bipartition, Hypergraph


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


def _side_index(masks: np.ndarray, side: int) -> np.ndarray:
    """Subsystem index of int64 masks on one side: their bits at side's set positions, packed low.

    One broadcast shift takes every mask's bits at those positions, and
    a dot with powers of two packs them.
    """
    pos = [p for p in range(side.bit_length()) if side >> p & 1]
    return (masks[:, np.newaxis] >> pos & 1) @ (1 << np.arange(len(pos)))


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


# entry j has bit p set iff bit j of p is clear: 0x5555..., 0x3333..., ..., 0x00000000FFFFFFFF
_CLEAR_BIT = tuple(sum(1 << p for p in range(64) if not p >> j & 1) for j in range(6))
_ROW_BLOCK_BITS = 15  # words of one cache-sized block of the B levels: 256 KiB


def _xor_levels(flat: np.ndarray, step: int, levels: int) -> None:
    """In place, for each of levels doublings of step: every second block XORs in the one before."""
    for j in range(levels):
        pairs = flat.reshape(-1, 2, step << j)
        pairs[:, 1] ^= pairs[:, 0]


def _sign_rows(
    choices: np.ndarray, a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """Packed (batch, 2**n_a, words) sign rows of each row of (batch, E) 0/1 cross-edge choices.

    An edge with A part m_A and B part m_B flips sign bit (a, b) iff m_A
    is inside a and m_B inside b, so the rows are the GF(2) superset
    (zeta) transform of the chosen edges' indicator laid out as (a, b).
    Each chosen edge sets bit m_B & 63 of word (m_A, m_B >> 6); edges
    are sorted by that cell and one reduceat ORs each cell's bits, which
    are distinct, so OR is XOR.  The B levels run on the rows of the
    distinct A parts only, within words (w ^= (w & CLEAR_j) << 2**j)
    and then across them, each level that fits one in a cache-sized
    block of 2**_ROW_BLOCK_BITS words at a time; those rows are scattered
    to their places and the A levels run over the rows.  No 2**N table
    is built.
    """
    words = gf2._n_words(1 << n_b)
    distinct, which = np.unique(a_parts, return_inverse=True)
    cells = which * words + (b_parts >> 6)
    order = np.argsort(cells, kind="stable")
    cell_ids, starts = np.unique(cells[order], return_index=True)
    bits = choices[:, order].astype(np.uint64) << (b_parts[order] & 63).astype(np.uint64)
    batch = bits.shape[0]
    compact = np.zeros((batch, distinct.size * words), dtype=np.uint64)
    if starts.size:
        compact[:, cell_ids] = np.bitwise_or.reduceat(bits, starts, axis=1)
    flat = compact.reshape(-1)
    inner = min(max(0, n_b - 6), _ROW_BLOCK_BITS)  # word levels that stay inside a block
    for lo in range(0, flat.size, 1 << _ROW_BLOCK_BITS):
        block = flat[lo : lo + (1 << _ROW_BLOCK_BITS)]
        for j in range(min(6, n_b)):
            block ^= (block & _CLEAR_BIT[j]) << (1 << j)
        _xor_levels(block, 1, inner)
    _xor_levels(flat, 1 << inner, n_b - 6 - inner)
    rows = np.zeros((batch, 1 << n_a, words), dtype=np.uint64)
    rows[:, distinct] = compact.reshape(batch, distinct.size, words)
    _xor_levels(rows.reshape(-1), words, n_a)
    return rows


def _vertex_table(a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """(n_a, n_b + n_a + 1) uint64 table of the cross edges at each A vertex i.

    Every edge is of type (1,1), (1,2) or (2,1).  Row i holds B masks:
    at column j < n_b, the k of the edges (i; j,k), so the first n_b
    columns are the rows of the alternating matrix K_i; at column
    n_b + i', the k of the edges (i,i'; k) (E2[i, i']); last, the k of
    the edges (i; k) (E1_i).  Each entry gathers distinct bits, one per
    edge, so the integer sums of the matrix products below are XORs.
    """
    a = a_parts[:, np.newaxis] >> np.arange(n_a) & 1
    b = b_parts[:, np.newaxis] >> np.arange(n_b) & 1
    two_a = np.bitwise_count(a_parts) == 2
    two_b = np.bitwise_count(b_parts) == 2
    # an edge (i; j,k) puts 2^k = b_part - 2^j at K_i[j], and 2^j at K_i[k]
    pairs_b = b * (b_parts[:, np.newaxis] - (1 << np.arange(n_b))) * two_b[:, np.newaxis]
    k_rows = a.T @ pairs_b
    e2 = (a * (b_parts * two_a)[:, np.newaxis]).T @ a
    np.fill_diagonal(e2, 0)
    e1 = a.T @ (b_parts * ~(two_a | two_b))
    return np.concatenate([k_rows, e2, e1[:, np.newaxis]], axis=1).astype(np.uint64)


def _x_rows(table: np.ndarray, lo: int, bits: int) -> np.ndarray:
    """[K_x | M_x | L_x] for x in [lo, lo + 2**bits) by subset doubling; 2**bits divides lo.

    Adding vertex t to an x without it XORs in row t of the table and,
    for L_x, the M_x[t] of the x without it: the new pairs (t, i) of x.
    """
    n_a, width = table.shape
    m_t = width - n_a - 1  # column of M_x[0]
    rows = np.zeros((1 << bits, width), dtype=np.uint64)
    for t in range(bits, n_a):
        if lo >> t & 1:
            rows[0, -1] ^= rows[0, m_t + t]
            rows[0] ^= table[t]
    for t in range(bits):
        old, new = rows[: 1 << t], rows[1 << t : 2 << t]
        np.bitwise_xor(old, table[t], out=new)
        new[:, -1] ^= old[:, m_t + t]
    return rows


def _gauss_exponents(rows: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Histogram of 2 n_b - r_x + n_a - rho_x over the consistent x of rows [K_x | M_x | L_x].

    One elimination of the rows [K_x | M_x^T | L_x^T | I] leaves r_x
    rows with a nonzero K part, and on each other row a kernel vector c
    of K_x (its I part) with the row [M_x c | L_x . c] of the affine
    system in a.  Those rows are already in echelon form over the
    coefficients, since the pivot of a row with zero K part lies in its
    coefficient bits, or past them.  Adding q_x(c) touches only the
    constant bit, the last column, so n_b - r_x - rho_x is the count of
    kernel rows with no coefficients, and x is inconsistent iff one of
    them reads 0 = 1.
    """
    cols = np.arange(n_b, dtype=np.uint64)
    k_rows = rows[:, :n_b]
    const_bit = n_b + n_a
    # stack row j: K_x[j], bit j of each M_x[i] at n_b + i and of L_x at const_bit, I past it
    ml_bits = rows[:, np.newaxis, n_b:] >> cols[:, np.newaxis] & 1
    ml_bits <<= np.arange(n_b, const_bit + 1, dtype=np.uint64)
    stack = k_rows | np.bitwise_or.reduce(ml_bits, axis=2) | 1 << cols + (const_bit + 1)
    reduced = gf2.eliminate(stack[:, :, np.newaxis])[:, :, 0]
    # kernel rows with no coefficients: n_b - r_x - rho_x of them
    free = reduced & (1 << const_bit) - 1 == 0
    c = reduced >> const_bit + 1
    # q_x(c) = c . w, with w the XOR of the upper-triangle rows of K_x at the bits of c
    upper = k_rows & -(2 << cols)
    w = np.bitwise_xor.reduce(upper[:, np.newaxis, :] * (c[:, :, np.newaxis] >> cols & 1), axis=2)
    contradiction = free & ((reduced >> const_bit ^ np.bitwise_count(w & c)) & 1).astype(bool)
    consistent = ~np.logical_or.reduce(contradiction, axis=1)
    exponents = np.add.reduce(free, axis=1) + const_bit
    return np.bincount(exponents[consistent], minlength=2 * n_b + n_a + 1)


_GAUSS_BLOCK_BITS = 10  # at most 2^10 values of x per elimination stack: a few MB at N = 31


def _gauss_numerator(a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int) -> int:
    """2**(2N) * purity of a state whose cross edges are all of type (1,1), (1,2) or (2,1).

    With x = a XOR a', the phase of s(a, b) s(a', b) in b is
    q_x(b) + (L_x + sum_i a_i M_x[i]) . b, so each inner sum over b is a
    quadratic Gauss sum whose square is 2**(2 n_b - r_x) when the linear
    part agrees with q_x on the kernel of q_x's alternating matrix K_x
    (rank r_x), and 0 otherwise (Dehaene and De Moor, PRA 68, 042318).
    That agreement is an affine system in a with 0 or 2**(n_a - rho_x)
    solutions.  The x run in blocks of at most 2**_GAUSS_BLOCK_BITS.
    An elimination row holds 2 n_b + n_a + 1 bits, which fit one uint64
    word when A is the smaller side and N <= MAX_QUBITS.
    """
    table = _vertex_table(a_parts, b_parts, n_a, n_b)
    bits = min(n_a, _GAUSS_BLOCK_BITS)
    blocks = range(0, 1 << n_a, 1 << bits)
    hist = sum(_gauss_exponents(_x_rows(table, lo, bits), n_a, n_b) for lo in blocks)
    return sum(count << e for e, count in enumerate(hist.tolist()))


def state_purity(h: Hypergraph, part: Bipartition) -> Fraction:
    """Exact purity of h's state on subsystem A, from its cross edges.

    Purity is symmetric under swapping A with its complement, so the
    smaller side is taken as A.  When every cross edge has at most three
    vertices, the numerator is a sum of squared quadratic Gauss sums
    (:func:`_gauss_numerator`): 2**min(n_A, n_B) small GF(2)
    eliminations.  A cross edge of four or more vertices makes the phase
    of higher degree in b, and the numerator comes from the Gram matrix
    of the cut's sign rows (:func:`_sign_rows`, :func:`gram_numerator`).
    The integer numerator over 2**(2N) becomes a reduced Fraction, so its
    denominator is 2**e with an odd numerator, or 1 at purity 1.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    check_qubit_cap(h.n_qubits)
    oriented = part if part.n_a <= part.n_b else part.complement()
    _, a_parts, b_parts = _cross_parts(np.array(h.edge_masks, dtype=np.int64), oriented)
    if (np.bitwise_count(a_parts) + np.bitwise_count(b_parts) <= 3).all():
        numerator = _gauss_numerator(a_parts, b_parts, oriented.n_a, oriented.n_b)
    else:
        ones = np.ones((1, a_parts.size), dtype=bool)
        rows = _sign_rows(ones, a_parts, b_parts, oriented.n_a, oriented.n_b)
        numerator = int(gram_numerator(rows, oriented.d_b)[0])
    return Fraction(numerator, 1 << 2 * part.n_qubits)


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
