"""Exact subsystem purity and Renyi-2 entropy of phase states.

Every purity is an integer numerator over 2**(2N), normalized once at
the end, so it is an exact ``Fraction`` over a power of two; floating
point only enters at the entropy (log) step.  Numerators are at most
2**(2N), exact in int64 up to the one qubit limit :data:`MAX_QUBITS` =
31, which every exact route checks.

Every numerator of a cut's cross edges, for a single state (a batch of
one, every cross edge chosen) and for Monte Carlo batches of edge
choices alike, comes from :func:`_numerators`, which takes one of two
routes, chosen by the cross edges:

- Every cross edge has at most three vertices (types (1,1), (1,2) and
  (2,1) by their vertex counts on A and B): the Gauss-sum kernel
  :func:`_gauss_numerators`.  For x = a XOR a' the inner sum over b is
  a quadratic Gauss sum over GF(2), whose square is a power of two
  fixed by one small elimination.  The cost is 2**n_A eliminations of
  n_B rows of N + 2 n_B + 1 bits per sample: one word of the narrowest
  type ``gf2.word_dtype`` allows up to 64 bits, else two uint64 words.
  Each row carries the upper triangle of its quadratic form, so every
  reduced row holds that form's value on its kernel vector.  A block
  holds the (sample, x) stacks whose rows fit _GAUSS_BLOCK_BYTES
  (256 KiB), built in ``gf2.eliminate``'s (rows, words, stacks) layout
  and reduced in place by one call, and one row sum per stack of a
  packed per-row code gives its verdict: the count of free kernel rows
  and whether one of them is inconsistent.
- A cross edge of four or more vertices makes the phase of higher
  degree in b: the Gram route, sum((M M^T)**2) over the cut's sign
  matrix M = 1 - 2 * bits (:func:`gram_numerator`), by a tiled float32
  BLAS matmul that stays exact.

The ensembles' Monte Carlo enters at :func:`_cut_sampler`, which picks
how a universe's samples are drawn, keyed (by exact ranks or
numerators) and tallied.  A cut block universe at p = 1/2 is drawn and
ranked by the rank law's loop (``gf2._rank_counts``), which reads packed
blocks straight from the stream and returns counts by rank.  Any other
is drawn as bools, in pieces of at most ``_MC_PIECE_DRAWS`` choices,
and keyed by :func:`_cut_values`, which picks the route (the GF(2) rank
route below for 2-edges, else :func:`_numerators`), refuses a cut past
that route's limit, and runs the sampler's numerators alone inside
:func:`_one_blas_thread`: the caller and the forked children of a
worker split compute at once, and BLAS threads would oversubscribe the
cores.  Single states (:func:`state_purity`, on the smaller side as A,
with no 2**N sign table) keep every BLAS thread.

:func:`_sign_rows` is the one builder of a cut's packed sign bits: the
GF(2) superset transform of the chosen edges laid out as (a, b).

For 2-uniform graphs the purity is also 2**(-r), with r the GF(2) rank
of the cut block of the adjacency matrix: :func:`cut_cells` names the
edge at each cell of the block for single graphs
(:func:`graph_entropy_rank`) and Monte Carlo pieces (:func:`_cut_ranks`)
alike, and ``gf2.batch_rank`` ranks it as a packed stack.

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
from itertools import chain

import numpy as np

from . import gf2
from .hypergraph import Bipartition, Edge, Hypergraph, edge_pass
from .rng import bernoulli_block, bernoulli_tiles


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


def _edge_masks(edges: list[Edge]) -> np.ndarray:
    """int64 masks of distinct canonical edges, in order, vertices below 63: ``hypergraph.edge_pass``."""
    # a repeated edge would cancel there, and the count refuses the short result
    return np.fromiter(edge_pass(edges, 63, canonical=True), np.int64, len(edges))


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


def _single_rows(
    choices: np.ndarray, a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """(batch, n_a, n_b) uint64 elimination rows of x = {t}, without identity bits, per choice row.

    Every edge is of type (1,1), (1,2) or (2,1).  Row j of x = {t} holds
    K_t[j] in bits 0..n_b-1: bit k for each edge (t; j,k); bit n_b + i
    for each edge (t,i; j), the coefficient of a_i; and bit N for the
    edge (t; j), the constant.  An edge sets one bit in cell (lo_A, lo_B)
    of its lowest vertices and, unless it is of type (1,1), one in cell
    (hi_A, hi_B) of its highest; every set bit is a distinct power of two
    below 2**(N+1), so one float64 product of the choices with the
    per-edge table sums them exactly.
    """
    n = n_a + n_b
    low_a, low_b = a_parts & -a_parts, b_parts & -b_parts
    two_a, two_b = a_parts != low_a, b_parts != low_b
    # vertex indices in int64: bitwise_count gives uint8, where a cell index would wrap past 255
    lo_a, hi_a, lo_b, hi_b = (
        np.bitwise_count(bit - 1).astype(np.int64)
        for bit in (low_a, a_parts ^ low_a * two_a, low_b, b_parts ^ low_b * two_b)
    )
    first = np.where(two_b, hi_b, np.where(two_a, n_b + hi_a, n))
    second = np.where(two_b, lo_b, n_b + lo_a)
    edges = np.arange(a_parts.size)
    table = np.zeros((a_parts.size, n_a * n_b))
    table[edges, lo_a * n_b + lo_b] = np.ldexp(1.0, first)
    pair = two_a | two_b
    table[edges[pair], (hi_a * n_b + hi_b)[pair]] = np.ldexp(1.0, second[pair])
    sums = choices.astype(np.float64) @ table
    return sums.astype(np.uint64).reshape(choices.shape[0], n_a, n_b)


_GAUSS_MAX_VERTICES = 3  # cross edges of at most this many vertices take the Gauss-sum kernel
_GAUSS_BLOCK_BYTES = 1 << 18  # rows of one elimination, stacks x n_b x words x itemsize: 256 KiB


def _gauss_numerators(
    choices: np.ndarray, a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """2**(2N) * purity per row of (batch, E) 0/1 choices of (1,1), (1,2) and (2,1) cross edges.

    With x = a XOR a', the phase of s(a, b) s(a', b) in b is
    q_x(b) + (L_x + sum_i a_i M_x[i]) . b, so each inner sum over b is a
    quadratic Gauss sum whose square is 2**(2 n_b - r_x) when the linear
    part agrees with q_x on the kernel of q_x's alternating matrix K_x
    (rank r_x), and 0 otherwise (Dehaene and De Moor, PRA 68, 042318).
    That agreement is an affine system in a with 0 or 2**(n_a - rho_x)
    solutions.

    Row j of the stack of x holds K_x[j], bit j of each M_x[i] at bit
    n_b + i, bit j of L_x at bit N, an identity bit at N + 1 + j and
    U_x[j], the bits of K_x[j] past j, in the U block: N + 2 n_b + 1
    bits.  A row of at most 64 bits is one word of
    ``gf2.word_dtype(N + 2 n_b + 1)`` with the U block at bit
    N + n_b + 1; a wider one is two uint64 words with the U block at bit
    N + 1 of the second, so the identity part (at most 62 bits under the
    qubit cap) always stays in word 0, and shifting the U block's word
    right by u_shift (n_b, or 0) lays it over the identity part.  The
    rows of x = {t} come from :func:`_single_rows`, with U_t = K_t &
    upper; adding t to an x without it XORs those in and, for L_x, the
    bits of M_x[t] of the x without it (the new pairs (t, i) of x).  U_x
    and every other part but L_x are linear in x.

    A block holds the (sample, x) stacks whose rows fit
    _GAUSS_BLOCK_BYTES, a power of two of them (at least one), in
    ``gf2.eliminate``'s (rows, words, stacks) layout, x outermost; x's
    bits past the block's are set on the start row.  One
    ``gf2.eliminate`` per block reduces it in place and leaves r_x rows
    with a nonzero K part, and on each other row a kernel vector c of K_x
    (its identity part) with the row [M_x c | L_x . c] of the affine
    system, already in echelon form over the coefficients, and w =
    U_x^T c in its U block, so q_x(c) = parity(w & c).  The identity part
    is never zero, so no pivot lands in the U block.  Adding q_x(c)
    touches only the constant bit, so the free rows, the kernel rows with
    no coefficients, number n_b - r_x - rho_x, and x is inconsistent iff
    one of them reads 0 = 1.  One row sum of the code free + 2**k (free
    & odd), with 2**k > n_b, gives both: its low field counts a stack's
    free rows and its high field is nonzero iff x is inconsistent.  Each
    consistent x adds 2**(2 n_b - r_x + n_a - rho_x) = 2**(N + free); a
    sample's sum is at most 2**(2N), exact in int64 up to MAX_QUBITS.
    """
    n = n_a + n_b
    check_qubit_cap(n)
    width = n + 2 * n_b + 1
    dtype = gf2.word_dtype(width)
    n_words = gf2._n_words(width)
    u_word, u_shift = (0, n_b) if n_words == 1 else (1, 0)  # U block word, shift onto c
    k_rows = _single_rows(choices, a_parts, b_parts, n_a, n_b)
    cols = np.arange(n_b, dtype=np.uint64)
    upper = -(2 << cols) & (1 << n_b) - 1  # bits of K_x[j] past j
    singles = np.zeros((*k_rows.shape, n_words), dtype=dtype)
    singles[..., 0] = k_rows
    singles[..., u_word] |= ((k_rows & upper) << n + 1 + u_shift).astype(dtype)
    start = np.zeros((n_b, n_words), dtype=dtype)
    start[:, 0] = 1 << cols + (n + 1)
    stacks = max(1, _GAUSS_BLOCK_BYTES // (n_b * n_words * dtype.itemsize))
    block = stacks.bit_length() - 1  # a block holds 2**block stacks
    bits = min(n_a, block)  # x bits per block
    step = 1 << block - bits  # samples per block
    k = n_b.bit_length()  # 2**k > n_b: the low field of a row sum holds its free count
    total = np.zeros(singles.shape[0], dtype=np.int64)
    for lo in range(0, singles.shape[0], step):
        single = singles[lo : lo + step].transpose(1, 2, 3, 0)[:, :, :, np.newaxis]
        for x_lo in range(0, 1 << n_a, 1 << bits):
            rows = np.empty((n_b, n_words, 1 << bits, single.shape[-1]), dtype=dtype)
            rows[:, :, 0] = start[:, :, np.newaxis]
            for t in range(bits, n_a):
                if x_lo >> t & 1:
                    head = rows[:, 0, 0]
                    head ^= (head & 1 << n_b + t) << n - n_b - t
                    rows[:, :, 0] ^= single[t, :, :, 0]
            for t in range(bits):
                old, new = rows[:, :, : 1 << t], rows[:, :, 1 << t : 2 << t]
                np.bitwise_xor(old, single[t], out=new)
                new[:, 0] ^= (old[:, 0] & 1 << n_b + t) << n - n_b - t
            work = rows.reshape(n_b, n_words, -1)  # (rows, words, stacks), a view
            gf2.eliminate(work)
            low = work[:, 0]
            # on a free row (no K or M bits), w & c holds q_x(c)'s terms and bit N the constant
            read = work[:, u_word] >> u_shift  # w laid over c
            read |= 1 << n
            read &= low
            codes = np.bitwise_count(read)
            codes &= 1  # odd
            codes *= 1 << k
            codes |= 1
            codes *= low & (1 << n) - 1 == 0  # free + 2**k (free & odd)
            sums = codes.sum(axis=0, dtype=np.uint16)  # at most n_b (2**k + 1) < 2**11
            # a consistent stack's sum is its free count; the mask only bounds the others' shift
            terms = np.left_shift(sums < 1 << k, (sums & (1 << k) - 1) + n, dtype=np.int64)
            total[lo : lo + step] += terms.reshape(1 << bits, -1).sum(axis=0)
    return total


_BATCH_UNITS = 1 << 18  # one batch's cross-edge choices, sign-row words or edge columns
_SAMPLE_BYTES = 1 << 28  # budget for one sample's packed sign rows on the Gram route


def _numerators(
    bits: np.ndarray, cross, a_parts: np.ndarray, b_parts: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """int64 2**(2N) * purity per row of (batch, u) 0/1 edge choices; columns cross are the cut's.

    When every cross edge has at most three vertices, the Gauss-sum
    kernel :func:`_gauss_numerators`; otherwise the Gram numerator of the
    packed sign rows, :func:`gram_numerator` of :func:`_sign_rows`.  A
    batch holds _BATCH_UNITS of the rows' cross-edge choices on the Gauss
    route (2 MiB as float64 in :func:`_single_rows`), and of their sign-row
    words or edge columns, whichever are more, on the Gram route.  Each
    batch gathers its own cross columns; a slice gathers none.
    """
    gauss = (np.bitwise_count(a_parts) + np.bitwise_count(b_parts) <= _GAUSS_MAX_VERTICES).all()
    units = a_parts.size if gauss else gf2._n_words(1 << n_b) * max(1 << n_a, bits.shape[1])
    step = max(1, _BATCH_UNITS // max(1, units))
    batches = []
    for lo in range(0, bits.shape[0], step):
        choices = bits[lo : lo + step, cross]
        if gauss:
            batches.append(_gauss_numerators(choices, a_parts, b_parts, n_a, n_b))
        else:
            rows = _sign_rows(choices, a_parts, b_parts, n_a, n_b)
            batches.append(gram_numerator(rows, 1 << n_b))
    return batches[0] if len(batches) == 1 else np.concatenate(batches)  # one batch: no copy


def _smaller_side(part: Bipartition) -> Bipartition:
    """part, or its complement when that has fewer qubits on A: the cheaper orientation."""
    return part if part.n_a <= part.n_b else part.complement()


def state_purity(h: Hypergraph, part: Bipartition) -> Fraction:
    """Exact purity of h's state on subsystem A, from its cross edges.

    Purity is symmetric under swapping A with its complement, so the
    smaller side is taken as A.  The numerator is :func:`_numerators` of
    a batch of one with every cross edge chosen: a sum of squared
    quadratic Gauss sums when every cross edge has at most three
    vertices, otherwise the Gram numerator of the cut's sign rows.  The
    integer numerator over 2**(2N) becomes a reduced Fraction, so its
    denominator is 2**e with an odd numerator, or 1 at purity 1.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    check_qubit_cap(h.n_qubits)
    side = _smaller_side(part)
    _, a_parts, b_parts = _cross_parts(np.array(h.edge_masks, dtype=np.int64), side)
    ones = np.ones((1, a_parts.size), dtype=bool)
    numerator = _numerators(ones, slice(None), a_parts, b_parts, side.n_a, side.n_b)[0]
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


def _cut_ranks(bits: np.ndarray, order: np.ndarray, part: Bipartition) -> np.ndarray:
    """GF(2) rank of the cut block of each row of (batch, universe) 0/1 edge choices.

    order lists the universe positions of the cut cells, row-major.
    """
    if order.size == bits.shape[1] and (order == np.arange(order.size)).all():
        # the universe is the cut block itself, row-major: no gather
        blocks = bits.reshape(-1, part.n_a, part.n_b)
    else:
        # np.take keeps the gathered blocks C-ordered, which the flat packer wants
        blocks = np.take(bits, order, axis=1).reshape(-1, part.n_a, part.n_b)
    return gf2.batch_rank(gf2.pack_rows(blocks), part.n_b)


def _numerator_values(cross, a_parts, b_parts, side: Bipartition, bits: np.ndarray):
    """int64 purity numerator per row of edge choices, on one BLAS thread."""
    with _one_blas_thread():
        return _numerators(bits, cross, a_parts, b_parts, side.n_a, side.n_b)


def _key_terms(n: int, ranked: bool, keys: np.ndarray):
    """(numerators over 2**(2n), entropies) of keys: 2**(2n - r) and r, or num and 2n - log2(num)."""
    if ranked:
        return [1 << 2 * n - r for r in keys.tolist()], keys.tolist()
    return keys.tolist(), (2 * n - np.log2(keys)).tolist()


def _cut_values(universe: list[Edge], part: Bipartition):
    """Keys of Monte Carlo bools: a function of (batch, universe) 0/1 edge choices of a cut.

    It returns one int64 key per row (see :func:`_cut_sampler`).  Each
    route's limit is checked here, before any edge is factored.  A
    universe of 2-edges is keyed by the GF(2) rank of the cut block,
    purity 2**-rank: its cells are looked up by edge codes, with no int64
    mask, so it has no qubit limit, and the cut keeps its orientation, so
    a cross universe with A the lowest qubits is the block itself.  Any
    other universe is factored on the smaller side as A for
    :func:`_numerators`, on one BLAS thread.  Edges of at most three
    vertices take the Gauss route, refused past the qubit cap, and larger
    ones the Gram route, refused when one sample's packed sign rows pass
    _SAMPLE_BYTES.
    """
    arity = max(map(len, universe), default=0)
    if arity == 2:
        n, u = part.n_qubits, len(universe)
        # the universe is lexicographic, so its codes are sorted
        edges = np.fromiter(chain.from_iterable(universe), np.int64, 2 * u).reshape(u, 2)
        order = np.searchsorted(edge_codes(edges, n), edge_codes(cut_cells(part), n))
        return functools.partial(_cut_ranks, order=order, part=part)
    side = _smaller_side(part)
    if arity <= _GAUSS_MAX_VERTICES:
        check_qubit_cap(part.n_qubits)
    else:
        row_bytes = 8 * gf2._n_words(side.d_b) * side.d_a  # one sample's packed sign rows
        if row_bytes > _SAMPLE_BYTES:
            raise ValueError(
                f"one sample at N={part.n_qubits}, N_A={part.n_a} needs "
                f"{row_bytes} bytes, over the {_SAMPLE_BYTES}-byte budget"
            )
    return functools.partial(_numerator_values, *_cross_parts(_edge_masks(universe), side), side)


_MC_PIECE_DRAWS = 1 << 21  # edge choices of one bool piece, which bounds sampling memory


def _bool_tally(p: Fraction, u: int, chunk: int, values):
    """tally(seed, first, count): (distinct keys, runs) of the values of samples [first, first + count).

    Sample i's row is choices [i u, (i + 1) u); count is at most chunk.
    Pieces of at most _MC_PIECE_DRAWS choices are drawn into one bool
    buffer and one pair of uint64 tiles, allocated here once.
    """
    rows = max(1, min(_MC_PIECE_DRAWS // max(1, u), chunk))
    buf = np.empty(rows * u, dtype=bool)
    tiles = bernoulli_tiles(buf.size)

    def tally(seed: int, first: int, count: int):
        pieces = []
        for r in range(0, count, rows):
            take = min(rows, count - r)
            bits = bernoulli_block(seed, (first + r) * u, take * u, p, out=buf[: take * u], tiles=tiles)
            pieces.append(values(bits.reshape(take, u)))
        return np.unique(np.concatenate(pieces), return_counts=True)

    return tally


def _cut_sampler(universe: list[Edge], part: Bipartition, p: Fraction, chunk: int):
    """The Monte Carlo entry: (tally, terms) of a cut's universe at edge probability p.

    ``tally(seed, first, count)``, count at most chunk, gives the distinct
    int64 keys of samples [first, first + count) and their runs, sample i
    keeping the edges whose choices [i u, (i + 1) u) of the seed's stream
    are made: the cut block's GF(2) rank on the 2-edge routes, the purity
    numerator on the others; ``terms`` (:func:`_key_terms`) values keys.
    A universe that is the cut block itself, row-major (a cross universe
    of 2-edges with A the lowest qubits), at p = 1/2 has its ranks counted
    by the rank law's loop, ``gf2._rank_counts``, with no per-sample key.
    Any other is drawn as bools (:func:`_bool_tally`) and keyed by
    :func:`_cut_values`, by the route, limits and batches it picks.  Both
    give the same keys for the same choices.
    """
    terms = functools.partial(_key_terms, part.n_qubits, max(map(len, universe), default=0) == 2)
    if p == Fraction(1, 2) and universe == list(map(tuple, cut_cells(part).tolist())):

        def tally(seed: int, first: int, count: int):
            counts = gf2._rank_counts(count, part.n_a, part.n_b, seed, first * len(universe))
            return np.flatnonzero(counts), counts[counts > 0]

        return tally, terms
    return _bool_tally(p, len(universe), chunk, _cut_values(universe, part)), terms
