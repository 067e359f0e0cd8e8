"""Exact subsystem purity and Renyi-2 entropy of phase states.

Two routes are provided and must agree: the direct route squares the
reduced density matrix using only integer arithmetic (sums of +-1
products, normalized once at the end, so results are exact dyadic
rationals), and for 2-uniform graphs the purity is 2**(-r) with r the
GF(2) rank of the cut block of the adjacency matrix.

The direct route has one kernel, :func:`purity_numerators`: it takes a
batch of packed (d_A, d_B) sign matrices and returns each one's integer
numerator over 2**(2N).  Single states and every ensemble path (exact
enumeration and Monte Carlo) call it.

Subsystem extraction is bit-scatter/gather by a_mask: row index a holds
the A-qubit bits in ascending mask order, column index b the rest, so
independent implementations agree on intermediate dumps.  Floating
point only enters at the entropy (log) step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .gf2 import Gf2Matrix
from .hypergraph import Bipartition, Hypergraph, SignTable, scatter_table


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


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into uint64 words along the columns.

    Padding bits are zero, so XOR popcounts between packed rows see only
    real columns.
    """
    rows, cols = bits.shape
    n_bytes = ((cols + 63) >> 6) << 3
    packed8 = np.zeros((rows, n_bytes), dtype=np.uint8)
    packed8[:, : (cols + 7) >> 3] = np.packbits(bits, axis=1, bitorder="little")
    return packed8.view(np.uint64)


_PAIR_BLOCK_WORDS = 1 << 22
_GATHER_BLOCK_ENTRIES = 1 << 22


def purity_numerators(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Per batch entry, the sum over row pairs of (n_cols - 2 * popcount(r ^ r'))**2.

    ``rows`` is a (batch, d_r, words) array of packed sign rows.  Each
    result equals 2**(2N) * purity when the rows are the sign matrix of
    a pure phase state; exact in int64 for N <= 31.  Row pairs are
    blocked so one XOR temporary holds at most _PAIR_BLOCK_WORDS words.
    """
    batch, n_rows, n_w = rows.shape
    block = max(1, _PAIR_BLOCK_WORDS // max(1, batch * n_rows * n_w))
    total = np.zeros(batch, dtype=np.int64)
    for lo in range(0, n_rows, block):
        xor = rows[:, lo : lo + block, np.newaxis, :] ^ rows[:, np.newaxis, :, :]
        h = np.bitwise_count(xor).sum(axis=3, dtype=np.int64)
        diff = n_cols - 2 * h
        total += np.sum(diff * diff, axis=(1, 2), dtype=np.int64)
    return total


def sign_matrix_bits(table: SignTable, part: Bipartition) -> np.ndarray:
    """Sign bits arranged as a (d_A, d_B) 0/1 matrix in scatter order."""
    if table.n_qubits != part.n_qubits:
        raise ValueError("sign table and bipartition disagree on qubit count")
    row_scatter = scatter_table(part.a_mask, part.n_qubits)
    col_scatter = scatter_table(part.b_mask, part.n_qubits)
    out = np.empty((part.d_a, part.d_b), dtype=np.uint8)
    block = max(1, _GATHER_BLOCK_ENTRIES // part.d_b)
    for lo in range(0, part.d_a, block):
        rows = row_scatter[lo : lo + block]
        idx = rows[:, np.newaxis] | col_scatter[np.newaxis, :]
        out[lo : lo + rows.shape[0]] = table.bits_at(idx)
    return out


def reduced_purity(table: SignTable, part: Bipartition) -> DyadicRational:
    """Exact purity of the reduced state on subsystem A.

    Works on the packed sign matrix; the cheaper orientation (fewer
    rows) is chosen automatically since purity is symmetric under
    swapping A with its complement.
    """
    if table.n_qubits != part.n_qubits:
        raise ValueError("sign table and bipartition disagree on qubit count")
    oriented = part if part.n_a <= part.n_b else part.complement()
    bits = sign_matrix_bits(table, oriented)
    numerator = int(purity_numerators(_pack_rows(bits)[np.newaxis], oriented.d_b)[0])
    return DyadicRational.of(numerator, 2 * part.n_qubits)


def graph_cut_matrix(h: Hypergraph, part: Bipartition) -> Gf2Matrix:
    """Cut block of a 2-uniform graph's adjacency matrix.

    Row order is ascending A vertex index, column order ascending
    complement vertex index; entry 1 iff that cross edge is present.
    """
    if h.n_qubits != part.n_qubits:
        raise ValueError("graph and bipartition disagree on qubit count")
    if not h.is_k_uniform(2):
        raise ValueError("cut matrix requires a 2-uniform hypergraph")
    row_of = {v: i for i, v in enumerate(part.a_indices)}
    col_of = {v: j for j, v in enumerate(part.b_indices)}
    dense = np.zeros((part.n_a, part.n_b), dtype=np.uint8)
    for u, v in h.edges:
        if u in row_of and v in col_of:
            dense[row_of[u], col_of[v]] = 1
        elif v in row_of and u in col_of:
            dense[row_of[v], col_of[u]] = 1
    return Gf2Matrix.from_dense(dense)


def graph_entropy_rank(h: Hypergraph, part: Bipartition) -> int:
    """Renyi-2 entropy of a 2-uniform graph state: GF(2) rank of the cut block.

    Graph states have flat reduced spectra, so this integer equals
    -log2 of the exact purity.
    """
    return gf2.rank(graph_cut_matrix(h, part))
