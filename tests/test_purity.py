"""Purity engine: exact values, oracle agreement, and rank equivalence."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperent.purity as purity_mod
from hyperent.hypergraph import Bipartition, Hypergraph
from hyperent.purity import (
    DyadicRational,
    gram_numerator,
    graph_cut_matrix,
    graph_entropy_rank,
    renyi2,
    state_purity,
)
from hyperent.gf2 import pack_rows, rank
from hyperent.reports import state_record

from reference import ref_purity


def purity_of(n, edges, a_mask):
    h = Hypergraph.from_gates(n, edges)
    return state_purity(h, Bipartition(n, a_mask))


def test_product_state_purity_one():
    p = purity_of(3, [], 0b011)
    assert p.as_fraction() == 1


def test_bell_state_half():
    assert purity_of(2, [(0, 1)], 0b01).as_fraction() == Fraction(1, 2)


def test_three_qubit_ccz_five_eighths():
    assert purity_of(3, [(0, 1, 2)], 0b001).as_fraction() == Fraction(5, 8)


def test_matches_dense_oracle_random():
    rnd = random.Random(31)
    for _ in range(40):
        n = rnd.randint(2, 8)
        edges = set()
        for _ in range(rnd.randint(0, 2 * n)):
            k = rnd.randint(1, min(4, n))
            edges.add(tuple(sorted(rnd.sample(range(n), k))))
        a_mask = rnd.randint(1, (1 << n) - 2)
        got = purity_of(n, edges, a_mask).as_fraction()
        assert got == ref_purity(n, edges, a_mask)


def test_cut_locality():
    # adding an edge fully inside A or fully inside the complement
    # does not change the purity
    rnd = random.Random(97)
    for _ in range(20):
        n = rnd.randint(4, 10)
        a_mask = rnd.randint(1, (1 << n) - 2)
        part = Bipartition(n, a_mask)
        cross = set()
        for _ in range(n):
            k = rnd.randint(2, min(3, n))
            cross.add(tuple(sorted(rnd.sample(range(n), k))))
        base = purity_of(n, cross, a_mask)
        side = part.a_indices if len(part.a_indices) >= 2 else part.b_indices
        inside = tuple(sorted(rnd.sample(side, 2)))
        edges = set(cross)
        edges ^= {inside}
        assert purity_of(n, edges, a_mask) == base


def test_symmetry_under_complement():
    rnd = random.Random(13)
    for _ in range(15):
        n = rnd.randint(2, 9)
        edges = {tuple(sorted(rnd.sample(range(n), rnd.randint(1, min(3, n))))) for _ in range(6)}
        a_mask = rnd.randint(1, (1 << n) - 2)
        b_mask = ((1 << n) - 1) ^ a_mask
        assert purity_of(n, edges, a_mask) == purity_of(n, edges, b_mask)


def test_range_and_exponent_bounds():
    rnd = random.Random(4)
    for _ in range(25):
        n = rnd.randint(2, 9)
        edges = {tuple(sorted(rnd.sample(range(n), rnd.randint(2, min(3, n))))) for _ in range(8)}
        a_mask = rnd.randint(1, (1 << n) - 2)
        part = Bipartition(n, a_mask)
        p = purity_of(n, edges, a_mask)
        value = p.as_fraction()
        assert Fraction(1, 1 << min(part.n_a, part.n_b)) <= value <= 1
        assert p.exponent <= 2 * n


def test_dimension_mismatch():
    h = Hypergraph.from_gates(3, [(0, 1)])
    with pytest.raises(ValueError):
        state_purity(h, Bipartition(4, 0b0011))


def test_renyi2_values():
    assert renyi2(DyadicRational.of(1, 0)) == 0.0
    assert renyi2(DyadicRational.of(1, 1)) == 1.0
    assert abs(renyi2(DyadicRational.of(5, 3)) - 0.6780719051126378) < 1e-12
    assert renyi2(Fraction(1, 4)) == 2.0
    with pytest.raises(ValueError):
        renyi2(Fraction(0))
    with pytest.raises(ValueError):
        renyi2(Fraction(-1, 2))
    with pytest.raises(ValueError):
        renyi2(Fraction(3, 2))


def test_dyadic_canonicalization():
    d = DyadicRational.of(4, 4)
    assert (d.numerator, d.exponent) == (1, 2)
    assert DyadicRational.of(0, 9) == DyadicRational(0, 0)
    assert DyadicRational.from_fraction(Fraction(3, 8)) == DyadicRational(3, 3)
    with pytest.raises(ValueError):
        DyadicRational.from_fraction(Fraction(1, 3))
    with pytest.raises(ValueError):
        DyadicRational(2, 1)
    assert str(DyadicRational(5, 3)) == "5/2^3"
    assert float(DyadicRational(5, 3)) == 0.625


def test_graph_cut_matrix_examples():
    bell = Hypergraph.from_gates(2, [(0, 1)])
    m = graph_cut_matrix(bell, Bipartition(2, 0b01))
    assert m.to_dense().tolist() == [[1]]

    disjoint = Hypergraph.from_gates(4, [(0, 1), (2, 3)])
    m = graph_cut_matrix(disjoint, Bipartition(4, 0b0011))
    assert m.to_dense().tolist() == [[0, 0], [0, 0]]

    crossy = Hypergraph.from_gates(4, [(0, 2), (1, 3), (0, 3)])
    m = graph_cut_matrix(crossy, Bipartition(4, 0b0011))
    assert m.to_dense().tolist() == [[1, 1], [0, 1]]
    assert rank(m) == 2


def test_graph_cut_matrix_rejects_non_2_uniform():
    h = Hypergraph.from_gates(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        graph_cut_matrix(h, Bipartition(3, 0b001))
    with pytest.raises(ValueError):
        graph_entropy_rank(h, Bipartition(3, 0b001))


def test_entropy_rank_examples():
    empty = Hypergraph.from_gates(4, [])
    assert graph_entropy_rank(empty, Bipartition(4, 0b0011)) == 0
    bell = Hypergraph.from_gates(2, [(0, 1)])
    assert graph_entropy_rank(bell, Bipartition(2, 0b01)) == 1


def test_rank_purity_equivalence_all_cuts():
    rnd = random.Random(77)
    for n in range(2, 7):
        edges = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(2 * n)}
        h = Hypergraph(n, frozenset(edges))
        for a_mask in range(1, (1 << n) - 1):
            part = Bipartition(n, a_mask)
            r = graph_entropy_rank(h, part)
            assert state_purity(h, part).as_fraction() == Fraction(1, 1 << r)


def test_rank_purity_equivalence_larger_random_cuts():
    rnd = random.Random(78)
    for _ in range(25):
        n = rnd.randint(7, 10)
        edges = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(3 * n)}
        h = Hypergraph(n, frozenset(edges))
        a_mask = rnd.randint(1, (1 << n) - 2)
        part = Bipartition(n, a_mask)
        r = graph_entropy_rank(h, part)
        assert state_purity(h, part).as_fraction() == Fraction(1, 1 << r)


def test_blocked_paths_match_oracle(monkeypatch):
    # shrink the block constants so multi-block code paths run even at
    # small n, then compare against the dense oracle
    monkeypatch.setattr(purity_mod, "_GRAM_TILE_ENTRIES", 16)
    rnd = random.Random(55)
    for _ in range(10):
        n = rnd.randint(4, 9)
        edges = {tuple(sorted(rnd.sample(range(n), rnd.choice([2, 3])))) for _ in range(6)}
        a_mask = rnd.randint(1, (1 << n) - 2)
        got = purity_of(n, edges, a_mask).as_fraction()
        assert got == ref_purity(n, edges, a_mask)


@st.composite
def cut_graphs(draw):
    """(n, edges, a_mask): arities 1..5, any proper mask, sometimes local edges only."""
    n = draw(st.integers(2, 10), label="n")
    a_mask = draw(st.integers(1, (1 << n) - 2), label="a_mask")
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(5, n), unique=True)
    edges = {tuple(sorted(e)) for e in draw(st.lists(edge, max_size=3 * n), label="edges")}
    if draw(st.booleans(), label="local only"):
        b_mask = ((1 << n) - 1) ^ a_mask
        edges = {e for e in edges if all(a_mask >> v & 1 for v in e) or all(b_mask >> v & 1 for v in e)}
    return n, edges, a_mask


@settings(deadline=None, max_examples=60)
@given(cut_graphs())
@example((6, set(), 0b010110))
@example((7, {(0, 2), (1, 3, 5), (4,), (6,)}, 0b0000101))
@example((9, {(0, 1, 2, 3, 4), (2, 5), (6, 7, 8), (1, 8)}, 0b101101101))
def test_state_record_matches_dense_oracle(case):
    # the cut-factor route against the dense reduced density matrix
    n, edges, a_mask = case
    record = state_record(Hypergraph(n, frozenset(edges)), Bipartition(n, a_mask))
    got = Fraction(record["purity_numerator"], 1 << record["purity_exponent"])
    assert got == ref_purity(n, edges, a_mask)


@pytest.mark.parametrize("small_tiles", [False, True])
@pytest.mark.parametrize(
    "shape",
    [(20, 2, 16), (7, 5, 1), (40, 64, 128), (2, 16, 1 << 14), (1, 256, 256), (3, 24, 200)],
)
def test_gram_numerator_matches_xor_popcount(monkeypatch, shape, small_tiles):
    # the dense oracle: entry (r, r') of S S^T is n_cols - 2 * popcount(r ^ r').
    # Small tiles are 16 rows by 64 columns, two batch entries per matmul:
    # several batch tiles, several row tiles (off-diagonal pairs counted
    # twice) and several column tiles (accumulated before squaring), each
    # sliced from a batch of two; (3, 24, 200) makes the last batch, row
    # and column tile short.  (40, 64, 128) has two batch tiles at the
    # default size too
    if small_tiles:
        monkeypatch.setattr(purity_mod, "_GRAM_TILE_ENTRIES", 256)
        monkeypatch.setattr(purity_mod, "_GRAM_BATCH_ENTRIES", 2048)
    n_cols = shape[2]
    bits = np.random.default_rng(shape[0] * shape[1] * n_cols).integers(0, 2, shape, dtype=np.uint8)
    signs = 1 - 2 * bits.astype(np.int64)
    dense = np.sum(np.matmul(signs, signs.transpose(0, 2, 1)) ** 2, axis=(1, 2))
    got = gram_numerator(pack_rows(bits), n_cols)
    assert got.dtype == np.int64 and got.tolist() == dense.tolist()


def test_gram_numerator_rejects_int64_overflow(monkeypatch):
    # 2^32 sign entries could give a numerator of 2^64; no rows are read
    def unreachable(*args):
        raise AssertionError("rows unpacked past the int64 check")

    monkeypatch.setattr(purity_mod, "_signs", unreachable)
    rows = np.empty((2, 1 << 16, 0), dtype=np.uint64)
    with pytest.raises(ValueError, match="overflow"):
        gram_numerator(rows, 1 << 16)


def test_gram_numerator_single_state_past_int64(monkeypatch):
    # one M past the int64 bound is summed in Python ints, not refused
    monkeypatch.setattr(purity_mod, "_GRAM_TILE_ENTRIES", 256)
    monkeypatch.setattr(purity_mod, "_INT64_ENTRIES", 24 * 200 - 1)
    bits = np.random.default_rng(5).integers(0, 2, (1, 24, 200), dtype=np.uint8)
    signs = 1 - 2 * bits[0].astype(np.int64)
    got = gram_numerator(pack_rows(bits), 200)
    assert got.dtype == object and type(got[0]) is int
    assert got[0] == np.sum((signs @ signs.T) ** 2)
    with pytest.raises(ValueError, match="overflow"):
        gram_numerator(pack_rows(np.concatenate([bits, bits])), 200)

    # entries of 2^20 in place of the signs: M M^T is 2^40 * 200 everywhere,
    # whose squares pass int64
    def big(rows, col, n_cols):
        return np.full((*rows.shape[:-1], n_cols), 2.0**20, dtype=np.float32)

    monkeypatch.setattr(purity_mod, "_signs", big)
    got = gram_numerator(pack_rows(bits), 200)
    assert got[0] == 24**2 * (200 << 40) ** 2
