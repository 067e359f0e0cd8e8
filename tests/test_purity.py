"""Purity engine: exact values, oracle agreement, and rank equivalence."""

import math
import random
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperent.gf2 as gf2_mod
import hyperent.purity as purity_mod
from hyperent.hypergraph import Bipartition, Hypergraph, all_k_edges
from hyperent.purity import (
    _cross_parts,
    _side_index,
    _sign_rows,
    cut_cells,
    gram_numerator,
    graph_entropy_rank,
    renyi2,
    state_purity,
)
from hyperent.gf2 import pack_rows
from hyperent.reports import state_record

from reference import ref_gf2_rank, ref_purity, ref_signs


def purity_of(n, edges, a_mask):
    h = Hypergraph.from_gates(n, edges)
    return state_purity(h, Bipartition(n, a_mask))


def test_product_state_purity_one():
    p = purity_of(3, [], 0b011)
    assert p == 1


def test_bell_state_half():
    assert purity_of(2, [(0, 1)], 0b01) == Fraction(1, 2)


def test_three_qubit_ccz_five_eighths():
    assert purity_of(3, [(0, 1, 2)], 0b001) == Fraction(5, 8)


def test_matches_dense_oracle_random():
    rnd = random.Random(31)
    for _ in range(40):
        n = rnd.randint(2, 8)
        edges = set()
        for _ in range(rnd.randint(0, 2 * n)):
            k = rnd.randint(1, min(4, n))
            edges.add(tuple(sorted(rnd.sample(range(n), k))))
        a_mask = rnd.randint(1, (1 << n) - 2)
        got = purity_of(n, edges, a_mask)
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
        assert Fraction(1, 1 << min(part.n_a, part.n_b)) <= p <= 1
        assert p.denominator & (p.denominator - 1) == 0  # a power of two
        assert p.denominator <= 1 << 2 * n


def test_dimension_mismatch():
    h = Hypergraph.from_gates(3, [(0, 1)])
    with pytest.raises(ValueError):
        state_purity(h, Bipartition(4, 0b0011))


def test_renyi2_values():
    assert renyi2(Fraction(1)) == 0.0
    assert renyi2(Fraction(1, 2)) == 1.0
    assert abs(renyi2(Fraction(5, 8)) - 0.6780719051126378) < 1e-12
    assert renyi2(Fraction(1, 4)) == 2.0
    with pytest.raises(ValueError):
        renyi2(Fraction(0))
    with pytest.raises(ValueError):
        renyi2(Fraction(-1, 2))
    with pytest.raises(ValueError):
        renyi2(Fraction(3, 2))


def test_dyadic_canonicalization():
    # numerators over 2^(2N) reduce to an odd numerator, or to 1/2^0
    cases = [
        (2, [(0, 1)], 0b01, (1, 1)),  # 8/2^4
        (4, [(0, 2), (1, 3)], 0b0011, (1, 2)),  # 64/2^8
        (3, [], 0b001, (1, 0)),  # 64/2^6
        (3, [(0, 1, 2)], 0b001, (5, 3)),  # 40/2^6
    ]
    for n, edges, a_mask, (num, exp) in cases:
        p = purity_of(n, edges, a_mask)
        assert type(p) is Fraction and p == Fraction(num, 1 << exp)
        record = state_record(Hypergraph.from_gates(n, edges), Bipartition(n, a_mask))
        assert (record["purity_numerator"], record["purity_exponent"]) == (num, exp)
        assert record["purity"] == num / (1 << exp)


def _cut_block(h, part):
    """Dense cut block from the edge definition: rows A vertices, columns the rest."""
    return [[int((min(a, b), max(a, b)) in h.edges) for b in part.b_indices] for a in part.a_indices]


def test_graph_cut_matrix_examples():
    assert cut_cells(Bipartition(4, 0b0011)).tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
    assert cut_cells(Bipartition(4, 0b1010)).tolist() == [[0, 1], [1, 2], [0, 3], [2, 3]]
    bell = Hypergraph.from_gates(2, [(0, 1)])
    assert _cut_block(bell, Bipartition(2, 0b01)) == [[1]]
    assert graph_entropy_rank(bell, Bipartition(2, 0b01)) == 1

    disjoint = Hypergraph.from_gates(4, [(0, 1), (2, 3)])
    assert _cut_block(disjoint, Bipartition(4, 0b0011)) == [[0, 0], [0, 0]]
    assert graph_entropy_rank(disjoint, Bipartition(4, 0b0011)) == 0

    crossy = Hypergraph.from_gates(4, [(0, 2), (1, 3), (0, 3)])
    assert _cut_block(crossy, Bipartition(4, 0b0011)) == [[1, 1], [0, 1]]
    assert graph_entropy_rank(crossy, Bipartition(4, 0b0011)) == 2


def test_graph_cut_matrix_rejects_non_2_uniform():
    h = Hypergraph.from_gates(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        graph_entropy_rank(h, Bipartition(3, 0b001))
    with pytest.raises(ValueError):
        graph_entropy_rank(Hypergraph.from_gates(3, [(0, 1)]), Bipartition(4, 0b001))


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
            assert state_purity(h, part) == Fraction(1, 1 << r)


def test_rank_purity_equivalence_larger_random_cuts():
    rnd = random.Random(78)
    for _ in range(25):
        n = rnd.randint(7, 10)
        edges = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(3 * n)}
        h = Hypergraph(n, frozenset(edges))
        a_mask = rnd.randint(1, (1 << n) - 2)
        part = Bipartition(n, a_mask)
        r = graph_entropy_rank(h, part)
        assert state_purity(h, part) == Fraction(1, 1 << r)


@st.composite
def graphs_at_cuts(draw):
    """(n, edges, a_mask): 2-uniform graphs at scattered cuts.

    Small graphs (n <= 10) take any proper mask; wide ones scatter 1-20
    A vertices among 65-90 others, so the cut block has more than 64
    columns.  Wide graphs are sparser, so that a block's rank often
    hangs on a few cells past column 64.
    """
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    wide_cut = draw(st.booleans(), label="wide")
    if wide_cut:
        n_a = draw(st.integers(1, 20), label="n_a")
        n = n_a + draw(st.integers(65, 90), label="n_b")
        a_mask = sum(1 << int(v) for v in rnd.choice(n, n_a, replace=False))
    else:
        n = draw(st.integers(2, 10), label="n")
        a_mask = draw(st.integers(1, (1 << n) - 2), label="a_mask")
    densities = [0.005, 0.05, 0.5] if wide_cut else [0.02, 0.3, 0.9]
    density = draw(st.sampled_from(densities), label="density")
    pairs = all_k_edges(n, 2)
    edges = {e for e, keep in zip(pairs, rnd.random(len(pairs)) < density) if keep}
    return n, edges, a_mask


@settings(deadline=None, max_examples=60)
@given(graphs_at_cuts())
# A = {1, 3, 5, 7, 9}: 75 columns, and edges to B vertices 78 and 79 fill columns 73 and 74
@example((80, {(1, 79), (3, 78), (4, 5), (0, 2), (7, 79)}, 0b1010101010))
# B = {1}: 69 rows and one column
@example((70, {(0, 1), (1, 68), (0, 69), (2, 3)}, (1 << 70) - 1 - 0b10))
def test_graph_entropy_rank_matches_dense_oracle(case):
    # the packed cut-block rank against dense elimination of the block as
    # defined (rows A, columns B, ascending), and against 2^-rank = purity
    n, edges, a_mask = case
    part = Bipartition(n, a_mask)
    dense = [[int((min(a, b), max(a, b)) in edges) for b in part.b_indices] for a in part.a_indices]
    r = graph_entropy_rank(Hypergraph(n, frozenset(edges)), part)
    assert r == ref_gf2_rank(dense)
    if n <= 10:
        assert ref_purity(n, edges, a_mask) == Fraction(1, 1 << r)


def test_blocked_paths_match_oracle(monkeypatch):
    # shrink the block constants so multi-block code paths run even at
    # small n, then compare against the dense oracle.  Every graph has a
    # cross edge of four vertices, which only the Gram route takes
    def unreachable(*args):
        raise AssertionError("a state with a 4-vertex cross edge took the Gauss-sum route")

    built = []

    def sign_rows(*args):
        built.append(args[3:])
        return _sign_rows(*args)

    monkeypatch.setattr(purity_mod, "_GRAM_TILE_ENTRIES", 16)
    monkeypatch.setattr(purity_mod, "_gauss_numerators", unreachable)
    monkeypatch.setattr(purity_mod, "_sign_rows", sign_rows)
    rnd = random.Random(55)
    for _ in range(10):
        n = rnd.randint(4, 9)
        a_mask = rnd.randint(1, (1 << n) - 2)
        a_side = [v for v in range(n) if a_mask >> v & 1]
        b_side = [v for v in range(n) if not a_mask >> v & 1]
        crossing = {rnd.choice(a_side), rnd.choice(b_side)}
        crossing |= set(rnd.sample([v for v in range(n) if v not in crossing], 2))
        edges = {tuple(sorted(rnd.sample(range(n), rnd.choice([2, 3])))) for _ in range(6)}
        edges.add(tuple(sorted(crossing)))
        got = purity_of(n, edges, a_mask)
        assert got == ref_purity(n, edges, a_mask)
        n_a = min(a_mask.bit_count(), n - a_mask.bit_count())
        assert built.pop() == (n_a, n - n_a) and not built


@st.composite
def low_arity_graphs(draw):
    """(n, edges, a_mask): arities 1..3 at any proper mask, n <= 14.

    Masks are scattered and as often have n_A > n_B as not; a graph may
    be empty, 2-uniform, or keep only the edges inside one side.
    """
    n = draw(st.integers(2, 14), label="n")
    a_mask = draw(st.integers(1, (1 << n) - 2), label="a_mask")
    arities = draw(st.sampled_from([(1, 2, 3), (2,), (3,), (2, 3)]), label="arities")
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7]), label="density")
    universe = [e for k in arities if k <= n for e in all_k_edges(n, k)]
    edges = {e for e, keep in zip(universe, rnd.random(len(universe)) < density) if keep}
    if draw(st.booleans(), label="local only"):
        edges = {e for e in edges if len({a_mask >> v & 1 for v in e}) == 1}
    return n, edges, a_mask


@settings(deadline=None, max_examples=80)
@given(low_arity_graphs())
@example((2, {(0, 1)}, 0b01))
@example((3, {(0, 1, 2)}, 0b001))
@example((6, set(), 0b010110))
@example((7, {(0, 2), (1, 3, 5), (4,), (6,), (0, 1, 4)}, 0b1101011))
@example((10, {(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 9)}, 0b0101010101))
def test_gauss_route_matches_oracles(case):
    # the Gauss-sum numerator in both orientations, against the dense
    # oracle (n <= 10), the Gram route on the cut's sign rows, and on
    # 2-uniform graphs the rank rule
    n, edges, a_mask = case
    h = Hypergraph(n, frozenset(edges))
    part = Bipartition(n, a_mask)
    masks = np.array(h.edge_masks, dtype=np.int64)
    nums = set()
    for side in (part, part.complement()):
        _, a_parts, b_parts = _cross_parts(masks, side)
        ones = np.ones((1, a_parts.size), dtype=bool)
        nums.add(int(purity_mod._gauss_numerators(ones, a_parts, b_parts, side.n_a, side.n_b)[0]))
    (num,) = nums
    assert state_purity(h, part) == Fraction(num, 1 << 2 * n)
    _, a_parts, b_parts = _cross_parts(masks, part)
    ones = np.ones((1, a_parts.size), dtype=bool)
    assert num == gram_numerator(_sign_rows(ones, a_parts, b_parts, part.n_a, part.n_b), part.d_b)[0]
    if n <= 10:
        assert Fraction(num, 1 << 2 * n) == ref_purity(n, edges, a_mask)
    if h.is_k_uniform(2):
        assert num << graph_entropy_rank(h, part) == 1 << 2 * n


@st.composite
def gauss_batch_cases(draw):
    """(part, a_parts, b_parts, choices, budget): a batch of choices of arity-1..3 cross edges.

    The cut has a scattered mask and either orientation, so n_A runs
    past n_B as well as below it; the cross set may be empty.  Batches
    hold 1..50 rows of bool or uint8 choices, an all-one row among them.
    budget is the real _GAUSS_BLOCK_BYTES, or a byte budget between the
    rows of 2**j and 2**(j + 1) (sample, x) stacks, j = 0..3, so blocks
    hold 1, 2, 4 or 8 stacks: several samples when n_A is small, and
    one sample's x spread over several blocks, x's high bits on the
    start row, when it is large.
    """
    n = draw(st.integers(2, 11), label="n")
    part = Bipartition(n, draw(st.integers(1, (1 << n) - 2), label="a_mask"))
    if draw(st.booleans(), label="complement"):
        part = part.complement()
    arities = draw(st.sampled_from([(1, 2, 3), (1,), (2,), (3,), (2, 3)]), label="arities")
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="density")
    universe = [e for k in arities if k <= n for e in all_k_edges(n, k)]
    edges = {e for e, keep in zip(universe, rnd.random(len(universe)) < density) if keep}
    masks = np.array(Hypergraph(n, frozenset(edges)).edge_masks, dtype=np.int64)
    _, a_parts, b_parts = _cross_parts(masks, part)
    batch = draw(st.integers(1, 50), label="batch")
    dtype = draw(st.sampled_from([bool, np.uint8]), label="dtype")
    choices = rnd.random((batch, a_parts.size)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    choices[rnd.integers(batch)] = True
    budget = purity_mod._GAUSS_BLOCK_BYTES
    j = draw(st.sampled_from([0, 1, 2, 3, None]), label="log2 stacks")
    if j is not None:
        stacks = _stack_bytes(part.n_a, part.n_b) << j
        budget = stacks + draw(st.integers(0, stacks - 1), label="spare bytes")
    return part, a_parts, b_parts, choices.astype(dtype), budget


def _stack_bytes(n_a, n_b):
    """Bytes of the rows of one (sample, x) stack of the Gauss-sum kernel."""
    width = n_a + 3 * n_b + 1
    return n_b * gf2_mod._n_words(width) * gf2_mod.word_dtype(width).itemsize


@settings(deadline=None, max_examples=80)
@given(gauss_batch_cases())
def test_gauss_numerators_match_gram_route(case):
    # every row of a batch against the Gram numerator of its sign rows
    part, a_parts, b_parts, choices, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(purity_mod, "_GAUSS_BLOCK_BYTES", budget)
        got = purity_mod._gauss_numerators(choices, a_parts, b_parts, part.n_a, part.n_b)
    rows = _sign_rows(choices, a_parts, b_parts, part.n_a, part.n_b)
    assert got.dtype == np.int64 and got.shape == (len(choices),)
    assert got.tolist() == gram_numerator(rows, part.d_b).tolist()


@pytest.mark.parametrize(
    "n_a, n_b, dtype",
    [
        (1, 2, np.uint8),
        (2, 2, np.uint16),
        (2, 3, np.uint16),
        (3, 4, np.uint16),
        (1, 5, np.uint32),
        (2, 7, np.uint32),
        (1, 10, np.uint32),
        (2, 10, np.uint64),
        (6, 13, np.uint64),
        (3, 20, np.uint64),
        (1, 21, np.uint64),
        (4, 20, np.uint64),
    ],
)
def test_gauss_numerators_at_word_boundaries(monkeypatch, n_a, n_b, dtype):
    # Gauss rows of N + 2 n_B + 1 = 8, 9, 16, 17, 32, 33, 64 and 65 bits:
    # the widest row of each word type and one bit more, where 65 bits are
    # two uint64 words with the U block in the second; against the Gram route
    n = n_a + n_b
    width = n + 2 * n_b + 1
    part = Bipartition.from_first(n, n_a)
    rnd = np.random.default_rng(n_a * 100 + n_b)
    universe = [e for k in (1, 2, 3) for e in all_k_edges(n, k)]
    edges = {e for e, keep in zip(universe, rnd.random(len(universe)) < 0.3) if keep}
    masks = np.array(Hypergraph(n, frozenset(edges)).edge_masks, dtype=np.int64)
    _, a_parts, b_parts = _cross_parts(masks, part)
    choices = rnd.random((6, a_parts.size)) < 0.5
    choices[0] = True
    seen = []
    eliminate = purity_mod.gf2.eliminate
    monkeypatch.setattr(
        purity_mod.gf2, "eliminate", lambda w: seen.append((w.dtype, w.shape[1])) or eliminate(w)
    )
    got = purity_mod._gauss_numerators(choices, a_parts, b_parts, n_a, n_b)
    assert set(seen) == {(np.dtype(dtype), 1 if width <= 64 else 2)}
    rows = _sign_rows(choices, a_parts, b_parts, n_a, n_b)
    assert got.tolist() == gram_numerator(rows, 1 << n_b).tolist()


@pytest.mark.parametrize("n, n_a", [(26, 2), (31, 1)])
def test_gauss_numerators_two_word_rows(monkeypatch, n, n_a):
    # rows of 75 and 92 bits, the U block in a second word, at cuts whose
    # 2^24 and 2^30 columns no Gram oracle reaches: every edge touches the
    # same 8 qubits, the top one among them, so each purity is that of the
    # state relabelled onto those qubits
    rnd = random.Random(n)
    verts = list(range(n_a)) + sorted(rnd.sample(range(n_a, n - 1), 7 - n_a)) + [n - 1]
    local = [e for k in (2, 3) for e in all_k_edges(8, k) if 0 < sum(v < n_a for v in e) < k]
    masks = np.array([sum(1 << verts[v] for v in e) for e in local], dtype=np.int64)
    cross, a_parts, b_parts = _cross_parts(masks, Bipartition.from_first(n, n_a))
    assert cross.tolist() == list(range(len(local)))
    choices = np.random.default_rng(n).random((6, len(local))) < 0.5
    choices[-1] = True
    seen = []
    eliminate = purity_mod.gf2.eliminate
    monkeypatch.setattr(
        purity_mod.gf2, "eliminate", lambda w: seen.append((w.dtype, w.shape[1])) or eliminate(w)
    )
    want = []
    for row in choices:
        small = Hypergraph(8, frozenset(compress(local, row)))
        purity = state_purity(small, Bipartition.from_first(8, n_a))
        assert purity == ref_purity(8, small.edges, (1 << n_a) - 1)
        want.append(purity * (1 << 2 * n))
    seen.clear()
    # blocks of 2 and 1 stacks put x's high bits, then all of them, on the start row
    for budget in (purity_mod._GAUSS_BLOCK_BYTES, 2 * _stack_bytes(n_a, n - n_a), 1):
        monkeypatch.setattr(purity_mod, "_GAUSS_BLOCK_BYTES", budget)
        got = purity_mod._gauss_numerators(choices, a_parts, b_parts, n_a, n - n_a)
        assert got.tolist() == want
    assert set(seen) == {(np.dtype(np.uint64), 2)}


def test_single_rows_past_256_cells():
    # N = 33 at 16|17 has 272 cells, past what a uint8 cell index holds;
    # the rows against a per-edge build, straight from the kernel's row builder
    n, n_a, n_b = 33, 16, 17
    part = Bipartition.from_first(n, n_a)
    rnd = random.Random(33)
    edges = {(1, 9, 18), (1, 15, 18), (1, 18, 23), (15, 32), (14, 15, 32), (15, 31, 32)}
    while len(edges) < 400:
        k = rnd.randint(2, 3)
        e = tuple(sorted(rnd.sample(range(n), k)))
        if 0 < sum(v < n_a for v in e) < k:
            edges.add(e)
    masks = np.array([sum(1 << v for v in e) for e in sorted(edges)], dtype=np.int64)
    cross, a_parts, b_parts = _cross_parts(masks, part)
    assert cross.size == len(edges)
    choices = np.array([[rnd.random() < 0.5 for _ in edges] for _ in range(3)] + [[True] * len(edges)])
    want = np.zeros((len(choices), n_a, n_b), dtype=np.int64)
    for s, row in enumerate(choices):
        for chosen, e in zip(row, sorted(edges)):
            a = [v for v in e if v < n_a]
            b = [v - n_a for v in e if v >= n_a]
            if not chosen:
                continue
            if len(a) == 1 and len(b) == 1:
                want[s, a[0], b[0]] ^= 1 << n
            elif len(a) == 1:
                want[s, a[0], b[0]] ^= 1 << b[1]
                want[s, a[0], b[1]] ^= 1 << b[0]
            else:
                want[s, a[0], b[0]] ^= 1 << n_b + a[1]
                want[s, a[1], b[0]] ^= 1 << n_b + a[0]
    got = purity_mod._single_rows(choices, a_parts, b_parts, n_a, n_b)
    assert got.tolist() == want.tolist()


def _disjoint_blocks(seed, sizes):
    """(graph, part, purity) of random arity-1..3 graphs on disjoint blocks of the given sizes.

    The blocks' qubits are scattered over the whole graph and each block
    is cut by a random proper mask, so the purity is the product of the
    blocks' dense purities.
    """
    rnd = random.Random(seed)
    n = sum(sizes)
    order = rnd.sample(range(n), n)
    edges, a_mask, purity = set(), 0, Fraction(1)
    for size in sizes:
        verts, order = order[:size], order[size:]
        local = {tuple(sorted(rnd.sample(range(size), rnd.randint(1, 3)))) for _ in range(3 * size)}
        local_mask = rnd.randint(1, (1 << size) - 2)
        purity *= ref_purity(size, local, local_mask)
        edges |= {tuple(sorted(verts[v] for v in e)) for e in local}
        a_mask |= sum(1 << verts[v] for v in range(size) if local_mask >> v & 1)
    return Hypergraph(n, frozenset(edges)), Bipartition(n, a_mask), purity


@pytest.mark.parametrize(
    "seed, sizes", [(1, (10, 9, 9)), (2, (8, 10, 7, 5)), (3, (10, 10, 8, 3)), (4, (8, 8, 8, 7))]
)
def test_gauss_route_at_the_qubit_cap(seed, sizes):
    # N = 28..31, where the Gram route is too slow to be an oracle: the
    # purity of disjoint blocks is the product of theirs
    h, part, purity = _disjoint_blocks(seed, sizes)
    assert h.n_qubits == sum(sizes) <= purity_mod.MAX_QUBITS
    assert state_purity(h, part) == purity


def test_gauss_blocks_of_x_match_one_block(monkeypatch):
    # 2^11 blocks of 2^4 x instead of 16 blocks of 2^11 give the same numerator
    h, part, purity = _disjoint_blocks(2, (8, 10, 7, 5))
    assert (part.n_a, part.n_b) == (15, 15)
    monkeypatch.setattr(purity_mod, "_GAUSS_BLOCK_BYTES", _stack_bytes(15, 15) << 4)
    assert state_purity(h, part) == purity


@pytest.mark.parametrize(
    "n, n_a, samples, blocks",
    [(14, 7, 600, 10), (31, 15, 1, 16), (31, 1, 300, 2)],
)
def test_gauss_blocks_fit_the_byte_budget(monkeypatch, n, n_a, samples, blocks):
    # every block handed to eliminate, on the CCZ universe of the cut: a
    # C-contiguous (rows, words, stacks) stack whose rows fit the budget,
    # and more than half of it unless the block is all the work there is
    part = Bipartition.from_first(n, n_a)
    masks = np.array([sum(1 << v for v in e) for e in all_k_edges(n, 3)], dtype=np.int64)
    _, a_parts, b_parts = _cross_parts(masks, part)
    choices = np.random.default_rng(n).random((samples, a_parts.size)) < 0.5
    seen = []
    eliminate = purity_mod.gf2.eliminate
    monkeypatch.setattr(
        purity_mod.gf2,
        "eliminate",
        lambda w: seen.append((w.shape, w.nbytes, w.flags.c_contiguous)) or eliminate(w),
    )
    purity_mod._gauss_numerators(choices, a_parts, b_parts, n_a, n - n_a)
    budget, stack = purity_mod._GAUSS_BLOCK_BYTES, _stack_bytes(n_a, n - n_a)
    assert len(seen) == blocks
    for shape, size, contiguous in seen:
        assert contiguous and shape[0] == n - n_a and size == shape[2] * stack
        assert size <= budget
    assert sum(shape[2] for shape, _, _ in seen) == samples << n_a
    assert seen[0][1] > budget // 2


def test_side_index_matches_bit_loop():
    # the packed subsystem index against its definition, bit by bit
    rng = np.random.default_rng(8)
    for n in (2, 9, 31, 63):
        masks = rng.integers(0, 1 << n, 200, dtype=np.int64)
        for side in (1, (1 << n) - 1, int(rng.integers(1, 1 << n))):
            want = np.zeros_like(masks)
            for i, pos in enumerate(p for p in range(n) if side >> p & 1):
                want |= (masks >> pos & 1) << i
            got = purity_mod._side_index(masks, side)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()


@st.composite
def sign_row_cases(draw):
    """(n, a_mask, edges, choices, block): a scattered cut with n_B in 1..9 and cross-edge choices.

    n_B <= 5 leaves one padded word per row, 6 fills one word and 7..9
    add word-index levels; n_A runs past n_B as well as below it.  The
    edges have 1..5 vertices, local ones among them, and may be none.
    The choice rows include all-zero and all-one rows, as bool or uint8.
    block is a _ROW_BLOCK_BITS of the real size or one small enough that
    the B levels cross blocks of 1, 2 or 4 words.
    """
    n_b = draw(st.integers(1, 9), label="n_b")
    n_a = draw(st.integers(1, min(6, 10 - n_b)), label="n_a")
    n = n_a + n_b
    a_mask = sum(1 << v for v in draw(st.permutations(range(n)), label="order")[:n_a])
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4]), label="density")
    universe = [e for k in range(1, min(5, n) + 1) for e in all_k_edges(n, k)]
    edges = {e for e, keep in zip(universe, rnd.random(len(universe)) < density) if keep}
    masks = np.array(Hypergraph(n, frozenset(edges)).edge_masks, dtype=np.int64)
    cross = _cross_parts(masks, Bipartition(n, a_mask))[0].size
    dtype = draw(st.sampled_from([bool, np.uint8]), label="dtype")
    picks = rnd.random((draw(st.integers(0, 3), label="random rows"), cross)) < 0.5
    choices = np.concatenate([np.zeros((1, cross)), np.ones((1, cross)), picks]).astype(dtype)
    block = draw(st.sampled_from([0, 1, 2, purity_mod._ROW_BLOCK_BITS]), label="block")
    return n, a_mask, edges, choices, block


@settings(deadline=None, max_examples=60)
@given(sign_row_cases())
def test_sign_rows_match_dense_signs(case):
    # each batch row against the dense signs of its chosen cross edges,
    # rearranged to (a, b) by the subsystem index; padding bits stay 0
    n, a_mask, edges, choices, block = case
    part = Bipartition(n, a_mask)
    h = Hypergraph(n, frozenset(edges))
    cross, a_parts, b_parts = _cross_parts(np.array(h.edge_masks, dtype=np.int64), part)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(purity_mod, "_ROW_BLOCK_BITS", block)
        rows = _sign_rows(choices, a_parts, b_parts, part.n_a, part.n_b)
    assert rows.dtype == np.uint64 and rows.shape == (len(choices), part.d_a, (part.d_b + 63) >> 6)
    basis = np.arange(1 << n, dtype=np.int64)
    a_index, b_index = _side_index(basis, part.a_mask), _side_index(basis, part.b_mask)
    ordered = sorted(h.edges)
    for chosen, packed in zip(choices, rows):
        signs = ref_signs(n, [ordered[j] for j in cross[chosen.astype(bool)]])
        want = np.zeros((part.d_a, part.d_b), dtype=np.uint8)
        want[a_index, b_index] = signs < 0
        bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, part.d_b :].any()
        assert np.array_equal(bits[:, : part.d_b], want)


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


@settings(deadline=None, max_examples=60)
@given(cut_graphs())
@example((2, {(0, 1)}, 0b01))
@example((5, {(2,), (0, 4)}, 0b00110))
@example((8, {(0, 1, 2), (3, 4, 5), (1, 6, 7), (0, 7)}, 0b10100101))
def test_state_record_fields_are_canonical(case):
    # an odd numerator over the smallest power of two (1/2^0 at purity
    # 1); the entropy is exponent - log2(numerator) exactly
    n, edges, a_mask = case
    record = state_record(Hypergraph(n, frozenset(edges)), Bipartition(n, a_mask))
    num, exp = record["purity_numerator"], record["purity_exponent"]
    assert type(num) is int and type(exp) is int
    assert num % 2 == 1 and (exp > 0 or num == 1)
    assert 0 <= exp <= 2 * n
    assert Fraction(num, 1 << exp) == ref_purity(n, edges, a_mask)
    assert record["purity"] == num / (1 << exp)
    assert record["renyi2"] == exp - math.log2(num)


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
    # 2^32 sign entries could give a numerator of 2^64; no rows are read,
    # whether the batch holds one matrix or more
    def unreachable(*args):
        raise AssertionError("rows unpacked past the int64 check")

    monkeypatch.setattr(purity_mod, "_signs", unreachable)
    for batch in (1, 2):
        rows = np.empty((batch, 1 << 16, 0), dtype=np.uint64)
        with pytest.raises(ValueError, match="overflow"):
            gram_numerator(rows, 1 << 16)
