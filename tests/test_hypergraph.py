"""Edge canonicalization, sign evaluation by the packed superset transform, and graph files."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperent import hypergraph
from hyperent.hypergraph import (
    Bipartition,
    GraphFormatError,
    Hypergraph,
    all_k_edges,
    canonicalize_edges,
    format_graph_file,
    parse_graph_file,
)
from hyperent.purity import MAX_QUBITS, _edge_masks, _sign_rows, check_qubit_cap

from reference import ref_signs


def sign_bits(h):
    """0/1 sign bits of h's state over all 2^n basis states: the packed superset transform.

    The flat 2^n table is the one row of the cut with an empty A side,
    every edge with A part 0 and its whole mask as B part.
    """
    n = h.n_qubits
    masks = np.array(h.edge_masks, dtype=np.int64)
    (row,) = _sign_rows(np.ones((1, masks.size), dtype=bool), np.zeros_like(masks), masks, 0, n)[0]
    padded = np.unpackbits(row.view(np.uint8), bitorder="little")
    assert not padded[1 << n :].any()
    return padded[: 1 << n]


def test_canonicalize_cancels_pairs():
    assert canonicalize_edges([(1, 0), (0, 1)], 2) == frozenset()


def test_canonicalize_sorts():
    assert canonicalize_edges([(2, 0, 1)], 3) == frozenset({(0, 1, 2)})


def test_canonicalize_mod2_parity():
    assert canonicalize_edges([(0, 1)] * 3, 2) == frozenset({(0, 1)})
    assert canonicalize_edges([(0, 1)] * 4, 2) == frozenset()


def test_canonicalize_rejects_bad_edges():
    with pytest.raises(ValueError):
        canonicalize_edges([(0, 2)], 2)
    with pytest.raises(ValueError):
        canonicalize_edges([()], 2)
    with pytest.raises(ValueError):
        canonicalize_edges([(1, 1)], 2)


def test_all_k_edges_counts():
    assert len(all_k_edges(4, 2)) == 6
    assert len(all_k_edges(5, 3)) == 10
    assert all_k_edges(3, 3) == [(0, 1, 2)]
    edges = all_k_edges(5, 2)
    assert edges == sorted(edges)
    with pytest.raises(ValueError):
        all_k_edges(3, 4)
    with pytest.raises(ValueError):
        all_k_edges(3, 0)


def test_sign_at_examples():
    # bit x of the table is the parity of the edges inside support(x)
    bits = sign_bits(Hypergraph.from_gates(2, [(0, 1)]))
    assert bits[0b11] == 1 and bits[0] == 0
    bits = sign_bits(Hypergraph.from_gates(3, [(0, 1), (0, 1, 2)]))
    assert bits[0b111] == 0  # two monomials fire
    assert bits[0b011] == 1 and bits[0b101] == 0


def test_toggle_supersets_examples():
    assert sign_bits(Hypergraph.from_gates(3, [])).tolist() == [0] * 8
    assert sign_bits(Hypergraph.from_gates(2, [(0, 1)])).tolist() == [0, 0, 0, 1]
    bits = sign_bits(Hypergraph.from_gates(3, [(0, 1, 2)]))
    assert bits.sum() == 1 and bits[0b111] == 1


def test_zero_index_never_fires():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(1, 9)
        edges = [tuple(sorted(rnd.sample(range(n), rnd.randint(1, n)))) for _ in range(5)]
        assert sign_bits(Hypergraph.from_gates(n, edges))[0] == 0


def test_table_matches_pointwise_signs():
    rnd = random.Random(2024)
    for n in [*range(1, 10), 12]:
        k_max = min(n, 4)
        edges = set()
        for _ in range(2 * n):
            k = rnd.randint(1, k_max)
            edges.add(tuple(sorted(rnd.sample(range(n), k))))
        h = Hypergraph(n, frozenset(edges))
        ref = ref_signs(n, h.edges)
        assert (1 - 2 * sign_bits(h).astype(np.int64)).tolist() == ref.tolist()


def test_construction_is_order_independent():
    rnd = random.Random(5)
    n = 8
    edges = [tuple(sorted(rnd.sample(range(n), rnd.choice([2, 3])))) for _ in range(10)]
    edges = list(canonicalize_edges(edges, n))
    base = sign_bits(Hypergraph(n, frozenset(edges)))
    for _ in range(5):
        rnd.shuffle(edges)
        # single-edge tables composed by XOR, in shuffled order
        acc = np.zeros_like(base)
        for e in edges:
            acc ^= sign_bits(Hypergraph(n, frozenset({e})))
        assert np.array_equal(acc, base)


def test_single_edge_popcount():
    for n, k in [(4, 2), (6, 3), (8, 1), (10, 5)]:
        e = tuple(range(k))
        assert sign_bits(Hypergraph(n, frozenset({e}))).sum() == 1 << (n - k)


def test_cap_enforced():
    check_qubit_cap(MAX_QUBITS)
    with pytest.raises(ValueError, match=r"qubit cap \(31\): numerators must fit int64"):
        check_qubit_cap(MAX_QUBITS + 1)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        Hypergraph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Hypergraph(0, frozenset())


def test_bipartition_properties():
    part = Bipartition(5, 0b01101)
    assert part.n_a == 3 and part.n_b == 2
    assert part.a_indices == (0, 2, 3)
    assert part.b_indices == (1, 4)
    assert part.d_a == 8 and part.d_b == 4 and part.d == 32
    assert part.complement().a_mask == 0b10010
    assert Bipartition.from_first(4, 2).a_mask == 0b0011
    with pytest.raises(ValueError):
        Bipartition(3, 0)
    with pytest.raises(ValueError):
        Bipartition(3, 0b111)


def test_graph_file_round_trip():
    h = Hypergraph.from_gates(4, [(0, 1), (1, 2, 3)])
    text = format_graph_file(h)
    assert parse_graph_file(text) == h
    assert parse_graph_file("n 3\n# comment\n0 1\n\n0 1\n") == Hypergraph.from_gates(3, [])


def test_graph_file_errors():
    with pytest.raises(GraphFormatError):
        parse_graph_file("")
    with pytest.raises(GraphFormatError):
        parse_graph_file("m 3\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_file("n x\n")
    with pytest.raises(GraphFormatError, match="^bad header line 'n 3 7'$"):
        parse_graph_file("n 3 7\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_file("n 3\n0 one\n")
    with pytest.raises(ValueError):
        parse_graph_file("n 2\n0 5\n")  # domain error, not format error


def test_canonicalize_accepts_any_iterable_edges():
    assert canonicalize_edges([[2, 0], {1, 0}], 3) == frozenset({(0, 2), (0, 1)})


# (raw gates, n, message): each rejection of a gate list, in the order the
# checks run; a gate with two faults reads as the first of them
GATE_REJECTIONS = [
    ([()], 2, "empty edge"),
    ([(0, 1), ()], 2, "empty edge"),
    ([(1, 1)], 2, "repeated vertex in edge (1, 1)"),
    ([(2, 0, 2)], 3, "repeated vertex in edge (2, 0, 2)"),
    ([(0, 2)], 2, "vertex out of range [0, 2) in edge (0, 2)"),
    ([(1, -1)], 2, "vertex out of range [0, 2) in edge (1, -1)"),
    ([(5, 5)], 2, "repeated vertex in edge (5, 5)"),
    ([(-3, -3)], 2, "repeated vertex in edge (-3, -3)"),
    ([(0, 5), (0, 5)], 2, "vertex out of range [0, 2) in edge (0, 5)"),
    ([(1, 1), (1, 1)], 2, "repeated vertex in edge (1, 1)"),
    ([(0,)], 0, "vertex out of range [0, 0) in edge (0,)"),
    ([[1, 0, 1]], 2, "repeated vertex in edge [1, 0, 1]"),
]


@pytest.mark.parametrize("raw, n, message", GATE_REJECTIONS)
def test_gate_rejections(raw, n, message):
    # canonicalize_edges and from_gates run the one pass, so they refuse
    # alike, and an invalid gate listed twice is refused, never cancelled
    for build in (canonicalize_edges, lambda r, m: Hypergraph.from_gates(m, r)):
        with pytest.raises(ValueError) as info:
            build(raw, n)
        assert str(info.value) == message


def test_size_rejection_follows_the_gates():
    # with no gate, n < 1 is the constructor's refusal; any gate is out of
    # range there first
    for n in (0, -1):
        with pytest.raises(ValueError) as info:
            Hypergraph.from_gates(n, [])
        assert str(info.value) == "n_qubits must be >= 1"
    assert canonicalize_edges([], 0) == frozenset()


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (2, {(1, 0)}, "edge (1, 0) is not a strictly increasing tuple"),
        (2, {(1, 1)}, "edge (1, 1) is not a strictly increasing tuple"),
        (2, {()}, "edge () is not a strictly increasing tuple"),
        (2, {frozenset({0, 1})}, "edge frozenset({0, 1}) is not a strictly increasing tuple"),
        (2, {(5, 5)}, "edge (5, 5) is not a strictly increasing tuple"),
        (2, {(0, 2)}, "edge (0, 2) out of range for n=2"),
        (2, {(-1, 0)}, "edge (-1, 0) out of range for n=2"),
        (0, {(0, 2)}, "n_qubits must be >= 1"),
        (0, {(1, 0)}, "n_qubits must be >= 1"),
    ],
)
def test_constructor_rejections(n, edges, message):
    with pytest.raises(ValueError) as info:
        Hypergraph(n, frozenset(edges))
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_from_gates_matches_the_constructor(data):
    # shuffled gate lists with repeats: one pass equals canonicalizing and
    # then constructing, and every mask is the sum of its vertices' bits
    n = data.draw(st.integers(1, 12), label="n")
    gate = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    gates = data.draw(st.lists(gate, max_size=30), label="gates")
    raw = data.draw(st.permutations(gates + gates[: data.draw(st.integers(0, len(gates)))]))
    h = Hypergraph.from_gates(n, raw)
    built = Hypergraph(n, canonicalize_edges(raw, n))
    assert h == built and h.edge_masks == built.edge_masks
    assert h.edge_masks == tuple(sum(1 << v for v in e) for e in sorted(h.edges))
    counts = Counter(tuple(sorted(g)) for g in raw)
    assert h.edges == {e for e, count in counts.items() if count % 2}


def test_from_gates_checks_each_gate_once(monkeypatch):
    # the gates go through one pass; the constructor it calls checks no edge
    calls = []
    real = hypergraph.edge_pass

    def counting(edges, n, canonical=False):
        edges = list(edges)
        calls.append((len(edges), canonical))
        return real(edges, n, canonical)

    monkeypatch.setattr(hypergraph, "edge_pass", counting)
    gates = [(2, 0), (0, 2), (1, 2, 3), (3,), (3,), (3,)]
    h = Hypergraph.from_gates(4, gates)
    assert h.edges == {(1, 2, 3), (3,)} and h.edge_masks == (14, 8)
    assert calls == [(6, False), (0, True)]
    calls.clear()
    parse_graph_file("n 4\n0 1\n# c\n\n1 0\n2 3\n")
    assert calls == [(3, False), (0, True)]


def test_edge_masks_of_a_universe():
    # the int64 masks purity factors come from the same pass, in the
    # universe's order, and a repeated edge is refused, not cancelled
    universe = all_k_edges(6, 3)[::-1]
    assert _edge_masks(universe).tolist() == [sum(1 << v for v in e) for e in universe]
    assert _edge_masks([]).dtype == np.int64
    with pytest.raises(ValueError):
        _edge_masks([(0, 1), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"^edge \(1, 63\) out of range for n=63$"):
        _edge_masks([(1, 63)])
