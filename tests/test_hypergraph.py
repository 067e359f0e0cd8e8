"""Edge canonicalization, sign evaluation, and packed superset toggles."""

import random

import numpy as np
import pytest

from hyperent.hypergraph import (
    Bipartition,
    GraphFormatError,
    Hypergraph,
    _low_bit_pattern,
    _n_words,
    all_k_edges,
    canonicalize_edges,
    check_qubit_cap,
    format_graph_file,
    max_qubits,
    parse_graph_file,
    sign_at,
    toggle_supersets,
)

from reference import ref_signs


def sign_bits(h):
    """0/1 sign bits of h's state over all 2^n basis states, one superset toggle per edge."""
    n = h.n_qubits
    words = np.zeros(_n_words(n), dtype=np.uint64)
    for m in h.edge_masks:
        toggle_supersets(words, m, n)
    return np.unpackbits(words.view(np.uint8), bitorder="little")[: 1 << n]


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
    h = Hypergraph.from_gates(2, [(0, 1)])
    assert sign_at(h, 0b11) == -1
    assert sign_at(h, 0) == 1
    h2 = Hypergraph.from_gates(3, [(0, 1), (0, 1, 2)])
    assert sign_at(h2, 0b111) == 1  # two monomials fire
    with pytest.raises(ValueError):
        sign_at(h, 4)


def test_toggle_supersets_examples():
    assert sign_bits(Hypergraph.from_gates(3, [])).tolist() == [0] * 8
    assert sign_bits(Hypergraph.from_gates(2, [(0, 1)])).tolist() == [0, 0, 0, 1]
    bits = sign_bits(Hypergraph.from_gates(3, [(0, 1, 2)]))
    assert bits.sum() == 1 and bits[0b111] == 1
    with pytest.raises(ValueError):
        toggle_supersets(np.zeros(1, dtype=np.uint64), 0b1000, 3)


def test_zero_index_never_fires():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(1, 9)
        edges = [tuple(sorted(rnd.sample(range(n), rnd.randint(1, n)))) for _ in range(5)]
        assert sign_bits(Hypergraph.from_gates(n, edges))[0] == 0


def test_table_matches_pointwise_signs():
    rnd = random.Random(2024)
    for n in [1, 2, 3, 5, 8, 12]:
        k_max = min(n, 4)
        edges = set()
        for _ in range(2 * n):
            k = rnd.randint(1, k_max)
            edges.add(tuple(sorted(rnd.sample(range(n), k))))
        h = Hypergraph(n, frozenset(edges))
        ref = ref_signs(n, h.edges)
        assert (1 - 2 * sign_bits(h).astype(np.int64)).tolist() == ref.tolist()
        for x in rnd.sample(range(1 << n), min(200, 1 << n)):
            assert sign_at(h, x) == ref[x]


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


def test_cap_enforced(monkeypatch):
    monkeypatch.setenv("HYPERENT_MAX_QUBITS", "10")
    assert max_qubits() == 10
    with pytest.raises(ValueError, match="single-state qubit cap"):
        check_qubit_cap(12)
    monkeypatch.setenv("HYPERENT_MAX_QUBITS", "12")
    check_qubit_cap(12)
    monkeypatch.setenv("HYPERENT_MAX_QUBITS", "0")
    with pytest.raises(ValueError):
        max_qubits()


def test_low_bit_pattern_brute_force():
    for n in range(8):
        width = min(64, 1 << n)
        for low in range(64):
            want = sum(1 << j for j in range(width) if j & low == low)
            assert int(_low_bit_pattern(low, n)) == want, (low, n)


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
    with pytest.raises(GraphFormatError):
        parse_graph_file("n 3\n0 one\n")
    with pytest.raises(ValueError):
        parse_graph_file("n 2\n0 5\n")  # domain error, not format error


def test_canonicalize_accepts_any_iterable_edges():
    assert canonicalize_edges([[2, 0], {1, 0}], 3) == frozenset({(0, 2), (0, 1)})
