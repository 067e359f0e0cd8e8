"""Ensemble universes, sampling, enumeration, and moment estimators."""

import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import unittest.mock
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperent.ensembles as ensembles_mod
import hyperent.gf2 as gf2_mod
import hyperent.purity as purity_mod
from hyperent.ensembles import (
    EnsembleSpec,
    Family,
    Scope,
    edge_universe,
    entropy_stats,
    exact_moments,
    mc_moments,
    _subset_numerators,
    check_universe_size,
    sample_hypergraph,
    split_run,
)
from hyperent.formulas import (
    ccz_avg_purity,
    ccz_half_avg_purity,
    ccz_half_purity_variance,
    ccz_purity_variance_leading,
    cz_avg_purity,
    cz_purity_variance,
)
from hyperent.hypergraph import Bipartition, Hypergraph, all_k_edges
from hyperent.purity import (
    _cross_parts,
    _cut_ranks,
    _cut_sampler,
    _cut_values,
    _edge_masks,
    _numerators,
    _smaller_side,
    cut_cells,
    graph_entropy_rank,
    renyi2,
    state_purity,
)
from hyperent.rng import CounterRng, bernoulli_block, stream_at, stream_block, threshold_u64

from reference import ref_ensemble_moments, ref_gf2_rank, ref_purity, ref_subsets


def test_edge_universe_counts():
    assert len(edge_universe(EnsembleSpec(4, Family.CZ, scope=Scope.ALL_EDGES))) == 6
    part6 = Bipartition.from_first(6, 3)
    assert len(edge_universe(EnsembleSpec(6, Family.CCZ_HALF), part6)) == 9
    assert len(edge_universe(EnsembleSpec(6, Family.CCZ), part6)) == 18
    part8 = Bipartition.from_first(8, 4)
    assert len(edge_universe(EnsembleSpec(8, Family.CZ), part8)) == 16


def test_edge_universe_sorted_and_cross():
    part = Bipartition(5, 0b00101)
    edges = edge_universe(EnsembleSpec(5, Family.CZ), part)
    assert edges == sorted(edges)
    for e in edges:
        assert any(part.a_mask >> v & 1 for v in e)
        assert any(part.b_mask >> v & 1 for v in e)


@settings(deadline=None)
@given(st.data())
def test_edge_universe_matches_per_edge_filter(data):
    # the universe order is the stream layout: same list as filtering every k-subset
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    a = data.draw(st.integers(1, (1 << n) - 2), label="a_mask")
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    spec, part = EnsembleSpec(n, Family.K_UNIFORM, k=k, scope=scope), Bipartition(n, a)
    expected = list(itertools.combinations(range(n), k))
    if scope is Scope.CROSS_ONLY:
        expected = [
            e for e in expected if any(a >> v & 1 for v in e) and not all(a >> v & 1 for v in e)
        ]
    assert edge_universe(spec, part) == expected


def test_half_family_universe_shape():
    part = Bipartition(5, 0b00110)  # A = {1, 2}
    edges = edge_universe(EnsembleSpec(5, Family.CCZ_HALF), part)
    assert len(edges) == 2 * 3  # N_A * C(3, 2)
    for e in edges:
        assert sum(part.a_mask >> v & 1 for v in e) == 1


def test_universe_errors():
    with pytest.raises(ValueError):
        edge_universe(EnsembleSpec(4, Family.CZ), Bipartition(5, 0b1))
    with pytest.raises(ValueError):
        edge_universe(EnsembleSpec(4, Family.CZ))  # cross scope needs a partition
    with pytest.raises(ValueError):
        edge_universe(EnsembleSpec(4, Family.CCZ_HALF), Bipartition(4, 0b0111))
    with pytest.raises(ValueError):
        EnsembleSpec(4, Family.K_UNIFORM)
    with pytest.raises(ValueError):
        EnsembleSpec(4, Family.CZ, k=3)
    with pytest.raises(ValueError):
        EnsembleSpec(4, Family.CZ, edge_probability=Fraction(3, 2))


def test_sampling_degenerate_probabilities():
    spec0 = EnsembleSpec(5, Family.CZ, edge_probability=Fraction(0), scope=Scope.ALL_EDGES)
    spec1 = EnsembleSpec(5, Family.CZ, edge_probability=Fraction(1), scope=Scope.ALL_EDGES)
    rng = CounterRng(0)
    assert sample_hypergraph(spec0, None, rng).edges == frozenset()
    assert len(sample_hypergraph(spec1, None, rng).edges) == 10


def test_sampling_mean_edge_count():
    spec = EnsembleSpec(4, Family.CZ, scope=Scope.ALL_EDGES)
    rng = CounterRng(1234)
    total = sum(len(sample_hypergraph(spec, None, rng).edges) for _ in range(10_000))
    assert abs(total / 10_000 - 3.0) < 0.08


def test_sampling_consumes_universe_draws():
    # C(6, 3) = 20 choices: at p = 1/2 the low 20 bits of the draw at the
    # cursor (bits from 64 * cursor on), consuming one draw; at p = 3/10
    # the next 20 draws, one per choice
    universe = all_k_edges(6, 3)
    rng = CounterRng(5, cursor=5)
    h = sample_hypergraph(EnsembleSpec(6, Family.CCZ, scope=Scope.ALL_EDGES), None, rng)
    assert h.edges == {e for j, e in enumerate(universe) if stream_at(5, 5) >> j & 1}
    assert rng.cursor == 6
    p = Fraction(3, 10)
    rng = CounterRng(5, cursor=5)
    spec = EnsembleSpec(6, Family.CCZ, edge_probability=p, scope=Scope.ALL_EDGES)
    h = sample_hypergraph(spec, None, rng)
    assert h.edges == {e for j, e in enumerate(universe) if stream_at(5, 5 + j) < threshold_u64(p)}
    assert rng.cursor == 25


def _replayed(spec, part, seed, i):
    """Sample i of a Monte Carlo run by hand: the edges of choices [i u, (i + 1) u) of the seed."""
    universe = edge_universe(spec, part)
    u = len(universe)
    keep = bernoulli_block(seed, i * u, u, spec.edge_probability)
    return Hypergraph(spec.n_qubits, frozenset(itertools.compress(universe, keep)))


def _class_weights(monkeypatch, stats):
    """The (weight, subset count) classes that one stats() call hands to _reduce."""
    seen = []
    real = ensembles_mod._reduce

    def spy(n, classes, *args, **kwargs):
        seen.append([(w, sums[0]) for w, sums in classes])
        return real(n, classes, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(ensembles_mod, "_reduce", spy)
        stats()
    (classes,) = seen
    return classes


def test_enumerate_smallest_ensembles(monkeypatch):
    # exhaustive moments visit 2^u subsets, each weighted p^c (1-p)^(u-c),
    # held as the ints p^c (1-p)^(u-c) denominator^u
    spec = EnsembleSpec(2, Family.CZ, scope=Scope.ALL_EDGES)
    assert edge_universe(spec) == [(0, 1)]
    part = Bipartition(2, 0b01)
    assert exact_moments(spec, part).samples == 2
    classes = _class_weights(monkeypatch, lambda: entropy_stats(spec, part))
    assert [w for w, _ in classes] == [1, 1]

    spec = EnsembleSpec(3, Family.CCZ, scope=Scope.ALL_EDGES)
    assert exact_moments(spec, Bipartition(3, 0b001)).samples == 2

    spec = EnsembleSpec(6, Family.CCZ_HALF)
    assert exact_moments(spec, Bipartition.from_first(6, 3)).samples == 512


def test_enumeration_weights_sum_to_one(monkeypatch):
    # the 2-edges on 4 qubits, 4 of them across the 2|2 cut, which alone are
    # enumerated: the integer class weights times C(4, c) sum to denominator^4,
    # each the exact weight p^c (1-p)^(4-c) times denominator^4
    u, part = 4, Bipartition.from_first(4, 2)
    for p in [Fraction(1, 2), Fraction(1, 4), Fraction(3, 10), Fraction(1)]:
        spec = EnsembleSpec(4, Family.CZ, edge_probability=p, scope=Scope.ALL_EDGES)
        assert len(edge_universe(spec)) == 6
        classes = _class_weights(monkeypatch, lambda: entropy_stats(spec, part))
        assert [count for _, count in classes] == [math.comb(u, c) << 2 for c in range(u + 1)]
        weights = [w for w, _ in classes]
        assert weights == [p**c * (1 - p) ** (u - c) * p.denominator**u for c in range(u + 1)]
        assert sum(math.comb(u, c) * w for c, w in enumerate(weights)) == p.denominator**u


def test_enumeration_cap(monkeypatch):
    # 66 edges, 36 across the cut: refused by the transform's byte budget
    # before any edge is factored, by the moments at p = 1/3 and the
    # entropies, which enumerate
    def unreachable(*args):
        raise AssertionError("edges factored past the byte budget")

    monkeypatch.setattr(ensembles_mod, "_edge_masks", unreachable)
    spec = EnsembleSpec(12, Family.CZ, scope=Scope.ALL_EDGES)
    part = Bipartition.from_first(12, 6)
    with pytest.raises(ValueError, match="^36 cross edges need .*-byte budget$"):
        exact_moments(
            EnsembleSpec(12, Family.CZ, edge_probability=Fraction(1, 3), scope=Scope.ALL_EDGES), part
        )
    with pytest.raises(ValueError, match="byte budget"):
        entropy_stats(spec, part)
    # C(30, 4) cross edges: 2^27409 bytes would pass str()'s 4300-digit limit
    spec = EnsembleSpec(31, Family.K_UNIFORM, k=5, edge_probability=Fraction(1, 3), scope=Scope.ALL_EDGES)
    with pytest.raises(ValueError, match=r"^27405 cross edges need two int64 arrays of 2\^27405 entries, "):
        exact_moments(spec, Bipartition.from_first(31, 1))


def test_exact_moments_pinned_values():
    est = exact_moments(EnsembleSpec(2, Family.CZ, scope=Scope.ALL_EDGES), Bipartition(2, 1))
    assert (est.mean, est.variance) == (Fraction(3, 4), Fraction(1, 16))
    assert est.exact and est.samples == 2

    est = exact_moments(EnsembleSpec(3, Family.CCZ, scope=Scope.ALL_EDGES), Bipartition(3, 1))
    assert est.mean == Fraction(13, 16)

    est = exact_moments(EnsembleSpec(4, Family.CZ), Bipartition(4, 1))
    assert est.mean == Fraction(9, 16)
    assert est.mean == cz_avg_purity(1, 3)


def test_exact_moments_methods_agree():
    # the counting route against entropy moments measured by enumerating
    # the GF(2) rank of every cut block; 2-edge entropies are integers
    stats = entropy_stats(EnsembleSpec(8, Family.CZ), Bipartition.from_first(8, 4))
    assert isinstance(stats.entropy.mean, Fraction)
    assert stats.entropy.mean == Fraction(208965, 65536)
    assert stats.entropy.variance == Fraction(1709772135, 4294967296)


def test_exact_moments_against_reference_fold():
    # small ensembles recomputed by the dense per-subset oracle
    cases = [
        (EnsembleSpec(3, Family.CZ, scope=Scope.ALL_EDGES), Bipartition(3, 0b011)),
        (EnsembleSpec(4, Family.CCZ, scope=Scope.ALL_EDGES), Bipartition(4, 0b0101)),
        (
            EnsembleSpec(4, Family.CZ, edge_probability=Fraction(3, 10), scope=Scope.ALL_EDGES),
            Bipartition(4, 0b0011),
        ),
        (EnsembleSpec(5, Family.CCZ_HALF), Bipartition(5, 0b00011)),
        (EnsembleSpec(5, Family.K_UNIFORM, k=4, scope=Scope.ALL_EDGES), Bipartition(5, 0b10101)),
    ]
    for spec, part in cases:
        universe = edge_universe(spec, part)
        want_mean, want_var = ref_ensemble_moments(
            spec.n_qubits, universe, part.a_mask, spec.edge_probability
        )
        est = exact_moments(spec, part)
        assert est.mean == want_mean, spec
        assert est.variance == want_var, spec


def test_all_edges_equals_cross_only():
    # edges living inside one side cancel out of the purity statistics
    for spec_all, spec_cross, part in [
        (
            EnsembleSpec(5, Family.CZ, scope=Scope.ALL_EDGES),
            EnsembleSpec(5, Family.CZ),
            Bipartition(5, 0b00110),
        ),
        (
            EnsembleSpec(6, Family.CZ, scope=Scope.ALL_EDGES),
            EnsembleSpec(6, Family.CZ),
            Bipartition.from_first(6, 3),
        ),
        (
            EnsembleSpec(5, Family.CCZ, scope=Scope.ALL_EDGES),
            EnsembleSpec(5, Family.CCZ),
            Bipartition.from_first(5, 2),
        ),
    ]:
        full = exact_moments(spec_all, part)
        cross = exact_moments(spec_cross, part)
        assert full.mean == cross.mean
        assert full.variance == cross.variance


def test_mc_determinism():
    spec = EnsembleSpec(10, Family.CZ)
    part = Bipartition.from_first(10, 5)
    a = mc_moments(spec, part, 10, seed=9)
    b = mc_moments(spec, part, 10, seed=9)
    assert a == b
    c = mc_moments(spec, part, 10, seed=10)
    assert a != c


def _universe_numerators(universe, part, bits):
    """purity._numerators of (batch, universe) 0/1 edge choices, on the smaller side as A."""
    side = _smaller_side(part)
    return _numerators(bits, *_cross_parts(_edge_masks(universe), side), side.n_a, side.n_b)


def _cell_positions(universe, part):
    """Universe position of the edge cut_cells names at each cut-block cell."""
    return np.array([universe.index(tuple(e)) for e in cut_cells(part).tolist()])


def _assert_kernels_agree_on_drawn_bits(monkeypatch, spec, part, samples, seed):
    """Record the cut blocks a 2-edge Monte Carlo run ranks, then square their graphs instead.

    Every route ranks packed cut blocks, so the blocks are recorded as
    gf2.batch_rank gets them; in a cross universe every edge is a cut
    cell, so they are the samples' whole edge choices.
    """
    ranked = []
    real = gf2_mod.batch_rank
    monkeypatch.setattr(gf2_mod, "batch_rank", lambda w, c: ranked.append(w) or real(w, c))
    mc_moments(spec, part, samples, seed)
    blocks = np.unpackbits(np.concatenate(ranked).view(np.uint8), axis=-1, bitorder="little")
    assert blocks.shape[:2] == (samples, part.n_a)
    universe = edge_universe(spec, part)
    order = _cell_positions(universe, part)
    assert sorted(order.tolist()) == list(range(len(universe)))
    bits = np.zeros((samples, len(universe)), dtype=bool)
    bits[:, order] = blocks[..., : part.n_b].reshape(samples, -1)
    ranks = _cut_ranks(bits, order, part)
    nums = _universe_numerators(universe, part, bits)
    assert nums.tolist() == [1 << (2 * spec.n_qubits - r) for r in ranks.tolist()]


def test_mc_methods_agree_exactly_per_seed(monkeypatch):
    # the Gram numerator of every graph the rank kernel sampled is 2^(2N - rank)
    spec = EnsembleSpec(12, Family.CZ)
    _assert_kernels_agree_on_drawn_bits(monkeypatch, spec, Bipartition.from_first(12, 6), 400, 77)


def test_mc_sample_path_matches_manual_sampling():
    # sample i reads choices [i u, (i + 1) u) of the root seed, at any
    # worker count; replaying it by hand must reproduce the estimate
    spec = EnsembleSpec(8, Family.CZ)
    part = Bipartition.from_first(8, 4)
    values = [float(ref_purity(8, _replayed(spec, part, 31, i).edges, part.a_mask))
              for i in range(50)]
    mean = sum(values) / 50
    for workers in (1, 3):
        est = mc_moments(spec, part, 50, seed=31, workers=workers)
        assert math.isclose(est.mean, mean, rel_tol=0, abs_tol=1e-15)


def test_mc_error_shrinks_with_samples():
    spec = EnsembleSpec(12, Family.CZ)
    part = Bipartition.from_first(12, 6)
    small = mc_moments(spec, part, 3000, seed=21)
    large = mc_moments(spec, part, 9000, seed=21)
    ratio = small.std_error_mean / large.std_error_mean
    assert 1.55 <= ratio <= 1.95  # ~ sqrt(3)


def test_mc_validation():
    spec = EnsembleSpec(6, Family.CCZ)
    part = Bipartition.from_first(6, 3)
    with pytest.raises(ValueError):
        mc_moments(spec, part, 1, seed=0)
    with pytest.raises(ValueError):
        mc_moments(spec, part, 100, seed=0, workers=0)


def test_rank_and_statevector_agree_per_sampled_graph():
    spec = EnsembleSpec(9, Family.CZ)
    part = Bipartition(9, 0b010110011)
    rng = CounterRng(8)
    for _ in range(60):
        h = sample_hypergraph(spec, part, rng)
        r = graph_entropy_rank(h, part)
        assert state_purity(h, part) == Fraction(1, 1 << r)


def test_entropy_stats_exhaustive_cz2():
    spec = EnsembleSpec(2, Family.CZ, scope=Scope.ALL_EDGES)
    stats = entropy_stats(spec, Bipartition(2, 1))
    assert stats.entropy.mean == Fraction(1, 2)
    assert stats.entropy.variance == Fraction(1, 4)
    assert stats.purity.mean == Fraction(3, 4)
    assert stats.entropy.exact
    assert math.isclose(stats.minus_log2_mean_purity, -math.log2(0.75))


def test_entropy_stats_exhaustive_statevector_matches_rank():
    # measured by enumerating cut-block ranks; p = 3/10 weighs every edge count
    spec = EnsembleSpec(7, Family.CZ, edge_probability=Fraction(3, 10))
    stats = entropy_stats(spec, Bipartition.from_first(7, 2))
    assert isinstance(stats.entropy.mean, Fraction)
    assert stats.entropy.mean == Fraction(16264718481, 10000000000)
    assert stats.entropy.variance == Fraction(29049992143817052639, 10**20)


def test_entropy_stats_mc_reports_both_views():
    spec = EnsembleSpec(10, Family.CZ)
    part = Bipartition.from_first(10, 5)
    stats = entropy_stats(spec, part, samples=2000, seed=6)
    assert not stats.entropy.exact
    assert stats.entropy.samples == 2000
    # Jensen: mean of -log2 P is at least -log2 of the mean purity
    assert stats.entropy.mean >= stats.minus_log2_mean_purity


def test_moment_estimate_variance_nonnegative():
    spec = EnsembleSpec(6, Family.CCZ)
    part = Bipartition.from_first(6, 3)
    est = mc_moments(spec, part, 500, seed=4)
    assert est.variance >= 0
    assert est.std_error_mean > 0
    assert est.std_error_variance > 0


def test_mc_orientation_flip_matches_manual():
    # n_a > n_b flips the internal orientation; replay by hand to check
    spec = EnsembleSpec(7, Family.CCZ)
    part = Bipartition.from_first(7, 5)
    est = mc_moments(spec, part, 40, seed=19)
    values = [
        float(ref_purity(7, _replayed(spec, part, 19, i).edges, part.a_mask)) for i in range(40)
    ]
    assert math.isclose(est.mean, sum(values) / 40, rel_tol=0, abs_tol=1e-15)


def _chunked_stats(monkeypatch, family):
    """Exhaustive stats at p = 3/10, with default and with tiny blocks and chunks."""
    spec = EnsembleSpec(4, family, edge_probability=Fraction(3, 10), scope=Scope.ALL_EDGES)
    part = Bipartition.from_first(4, 2)
    base = entropy_stats(spec, part)
    tallies = []
    tally = ensembles_mod._tally
    monkeypatch.setattr(ensembles_mod, "_tally", lambda *a: tallies.append(a[0]) or tally(*a))
    monkeypatch.setattr(ensembles_mod, "_HIST_CHUNK", 3)  # d = 4: blocks of 3 and 1 states
    monkeypatch.setattr(ensembles_mod, "_TALLY_CHUNK", 5)
    assert tallies == []
    chunked = entropy_stats(spec, part)
    cross = edge_universe(EnsembleSpec(4, family, edge_probability=Fraction(3, 10)), part)
    assert tallies == list(range(0, 1 << len(cross), 5))  # the cross edges' subsets alone
    monkeypatch.undo()
    return base, chunked


def test_exhaustive_tally_chunking(monkeypatch):
    # tiny histogram blocks and tally chunks must not change any result;
    # p != 1/2, so every subset's edge count matters
    for family in (Family.CCZ, Family.CZ):
        base, chunked = _chunked_stats(monkeypatch, family)
        assert chunked == base


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_tally_matches_naive_count(data):
    # the sorted keys num << b | c, b = u.bit_length(), give the naive count
    # of (popcount(lo + i), num) at every width, with values up to the
    # widest a key holds, chunk starts that are not powers of two, and a
    # last chunk shorter than the rest
    u = data.draw(st.integers(0, 26), label="u")
    top = min(1 << (64 - u.bit_length()), 1 << 63) - 1  # numerators are int64
    lo = data.draw(st.integers(0, (1 << u) - 1), label="lo")
    size = data.draw(st.integers(1, min(300, (1 << u) - lo)), label="size")
    chunk = data.draw(st.integers(1, size + 1), label="chunk")
    pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4), label="pool")
    value = st.sampled_from(pool + [0, top]) | st.integers(0, top)  # runs of equal keys
    values = data.draw(st.lists(value, min_size=size, max_size=size), label="values")
    nums = np.array(values, dtype=np.int64)
    b = u.bit_length()
    tally = Counter()
    for start in range(0, size, chunk):
        keys, runs = ensembles_mod._tally(lo + start, nums[start : start + chunk], u)
        assert np.all(keys[1:] > keys[:-1]) and runs.sum() == min(chunk, size - start)
        for key, run in zip(keys.tolist(), runs.tolist()):
            tally[key & (1 << b) - 1, key >> b] += run
    assert tally == Counter(((lo + i).bit_count(), v) for i, v in enumerate(values))


def test_tally_keys_fit_uint64():
    # the exhaustive route enumerates a cut's cross universe, of either
    # scope, and accepts at most 26 cross edges, by the transform budget,
    # at N <= 31; numerators are <= 2^(2N), so its keys num << b | c fit
    # uint64 while 2N + b < 64; the widest, one 31-edge at N = 31, reaches
    # bit 63
    max_u = (ensembles_mod._TRANSFORM_BYTES // 16).bit_length() - 1
    assert max_u == 26
    widths = {}
    for n in range(2, purity_mod.MAX_QUBITS + 1):
        for n_a in range(1, n):
            n_b = n - n_a
            sizes = {(Family.CCZ_HALF, 3, Scope.CROSS_ONLY): n_a * math.comb(n_b, 2)}
            for k in range(1, n + 1):
                family = {2: Family.CZ, 3: Family.CCZ}.get(k, Family.K_UNIFORM)
                for fam in {family, Family.K_UNIFORM}:
                    cross = math.comb(n, k) - math.comb(n_a, k) - math.comb(n_b, k)
                    sizes[fam, k, Scope.CROSS_ONLY] = cross
            for (family, k, scope), u in sizes.items():
                if u > max_u or family is Family.CCZ_HALF and n_b < 2:
                    continue
                spec = EnsembleSpec(n, family, k=k, scope=scope)
                assert len(edge_universe(spec, Bipartition.from_first(n, n_a))) == u
                widths[n, family, k, scope, n_a] = 2 * n + u.bit_length()
    assert max(widths.values()) == 63
    assert {key[:4] for key, width in widths.items() if width == 63} == {
        (31, Family.K_UNIFORM, 31, Scope.CROSS_ONLY),
    }


def test_exhaustive_statevector_needs_no_gram(monkeypatch):
    # the exhaustive route counts; only Monte Carlo computes numerators
    # of sampled states, by Gauss sums or Gram matrices
    def unreachable(*args):
        raise AssertionError("a per-state numerator called by the exhaustive route")

    monkeypatch.setattr(purity_mod, "gram_numerator", unreachable)
    monkeypatch.setattr(purity_mod, "_gauss_numerators", unreachable)
    monkeypatch.setattr(purity_mod, "_numerators", unreachable)
    est = exact_moments(EnsembleSpec(6, Family.CCZ), Bipartition.from_first(6, 3))
    assert (est.mean, est.variance) == (Fraction(1104, 4096), Fraction(349, 262144))


def test_single_vertex_edges_do_not_entangle():
    # 1-edges are local phase flips; the purity stays 1 for every subset
    spec = EnsembleSpec(4, Family.K_UNIFORM, k=1, scope=Scope.ALL_EDGES)
    part = Bipartition.from_first(4, 2)
    est = exact_moments(spec, part)
    assert est.mean == 1 and est.variance == 0


def test_mc_workers_deterministic_across_processes():
    spec = EnsembleSpec(12, Family.CZ)
    part = Bipartition.from_first(12, 6)
    a = mc_moments(spec, part, 5000, seed=3, workers=2)
    b = mc_moments(spec, part, 5000, seed=3, workers=2)
    assert a == b


def _whoami(task):
    return (os.getpid(), *task)


@pytest.fixture
def cores(monkeypatch):
    """Sets the usable core count that split_run sees."""

    def set_cores(n):
        monkeypatch.setattr(ensembles_mod, "_usable_cores", lambda: n)

    return set_cores


@pytest.mark.parametrize("samples, workers", [(10, 3), (2, 5), (1, 4), (0, 3), (7, 1), (9, 2)])
def test_split_run_shares_in_worker_order(cores, samples, workers):
    # share w runs in process w mod min(shares, cores); process 0 is the
    # caller, the others are pooled children, kept alive for the next call
    base, extra = divmod(samples, workers)
    counts = [c for c in (base + (w < extra) for w in range(workers)) if c]
    for n_cores in (1, 2, 4):
        cores(n_cores)
        got = split_run(_whoami, samples, 7, workers, "arg")
        firsts = itertools.accumulate(counts[:-1], initial=0)
        assert [t[1:] for t in got] == [("arg", 7, f, c) for f, c in zip(firsts, counts)]
        pids = [t[0] for t in got]
        procs = max(1, min(len(pids), n_cores))
        assert [pid == os.getpid() for pid in pids] == [w % procs == 0 for w in range(len(pids))]
        assert [pids[w % procs] for w in range(len(pids))] == pids
        assert len(set(pids)) == min(len(pids), procs)
        alive = {child.pid for child in multiprocessing.active_children()}
        assert len(alive) <= n_cores - 1 and set(pids) - {os.getpid()} <= alive


def test_split_run_pool_bounded_by_cores(cores):
    # 50 shares on 3 cores run in the caller and 2 children, whatever the
    # worker count asks for
    cores(3)
    got = split_run(_whoami, 50, 7, 1000)
    assert [t[1:] for t in got] == [(7, w, 1) for w in range(50)]
    children = {pid for pid, *_ in got} - {os.getpid()}
    assert len(children) <= 2
    assert len(multiprocessing.active_children()) <= 2


def test_split_run_reuses_pooled_children(cores):
    cores(3)
    first = [t[0] for t in split_run(_whoami, 6, 7, 3)]
    again = [t[0] for t in split_run(_whoami, 6, 8, 3)]
    assert first == again and len(set(first)) == 3 and first[0] == os.getpid()
    # fewer cores: the pool shrinks to cores - 1 and nothing forks at one core
    cores(2)
    assert [t[0] for t in split_run(_whoami, 6, 7, 3)] == [first[0], first[1], first[0]]
    assert [child.pid for child in multiprocessing.active_children()] == [first[1]]
    cores(1)
    assert {t[0] for t in split_run(_whoami, 6, 7, 3)} == {os.getpid()}
    assert multiprocessing.active_children() == []


def test_split_run_replaces_a_lost_child(cores):
    # a pooled child that died between calls is not sent a request
    cores(2)
    split_run(_whoami, 2, 7, 2)
    (lost,) = multiprocessing.active_children()
    lost.kill()
    lost.join(timeout=10)
    assert lost.exitcode is not None
    pids = [t[0] for t in split_run(_whoami, 2, 7, 2)]
    assert pids[0] == os.getpid() and pids[1] not in (os.getpid(), lost.pid)


def test_pooled_children_exit_when_the_caller_end_closes(cores):
    # a process forked after the pool exists holds none of its pipes, so
    # closing the caller's ends reads as EOF in every pooled child
    cores(3)
    split_run(_whoami, 3, 7, 3)
    bystander = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    bystander.start()
    try:
        pool = list(ensembles_mod._pool)
        ensembles_mod._pool.clear()
        for child, conn in pool:
            conn.close()
        for child, _ in pool:
            child.join(timeout=10)
        assert [child.exitcode for child, _ in pool] == [0, 0]
    finally:
        bystander.kill()
        bystander.join(timeout=10)
    assert multiprocessing.active_children() == []


class _ShareFailed(Exception):
    pass


def _fail_share(task):
    """Raise at the shares in failing, sleep at those in sleeping, exit at exit_code.

    A share that would exit in the caller (whose pid is caller) raises
    instead, so that a mapping error cannot end the test process.
    """
    failing, sleeping, exit_code, caller, _, first, _ = task
    w = first // 2
    if w == exit_code:
        if os.getpid() == caller:
            raise AssertionError(f"share {w} ran in the caller")
        os._exit(5)
    if w in failing:
        raise _ShareFailed(f"share {w}")
    if w in sleeping:
        time.sleep(60)
    return w


@pytest.mark.parametrize(
    "failing, sleeping",
    [((2,), ()), ((1, 2), ()), ((1,), (2, 3)), ((0,), (1, 2, 3)), ((3,), ())],
)
def test_split_run_reraises_and_kills_children(cores, failing, sleeping):
    # the first failing share in worker order is re-raised in the caller,
    # and the children still sleeping are killed, not waited for; at 4
    # cores each share has a process, at 2 the caller and a child share them
    for n_cores in (2, 4):
        cores(n_cores)
        start = time.monotonic()
        with pytest.raises(_ShareFailed, match=f"share {failing[0]}"):
            split_run(_fail_share, 8, 3, 4, failing, sleeping, None, os.getpid())
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


def test_split_run_child_exit_without_result_names_share(cores):
    # share 2 runs in a child at 3 and at 4 cores
    for n_cores in (3, 4):
        cores(n_cores)
        with pytest.raises(RuntimeError, match="worker 2 exited with code 5"):
            split_run(_fail_share, 8, 3, 4, (), (3,), 2, os.getpid())
        assert multiprocessing.active_children() == []


def test_split_run_child_reports_a_request_it_cannot_unpickle(cores, capfd, monkeypatch):
    # a function importable in the caller but not in the child, which was
    # forked before its module existed: the child sends back the import
    # error as the share's failure, with no traceback of its own
    cores(2)
    ensembles_mod._close_pool()
    split_run(_whoami, 2, 7, 2)
    late = types.ModuleType("late_share_module")
    exec("def share(task):\n    return task\n", late.__dict__)
    monkeypatch.setitem(sys.modules, late.__name__, late)
    with pytest.raises(ModuleNotFoundError, match="late_share_module"):
        split_run(late.share, 2, 7, 2)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr() == ("", "")


_EXIT_PROBE = """
import os, sys, time
from hyperent import ensembles

def pid(task):
    return os.getpid()

ensembles._usable_cores = lambda: 3
print(*sorted(set(ensembles.split_run(pid, 3, 1, 3)) - {os.getpid()}), flush=True)
if sys.argv[1] == "hang":
    time.sleep(60)
"""


def _gone(pid):
    """True once pid has exited: no process, or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("ending", ["exit", "kill"])
def test_pooled_children_never_outlive_the_caller(ending):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    mode = "hang" if ending == "kill" else "exit"
    proc = subprocess.Popen(
        [sys.executable, "-c", _EXIT_PROBE, mode],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2
        if ending == "kill":
            proc.kill()
        assert proc.wait(timeout=60) == (-signal.SIGKILL if ending == "kill" else 0)
        deadline = time.monotonic() + 10
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone(pid)] == []
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_subset_kernel_matches_per_graph_purity():
    # the cut-factored numerator for mask i must equal the dense
    # oracle's purity of the i-th enumerated hypergraph
    spec = EnsembleSpec(4, Family.CCZ, scope=Scope.ALL_EDGES)
    part = Bipartition(4, 0b0101)
    universe = edge_universe(spec, part)
    masks = np.arange(1 << len(universe))
    bits = (masks[:, np.newaxis] >> np.arange(len(universe))) & 1
    nums = _universe_numerators(universe, part, bits)
    for mask, edges in enumerate(ref_subsets(universe)):
        assert Fraction(int(nums[mask]), 1 << 8) == ref_purity(4, edges, part.a_mask)


def test_sampling_quarter_probability():
    # p = 1/4 has an exact 64-bit threshold; check the edge-count mean
    spec = EnsembleSpec(4, Family.CZ, edge_probability=Fraction(1, 4), scope=Scope.ALL_EDGES)
    rng = CounterRng(88)
    total = sum(len(sample_hypergraph(spec, None, rng).edges) for _ in range(8000))
    # mean 1.5, sigma_mean = sqrt(6 * 3/16 / 8000) ~ 0.012
    assert abs(total / 8000 - 1.5) < 0.075


def test_entropy_stats_exhaustive_half_family():
    spec = EnsembleSpec(5, Family.CCZ_HALF)
    part = Bipartition.from_first(5, 2)
    stats = entropy_stats(spec, part)
    assert stats.purity.mean == exact_moments(spec, part).mean
    assert float(stats.entropy.mean) >= stats.minus_log2_mean_purity  # Jensen


def test_mc_methods_agree_noncontiguous_unbalanced_mask(monkeypatch):
    # scattered A mask with n_a > n_b: rank rows/cols follow the mask
    # order and the purity must still match the Gram numerator
    part = Bipartition(9, 0b110101101)  # n_a = 6, n_b = 3
    _assert_kernels_agree_on_drawn_bits(monkeypatch, EnsembleSpec(9, Family.CZ), part, 300, 14)


@settings(deadline=None)
@given(st.data())
def test_cut_factors_match_dense_oracle(data):
    # random universes, cuts (scattered, either side larger) and subsets
    n = data.draw(st.integers(2, 7), label="n")
    k = data.draw(st.integers(1, min(4, n)), label="k")
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    a_mask = data.draw(st.integers(1, (1 << n) - 2), label="a_mask")
    part = Bipartition(n, a_mask)
    universe = edge_universe(EnsembleSpec(n, Family.K_UNIFORM, k=k, scope=scope), part)
    u = len(universe)
    subsets = data.draw(st.lists(st.integers(0, (1 << u) - 1), min_size=1, max_size=4))
    bits = np.array([[mask >> j & 1 for j in range(u)] for mask in subsets], dtype=np.uint8)
    bits = bits.reshape(len(subsets), u)
    nums = _universe_numerators(universe, part, bits)
    for mask, num in zip(subsets, nums):
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(num), 1 << (2 * n)) == ref_purity(n, edges, a_mask)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_cut_values_match_single_state_routes(data):
    # the Monte Carlo entry on every route (rank, Gauss sums, Gram), row by
    # row against the single-state purity of the hypergraph each row chose
    n = data.draw(st.integers(4, 9), label="n")
    k = data.draw(st.sampled_from([2, 3, 4]), label="k")
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    part = Bipartition(n, data.draw(st.integers(1, (1 << n) - 2), label="a_mask"))
    p = data.draw(st.sampled_from([Fraction(1, 2), Fraction(3, 10)]), label="p")
    universe = edge_universe(EnsembleSpec(n, Family.K_UNIFORM, k=k, scope=scope), part)
    rows = data.draw(st.integers(1, 6), label="rows")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    bits = bernoulli_block(seed, 0, rows * len(universe), p).reshape(rows, len(universe))
    keys = _cut_values(universe, part)(bits)
    terms = _cut_sampler(universe, part, p, rows)[1]
    assert keys.dtype == np.int64
    distinct = np.unique(keys)
    valued = dict(zip(distinct.tolist(), zip(*terms(distinct))))
    for row, key in zip(bits, keys.tolist()):
        want = state_purity(Hypergraph(n, frozenset(itertools.compress(universe, row))), part)
        num, s2 = valued[key]
        assert Fraction(num, 1 << 2 * n) == want
        assert abs(s2 - renyi2(want)) <= 1e-12
        if k == 2:  # the key is the rank, and the entropy that integer
            assert s2 == key == renyi2(want)


@pytest.mark.parametrize("a_mask", [(1 << 40) - 1, int("01" * 40, 2)])
def test_cut_values_rank_route_past_63_qubits(a_mask):
    # 2-edges at N = 80 take the rank route, which builds no int64 edge mask
    part = Bipartition(80, a_mask)
    universe = edge_universe(EnsembleSpec(80, Family.CZ, scope=Scope.ALL_EDGES), part)
    bits = bernoulli_block(80, 0, 4 * len(universe), Fraction(3, 10)).reshape(4, len(universe))
    ranks = _cut_values(universe, part)(bits)
    nums, entropies = _cut_sampler(universe, part, Fraction(3, 10), 4)[1](ranks)
    for row, key, num, s2 in zip(bits, ranks.tolist(), nums, entropies):
        rank = graph_entropy_rank(Hypergraph(80, frozenset(itertools.compress(universe, row))), part)
        assert (key, num, s2) == (rank, 1 << 160 - rank, rank)


def _share_stream_moments(spec, part, samples, seed, workers):
    """Monte Carlo moments of per-share streams, through today's keys and exact reducer.

    This is the layout Monte Carlo runs had before sample positions were
    independent of the worker count: share w of the samples (contiguous,
    the first samples % workers shares one longer) read its own stream,
    seeded by draw w of the root stream, and its sample r read draws
    [r u, (r + 1) u) of that stream, choice j made when draw j <
    threshold_u64(p), at p = 1/2 too.  The draws are replayed here; the
    keys, their terms, the per-chunk exact sums and the reducer are the
    program's own, so the moments pinned for those draws pin that they
    did not drift.
    """
    universe = edge_universe(spec, part)
    u = len(universe)
    values = _cut_values(universe, part)
    terms = _cut_sampler(universe, part, spec.edge_probability, 1)[1]
    t = np.uint64(threshold_u64(spec.edge_probability))
    base, extra = divmod(samples, workers)
    sums = [[0] * 5]
    for w in range(workers):
        count = base + (w < extra)
        for done in range(0, count, ensembles_mod._MC_CHUNK):
            take = min(ensembles_mod._MC_CHUNK, count - done)
            bits = stream_block(stream_at(seed, w), done * u, take * u) < t
            keys, runs = np.unique(values(bits.reshape(take, u)), return_counts=True)
            ensembles_mod._add_terms(sums, itertools.repeat(0), *terms(keys), runs.tolist())
    return ensembles_mod._reduce(spec.n_qubits, [(1, sums[0])], exact=False).purity


def _pinned_moments(draws, spec, part, samples, seed, workers):
    """(mean, variance) of mc_moments ("root") or of _share_stream_moments ("shares")."""
    run = mc_moments if draws == "root" else _share_stream_moments
    est = run(spec, part, samples, seed, workers=workers)
    return est.mean, est.variance


def _pin(draws, *values, was=None, id=None):
    """A pytest param of (draws, *values) whose id names the values alone, as pytest would.

    was, when given, is the variance the pin held while the moments were
    float sums (``second - mean^2`` of inexact float sums); the id keeps
    naming it, so the test keeps its name, and the param holds the exact
    variance rounded once.
    """
    named = values if was is None else (*values[:-1], was)
    return pytest.param(draws, *values, id=id or "-".join(map(str, named)))


@pytest.mark.parametrize(
    "draws, workers, mean, variance",
    [
        _pin("root", 1, 0.12717447916666666, 7.267249201984044e-05, was=7.267249201984388e-05),
        _pin("root", 2, 0.12717447916666666, 7.267249201984044e-05, was=7.267249201984388e-05),
        _pin("root", 3, 0.12717447916666666, 7.267249201984044e-05, was=7.267249201984388e-05),
        _pin("shares", 1, 0.12697916666666667, 5.85338715858417e-05, was=5.853387158584007e-05),
        _pin("shares", 2, 0.12682291666666667, 5.882373754528985e-05, was=5.882373754528741e-05),
        _pin("shares", 3, 0.1273046875, 6.290142352764423e-05, was=6.29014235276424e-05),
    ],
)
def test_mc_statevector_bytes_pinned(draws, workers, mean, variance):
    # the float summation grouping of Monte Carlo sums is part of the
    # byte-stable contract; these values must not drift.  Sample i is
    # the same at any worker count, and N=8 purities are multiples of
    # 2^-16, whose sums here are exact in any grouping
    spec, part = EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 4)
    assert _pinned_moments(draws, spec, part, 300, 5, workers) == (mean, variance)


@pytest.mark.parametrize(
    "draws, n, workers, mean, variance",
    [
        _pin("root", 16, 1, 0.007912109375, 1.6134314563287502e-05, was=1.6134314563287512e-05),
        _pin("root", 16, 2, 0.007912109375, 1.6134314563287502e-05, was=1.6134314563287512e-05),
        _pin("root", 16, 3, 0.007912109375, 1.6134314563287502e-05, was=1.6134314563287512e-05),
        _pin("root", 32, 1, 3.084564208984375e-05, 2.3877958889646254e-10,
             was=2.387795888964626e-10),
        _pin("root", 32, 2, 3.084564208984375e-05, 2.3877958889646254e-10,
             was=2.387795888964626e-10),
        _pin("root", 32, 3, 3.084564208984375e-05, 2.3877958889646254e-10,
             was=2.387795888964626e-10),
        _pin("shares", 16, 1, 0.007783203125, 1.486100334713255e-05, was=1.4861003347132557e-05),
        _pin("shares", 16, 2, 0.00776953125, 1.5646235593382628e-05, was=1.564623559338262e-05),
        _pin("shares", 16, 3, 0.00773828125, 1.581050229704696e-05),
        _pin("shares", 32, 1, 3.061676025390625e-05, 2.1371913802674437e-10,
             was=2.1371913802674453e-10),
        _pin("shares", 32, 2, 3.094482421875e-05, 2.2670786162505692e-10,
             was=2.267078616250569e-10),
        _pin("shares", 32, 3, 3.07464599609375e-05, 2.1868492996114203e-10,
             was=2.1868492996114177e-10),
    ],
)
def test_mc_rank_bytes_pinned(draws, n, workers, mean, variance):
    # ranks are exact, so the rank route's Monte Carlo output must not
    # drift, and it is the same at any worker count
    spec, part = EnsembleSpec(n, Family.CZ), Bipartition.from_first(n, n // 2)
    assert _pinned_moments(draws, spec, part, 2000, 11, workers) == (mean, variance)


@settings(deadline=None)
@given(st.data())
def test_rank_route_at_scattered_cuts(data):
    # scattered cuts with N_A >= N_B, both scopes, sparse to dense subsets:
    # the cut block against its definition, the batched ranks against the
    # dense elimination
    n = data.draw(st.integers(3, 20), label="n")
    a_mask = data.draw(st.integers(1, (1 << n) - 2), label="a_mask")
    if 2 * a_mask.bit_count() < n:
        a_mask ^= (1 << n) - 1
    part = Bipartition(n, a_mask)
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    universe = edge_universe(EnsembleSpec(n, Family.CZ, scope=scope), part)
    rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    density = data.draw(st.sampled_from([0.05, 0.5, 0.95]), label="density")
    bits = rnd.random((data.draw(st.integers(1, 5), label="batch"), len(universe))) < density
    want = []
    for row in bits:
        edges = {e for e, keep in zip(universe, row) if keep}
        dense = [
            [int((min(a, b), max(a, b)) in edges) for b in part.b_indices] for a in part.a_indices
        ]
        want.append(ref_gf2_rank(dense))
        assert graph_entropy_rank(Hypergraph(n, frozenset(edges)), part) == want[-1]
    order = _cell_positions(universe, part)
    assert _cut_ranks(bits, order, part).tolist() == want
    assert _cut_ranks(bits.astype(np.uint8), order, part).tolist() == want


@pytest.mark.parametrize("n, n_a", [(10, 4), (12, 6), (9, 1)])
def test_cut_ranks_takes_no_gather_for_an_identity_order(monkeypatch, n, n_a):
    # the cross universe of the lowest qubits is the cut block, row-major,
    # so its bits are reshaped, never gathered
    part = Bipartition.from_first(n, n_a)
    universe = edge_universe(EnsembleSpec(n, Family.CZ), part)
    order = _cell_positions(universe, part)
    assert order.tolist() == list(range(len(universe)))
    bits = np.random.default_rng(n).random((40, len(universe))) < 0.5
    want = [ref_gf2_rank(row.reshape(part.n_a, part.n_b)) for row in bits]

    def no_take(*args, **kwargs):
        raise AssertionError("identity order gathered")

    monkeypatch.setattr(np, "take", no_take)
    assert _cut_ranks(bits, order, part).tolist() == want


@pytest.mark.parametrize(
    "draws, p, workers, mean, variance",
    [
        _pin("root", Fraction(1, 2), 1, 8.470329472543003e-22, 0.0,
             id="p0-1-8.470329472543003e-22-0.0"),
        _pin("root", Fraction(1, 64), 1, 6.422314532035974e-13, 1.5842014902062807e-23,
             id="p1-1-6.422314532035974e-13-1.5842014902062807e-23"),
        _pin("root", Fraction(1, 64), 2, 6.422314532035974e-13, 1.5842014902062807e-23,
             id="p2-2-6.422314532035974e-13-1.5842014902062807e-23"),
        _pin("shares", Fraction(1, 64), 1, 5.345624868683766e-13, 3.606024768170356e-24,
             id="p1-1-5.345624868683766e-13-3.6060247681703556e-24"),
        _pin("shares", Fraction(1, 64), 2, 4.566088248244189e-13, 2.9365089707172666e-24,
             id="p2-2-4.566088248244189e-13-2.936508970717267e-24"),
    ],
)
def test_mc_rank_bytes_pinned_two_word_rows(draws, p, workers, mean, variance):
    # N=150, N_A=70: 80 columns, so every cut row spans two words; at
    # p = 1/64 the cut blocks are sparse and rank defects are common
    spec = EnsembleSpec(150, Family.CZ, edge_probability=p)
    part = Bipartition.from_first(150, 70)
    assert _pinned_moments(draws, spec, part, 300, 2, workers) == (mean, variance)


@pytest.mark.parametrize(
    "draws, scope, workers, mean, variance",
    [
        _pin("root", Scope.CROSS_ONLY, 1, 0.06595833333333333, 0.00022769916361009226,
             was=0.00022769916361009297),
        _pin("root", Scope.CROSS_ONLY, 3, 0.06595833333333333, 0.00022769916361009226,
             was=0.00022769916361009297),
        _pin("root", Scope.ALL_EDGES, 1, 0.066375, 0.00023506272924308104,
             was=0.00023506272924308052),
        _pin("root", Scope.ALL_EDGES, 3, 0.066375, 0.00023506272924308104,
             was=0.00023506272924308052),
        _pin("shares", Scope.CROSS_ONLY, 1, 0.066375, 0.00023506272924308104,
             was=0.00023506272924308052),
        _pin("shares", Scope.CROSS_ONLY, 3, 0.0661875, 0.00022475851325441814,
             was=0.0002247585132544185),
        _pin("shares", Scope.ALL_EDGES, 1, 0.06547916666666667, 0.0001773816098421696,
             was=0.00017738160984216936),
        _pin("shares", Scope.ALL_EDGES, 3, 0.06564583333333333, 0.00018678057616427698,
             was=0.00018678057616427688),
    ],
)
def test_mc_rank_bytes_pinned_scattered_cut(draws, scope, workers, mean, variance):
    part = Bipartition(12, 0b101101110101)  # n_a = 8, n_b = 4
    spec = EnsembleSpec(12, Family.CZ, scope=scope)
    assert _pinned_moments(draws, spec, part, 3000, 21, workers) == (mean, variance)


def _exact_moments_of(values):
    """float() of the exact (mean, second moment, unbiased variance) of a list of Fractions."""
    total = sum(values, Fraction(0))
    total_sq = sum((v * v for v in values), Fraction(0))
    n = len(values)
    return float(total / n), float(total_sq / n), float((total_sq - total * total / n) / (n - 1))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_mc_reducer_matches_exact_sums_of_single_states(data):
    # mc_moments and entropy_stats are float() of the exact sums over the
    # same draws of each sample's single-state purity (its rank for
    # 2-edges) and entropy, on the word, rank, Gauss and Gram routes, at
    # any p, worker count and chunk size; sample i is choices
    # [i u, (i + 1) u) of the seed's stream
    route = data.draw(st.sampled_from(["word", "rank", "gauss", "gram"]), label="route")
    n = data.draw(st.integers(5 if route == "gram" else 4, 12), label="n")
    if route == "word":
        p = Fraction(1, 2)
        part = Bipartition.from_first(n, data.draw(st.integers(1, n - 1), label="n_a"))
        spec = EnsembleSpec(n, Family.CZ)
    else:
        p = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 64)]), label="p")
        part = Bipartition(n, data.draw(st.integers(1, (1 << n) - 2), label="a_mask"))
        k = {"rank": 2, "gauss": 3, "gram": 4}[route]
        scope = data.draw(st.sampled_from(list(Scope)), label="scope")
        spec = EnsembleSpec(n, Family.K_UNIFORM, k=k, edge_probability=p, scope=scope)
    samples = data.draw(st.integers(2, 40), label="samples")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    workers = data.draw(st.integers(1, 3), label="workers")
    chunk = data.draw(st.sampled_from([1, 3, ensembles_mod._MC_CHUNK]), label="chunk")
    universe = edge_universe(spec, part)
    u = len(universe)
    bits = bernoulli_block(seed, 0, samples * u, p).reshape(samples, u)
    graphs = [Hypergraph(n, frozenset(itertools.compress(universe, row))) for row in bits]
    if spec.edge_arity == 2:
        ranks = [graph_entropy_rank(h, part) for h in graphs]
        purities = [Fraction(1, 1 << r) for r in ranks]
        entropies = list(map(Fraction, ranks))
    else:
        purities = [state_purity(h, part) for h in graphs]
        nums = np.array([q * (1 << 2 * n) for q in purities], dtype=np.int64)
        entropies = list(map(Fraction, (2 * n - np.log2(nums)).tolist()))  # float64 per sample
    with unittest.mock.patch.object(ensembles_mod, "_MC_CHUNK", chunk):
        stats = entropy_stats(spec, part, samples, seed, workers)
        purity = mc_moments(spec, part, samples, seed, workers)
    assert purity == stats.purity
    for est, values in ((stats.purity, purities), (stats.entropy, entropies)):
        assert (est.mean, est.second_moment, est.variance) == _exact_moments_of(values)
        assert est.std_error_mean == math.sqrt(est.variance / samples)
        assert (est.samples, est.exact) == (samples, False)


def _draw_numerators(spec, part, samples, seed):
    """Python int purity numerators of Monte Carlo samples 0 .. samples - 1, batch by batch."""
    universe = edge_universe(spec, part)
    u = len(universe)
    side = _smaller_side(part)
    cross, a_parts, b_parts = _cross_parts(_edge_masks(universe), side)
    nums = []
    for lo in range(0, samples, 1000):
        count = min(1000, samples - lo)
        bits = bernoulli_block(seed, lo * u, count * u, spec.edge_probability).reshape(count, u)
        nums += _numerators(bits, cross, a_parts, b_parts, side.n_a, side.n_b).tolist()
    return nums


@pytest.mark.parametrize(
    "family, k, n, n_a, samples, seed",
    [
        (Family.CCZ, None, 20, 2, 20000, 5),
        (Family.CCZ, None, 24, 3, 20000, 5),
        (Family.CCZ, None, 28, 4, 3001, 9),
        (Family.K_UNIFORM, 3, 30, 3, 2001, 1),
    ],
)
def test_mc_variance_exact_at_large_n(family, k, n, n_a, samples, seed):
    # variance / mean^2 is about 1e-14 here, so second - mean^2 of float
    # sums cancelled most digits (1.4% off at N=28, 12% at N=30); the
    # exact sums of the same draws' numerators, rounded once, are printed
    spec, part = EnsembleSpec(n, family, k=k), Bipartition.from_first(n, n_a)
    nums = _draw_numerators(spec, part, samples, seed)
    scale = 1 << 2 * n
    mean, _, variance = _exact_moments_of([Fraction(x, scale) for x in nums])
    est = mc_moments(spec, part, samples, seed, workers=1)
    assert (est.mean, est.variance) == (mean, variance)
    assert variance > 0


def _batch_rows(monkeypatch, kernel):
    """Rows of each batch that purity._numerators hands to one of its kernels, recorded."""
    rows = []
    inner = getattr(purity_mod, kernel)

    def recording(choices, *args):
        rows.append(choices.shape[0])
        return inner(choices, *args)

    monkeypatch.setattr(purity_mod, kernel, recording)
    return rows


def test_cut_factors_memory_budget(monkeypatch):
    # the budget counts the Gram route's sign rows: a 4-edge universe at
    # N=10, N_A=5 has 32 rows of one word, 256 bytes; its 200 edges still
    # set the batch size, not the budget
    part = Bipartition.from_first(10, 5)
    universe = edge_universe(EnsembleSpec(10, Family.K_UNIFORM, k=4), part)
    rnd = np.random.default_rng(10)
    monkeypatch.setattr(purity_mod, "_SAMPLE_BYTES", 256)
    values = _cut_values(universe, part)
    rows = _batch_rows(monkeypatch, "_sign_rows")
    step = (1 << 18) // 200
    values(rnd.random((step + 3, 200)) < 0.5)
    assert rows == [step, 3]
    monkeypatch.setattr(purity_mod, "_SAMPLE_BYTES", 255)
    with pytest.raises(ValueError, match="needs 256 bytes, over the 255-byte budget"):
        _cut_values(universe, part)
    # the CCZ universe takes the Gauss-sum kernel, which builds no sign rows
    ccz = edge_universe(EnsembleSpec(10, Family.CCZ), part)
    rows = _batch_rows(monkeypatch, "_gauss_numerators")
    step = (1 << 18) // 100
    _cut_values(ccz, part)(rnd.random((step + 3, 100)) < 0.5)
    assert rows == [step, 3]


def test_gauss_route_batches_many_samples(monkeypatch):
    # N=24, N_A=1: sized by sign rows, a batch held one sample; the Gauss
    # route's holds 2^18 choices of the 253 cross edges, and batching does
    # not change a numerator
    part = Bipartition.from_first(24, 1)
    universe = edge_universe(EnsembleSpec(24, Family.CCZ), part)
    cross, a_parts, b_parts = _cross_parts(_edge_masks(universe), part)
    assert cross.size == 253
    step = (1 << 18) // 253
    bits = np.random.default_rng(24).random((step + 1, 253)) < 0.5
    rows = _batch_rows(monkeypatch, "_gauss_numerators")
    nums = _numerators(bits, cross, a_parts, b_parts, 1, 23)
    assert rows == [step, 1]
    one_by_one = [_numerators(bits[i : i + 1], cross, a_parts, b_parts, 1, 23)[0] for i in range(50)]
    assert nums[:50].tolist() == one_by_one


def test_mc_numerator_routes(monkeypatch):
    # Monte Carlo of the 3-edge families takes the Gauss-sum kernel and
    # never the Gram route; a universe of 4-vertex edges still needs Gram
    routes = []
    gauss, gram = purity_mod._gauss_numerators, purity_mod.gram_numerator

    def gauss_kernel(*args):
        routes.append("gauss")
        return gauss(*args)

    def no_gram(*args):
        raise AssertionError("a universe of at most 3-vertex edges took the Gram route")

    monkeypatch.setattr(purity_mod, "_gauss_numerators", gauss_kernel)
    monkeypatch.setattr(purity_mod, "gram_numerator", no_gram)
    part = Bipartition(9, 0b100110101)
    for spec in (
        EnsembleSpec(9, Family.CCZ),
        EnsembleSpec(9, Family.CCZ, scope=Scope.ALL_EDGES),
        EnsembleSpec(9, Family.CCZ_HALF),
        EnsembleSpec(9, Family.K_UNIFORM, k=3, edge_probability=Fraction(3, 10)),
    ):
        routes.clear()
        est = mc_moments(spec, part, 40, seed=2)
        assert routes and set(routes) == {"gauss"} and 0 < est.mean <= 1

    def gram_route(*args):
        routes.append("gram")
        return gram(*args)

    monkeypatch.setattr(purity_mod, "gram_numerator", gram_route)
    routes.clear()
    est = mc_moments(EnsembleSpec(9, Family.K_UNIFORM, k=4), part, 40, seed=2)
    assert routes and set(routes) == {"gram"} and 0 < est.mean <= 1


class _FakeBlas:
    """Stand-in thread calls that record the count the numerator runs with."""

    def __init__(self, monkeypatch, threads, calls=True):
        self.threads = threads
        self.seen = []
        found = (lambda: self.threads, self.set_threads) if calls else None
        monkeypatch.setattr(purity_mod, "_blas_thread_calls", lambda: found)

    def set_threads(self, n):
        self.threads = n

    def numerator(self, rows, n_cols):
        # 2^(2N), the numerator of purity 1
        self.seen.append(self.threads)
        return np.full(rows.shape[0], (rows.shape[1] * n_cols) ** 2, dtype=np.int64)


def _small_gram_values():
    # 4-vertex cross edges, which only the Gram route takes
    part = Bipartition.from_first(6, 3)
    universe = edge_universe(EnsembleSpec(6, Family.K_UNIFORM, k=4), part)
    return _cut_values(universe, part), np.ones((3, len(universe)), dtype=np.uint8)


def test_ensemble_numerators_run_on_one_blas_thread(monkeypatch):
    blas = _FakeBlas(monkeypatch, threads=3)
    monkeypatch.setattr(purity_mod, "gram_numerator", blas.numerator)
    values, bits = _small_gram_values()
    assert values(bits).tolist() == [1 << 12] * 3  # purity 1 at N = 6
    assert blas.seen == [1] and blas.threads == 3

    def boom(rows, n_cols):
        blas.seen.append(blas.threads)
        raise RuntimeError("numerator failed")

    monkeypatch.setattr(purity_mod, "gram_numerator", boom)
    with pytest.raises(RuntimeError):
        values(bits)
    assert blas.seen == [1, 1] and blas.threads == 3


def test_single_states_keep_every_blas_thread(monkeypatch):
    # a cross edge of four vertices sends a single state to the Gram route
    blas = _FakeBlas(monkeypatch, threads=3)
    monkeypatch.setattr(purity_mod, "gram_numerator", blas.numerator)
    state_purity(Hypergraph.from_gates(4, [(0, 1, 2, 3)]), Bipartition.from_first(4, 2))
    assert blas.seen == [3] and blas.threads == 3


def test_blas_pin_finds_bundled_openblas():
    # the real thread calls, unfaked, on numpy builds that bundle OpenBLAS
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip("numpy has no bundled OpenBLAS")
    calls = purity_mod._blas_thread_calls()
    assert calls is not None
    get_threads, _ = calls
    old = get_threads()
    with purity_mod._one_blas_thread():
        assert get_threads() == 1
    assert get_threads() == old


def test_blas_pin_without_thread_calls_does_nothing(monkeypatch):
    blas = _FakeBlas(monkeypatch, threads=3, calls=False)
    monkeypatch.setattr(purity_mod, "gram_numerator", blas.numerator)
    values, bits = _small_gram_values()
    assert values(bits).tolist() == [1 << 12] * 3
    assert blas.seen == [3]


def _sides(universe, part):
    """(cross positions, sides) of a universe's cut, factored as _cut_sides factors its cross edges."""
    cross, *parts = _cross_parts(_edge_masks(universe), part)
    return cross, [(*np.unique(m, return_inverse=True), k) for m, k in zip(parts, (part.n_a, part.n_b))]


def _mask_bits(masks, u):
    """(len(masks), u) 0/1 edge choices of subset masks."""
    masks = np.asarray(masks, dtype=np.int64)
    return ((masks[:, np.newaxis] >> np.arange(u)) & 1).astype(np.uint8).reshape(masks.size, u)


@settings(deadline=None)
@given(st.data())
def test_subset_numerators_match_cut_factors_and_oracle(data):
    # any universe of up to 10 edges in any order, scattered cuts with
    # either side larger, local edges included, and the empty universe:
    # the numerators over its cross edges' subsets, each equal to the
    # oracle's purity of that subset with any local edges added; blocks of
    # 2-4 edges run the cross-block transform levels and the high
    # OR-tables at small u
    n = data.draw(st.integers(2, 7), label="n")
    k = data.draw(st.integers(1, min(4, n)), label="k")
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    a_mask = data.draw(st.integers(1, (1 << n) - 2), label="a_mask")
    part = Bipartition(n, a_mask)
    full = edge_universe(EnsembleSpec(n, Family.K_UNIFORM, k=k, scope=scope), part)
    picks = data.draw(
        st.lists(st.integers(0, len(full) - 1), unique=True, max_size=min(10, len(full)))
        if full else st.just([]),
        label="picks",
    )
    everything = [full[i] for i in picks]
    cross, sides = _sides(everything, part)
    universe = [everything[j] for j in cross.tolist()]
    u = len(universe)
    block = data.draw(st.sampled_from([2, 3, 4, ensembles_mod._BLOCK_EDGES]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensembles_mod, "_BLOCK_EDGES", block)
        nums = _subset_numerators(sides)
    assert nums.dtype == np.int64 and nums.shape == (1 << u,)
    bits = _mask_bits(np.arange(1 << u), u)
    assert nums.tolist() == _universe_numerators(universe, part, bits).tolist()
    # one side's superset counts, #{(a, a') : alpha(a, a') contains S}, by brute force
    a_parts = [sum(1 << i for i, v in enumerate(part.a_indices) if v in e) for e in universe]
    alphas = [
        sum(((a & m == m) ^ (b & m == m)) << j for j, m in enumerate(a_parts))
        for a in range(part.d_a)
        for b in range(part.d_a)
    ]
    supersets = [sum(alpha & s == s for alpha in alphas) for s in range(1 << u)]
    assert ensembles_mod._pair_supersets(a_parts, part.n_a).tolist() == supersets
    local = [e for j, e in enumerate(everything) if j not in cross]
    for mask in data.draw(st.lists(st.integers(0, (1 << u) - 1), min_size=1, max_size=3)):
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(nums[mask]), 1 << (2 * n)) == ref_purity(n, edges + local, a_mask)


def test_subset_numerators_at_full_block_width():
    # CCZ at 3 | 3: 18 edges over 6 distinct parts per side, four blocks
    # of 2^16 subsets; checked on sampled masks and the empty universe
    part = Bipartition.from_first(6, 3)
    spec = EnsembleSpec(6, Family.CCZ)
    universe = edge_universe(spec, part)
    assert len(universe) == 18 and ensembles_mod._BLOCK_EDGES == 16
    nums = _subset_numerators(ensembles_mod._cut_sides(spec, part)[1])
    masks = np.random.default_rng(18).integers(0, 1 << 18, size=300)
    masks[:4] = [0, (1 << 16) - 1, 1 << 16, (1 << 18) - 1]
    want = _universe_numerators(universe, part, _mask_bits(masks, 18))
    assert nums[masks].tolist() == want.tolist()
    for mask in masks[:8].tolist():
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(nums[mask]), 1 << 12) == ref_purity(6, edges, part.a_mask)
    assert _subset_numerators(_sides([], part)[1]).tolist() == [1 << 12]


def test_subset_numerators_hold_one_array():
    # 21 edges of 5 qubits at a scattered cut, 20 of them across it: the
    # numerators are one 2^20 int64 array beside small side tables, and
    # the local edge adds nothing
    part = Bipartition(7, 0b0100100)
    spec = EnsembleSpec(7, Family.K_UNIFORM, k=5, scope=Scope.ALL_EDGES)
    assert len(edge_universe(spec, part)) == 21
    universe = edge_universe(EnsembleSpec(7, Family.K_UNIFORM, k=5), part)
    u = len(universe)
    assert u == 20
    tracemalloc.start()
    try:
        # the exhaustive route tallies by writing its keys over that array:
        # no key copy, no unique values or inverse index beside it
        ensembles_mod._exhaustive_stats(spec, *ensembles_mod._cut_sides(spec, part))
        _, stats_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        nums = _subset_numerators(_sides(universe, part)[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats_peak <= 1.2 * (8 << u)
    assert peak <= 1.25 * (8 << u)
    masks = np.random.default_rng(20).integers(0, 1 << u, size=200)
    want = _universe_numerators(universe, part, _mask_bits(masks, u))
    assert nums[masks].tolist() == want.tolist()


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_exact_moments_match_reference_at_every_p(data):
    n = data.draw(st.integers(2, 5), label="n")
    k = data.draw(st.integers(1, min(4, n)), label="k")
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    part = Bipartition(n, data.draw(st.integers(1, (1 << n) - 2), label="a_mask"))
    universe = edge_universe(EnsembleSpec(n, Family.K_UNIFORM, k=k, scope=scope), part)
    assume(len(universe) <= 6)
    for p in (Fraction(0), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(1)):
        spec = EnsembleSpec(n, Family.K_UNIFORM, k=k, edge_probability=p, scope=scope)
        est = exact_moments(spec, part)
        assert (est.mean, est.variance) == ref_ensemble_moments(n, universe, part.a_mask, p)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_all_scope_exact_routes_equal_the_cross_scope(data):
    # the full scope's local edges leave every purity unchanged and their
    # weights sum to 1: its exact moments and exhaustive entropies are the
    # cross scope's, over 2^u samples, and its moments the dense oracle's
    # over all 2^u subsets at u <= 10; counted at p = 1/2, else enumerated
    family, k = data.draw(
        st.sampled_from([(Family.CZ, None), (Family.CCZ, None), (Family.K_UNIFORM, 4)]), label="family"
    )
    n = data.draw(st.integers(k or {Family.CZ: 2, Family.CCZ: 3}[family], 7), label="n")
    p = data.draw(
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 10), Fraction(1, 64)]), label="p"
    )
    part = Bipartition(n, data.draw(st.integers(1, (1 << n) - 2), label="a_mask"))
    full = EnsembleSpec(n, family, k=k, edge_probability=p, scope=Scope.ALL_EDGES)
    cross = replace(full, scope=Scope.CROSS_ONLY)
    universe = edge_universe(full, part)
    u = len(universe)
    assume(len(edge_universe(cross, part)) <= 16)
    got, want = exact_moments(full, part), exact_moments(cross, part)
    assert got == replace(want, samples=1 << u)
    stats, base = entropy_stats(full, part), entropy_stats(cross, part)
    assert stats.purity == got and base.purity == want
    assert stats.entropy == replace(base.entropy, samples=1 << u)
    if u <= 10:
        assert (got.mean, got.variance) == ref_ensemble_moments(n, universe, part.a_mask, p)


def test_subset_numerators_guards_come_first(monkeypatch):
    # the cut that _subset_numerators enumerates is refused before any edge
    # is factored: past the qubit cap, then past the byte budget
    def unreachable(*args):
        raise AssertionError("edges factored past a guard")

    monkeypatch.setattr(ensembles_mod, "_edge_masks", unreachable)
    with pytest.raises(ValueError, match="int64"):
        ensembles_mod._cut_sides(EnsembleSpec(32, Family.K_UNIFORM, k=32), Bipartition.from_first(32, 1))
    # 27 cross edges need 2 * 8 * 2^27 bytes, over the 2^30 budget
    spec = EnsembleSpec(12, Family.CZ, edge_probability=Fraction(1, 3))
    with pytest.raises(ValueError, match="byte budget"):
        exact_moments(spec, Bipartition.from_first(12, 3))
    monkeypatch.undo()
    part = Bipartition.from_first(4, 2)
    spec = EnsembleSpec(4, Family.CZ, scope=Scope.ALL_EDGES)  # 4 cross edges: 256 bytes
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 256)
    assert _subset_numerators(ensembles_mod._cut_sides(spec, part)[1]).size == 16
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 255)
    with pytest.raises(ValueError, match=r"^4 cross edges need two int64 arrays of 2\^4 entries, over the 255-"):
        ensembles_mod._cut_sides(spec, part)


@pytest.mark.parametrize("spec, a_mask", [
    (EnsembleSpec(7, Family.CZ), 0b0010110),
    (EnsembleSpec(7, Family.CZ, scope=Scope.ALL_EDGES), 0b0010110),
    (EnsembleSpec(6, Family.CCZ, scope=Scope.ALL_EDGES), 0b000111),
    (EnsembleSpec(6, Family.CCZ_HALF), 0b000011),
    (EnsembleSpec(6, Family.CCZ_HALF, scope=Scope.ALL_EDGES), 0b000011),
    (EnsembleSpec(7, Family.K_UNIFORM, k=5, scope=Scope.ALL_EDGES), 0b0100100),
])
def test_cut_sides_builds_one_edge_list(monkeypatch, spec, a_mask):
    # the cross universe is the one list built; u is its length, or C(N, k)
    # on a full all scope (ccz-half has cross edges only)
    part = Bipartition(spec.n_qubits, a_mask)
    u = len(edge_universe(spec, part))
    cross = edge_universe(replace(spec, scope=Scope.CROSS_ONLY), part)
    calls = []
    real = ensembles_mod.edge_universe
    monkeypatch.setattr(ensembles_mod, "edge_universe", lambda *a: calls.append(a) or real(*a))
    got, sides = ensembles_mod._cut_sides(spec, part)
    assert (got, sides[0][1].size, len(calls)) == (u, len(cross), 1)


def test_cut_sides_refuses_after_one_edge_list(monkeypatch):
    # 736,281 edges whose cross ones pass the byte budget: one list, then the refusal
    calls = []
    real = ensembles_mod.edge_universe
    monkeypatch.setattr(ensembles_mod, "edge_universe", lambda *a: calls.append(a) or real(*a))
    spec = EnsembleSpec(31, Family.K_UNIFORM, k=6, edge_probability=Fraction(1, 3), scope=Scope.ALL_EDGES)
    with pytest.raises(ValueError, match="cross edges need two int64 arrays"):
        exact_moments(spec, Bipartition.from_first(31, 15))
    assert len(calls) == 1


def _counted(spec, part):
    """The pair-counting route's estimate, taken at the spec's cut whatever its p."""
    return ensembles_mod._counted_moments(
        spec.n_qubits, *ensembles_mod._cut_sides(spec, part, counting=True)
    )


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_collision_moments_match_enumeration_and_oracle(data):
    # every family, both scopes, scattered cuts with either side larger and
    # local edges in the full scope; the counted route is taken directly
    # and must equal the enumeration at u <= 20 and the dense oracle at
    # u <= 10
    family = data.draw(st.sampled_from(list(Family)), label="family")
    n = data.draw(st.integers(2 if family in (Family.CZ, Family.K_UNIFORM) else 3, 7), label="n")
    k = data.draw(st.integers(2, min(4, n)), label="k") if family is Family.K_UNIFORM else None
    scope = data.draw(st.sampled_from(list(Scope)), label="scope")
    part = Bipartition(n, data.draw(st.integers(1, (1 << n) - 2), label="a_mask"))
    assume(family is not Family.CCZ_HALF or part.n_b >= 2)
    spec = EnsembleSpec(n, family, k=k, scope=scope)
    universe = edge_universe(spec, part)
    u = len(universe)
    assume(u <= 20)
    est = _counted(spec, part)
    want = entropy_stats(spec, part).purity
    assert est == want and est.samples == 1 << u
    assert (est.mean, est.second_moment, est.variance) == (
        want.mean, want.second_moment, want.variance
    )
    assert exact_moments(spec, part) == want
    if u <= 10:
        assert (est.mean, est.variance) == ref_ensemble_moments(
            n, universe, part.a_mask, Fraction(1, 2)
        )


def test_exact_moments_count_at_the_criteria_sizes(monkeypatch):
    # the exhaustive rows of criteria 1-4 and 8 at p = 1/2 enumerate no subset
    def unreachable(*args):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(ensembles_mod, "_subset_numerators", unreachable)
    cases = [
        (EnsembleSpec(8, Family.CZ), 4, Fraction(31, 256), Fraction(225, 65536)),
        (EnsembleSpec(6, Family.CCZ), 3, Fraction(69, 256), Fraction(349, 262144)),
        (EnsembleSpec(6, Family.CCZ_HALF), 3, Fraction(51, 128), Fraction(133, 16384)),
    ]
    for spec, n_a, mean, variance in cases:
        part = Bipartition.from_first(spec.n_qubits, n_a)
        est = exact_moments(spec, part)
        u = len(edge_universe(spec, part))
        assert (est.mean, est.variance, est.samples, est.exact) == (mean, variance, 1 << u, True)


def test_exact_moments_enumerate_where_counting_does_not_apply(monkeypatch):
    # p != 1/2 and the exhaustive entropies build every subset's numerator;
    # p = 1/2 does only where counting is refused and the 2^u subsets fit
    # the byte budget, not at the cuts that enumerated while counting
    # needed D_A + D_B < u distinct parts (cz 1|5, cz 2|2), the full scope
    # or 4-edges
    sizes = []
    real = ensembles_mod._subset_numerators
    monkeypatch.setattr(
        ensembles_mod, "_subset_numerators", lambda sides: sizes.append(sides[0][1].size) or real(sides)
    )
    spec = EnsembleSpec(6, Family.CZ, edge_probability=Fraction(3, 10))
    exact_moments(spec, Bipartition.from_first(6, 3))
    exact_moments(EnsembleSpec(6, Family.CZ), Bipartition.from_first(6, 1))
    exact_moments(EnsembleSpec(4, Family.CZ), Bipartition.from_first(4, 2))
    exact_moments(EnsembleSpec(6, Family.CZ, scope=Scope.ALL_EDGES), Bipartition.from_first(6, 3))
    exact_moments(EnsembleSpec(6, Family.K_UNIFORM, k=4), Bipartition.from_first(6, 3))
    entropy_stats(EnsembleSpec(6, Family.CCZ), Bipartition.from_first(6, 3))
    assert sizes == [9, 18]
    # cz 1|11: the 2^11 sets of B take 81920 bytes, and the 2^11 subsets 32768
    spec, part = EnsembleSpec(12, Family.CZ), Bipartition.from_first(12, 1)
    counted = exact_moments(spec, part)
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 16 << 11)
    assert exact_moments(spec, part) == counted and sizes == [9, 18, 11]
    assert (counted.mean, counted.variance) == (cz_avg_purity(1, 11), cz_purity_variance(1, 11))


def test_counted_moments_past_the_enumeration_cap():
    # p = 1/2 cuts past the 2^26 subsets that bound the enumeration, against
    # independent closed forms: one key word up to 64 edges (cz 6|6: 36,
    # ccz-half 3|5: 30, ccz 2|7: 49), two words past it (cz 8|9: 72,
    # ccz-half 4|7: 84)
    cases = [
        (Family.CZ, 6, 6, cz_avg_purity(6, 6), cz_purity_variance(6, 6)),
        (Family.CCZ_HALF, 3, 5, ccz_half_avg_purity(3, 5), ccz_half_purity_variance(3, 5)),
        (Family.CCZ, 2, 7, ccz_avg_purity(2, 7), Fraction(549, 1 << 25)),
        (Family.CZ, 8, 9, cz_avg_purity(8, 9), cz_purity_variance(8, 9)),
        (Family.CCZ_HALF, 4, 7, ccz_half_avg_purity(4, 7), ccz_half_purity_variance(4, 7)),
    ]
    for family, n_a, n_b, mean, variance in cases:
        spec, part = EnsembleSpec(n_a + n_b, family), Bipartition.from_first(n_a + n_b, n_a)
        u = len(edge_universe(spec, part))
        est = exact_moments(spec, part)
        assert u > 26 and (est.mean, est.variance, est.samples, est.exact) == (
            mean, variance, 1 << u, True
        )


def test_counted_ccz_variance_at_balanced_cuts_pinned():
    # the README's table of exact CCZ variances at N = 6-11, each mean equal
    # to the closed form, and the ratio to the leading order falling to 1
    variances = [349 / 2**18, 1335 / 2**22, 4825 / 2**26, 17955 / 2**30, 271891 / 2**36,
                 1056951 / 2**40]
    ratios = []
    for n, variance in zip(range(6, 12), variances):
        est = exact_moments(EnsembleSpec(n, Family.CCZ), Bipartition.from_first(n, n // 2))
        assert est.mean == ccz_avg_purity(n // 2, n - n // 2)
        assert est.variance == Fraction(variance)
        ratios.append(float(est.variance) / ccz_purity_variance_leading(n // 2, n - n // 2)[0])
    assert ratios == sorted(ratios, reverse=True) and 1 < ratios[-1] < 1.04


def test_counted_limits_come_before_what_they_bound(monkeypatch):
    # each limit is checked from the edge parts alone, before any pair is
    # formed, at 8 (2W + 3) bytes a row: a side's min(2^D, 4^n) sets or
    # pairs, then the K_A K_B keys at min(2^D, 1 + 2^(n-1) (2^n - 1)) a side;
    # exact_moments enumerates none of these universes, whose subsets do not
    # fit the budget either
    def unreachable(*args):
        raise AssertionError("pairs formed past the byte budget")

    monkeypatch.setattr(ensembles_mod, "_incidence", unreachable)
    # ccz 1|13: 13 + 78 parts of B, so its 4^13 pairs, of 78 edges in 2 words
    with pytest.raises(ValueError, match=(
        r"^basis-state pairs of a 13-qubit side: 67108864 rows of 16 bytes need 3758096384 "
        r"bytes, over the 1073741824-byte budget$"
    )):
        exact_moments(EnsembleSpec(14, Family.CCZ), Bipartition.from_first(14, 1))
    # cz 14|14: 2^14 sets a side, then 2^28 keys of 196 edges in 4 words
    with pytest.raises(ValueError, match=(
        r"^collision keys: 268435456 rows of 32 bytes need 23622320128 bytes, over the "
    )):
        exact_moments(EnsembleSpec(28, Family.CZ), Bipartition.from_first(28, 14))
    monkeypatch.undo()
    # ccz 4|4: 10 parts a side, so 256 pairs (10240 bytes); at most 121
    # alphas a side, so 14641 keys (585640 bytes)
    spec, part = EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 4)
    runs = []
    real = ensembles_mod._runs
    monkeypatch.setattr(ensembles_mod, "_runs", lambda rows: runs.append(len(rows)) or real(rows))
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 40 * 14641)
    assert exact_moments(spec, part).variance == Fraction(4825, 1 << 26)
    assert runs == [256, 256, 14641]
    runs.clear()
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 40 * 14641 - 1)
    with pytest.raises(ValueError, match=r"^collision keys: 14641 rows of 8 bytes need 585640 "):
        exact_moments(spec, part)
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 40 * 256 - 1)
    with pytest.raises(
        ValueError, match=r"^basis-state pairs of a 4-qubit side: 256 rows of 8 bytes need 10240 "
    ):
        exact_moments(spec, part)
    assert runs == []
    # cz 1|11: 11 parts of B, so its 2^11 sets, refused where the 2^11
    # subsets do not fit either
    monkeypatch.setattr(ensembles_mod, "_incidence", unreachable)
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", (16 << 11) - 1)
    with pytest.raises(ValueError, match=(
        r"^sets of parts of a 11-qubit side: 2048 rows of 8 bytes need 81920 bytes, over the "
        r"32767-byte budget$"
    )):
        exact_moments(EnsembleSpec(12, Family.CZ), Bipartition.from_first(12, 1))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_runs_group_equal_rows(data):
    # rows of 1-3 words, with repeats and the all-zero row: one run per
    # distinct row, every row of a run equal, the all-zero row first
    words = data.draw(st.integers(1, 3), label="words")
    word = st.integers(0, (1 << 64) - 1)
    pool = data.draw(st.lists(st.tuples(*[word] * words), min_size=1, max_size=6), label="pool")
    row = st.sampled_from(pool + [(0,) * words]) | st.tuples(*[word] * words)
    values = data.draw(st.lists(row, min_size=1, max_size=60), label="rows")
    rows = np.array(values, dtype=np.uint64)
    order, ends = ensembles_mod._runs(rows)
    ordered = [tuple(r) for r in rows[order].tolist()]
    assert sorted(order.tolist()) == list(range(len(values)))
    starts = [0, *(ends[:-1] + 1).tolist()]
    assert Counter({ordered[e]: e + 1 - s for s, e in zip(starts, ends.tolist())}) == Counter(values)
    assert all(len(set(ordered[s : e + 1])) == 1 for s, e in zip(starts, ends.tolist()))
    if (0,) * words in values:
        assert ordered[0] == (0,) * words


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_counted_moments_match_subset_numerators_on_any_universe(data):
    # any universe of up to 10 edges of mixed arity in any order, scattered
    # cuts, local edges included, and the empty universe: the counted
    # moments equal the exact sums of every cross subset's numerator, and
    # count the 2^u subsets of the universe
    n = data.draw(st.integers(2, 7), label="n")
    a_mask = data.draw(st.integers(1, (1 << n) - 2), label="a_mask")
    part = Bipartition(n, a_mask)
    full = [e for k in range(1, min(4, n) + 1) for e in all_k_edges(n, k)]
    picks = data.draw(st.lists(st.sampled_from(full), unique=True, max_size=10), label="picks")
    u = len(picks)
    cross, sides = _sides(picks, part)
    nums = _subset_numerators(sides).tolist()
    est = ensembles_mod._counted_moments(n, u, sides)
    mean = Fraction(sum(nums), 1 << cross.size + 2 * n)
    second = Fraction(sum(x * x for x in nums), 1 << cross.size + 4 * n)
    assert (est.mean, est.second_moment, est.variance) == (mean, second, second - mean * mean)
    assert est.samples == 1 << u and est.exact


def test_universe_size_check_boundaries():
    # C(2048, 2) = 2096128 candidates fit the 2^21 draws of a sampling
    # piece, C(2049, 2) do not; one N-edge fits while N does
    check_universe_size(EnsembleSpec(2048, Family.CZ))
    check_universe_size(EnsembleSpec(1 << 21, Family.K_UNIFORM, k=1 << 21))
    for spec in [
        EnsembleSpec(2049, Family.CZ),
        EnsembleSpec((1 << 21) + 1, Family.K_UNIFORM, k=(1 << 21) + 1),
        EnsembleSpec(10**12, Family.K_UNIFORM, k=10**12 // 2),
    ]:
        with pytest.raises(ValueError, match="sampling piece"):
            check_universe_size(spec)
        with pytest.raises(ValueError, match="sampling piece"):
            edge_universe(spec)


def test_exhaustive_memory_does_not_grow_with_the_larger_side():
    # one 24-edge across 1 | 23 qubits: the B histogram runs in blocks
    spec = EnsembleSpec(24, Family.K_UNIFORM, k=24)
    d_b = 1 << 23
    tracemalloc.start()
    try:
        est = exact_moments(spec, Bipartition.from_first(24, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d_b // 16
    # the edge flips one sign of row 1: overlaps d_B and d_B - 2
    one = Fraction(d_b**2 + (d_b - 2) ** 2, 2 * d_b**2)
    assert (est.mean, est.variance) == ((1 + one) / 2, ((1 - one) / 2) ** 2)


def test_mc_sampling_memory_bound():
    # 20000 samples of 256 edge choices; a 2^21-draw piece held as uint64 is 16 MiB
    spec, part = EnsembleSpec(32, Family.CZ), Bipartition.from_first(32, 16)
    tracemalloc.start()
    try:
        mc_moments(spec, part, samples=20000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_stream_worker_reuses_its_buffers(monkeypatch):
    # every piece of a share drawn as bools is drawn into the one bool
    # buffer and mixed in the one pair of uint64 tiles, allocated once per share
    spec, part = EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 3)
    u = len(edge_universe(spec, part))
    whole = entropy_stats(spec, part, samples=300, seed=6)
    calls = []
    real = purity_mod.bernoulli_block
    spy = lambda *a, out, tiles: calls.append((out, tiles)) or real(*a, out=out, tiles=tiles)
    monkeypatch.setattr(purity_mod, "bernoulli_block", spy)
    monkeypatch.setattr(purity_mod, "_MC_PIECE_DRAWS", 7 * u)
    assert entropy_stats(spec, part, samples=300, seed=6) == whole
    assert len(calls) == 43
    assert len({id(out.base) for out, _ in calls}) == 1
    assert len({id(tiles) for _, tiles in calls}) == 1
    assert calls[0][1].shape == (2, 7 * u) and calls[0][1].dtype == np.uint64


@pytest.mark.parametrize("n, n_a, p, scope, words", [
    (16, 8, Fraction(1, 2), Scope.CROSS_ONLY, True),
    (11, 5, Fraction(1, 2), Scope.CROSS_ONLY, True),
    (16, 8, Fraction(3, 10), Scope.CROSS_ONLY, False),
    (16, 8, Fraction(1, 2), Scope.ALL_EDGES, False),
])
def test_cut_sampler_reads_block_universes_as_words(monkeypatch, n, n_a, p, scope, words):
    # a universe that is the cut block itself, at p = 1/2, is drawn packed,
    # with no bool; any other is drawn as bools; both tally the keys that
    # _cut_values makes of the samples' bools, and give the same terms
    spec = EnsembleSpec(n, Family.CZ, edge_probability=p, scope=scope)
    part = Bipartition.from_first(n, n_a)
    universe = edge_universe(spec, part)
    u = len(universe)
    drawn = []
    real = purity_mod.bernoulli_block
    spy = lambda *a, **k: drawn.append(a) or real(*a, **k)  # noqa: E731
    monkeypatch.setattr(purity_mod, "bernoulli_block", spy)
    tally, terms = _cut_sampler(universe, part, p, 40)
    keys, runs = tally(9, 30, 40)
    assert bool(drawn) != words
    bits = bernoulli_block(9, 30 * u, 40 * u, p).reshape(40, u)
    want = np.unique(_cut_values(universe, part)(bits), return_counts=True)
    assert np.array_equal(keys, want[0]) and np.array_equal(runs, want[1])
    assert terms(keys) == purity_mod._key_terms(n, True, keys)


@pytest.mark.parametrize("n_a, n_b", [(1, 5), (3, 7), (8, 8), (16, 16), (5, 70), (70, 70)])
def test_block_tally_is_the_rank_law_loop(monkeypatch, n_a, n_b):
    # the word route tallies a chunk's packed cut blocks by rank, in the rank
    # law's batches, at any batch size; at square blocks it is the rank law
    # read from the same choice
    n, seed, first, count = n_a + n_b, 11, 37, 300
    part = Bipartition.from_first(n, n_a)
    tally = _cut_sampler(edge_universe(EnsembleSpec(n, Family.CZ), part), part, Fraction(1, 2), count)[0]
    start = first * n_a * n_b
    ranks = gf2_mod.batch_rank(gf2_mod._random_words(count, n_a, n_b, seed, start), n_b)
    want = np.unique(ranks, return_counts=True)
    keys, runs = tally(seed, first, count)
    assert np.array_equal(keys, want[0]) and np.array_equal(runs, want[1])
    assert [a.tolist() for a in tally(seed, first, 1)] == [[ranks[0]], [1]]
    sizes = []
    real = gf2_mod.batch_rank
    monkeypatch.setattr(gf2_mod, "batch_rank", lambda w, c: sizes.append(w.shape[0]) or real(w, c))
    monkeypatch.setattr(gf2_mod, "_BATCH_TARGET_WORDS", 7 * n_a * ((n_b + 63) // 64))
    keys, runs = tally(seed, first, count)
    assert np.array_equal(keys, want[0]) and np.array_equal(runs, want[1])
    assert sizes == [min(7, count - d) for d in range(0, count, 7)]
    if n_a == n_b:
        law = gf2_mod._rank_law(n_a, count, seed, start)
        # ascending defect, so descending rank
        assert list(law.counts.items()) == [(n_a - r, c) for r, c in zip(keys[::-1], runs[::-1])]


def test_mc_pieces_keep_bytes_and_bound_memory(monkeypatch):
    # a chunk drawn in batches of 7 cut blocks (20 one-word rows each)
    # gives the same floats, in less memory
    spec, part = EnsembleSpec(40, Family.CZ), Bipartition.from_first(40, 20)
    u = len(edge_universe(spec, part))
    tracemalloc.start()
    try:
        whole = entropy_stats(spec, part, samples=300, seed=6)
        _, whole_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monkeypatch.setattr(gf2_mod, "_BATCH_TARGET_WORDS", 7 * 20 + 3)
        pieces = entropy_stats(spec, part, samples=300, seed=6)
        _, piece_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pieces == whole
    # draws are thresholded a tile at a time: no piece holds 8 bytes per draw
    assert piece_peak < whole_peak < 8 * 300 * u and piece_peak < 8 * 300 * u // 4
    # the bool route over two chunks, in pieces, the last one short
    spec, part = EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 3)
    monkeypatch.undo()
    whole = entropy_stats(spec, part, samples=5000, seed=2)
    monkeypatch.setattr(purity_mod, "_MC_PIECE_DRAWS", 1000)
    assert entropy_stats(spec, part, samples=5000, seed=2) == whole
