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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperent.ensembles as ensembles_mod
import hyperent.purity as purity_mod
from hyperent.ensembles import (
    EnsembleSpec,
    Family,
    Scope,
    edge_universe,
    entropy_stats,
    exact_moments,
    mc_moments,
    _CutFactors,
    _cut_ranks,
    _subset_numerators,
    check_universe_size,
    sample_hypergraph,
    split_run,
    subset_weight,
)
from hyperent.formulas import cz_avg_purity
from hyperent.hypergraph import Bipartition, Hypergraph
from hyperent.purity import cut_cells, graph_entropy_rank, state_purity
from hyperent.rng import CounterRng, child_seed

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
    spec = EnsembleSpec(6, Family.CCZ, scope=Scope.ALL_EDGES)
    rng = CounterRng(5)
    sample_hypergraph(spec, None, rng)
    assert rng.cursor == 20  # C(6, 3)


def test_enumerate_smallest_ensembles():
    # exhaustive moments visit 2^u subsets, each weighted p^c (1-p)^(u-c)
    spec = EnsembleSpec(2, Family.CZ, scope=Scope.ALL_EDGES)
    assert edge_universe(spec) == [(0, 1)]
    assert exact_moments(spec, Bipartition(2, 0b01)).samples == 2
    assert [subset_weight(spec, c, 1 - c) for c in (0, 1)] == [Fraction(1, 2), Fraction(1, 2)]

    spec = EnsembleSpec(3, Family.CCZ, scope=Scope.ALL_EDGES)
    assert exact_moments(spec, Bipartition(3, 0b001)).samples == 2

    spec = EnsembleSpec(6, Family.CCZ_HALF)
    assert exact_moments(spec, Bipartition.from_first(6, 3)).samples == 512


def test_enumeration_weights_sum_to_one():
    u = 6  # the 2-edges on 4 qubits
    for p in [Fraction(1, 2), Fraction(1, 4), Fraction(3, 10), Fraction(1)]:
        spec = EnsembleSpec(4, Family.CZ, edge_probability=p, scope=Scope.ALL_EDGES)
        assert len(edge_universe(spec)) == u
        total = sum(math.comb(u, c) * subset_weight(spec, c, u - c) for c in range(u + 1))
        assert total == 1


def test_enumeration_cap(monkeypatch):
    # 45 edges: refused by the transform's byte budget before any edge is factored
    def unreachable(*args):
        raise AssertionError("edges factored past the byte budget")

    monkeypatch.setattr(ensembles_mod, "_side_index", unreachable)
    spec = EnsembleSpec(10, Family.CZ, scope=Scope.ALL_EDGES)
    part = Bipartition.from_first(10, 5)
    with pytest.raises(ValueError, match="byte budget"):
        exact_moments(spec, part)
    with pytest.raises(ValueError, match="byte budget"):
        entropy_stats(spec, part)


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


def _cell_positions(universe, part):
    """Universe position of the edge cut_cells names at each cut-block cell."""
    return np.array([universe.index(tuple(e)) for e in cut_cells(part).tolist()])


def _assert_kernels_agree_on_drawn_bits(monkeypatch, spec, part, samples, seed):
    """Record the edge choices a 2-edge Monte Carlo run ranks, then square them instead."""
    drawn = []

    def recording(bits, order, part):
        drawn.append(bits)
        return _cut_ranks(bits, order, part)

    monkeypatch.setattr(ensembles_mod, "_cut_ranks", recording)
    mc_moments(spec, part, samples, seed)
    bits = np.concatenate(drawn)
    universe = edge_universe(spec, part)
    assert bits.shape == (samples, len(universe))
    ranks = _cut_ranks(bits, _cell_positions(universe, part), part)
    nums = _CutFactors(universe, part).numerators(bits)
    assert nums.tolist() == [1 << (2 * spec.n_qubits - r) for r in ranks.tolist()]


def test_mc_methods_agree_exactly_per_seed(monkeypatch):
    # the Gram numerator of every graph the rank kernel sampled is 2^(2N - rank)
    spec = EnsembleSpec(12, Family.CZ)
    _assert_kernels_agree_on_drawn_bits(monkeypatch, spec, Bipartition.from_first(12, 6), 400, 77)


def test_mc_sample_path_matches_manual_sampling():
    # worker 0 draws from the child stream; replaying it by hand must
    # reproduce the estimate
    from hyperent.rng import child_seed

    spec = EnsembleSpec(8, Family.CZ)
    part = Bipartition.from_first(8, 4)
    est = mc_moments(spec, part, 50, seed=31)
    rng = CounterRng(child_seed(31, 0))
    values = []
    for _ in range(50):
        h = sample_hypergraph(spec, part, rng)
        values.append(float(ref_purity(8, h.edges, part.a_mask)))
    mean = sum(values) / 50
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
    from hyperent.rng import child_seed

    spec = EnsembleSpec(7, Family.CCZ)
    part = Bipartition.from_first(7, 5)
    est = mc_moments(spec, part, 40, seed=19)
    rng = CounterRng(child_seed(19, 0))
    values = [
        float(ref_purity(7, sample_hypergraph(spec, part, rng).edges, part.a_mask))
        for _ in range(40)
    ]
    assert math.isclose(est.mean, sum(values) / 40, rel_tol=0, abs_tol=1e-15)


def _chunked_stats(monkeypatch, family):
    """Exhaustive stats at p = 3/10, with default and with tiny blocks and chunks."""
    spec = EnsembleSpec(4, family, edge_probability=Fraction(3, 10), scope=Scope.ALL_EDGES)
    part = Bipartition.from_first(4, 2)
    base = entropy_stats(spec, part)
    tallies = []
    tally = ensembles_mod._tally
    monkeypatch.setattr(ensembles_mod, "_tally", lambda *a: tallies.append(a[1]) or tally(*a))
    monkeypatch.setattr(ensembles_mod, "_HIST_CHUNK", 3)  # d = 4: blocks of 3 and 1 states
    monkeypatch.setattr(ensembles_mod, "_TALLY_CHUNK", 5)
    assert tallies == []
    chunked = entropy_stats(spec, part)
    assert tallies == list(range(0, 1 << len(edge_universe(spec, part)), 5))
    monkeypatch.undo()
    return base, chunked


def test_exhaustive_tally_chunking(monkeypatch):
    # tiny histogram blocks and tally chunks must not change any result;
    # p != 1/2, so every subset's edge count matters
    for family in (Family.CCZ, Family.CZ):
        base, chunked = _chunked_stats(monkeypatch, family)
        assert chunked == base


def test_exhaustive_statevector_needs_no_gram(monkeypatch):
    # the exhaustive route counts; only Monte Carlo computes numerators
    # of sampled states, by Gauss sums or Gram matrices
    def unreachable(*args):
        raise AssertionError("a per-state numerator called by the exhaustive route")

    monkeypatch.setattr(purity_mod, "gram_numerator", unreachable)
    monkeypatch.setattr(purity_mod, "_gauss_numerators", unreachable)
    monkeypatch.setattr(ensembles_mod, "_numerators", unreachable)
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
        assert [t[1:] for t in got] == [("arg", c, child_seed(7, w)) for w, c in enumerate(counts)]
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
    assert [t[1:] for t in got] == [(1, child_seed(7, w)) for w in range(50)]
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
    failing, sleeping, exit_code, caller, _, seed = task
    w = next(w for w in range(8) if child_seed(3, w) == seed)
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
    nums = _CutFactors(universe, part).numerators(bits)
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
    nums = _CutFactors(universe, part).numerators(bits)
    for mask, num in zip(subsets, nums):
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(num), 1 << (2 * n)) == ref_purity(n, edges, a_mask)


@pytest.mark.parametrize(
    "workers, mean, variance",
    [
        (1, 0.12697916666666667, 5.853387158584007e-05),
        (2, 0.12682291666666667, 5.882373754528741e-05),
        (3, 0.1273046875, 6.29014235276424e-05),
    ],
)
def test_mc_statevector_bytes_pinned(workers, mean, variance):
    # the float summation grouping of Monte Carlo sums is part of the
    # byte-stable contract; these values must not drift
    est = mc_moments(
        EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 4), 300, seed=5, workers=workers
    )
    assert (est.mean, est.variance) == (mean, variance)


@pytest.mark.parametrize(
    "n, workers, mean, variance",
    [
        (16, 1, 0.007783203125, 1.4861003347132557e-05),
        (16, 2, 0.00776953125, 1.564623559338262e-05),
        (16, 3, 0.00773828125, 1.581050229704696e-05),
        (32, 1, 3.061676025390625e-05, 2.1371913802674453e-10),
        (32, 2, 3.094482421875e-05, 2.267078616250569e-10),
        (32, 3, 3.07464599609375e-05, 2.1868492996114177e-10),
    ],
)
def test_mc_rank_bytes_pinned(n, workers, mean, variance):
    # ranks are exact, so the rank route's Monte Carlo output must not drift
    part = Bipartition.from_first(n, n // 2)
    est = mc_moments(EnsembleSpec(n, Family.CZ), part, 2000, seed=11, workers=workers)
    assert (est.mean, est.variance) == (mean, variance)


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
    "p, workers, mean, variance",
    [
        (Fraction(1, 2), 1, 8.470329472543003e-22, 0.0),
        (Fraction(1, 64), 1, 5.345624868683766e-13, 3.6060247681703556e-24),
        (Fraction(1, 64), 2, 4.566088248244189e-13, 2.936508970717267e-24),
    ],
)
def test_mc_rank_bytes_pinned_two_word_rows(p, workers, mean, variance):
    # N=150, N_A=70: 80 columns, so every cut row spans two words; at
    # p = 1/64 the cut blocks are sparse and rank defects are common
    spec = EnsembleSpec(150, Family.CZ, edge_probability=p)
    est = mc_moments(spec, Bipartition.from_first(150, 70), 300, seed=2, workers=workers)
    assert (est.mean, est.variance) == (mean, variance)


@pytest.mark.parametrize(
    "scope, workers, mean, variance",
    [
        (Scope.CROSS_ONLY, 1, 0.066375, 0.00023506272924308052),
        (Scope.CROSS_ONLY, 3, 0.0661875, 0.0002247585132544185),
        (Scope.ALL_EDGES, 1, 0.06547916666666667, 0.00017738160984216936),
        (Scope.ALL_EDGES, 3, 0.06564583333333333, 0.00018678057616427688),
    ],
)
def test_mc_rank_bytes_pinned_scattered_cut(scope, workers, mean, variance):
    part = Bipartition(12, 0b101101110101)  # n_a = 8, n_b = 4
    est = mc_moments(EnsembleSpec(12, Family.CZ, scope=scope), part, 3000, seed=21, workers=workers)
    assert (est.mean, est.variance) == (mean, variance)


def test_cut_factors_memory_budget(monkeypatch):
    # the budget counts the Gram route's sign rows: a 4-edge universe at
    # N=10, N_A=5 has 32 rows of one word, 256 bytes; its 200 edges still
    # set the batch size, not the budget
    part = Bipartition.from_first(10, 5)
    universe = edge_universe(EnsembleSpec(10, Family.K_UNIFORM, k=4), part)
    monkeypatch.setattr(ensembles_mod, "_SAMPLE_BYTES", 256)
    assert _CutFactors(universe, part).batch_size() == (1 << 18) // 200
    monkeypatch.setattr(ensembles_mod, "_SAMPLE_BYTES", 255)
    with pytest.raises(ValueError, match="needs 256 bytes, over the 255-byte budget"):
        _CutFactors(universe, part)
    # the CCZ universe takes the Gauss-sum kernel, which builds no sign rows
    ccz = edge_universe(EnsembleSpec(10, Family.CCZ), part)
    assert _CutFactors(ccz, part).batch_size() == (1 << 18) // 100


def test_gauss_route_batches_many_samples():
    # N=24, N_A=1: sized by sign rows, a batch held one sample; the Gauss
    # route's holds 2^18 choices of the 253 cross edges, and batching does
    # not change a numerator
    part = Bipartition.from_first(24, 1)
    factors = _CutFactors(edge_universe(EnsembleSpec(24, Family.CCZ), part), part)
    assert factors.cross.size == 253 and factors.batch_size() == (1 << 18) // 253
    bits = np.random.default_rng(24).random((50, 253)) < 0.5
    one_by_one = [factors._batch(bits[i : i + 1])[0] for i in range(len(bits))]
    assert factors.numerators(bits).tolist() == one_by_one


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
        self.seen.append(self.threads)
        return np.zeros(rows.shape[0], dtype=np.int64)


def _small_factors():
    # 4-vertex cross edges, which only the Gram route takes
    part = Bipartition.from_first(6, 3)
    universe = edge_universe(EnsembleSpec(6, Family.K_UNIFORM, k=4), part)
    return _CutFactors(universe, part), np.ones((3, len(universe)), dtype=np.uint8)


def test_ensemble_numerators_run_on_one_blas_thread(monkeypatch):
    blas = _FakeBlas(monkeypatch, threads=3)
    monkeypatch.setattr(purity_mod, "gram_numerator", blas.numerator)
    factors, bits = _small_factors()
    assert factors.numerators(bits).tolist() == [0, 0, 0]
    assert blas.seen == [1] and blas.threads == 3

    def boom(rows, n_cols):
        blas.seen.append(blas.threads)
        raise RuntimeError("numerator failed")

    monkeypatch.setattr(purity_mod, "gram_numerator", boom)
    with pytest.raises(RuntimeError):
        factors.numerators(bits)
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
    factors, bits = _small_factors()
    assert factors.numerators(bits).tolist() == [0, 0, 0]
    assert blas.seen == [3]


def _mask_bits(masks, u):
    """(len(masks), u) 0/1 edge choices of subset masks."""
    masks = np.asarray(masks, dtype=np.int64)
    return ((masks[:, np.newaxis] >> np.arange(u)) & 1).astype(np.uint8).reshape(masks.size, u)


@settings(deadline=None)
@given(st.data())
def test_subset_numerators_match_cut_factors_and_oracle(data):
    # any universe of up to 10 edges in any order, scattered cuts with
    # either side larger, local edges included, and the empty universe;
    # blocks of 2-4 edges run the cross-block transform levels and the
    # high OR-tables at small u
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
    universe = [full[i] for i in picks]
    u = len(universe)
    block = data.draw(st.sampled_from([2, 3, 4, ensembles_mod._BLOCK_EDGES]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensembles_mod, "_BLOCK_EDGES", block)
        nums = _subset_numerators(universe, part)
    assert nums.dtype == np.int64 and nums.shape == (1 << u,)
    bits = _mask_bits(np.arange(1 << u), u)
    assert nums.tolist() == _CutFactors(universe, part).numerators(bits).tolist()
    # one side's superset counts, #{(a, a') : alpha(a, a') contains S}, by brute force
    a_parts = [sum(1 << i for i, v in enumerate(part.a_indices) if v in e) for e in universe]
    alphas = [
        sum(((a & m == m) ^ (b & m == m)) << j for j, m in enumerate(a_parts))
        for a in range(part.d_a)
        for b in range(part.d_a)
    ]
    supersets = [sum(alpha & s == s for alpha in alphas) for s in range(1 << u)]
    assert ensembles_mod._pair_supersets(a_parts, part.n_a).tolist() == supersets
    for mask in data.draw(st.lists(st.integers(0, (1 << u) - 1), min_size=1, max_size=3)):
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(nums[mask]), 1 << (2 * n)) == ref_purity(n, edges, a_mask)


def test_subset_numerators_at_full_block_width():
    # CCZ at 3 | 3: 18 edges over 6 distinct parts per side, four blocks
    # of 2^16 subsets; checked on sampled masks and the empty universe
    part = Bipartition.from_first(6, 3)
    universe = edge_universe(EnsembleSpec(6, Family.CCZ), part)
    assert len(universe) == 18 and ensembles_mod._BLOCK_EDGES == 16
    nums = _subset_numerators(universe, part)
    masks = np.random.default_rng(18).integers(0, 1 << 18, size=300)
    masks[:4] = [0, (1 << 16) - 1, 1 << 16, (1 << 18) - 1]
    want = _CutFactors(universe, part).numerators(_mask_bits(masks, 18))
    assert nums[masks].tolist() == want.tolist()
    for mask in masks[:8].tolist():
        edges = [e for j, e in enumerate(universe) if mask >> j & 1]
        assert Fraction(int(nums[mask]), 1 << 12) == ref_purity(6, edges, part.a_mask)
    assert _subset_numerators([], part).tolist() == [1 << 12]


def test_subset_numerators_hold_one_array():
    # 20 edges of 3 qubits at a scattered cut, local ones included: the
    # numerators are one 2^20 int64 array beside small side tables
    part = Bipartition(6, 0b010110)
    universe = edge_universe(EnsembleSpec(6, Family.K_UNIFORM, k=3, scope=Scope.ALL_EDGES), part)
    u = len(universe)
    assert u == 20
    tracemalloc.start()
    try:
        nums = _subset_numerators(universe, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (8 << u)
    masks = np.random.default_rng(20).integers(0, 1 << u, size=200)
    want = _CutFactors(universe, part).numerators(_mask_bits(masks, u))
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


def test_subset_numerators_guards_come_first(monkeypatch):
    def unreachable(*args):
        raise AssertionError("edges factored past a guard")

    monkeypatch.setattr(ensembles_mod, "_side_index", unreachable)
    with pytest.raises(ValueError, match="int64"):
        _subset_numerators([tuple(range(32))], Bipartition.from_first(32, 1))
    # 27 cross edges need 2 * 8 * 2^27 bytes, over the 2^30 budget
    spec = EnsembleSpec(12, Family.CZ)
    with pytest.raises(ValueError, match="byte budget"):
        exact_moments(spec, Bipartition.from_first(12, 3))
    monkeypatch.undo()
    part = Bipartition.from_first(4, 2)
    universe = edge_universe(EnsembleSpec(4, Family.CZ), part)  # 4 edges: 256 bytes
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 256)
    assert _subset_numerators(universe, part).size == 16
    monkeypatch.setattr(ensembles_mod, "_TRANSFORM_BYTES", 255)
    with pytest.raises(ValueError, match="byte budget"):
        _subset_numerators(universe, part)


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


def test_mc_pieces_keep_bytes_and_bound_memory(monkeypatch):
    # a chunk drawn in pieces of rows gives the same floats, in less memory
    spec, part = EnsembleSpec(40, Family.CZ), Bipartition.from_first(40, 20)
    u = len(edge_universe(spec, part))
    tracemalloc.start()
    try:
        whole = entropy_stats(spec, part, samples=300, seed=6)
        _, whole_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monkeypatch.setattr(ensembles_mod, "_MC_PIECE_DRAWS", 7 * u + 3)
        pieces = entropy_stats(spec, part, samples=300, seed=6)
        _, piece_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pieces == whole
    # draws are thresholded a tile at a time: no piece holds 8 bytes per draw
    assert piece_peak < whole_peak < 8 * 300 * u and piece_peak < 8 * 300 * u // 4
    # the state-vector route over two chunks, the last one short
    spec, part = EnsembleSpec(8, Family.CCZ), Bipartition.from_first(8, 3)
    monkeypatch.undo()
    whole = entropy_stats(spec, part, samples=5000, seed=2)
    monkeypatch.setattr(ensembles_mod, "_MC_PIECE_DRAWS", 1000)
    assert entropy_stats(spec, part, samples=5000, seed=2) == whole
