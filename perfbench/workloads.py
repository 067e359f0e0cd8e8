"""The benchmark's workloads: which ops a pass runs and the inputs each op gets.

Every input is made here from the workload seed; hyperent sees only the
generated graph files, CLI arguments and small hypergraphs.  This module
imports nothing from hyperent or numpy, so a measuring process can load it
before it starts timing ``import hyperent``.

Problem sizes are the reference sizes of each route, scaled where a pass
had to fit the time budget of a run (see NOTES.md):

- ``rank``: CZ Monte Carlo at N=16 and N=32 and the N=16 rank law
  (criteria 7a, 10a, 9), at one worker and at ``pool_workers()``, plus
  the exhaustive CZ N=8 enumeration (criteria 1 and 2).  The only
  workload that runs the process pool; rng and gf2 do most of the work.
- ``ccz``: CCZ Monte Carlo at N=10,12,14 (criterion 7b's sizes), the
  exhaustive CCZ N=6 enumeration (criteria 3 and 8) and the restricted
  family at the four cuts of criterion 4.  No gf2 work at all.
- ``state``: single states through ``hyperent state``: a 3-uniform N=22
  graph at the balanced cut (purity numerator) and at N_A=4 (sign
  table), a 2-uniform N=20 graph; then small states of the shape of
  criterion 6 (N=8..12, random graphs and a random half of the qubits
  as A) straight through ``reports.state_record``.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

WORKLOADS = ("rank", "ccz", "state")

RANK_MC_SAMPLES = 20_000
RANK_LAW_SAMPLES = 100_000  # criterion 9's bands hold at this size
CCZ_MC_SAMPLES = 600
STATE_BALANCED = (22, 11)
STATE_UNBALANCED = (22, 4)
STATE_GRAPH = (20, 10)
SMALL_STATES = 100
SMALL_QUBITS = (8, 12)
MAX_POOL_WORKERS = 4


@dataclass(frozen=True)
class Op:
    """One call into hyperent, or one group of small-state calls.

    ``units`` is the work one call does: Monte Carlo samples, exhaustive
    subsets, rank-law matrices, amplitudes (2^n) or small states.
    ``params`` holds what the output check needs.
    """

    key: str
    kind: str  # "mc", "exhaustive", "rankdist", "state" or "small"
    argv: tuple[str, ...] = ()
    units: int = 1
    workers: int = 1
    params: dict = field(default_factory=dict, compare=False)


def pool_workers() -> int:
    """Worker count of the parallel ops: the usable cores, at most MAX_POOL_WORKERS."""
    return max(1, min(len(os.sched_getaffinity(0)), MAX_POOL_WORKERS))


def _cross_universe(n: int, n_a: int, k: int) -> int:
    return comb(n, k) - comb(n_a, k) - comb(n - n_a, k)


def _moments_mc(family, ns, samples, seed, workers) -> Op:
    argv = ("moments", "--family", family, "--n", ",".join(map(str, ns)),
            "--samples", str(samples), "--seed", str(seed), "--workers", str(workers))
    return Op(f"{family}-mc-w{workers}", "mc", argv, samples * len(ns), workers,
              {"family": family, "ns": ns, "samples": samples})


def _moments_exhaustive(family, n, n_a, universe) -> Op:
    argv = ("moments", "--family", family, "--n", str(n), "--na", str(n_a), "--exhaustive")
    return Op(f"{family}-exhaustive-{n_a}-{n - n_a}", "exhaustive", argv, 1 << universe, 1,
              {"family": family, "n": n, "n_a": n_a, "universe": universe})


def _rankdist(n, samples, seed, workers) -> Op:
    argv = ("rankdist", "--n", str(n), "--samples", str(samples), "--seed", str(seed),
            "--workers", str(workers))
    return Op(f"rankdist-w{workers}", "rankdist", argv, samples, workers,
              {"n": n, "samples": samples})


def _random_edges(rnd: random.Random, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Half of the k-subsets of the n vertices, drawn uniformly.

    A fixed edge count (rather than a Bernoulli(1/2) draw per subset)
    keeps the work of an op the same from seed to seed.
    """
    universe = list(itertools.combinations(range(n), k))
    return tuple(sorted(rnd.sample(universe, len(universe) // 2)))


def _state(name, n, n_a, edges, path: Path) -> Op:
    argv = ("state", "--graph-file", str(path), "--na", str(n_a), "--format", "json")
    return Op(f"state-{name}-{n_a}-{n - n_a}", "state", argv, 1 << n, 1,
              {"n": n, "a_mask": (1 << n_a) - 1, "edges": edges})


def write_graph(path: Path, n: int, edges) -> None:
    path.write_text(f"n {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges))


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one pass, in order; writes the graph files the ops read."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "rank":
        mc_seed, law_seed = rnd.getrandbits(63), rnd.getrandbits(63)
        ops = []
        for w in sorted({1, pool_workers()}):
            ops.append(_moments_mc("cz", (16, 32), RANK_MC_SAMPLES, mc_seed, w))
            ops.append(_rankdist(16, RANK_LAW_SAMPLES, law_seed, w))
            if w == 1:
                ops.append(_moments_exhaustive("cz", 8, 4, _cross_universe(8, 4, 2)))
        return ops
    if workload == "ccz":
        ops = [
            _moments_mc("ccz", (10, 12, 14), CCZ_MC_SAMPLES, rnd.getrandbits(63), 1),
            _moments_exhaustive("ccz", 6, 3, _cross_universe(6, 3, 3)),
        ]
        for n_a, n_b in ((1, 2), (2, 2), (1, 3), (3, 3)):
            ops.append(_moments_exhaustive("ccz-half", n_a + n_b, n_a, n_a * comb(n_b, 2)))
        return ops
    workdir.mkdir(parents=True, exist_ok=True)
    n3 = STATE_BALANCED[0]
    edges3 = _random_edges(rnd, n3, 3)
    n2 = STATE_GRAPH[0]
    edges2 = _random_edges(rnd, n2, 2)
    path3 = workdir / f"{workload}-{seed}-3uniform.graph"
    path2 = workdir / f"{workload}-{seed}-2uniform.graph"
    write_graph(path3, n3, edges3)
    write_graph(path2, n2, edges2)
    # Sizes and arities cycle in a fixed order; edge sets and the qubits
    # of A are random.
    small = []
    low, high = SMALL_QUBITS
    for i in range(SMALL_STATES):
        n = low + i % (high - low + 1)
        arity = 2 + (i // (high - low + 1)) % 2
        a_mask = sum(1 << v for v in rnd.sample(range(n), n // 2))
        small.append((n, a_mask, _random_edges(rnd, n, arity)))
    return [
        _state("3uniform", n3, STATE_BALANCED[1], edges3, path3),
        _state("3uniform", n3, STATE_UNBALANCED[1], edges3, path3),
        _state("2uniform", n2, STATE_GRAPH[1], edges2, path2),
        Op("small-states", "small", (), len(small), 1, {"states": tuple(small)}),
    ]
