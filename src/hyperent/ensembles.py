"""Random-hypergraph ensembles: sampling, exhaustive enumeration, moments.

An ensemble is a universe of candidate edges plus an independent
inclusion probability p per edge (default 1/2).  Exhaustive enumeration
visits every subset of the universe once; Monte Carlo draws subsets
from the documented counter-based stream so runs are reproducible for
a fixed (seed, worker count) and trivially parallel: worker w owns a
contiguous slice of the sample range and the child stream w
(:func:`split_run`), so it does not matter which process computes a
share: the caller and a pool of forked children compute them.  The
pool holds at most one child per usable core beyond the caller's, lives
as long as the process, and is killed whole when any share fails.

Each mode has one route to the purity numerators.  Exhaustive moments
count: :func:`_subset_numerators` returns every subset's numerator at
once.  Per side, a histogram of which distinct edge parts each basis
state contains gives, by Walsh-Hadamard and subset transforms, a table
over sets of distinct parts; the subsets' products of the two sides'
entries are gathered into one 2^u int64 array a cache-sized block at a
time, and one subset transform over it yields the numerators, with no
state, sign row or Gram matrix built.  Monte Carlo ranks the cut block
over GF(2) for 2-edge families (purity = 2^-rank), its cells looked up
in the universe by :func:`purity.cut_cells`, and otherwise hands each
batch of sampled edge choices, through :class:`_CutFactors`, to the
package's one numerator dispatcher :func:`purity._numerators` on one
BLAS thread: the batched Gauss-sum kernel when every cross edge has at
most three vertices (CCZ, the restricted family, 3-uniform), and sign
rows with the batched Gram numerator otherwise.

Monte Carlo memory is bounded by the piece, not the run: each chunk of
samples is drawn in pieces of at most ``_MC_PIECE_DRAWS`` = 2^21 edge
choices, one bool each (2 MiB), into one buffer that every piece of a
share reuses; :func:`rng.bernoulli_block` fills it from one 2^15-draw
(256 KiB) uint64 tile at a time; the rank or numerator route then holds
only what it makes of one piece.

Exhaustive moments are exact: purity numerators are integers, subsets
are tallied by (edge count, numerator), weights are exact rationals,
and floats appear only in entropy (log) values; 2-edge numerators are
powers of two, so those entropies stay integers.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import pickle
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, repeat

import numpy as np

from . import gf2
from .hypergraph import Bipartition, Edge, Hypergraph, all_k_edges
from .purity import (
    _GAUSS_MAX_VERTICES,
    _cross_parts,
    _numerators,
    _one_blas_thread,
    _side_index,
    check_qubit_cap,
    cut_cells,
    edge_codes,
)
from .rng import CounterRng, bernoulli_block, child_seed

_MC_CHUNK = 4096
_MC_PIECE_DRAWS = 1 << 21  # draws of one piece of a chunk, which bounds sampling memory
_SAMPLE_BYTES = 1 << 28  # budget for one sample's packed sign rows on the Gram route
_HIST_CHUNK = 1 << 16  # basis states per block of incidence vectors
_TALLY_CHUNK = 1 << 16  # subsets per np.unique call of the exhaustive tally
_BLOCK_EDGES = 16  # low edges of one cache-sized block of subsets: 2^16 int64 numerators
_TRANSFORM_BYTES = 1 << 30  # the one exhaustive limit: two 2^u int64 arrays' worth, so u <= 26


class Family(enum.Enum):
    CZ = "cz"
    CCZ = "ccz"
    CCZ_HALF = "ccz-half"
    K_UNIFORM = "k-uniform"


class Scope(enum.Enum):
    ALL_EDGES = "all"
    CROSS_ONLY = "cross"


@dataclass(frozen=True)
class EnsembleSpec:
    """Which gates may fire, where, and with what probability."""

    n_qubits: int
    family: Family
    k: int | None = None
    edge_probability: Fraction = Fraction(1, 2)
    scope: Scope = Scope.CROSS_ONLY

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        p = Fraction(self.edge_probability)
        object.__setattr__(self, "edge_probability", p)
        if not 0 <= p <= 1:
            raise ValueError(f"edge probability {p} out of [0, 1]")
        if self.family is Family.K_UNIFORM:
            if self.k is None or not 1 <= self.k <= self.n_qubits:
                raise ValueError("k-uniform family needs 1 <= k <= n")
        elif self.k is not None and self.k != self.edge_arity:
            raise ValueError(f"family {self.family.value} fixes edge arity, got k={self.k}")

    @property
    def edge_arity(self) -> int:
        if self.family is Family.CZ:
            return 2
        if self.family in (Family.CCZ, Family.CCZ_HALF):
            return 3
        return self.k


@dataclass(frozen=True)
class MomentEstimate:
    """Mean/variance of a per-state quantity, exact or sampled.

    Exhaustive results carry exact rationals and zero standard errors;
    Monte Carlo results use the unbiased sample variance and a
    normal-approximation std error for the variance (a rough figure:
    purity distributions are markedly skewed).
    """

    mean: Fraction | float
    second_moment: Fraction | float
    variance: Fraction | float
    std_error_mean: float
    std_error_variance: float
    samples: int
    exact: bool


@dataclass(frozen=True)
class EntropyStats:
    """Per-state entropy statistics next to the purity statistics.

    ``entropy.mean`` averages -log2(P) per state; that is not the same
    number as -log2 of the average purity, so both are reported.
    """

    entropy: MomentEstimate
    purity: MomentEstimate

    @property
    def minus_log2_mean_purity(self) -> float:
        return -math.log2(float(self.purity.mean))


def check_universe_size(spec: EnsembleSpec) -> None:
    """Refuse an N or C(N, k) candidate edges past one sampling piece, before any is built."""
    n, k = spec.n_qubits, spec.edge_arity
    limit = _MC_PIECE_DRAWS
    # every universe is a subset of the candidates; C(N, j) >= 2^j for
    # j <= N/2, so a huge k is refused without computing the binomial
    if n > limit or min(k, n - k) >= limit.bit_length() or math.comb(n, k) > limit:
        raise ValueError(f"N={n} with {k}-edges does not fit one sampling piece of {limit} draws")


def edge_universe(spec: EnsembleSpec, part: Bipartition | None = None) -> list[Edge]:
    """Candidate edges of the ensemble, in lexicographic order."""
    check_universe_size(spec)
    n = spec.n_qubits
    if part is not None and part.n_qubits != n:
        raise ValueError("bipartition size does not match the ensemble")
    if spec.family is Family.CCZ_HALF:
        if part is None:
            raise ValueError("the restricted 3-edge family needs a bipartition")
        if part.n_b < 2:
            raise ValueError("the restricted 3-edge family needs >= 2 complement qubits")
        edges = []
        for i in part.a_indices:
            b = part.b_indices
            for x in range(len(b)):
                for y in range(x + 1, len(b)):
                    edges.append(tuple(sorted((i, b[x], b[y]))))
        return sorted(edges)
    if spec.scope is Scope.ALL_EDGES:
        return all_k_edges(n, spec.edge_arity)
    if part is None:
        raise ValueError("cross-only scope needs a bipartition")
    # the side of each vertex, read once; combinations of the sides run in
    # step with those of the vertices and drop the one-side edges
    side = f"{part.a_mask:0{n}b}"[::-1]
    k = spec.edge_arity
    cross = map({("0",) * k: False, ("1",) * k: False}.get, combinations(side, k), repeat(True))
    return list(compress(combinations(range(n), k), cross))


def sample_hypergraph(spec: EnsembleSpec, part: Bipartition | None, rng: CounterRng) -> Hypergraph:
    """One random hypergraph: each universe edge kept independently with prob p.

    Consumes exactly len(edge_universe(spec, part)) draws, in universe order.
    """
    universe = edge_universe(spec, part)
    keep = rng.bernoulli(spec.edge_probability, len(universe))
    return Hypergraph(spec.n_qubits, frozenset(e for e, b in zip(universe, keep) if b))


def subset_weight(spec: EnsembleSpec, present: int, absent: int) -> Fraction:
    p = spec.edge_probability
    return p**present * (1 - p) ** absent


def _edge_masks(universe: list[Edge]) -> np.ndarray:
    """int64 bit masks of the universe edges, in universe order."""
    return np.array([sum(1 << v for v in e) for e in universe], dtype=np.int64)


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


class _CutFactors:
    """Universe edges factored across the cut, for batched exact purities.

    Works on the cheaper orientation (fewer A qubits).  It keeps the
    universe positions and the A and B parts of the cross edges; each
    batch of edge choices becomes numerators through
    :func:`purity._numerators`, by Gauss sums or by the Gram matrices of
    packed sign rows.  Edges inside one side are local unitaries that
    leave the purity unchanged and are left out.  A universe of edges of
    at most three vertices takes the Gauss-sum kernel, which builds no
    sign rows and blocks its own work: it is refused past the qubit cap,
    and a batch holds 2^18 cross-edge choices, whose float64 copy in the
    kernel is 2 MiB.  Any other universe takes the Gram route: the
    per-sample budget counts its sign rows, and a batch holds 2^18 words
    of them or of edge columns.
    """

    def __init__(self, universe: list[Edge], part: Bipartition):
        self.part = part if part.n_a <= part.n_b else part.complement()
        gauss = max(map(len, universe), default=0) <= _GAUSS_MAX_VERTICES
        if gauss:
            check_qubit_cap(part.n_qubits)
        else:
            words = gf2._n_words(self.part.d_b)
            row_bytes = 8 * words * self.part.d_a  # one sample's packed sign rows
            if row_bytes > _SAMPLE_BYTES:
                raise ValueError(
                    f"one sample at N={part.n_qubits}, N_A={part.n_a} needs "
                    f"{row_bytes} bytes, over the {_SAMPLE_BYTES}-byte budget"
                )
        self.cross, self.a_parts, self.b_parts = _cross_parts(_edge_masks(universe), self.part)
        # a batch holds 2^18 of one sample's cross-edge choices or sign-row words
        self._sample_units = self.cross.size if gauss else words * max(self.part.d_a, len(universe))

    def batch_size(self) -> int:
        return max(1, (1 << 18) // max(1, self._sample_units))

    def numerators(self, bits: np.ndarray) -> np.ndarray:
        """Exact 2^(2N) * purity for each row of (batch, universe) 0/1 edge choices."""
        step = self.batch_size()
        with _one_blas_thread():
            return np.concatenate(
                [self._batch(bits[lo : lo + step]) for lo in range(0, bits.shape[0], step)]
            )

    def _batch(self, bits: np.ndarray) -> np.ndarray:
        n_a, n_b = self.part.n_a, self.part.n_b
        return _numerators(bits[:, self.cross], self.a_parts, self.b_parts, n_a, n_b)


def _butterflies(arr: np.ndarray, first: int = 0):
    """(lo, hi) views of arr for each of its log2(len) bits from first: entries without and with it.

    Bits 1 and 2 come as one strided 1-d pair per offset, which numpy
    runs several times faster than a view with an inner axis of 2 or 4.
    """
    for j in range(first, arr.size.bit_length() - 1):
        pairs = arr.reshape(-1, 2, 1 << j)
        if 0 < j < 3:
            yield from ((pairs[:, 0, i], pairs[:, 1, i]) for i in range(1 << j))
        else:
            yield pairs[:, 0], pairs[:, 1]


def _pair_supersets(parts: list[int], n_side: int) -> np.ndarray:
    """#{(x, x') : iota(x) XOR iota(x') contains S} for every S, where iota(x)_j = [parts_j in x].

    Histograms iota over the 2^n_side basis states in blocks, squares
    its Walsh-Hadamard transform (the pair histogram's transform, of
    magnitude <= d^2), and turns that into superset counts by a halving
    subset transform, hi <- (lo - hi) / 2, whose every intermediate is
    an integer of magnitude <= d^2, so the shift is exact.
    """
    counts = np.zeros(1 << len(parts), dtype=np.int64)
    for lo in range(0, 1 << n_side, _HIST_CHUNK):
        x = np.arange(lo, min(1 << n_side, lo + _HIST_CHUNK), dtype=np.int64)
        iota = np.zeros_like(x)
        for j, m in enumerate(parts):
            iota[(x & m) == m] |= 1 << j
        vals, hits = np.unique(iota, return_counts=True)
        counts[vals] += hits
    for lo, hi in _butterflies(counts):
        lo += hi
        hi *= -2
        hi += lo
    counts *= counts
    for lo, hi in _butterflies(counts):
        np.subtract(lo, hi, out=hi)
        hi >>= 1
    return counts


def _or_table(bits: np.ndarray) -> np.ndarray:
    """The OR of bits[j] over the set bits j of every mask below 2^len(bits), by doubling."""
    table = np.zeros(1 << bits.size, dtype=bits.dtype)
    for j, bit in enumerate(bits):
        np.bitwise_or(table[: 1 << j], bit, out=table[1 << j : 2 << j])
    return table


def _side_tables(parts: np.ndarray, n_side: int, low: int):
    """(h, pi_low, pi_high) of one side: H(T) = h[pi_low[t] | pi_high[i]] at T = i 2^low + t.

    Edges with equal parts have equal iota bits, so H(T) depends only on
    the set pi(T) of distinct parts among T's edges: h is
    :func:`_pair_supersets` over the distinct parts, and pi is split
    into OR-tables of the low and the high edges, as narrow as the
    distinct count allows.
    """
    distinct, which = np.unique(parts, return_inverse=True)
    bits = (1 << which).astype(np.min_scalar_type((1 << distinct.size) - 1))
    return _pair_supersets(distinct.tolist(), n_side), _or_table(bits[:low]), _or_table(bits[low:])


def _subset_numerators(universe: list[Edge], part: Bipartition) -> np.ndarray:
    """Exact 2^(2N) * purity of every subset of the universe, int64, indexed by subset mask.

    With signs (-1)^(sum_j w_j [m_A,j in a][m_B,j in b]), the numerator
    of subset w is sum over (a, a', b, b') of (-1)^(w . (alpha & beta)),
    alpha_j = [m_A,j in a] XOR [m_A,j in a'] and beta likewise on B.
    Expanding (-1)^(w_j alpha_j beta_j) = 1 - 2 w_j alpha_j beta_j gives
    num(w) = sum over T inside w of (-2)^|T| H_A(T) H_B(T), with H the
    superset counts of :func:`_pair_supersets`, so one subset transform
    (lo, lo - 2 hi) of H_A * H_B yields every numerator.  Every
    intermediate has magnitude <= 2^(2N), exact in int64 for N <= 31.
    Edges inside one side give alpha_j = 0 or beta_j = 0 and drop out.

    H_A * H_B is gathered from the small tables of :func:`_side_tables`
    one block of 2^_BLOCK_EDGES subsets at a time, and the block's low
    transform levels run while it is in cache; only the u - _BLOCK_EDGES
    high levels stream the whole array.  O(u 2^u + D (d + 2^D)) time per
    side of D distinct parts over d basis states; memory is one 2^u int64
    array beside the side tables, 2^D int64 counts and 2^_BLOCK_EDGES
    narrow OR entries per side.
    """
    check_qubit_cap(part.n_qubits)
    u = len(universe)
    if 2 * 8 << u > _TRANSFORM_BYTES:
        raise ValueError(
            f"a universe of {u} edges needs {2 * 8 << u} bytes of transforms, "
            f"over the {_TRANSFORM_BYTES}-byte budget"
        )
    masks = _edge_masks(universe)
    low = min(u, _BLOCK_EDGES)
    h_a, low_a, high_a = _side_tables(_side_index(masks, part.a_mask), part.n_a, low)
    h_b, low_b, high_b = _side_tables(_side_index(masks, part.b_mask), part.n_b, low)
    nums = np.empty(1 << u, dtype=np.int64)
    for i, block in enumerate(nums.reshape(-1, 1 << low)):
        block[:] = h_a[low_a | high_a[i]]
        block *= h_b[low_b | high_b[i]]
        for lo, hi in _butterflies(block):
            hi *= -2
            hi += lo
    for lo, hi in _butterflies(nums, low):
        hi *= -2
        hi += lo
    return nums


def _tally(tally: Counter, lo: int, nums: np.ndarray) -> None:
    """Count the distinct (edge count, numerator) keys of subsets lo, lo + 1, ... into tally."""
    counts = np.bitwise_count(np.arange(lo, lo + nums.size, dtype=np.uint64))
    vals, inv = np.unique(nums, return_inverse=True)
    grid = np.bincount(inv * 64 + counts, minlength=64 * vals.size).reshape(vals.size, 64)
    for i, c in zip(*np.nonzero(grid)):
        tally[int(c), int(vals[i])] += int(grid[i, c])


def _exhaustive_stats(spec: EnsembleSpec, part: Bipartition) -> EntropyStats:
    """Exact purity and entropy moments over every subset of the universe.

    Subsets with c edges share the weight p^c (1-p)^(u-c), so the
    subsets are tallied by (edge count, numerator) and each distinct key
    is weighted once.  A 2-edge numerator is 2^(2N - rank), so those
    entropies are integers and their moments exact rationals too.
    """
    universe = edge_universe(spec, part)
    u = len(universe)
    n = spec.n_qubits
    tally = Counter()
    nums = _subset_numerators(universe, part)
    for lo in range(0, nums.size, _TALLY_CHUNK):
        _tally(tally, lo, nums[lo : lo + _TALLY_CHUNK])
    keys = sorted(tally)
    graph = spec.edge_arity == 2
    if graph:
        entropies = [2 * n - (num.bit_length() - 1) for _, num in keys]
    else:
        entropies = (2 * n - np.log2(np.array([num for _, num in keys], dtype=np.int64))).tolist()
    sums = [[0, 0, 0, 0] for _ in range(u + 1)]  # per c: sum num, num^2, S2, S2^2
    for (c, num), s2 in zip(keys, entropies):
        mult = tally[c, num]
        acc = sums[c]
        acc[0] += mult * num
        acc[1] += mult * num * num
        acc[2] += mult * s2
        acc[3] += mult * s2 * s2
    p_mean = p_second = s_mean = s_second = 0
    for c, (num, num_sq, s, s_sq) in enumerate(sums):
        w = subset_weight(spec, c, u - c)
        p_mean += w * Fraction(num, 1 << (2 * n))
        p_second += w * Fraction(num_sq, 1 << (4 * n))
        w_s = w if graph else float(w)
        s_mean += w_s * s
        s_second += w_s * s_sq
    p_var = p_second - p_mean * p_mean
    if p_var < 0:
        raise ArithmeticError(f"negative exact purity variance {p_var}")
    purity = MomentEstimate(p_mean, p_second, p_var, 0.0, 0.0, 1 << u, True)
    s_var = s_second - s_mean * s_mean
    entropy = MomentEstimate(s_mean, s_second, s_var, 0.0, 0.0, 1 << u, True)
    return EntropyStats(entropy, purity)


def exact_moments(spec: EnsembleSpec, part: Bipartition) -> MomentEstimate:
    """Exact purity mean and variance by full enumeration of the ensemble."""
    return _exhaustive_stats(spec, part).purity


def _mc_estimate(n: int, total: float, total_sq: float) -> MomentEstimate:
    mean = total / n
    second = total_sq / n
    variance = max(0.0, (second - mean * mean) * (n / (n - 1)))
    std_error_mean = math.sqrt(variance / n)
    std_error_variance = variance * math.sqrt(2.0 / (n - 1))
    return MomentEstimate(mean, second, variance, std_error_mean, std_error_variance, n, False)


_pool: list = []  # (process, connection) of each pooled share worker, oldest first


def _forget_pool() -> None:
    """In a forked child: close the inherited caller ends of the pool's pipes, and forget it.

    A child that kept them would hold its older siblings' pipes open
    after the caller died.
    """
    for _, conn in _pool:
        conn.close()
    _pool.clear()


os.register_at_fork(after_in_child=_forget_pool)


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _serve(conn, caller_end) -> None:
    """A pooled child's body: run each (fn, tasks) request read from conn, until EOF.

    Each share's outcome, (True, result) or (False, exception), is sent
    as soon as the share is done; a request that fails to unpickle, or a
    share that raises, ends the request there.  The caller's end of the
    child's own pipe, inherited at the fork, is closed first (those of
    the older children already are, by :func:`_forget_pool`), so conn
    reads EOF once the caller closes its end or dies.  The child then
    exits without the interpreter's shutdown, which would flush the
    caller's stdio buffers copied at the fork.
    """
    code = 1
    try:
        caller_end.close()
        while True:
            try:
                request = conn.recv_bytes()
            except EOFError:
                code = 0
                break
            try:
                fn, tasks = pickle.loads(request)
                for task in tasks:
                    conn.send((True, fn(task)))
            except Exception as exc:
                conn.send((False, exc))
    finally:
        os._exit(code)


def _pooled(count: int) -> list:
    """The first count pooled children, forking the missing ones."""
    # imported here, so that a process which never forks does not load it
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    while len(_pool) < count:
        conn, child_end = fork.Pipe()
        child = fork.Process(target=_serve, args=(child_end, conn), daemon=True)
        child.start()
        # only the child holds its end, so the child's exit reads as EOF
        child_end.close()
        _pool.append((child, conn))
    return _pool[:count]


def _close_pool(keep: int = 0) -> None:
    """Kill and join every pooled child past the first keep."""
    doomed = _pool[keep:]
    del _pool[keep:]
    for child, _ in doomed:
        child.kill()
    for child, conn in doomed:
        child.join()
        conn.close()


def split_run(fn, samples: int, seed: int, workers: int, *args) -> list:
    """fn((*args, count, worker seed)) for each worker's share, in worker order.

    Worker w takes the w-th contiguous share of the samples and draws
    from child_seed(seed, w), so a share's result does not depend on the
    process that computes it.  With S non-empty shares and C usable
    cores, P = min(S, C) - 1 pooled children and the caller compute
    them: share w runs in process w mod (P + 1), process 0 being the
    caller.  With P = 0 nothing forks.  The children are forked on first
    need and kept for the life of the process, never more than C - 1;
    each is sent fn and its shares by pickle (so fn must be importable
    by name) and pipes back each share's result or exception as soon as
    it is done.  The caller computes its own shares and reads the
    others in worker order, and re-raises the first failure in that
    order: a share's exception, or a child that exited before sending
    its share.  On any failure, KeyboardInterrupt included, every
    pooled child is killed and joined, and the next call forks afresh.
    Calls share the pool, so they must not overlap in several threads.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(samples, workers)
    tasks = [
        (*args, base + (w < extra), child_seed(seed, w))
        for w in range(workers)
        if base + (w < extra)
    ]
    cores = _usable_cores()
    # a child lost since the last call empties the pool; a narrower affinity trims it
    _close_pool(cores - 1 if all(child.is_alive() for child, _ in _pool) else 0)
    procs = min(len(tasks), cores)
    if procs <= 1:
        return [fn(t) for t in tasks]
    try:
        children = _pooled(procs - 1)
        for p, (_, conn) in enumerate(children, 1):
            conn.send((fn, tasks[p::procs]))
        results = []
        for w, task in enumerate(tasks):
            if w % procs == 0:
                results.append(fn(task))
                continue
            child, conn = children[w % procs - 1]
            try:
                ok, value = conn.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"worker {w} exited with code {child.exitcode} before sending its share"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        _close_pool()
        raise


def _stream_worker(args) -> tuple[int, float, float, float, float]:
    """Per-worker sampling: returns (n, sum P, sum P^2, sum S2, sum S2^2)."""
    spec, part, count, wseed = args
    universe = edge_universe(spec, part)
    u = len(universe)
    n = spec.n_qubits
    graph = spec.edge_arity == 2
    if graph:
        # the universe is lexicographic, so its codes are sorted
        edges = np.fromiter(chain.from_iterable(universe), np.int64, 2 * u).reshape(u, 2)
        order = np.searchsorted(edge_codes(edges, n), edge_codes(cut_cells(part), n))
        values = functools.partial(_cut_ranks, order=order, part=part)
    else:
        values = _CutFactors(universe, part).numerators
    rows = max(1, _MC_PIECE_DRAWS // max(1, u))
    buf = np.empty(min(rows, _MC_CHUNK, count) * u, dtype=bool)  # every piece's edge choices
    sums = [0, 0.0, 0.0, 0.0, 0.0]
    for done in range(0, count, _MC_CHUNK):
        take = min(_MC_CHUNK, count - done)
        pieces = []  # ranks or numerators, drawn rows at a time to bound memory
        for r in range(done, done + take, rows):
            k = min(rows, done + take - r)
            bits = bernoulli_block(wseed, r * u, k * u, spec.edge_probability, out=buf[: k * u])
            pieces.append(values(bits.reshape(k, u)))
        vals = np.concatenate(pieces)
        if graph:
            p = np.ldexp(1.0, -vals)
            s2 = vals.astype(np.float64)
        else:
            p = vals.astype(np.float64) * math.ldexp(1.0, -2 * n)
            s2 = 2 * n - np.log2(vals)
        sums[0] += take
        sums[1] += float(np.sum(p))
        sums[2] += float(np.sum(p * p))
        sums[3] += float(np.sum(s2))
        sums[4] += float(np.sum(s2 * s2))
    return tuple(sums)


def _run_sampling(spec, part, samples, seed, workers):
    merged = [0, 0.0, 0.0, 0.0, 0.0]
    for r in split_run(_stream_worker, samples, seed, workers, spec, part):
        for i in range(5):
            merged[i] += r[i]
    return merged


def mc_moments(
    spec: EnsembleSpec,
    part: Bipartition,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MomentEstimate:
    """Monte Carlo purity moments; deterministic for fixed (seed, workers)."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n, p_sum, p2_sum, _, _ = _run_sampling(spec, part, samples, seed, workers)
    return _mc_estimate(n, p_sum, p2_sum)


def entropy_stats(
    spec: EnsembleSpec,
    part: Bipartition,
    samples: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> EntropyStats:
    """Entropy statistics (per-state -log2 P) beside the purity statistics.

    ``samples=None`` enumerates exhaustively; 2-edge entropies are
    integers, so their exhaustive mean and variance are exact rationals.
    """
    if samples is None:
        return _exhaustive_stats(spec, part)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n, p_sum, p2_sum, s_sum, s2_sum = _run_sampling(spec, part, samples, seed, workers)
    return EntropyStats(_mc_estimate(n, s_sum, s2_sum), _mc_estimate(n, p_sum, p2_sum))
