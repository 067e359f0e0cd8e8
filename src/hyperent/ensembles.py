"""Random-hypergraph ensembles: sampling, exhaustive enumeration, moments.

An ensemble is a universe of candidate edges plus an independent
inclusion probability p per edge (default 1/2).  Exhaustive enumeration
visits every subset of the universe once; Monte Carlo draws subsets
from the documented counter-based stream so runs are reproducible for
a fixed seed and trivially parallel: sample i of a universe of u edges
reads choices [i u, (i + 1) u) of the root seed's stream, and worker w
owns a contiguous slice of the sample range (:func:`split_run`), so the
draws depend neither on the worker count nor on which process computes
a share: the caller and a pool of forked children compute them.  The
pool holds at most one child per usable core beyond the caller's, lives
as long as the process, and is killed whole when any share fails.

Exact moments read the cut once (:func:`_cut_sides`), its u_cross cross
edges alone, and take one route per p, both fed by :func:`_incidence`,
which edge parts each basis state holds.  At p = 1/2 the purity mean and
variance are collision counts (:func:`_counted_moments`): each side's
pairs of basis states are counted by the edges they flip, and each pair
of the two sides' masks is keyed by the edges both flip.  Any other p,
every exhaustive entropy, and a p = 1/2 cut whose counting bounds pass the
byte budget but whose subsets fit it enumerate: one subset transform over
a 2^u_cross int64 array yields every subset's numerator
(:func:`_subset_numerators`), with no state, sign row or Gram matrix.

Monte Carlo reduces what purity tallies of each chunk of at most
``_MC_CHUNK`` samples: ``tally(seed, first, count)`` of
:func:`purity._cut_sampler` is the chunk's distinct exact keys and their
runs, by the draw, route, limits, batches and BLAS policy it picks for
the universe.  Each tally becomes exact int sums, which :func:`_reduce`,
the exhaustive route's reducer too, rounds once.  A universe that is the
cut block itself at p = 1/2 (the ``moments --family cz`` default) takes
the word route: the rank law's loop (``gf2._rank_counts``) reads the
chunk as packed cut blocks straight from the stream's bits, with no
bool made, and counts their ranks in its batches.  Every other universe
takes the bool route: the chunk is drawn in pieces of at most
``purity._MC_PIECE_DRAWS`` = 2^21 choices, one bool per choice, into
one buffer and one pair of uint64 tiles that every piece of a share
reuses (:func:`rng.bernoulli_block`), and the pieces' keys are tallied
by ``np.unique``.  Sampling memory is bounded by a batch or a piece.

Exhaustive moments are exact: numerators and collision counts are integers,
weights exact rationals, and floats appear only in non-2-edge entropies.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, compress, repeat

import numpy as np

from .hypergraph import Bipartition, Edge, Hypergraph, all_k_edges
from .purity import _MC_PIECE_DRAWS, _cross_parts, _cut_sampler, _edge_masks, _key_terms, check_qubit_cap
from .rng import CounterRng

_MC_CHUNK = 4096
_HIST_CHUNK = 1 << 16  # basis states per block of a side's incidence histogram
_SQUARE_CHUNK = 1 << 16  # counts squared as Python ints per block: a list of all would pass the budget
_TALLY_CHUNK = 1 << 16  # subsets per in-place key sort of the exhaustive tally
_BLOCK_EDGES = 16  # low edges of one cache-sized block of subsets: 2^16 int64 numerators
_TRANSFORM_BYTES = 1 << 30  # the exact routes' byte budget: two 2^u int64 arrays, so u <= 26
_ENTROPY_BITS = 52  # entropies are summed as exact ints over 2^52 (see _add_terms)


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

    Reads one choice per universe edge, in universe order, through
    :meth:`CounterRng.bernoulli`: at p = 1/2 the u = len(edge_universe(spec,
    part)) bits from bit 64 * cursor on, consuming ceil(u / 64) draws; at
    any other p the next u draws, consuming u.
    """
    universe = edge_universe(spec, part)
    keep = rng.bernoulli(spec.edge_probability, len(universe))
    return Hypergraph(spec.n_qubits, frozenset(e for e, b in zip(universe, keep) if b))


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


def _incidence(parts, x: np.ndarray) -> np.ndarray:
    """iota(x), bit j set iff parts[j] lies in x, in >= 1 uint64 words: the one such test, part by part."""
    words = np.zeros((x.size, max(1, -(-len(parts) // 64))), dtype=np.uint64)
    for j, m in enumerate(np.asarray(parts, dtype=np.int64).tolist()):
        word = words[:, j // 64]  # a view: a mixed bool and int index here costs 2-3 times as much
        word[(x & m) == m] |= np.uint64(1 << j % 64)
    return words


def _pair_supersets(parts: np.ndarray, n_side: int) -> np.ndarray:
    """#{(x, x') : iota(x) XOR iota(x') contains S} for every S, iota of :func:`_incidence`.

    Histograms iota over the 2^n_side basis states in blocks, squares
    its Walsh-Hadamard transform (the pair histogram's transform, of
    magnitude <= d^2), and turns that into superset counts by a halving
    subset transform, hi <- (lo - hi) / 2, whose every intermediate is
    an integer of magnitude <= d^2, so the shift is exact.
    """
    counts = np.zeros(1 << len(parts), dtype=np.int64)
    for lo in range(0, 1 << n_side, _HIST_CHUNK):
        x = np.arange(lo, min(1 << n_side, lo + _HIST_CHUNK), dtype=np.int64)
        np.add.at(counts, _incidence(parts, x)[:, 0].view(np.int64), 1)
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


def _side_tables(distinct: np.ndarray, which: np.ndarray, n_side: int, low: int):
    """(h, pi_low, pi_high) of one side: H(T) = h[pi_low[t] | pi_high[i]] at T = i 2^low + t.

    Edges with equal parts have equal iota bits, so H(T) depends only on
    the set pi(T) of distinct parts among T's edges: h is
    :func:`_pair_supersets` over the distinct parts, and pi is split
    into OR-tables of the low and the high edges, as narrow as the
    distinct count allows.
    """
    bits = (1 << which).astype(np.min_scalar_type((1 << distinct.size) - 1))
    return _pair_supersets(distinct, n_side), _or_table(bits[:low]), _or_table(bits[low:])


def _subset_numerators(sides) -> np.ndarray:
    """Exact 2^(2N) * purity of every subset of a cut's u cross edges, int64, indexed by subset mask.

    sides are the cut's (distinct parts, which, n_side) of :func:`_cut_sides`.
    With signs (-1)^(sum_j w_j [m_A,j in a][m_B,j in b]), the numerator
    of subset w is sum over (a, a', b, b') of (-1)^(w . (alpha & beta)),
    alpha_j = [m_A,j in a] XOR [m_A,j in a'] and beta likewise on B.
    Expanding (-1)^(w_j alpha_j beta_j) = 1 - 2 w_j alpha_j beta_j gives
    num(w) = sum over T inside w of (-2)^|T| H_A(T) H_B(T), with H the
    superset counts of :func:`_pair_supersets`, so one subset transform
    (lo, lo - 2 hi) of H_A * H_B yields every numerator.  Every
    intermediate has magnitude <= 2^(2N), exact in int64 for N <= 31.

    H_A * H_B is gathered from the small tables of :func:`_side_tables`
    one block of 2^_BLOCK_EDGES subsets at a time, and the block's low
    transform levels run while it is in cache; only the u - _BLOCK_EDGES
    high levels stream the whole array.  O(u 2^u + D (d + 2^D)) time per
    side of D distinct parts over d basis states; memory is one 2^u int64
    array beside the side tables, 2^D int64 counts and 2^_BLOCK_EDGES
    narrow OR entries per side.  :func:`_cut_sides` has checked the qubit
    cap and the byte budget.
    """
    u = sides[0][1].size
    low = min(u, _BLOCK_EDGES)
    (h_a, low_a, high_a), (h_b, low_b, high_b) = (_side_tables(*side, low) for side in sides)
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


def _tally(lo: int, nums: np.ndarray, u: int):
    """(distinct keys, runs) of the (edge count, numerator) keys of subsets lo, lo + 1, ... of u edges.

    Each numerator is overwritten in place by the uint64 key
    num << b | c, with c the subset's edge count and b = u.bit_length(),
    so c < 2^b; the keys are sorted in place and each run of equal keys
    gives its key and length.  The numerators must be non-negative and
    below 2^(64 - b), so that every key fits uint64.
    """
    b = u.bit_length()
    keys = nums.view(np.uint64)
    keys <<= np.uint64(b)
    keys |= np.bitwise_count(np.arange(lo, lo + keys.size, dtype=np.uint64))
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(starts, append=keys.size)


def _add_terms(sums: list, classes, nums, entropies, runs) -> None:
    """Add runs[i] values (nums[i], entropies[i]) to sums[classes[i]], each [n, sum num, num^2, S, S^2].

    Each entropy, an int or a float64, is summed as the int entropy * 2^52,
    so every sum is exact and order-free: log2 of an integer is 0 or at
    least 1, so a float64 2N - log2(num) is a multiple of 2^-52.
    """
    for c, num, s2, run in zip(classes, nums, entropies, runs):
        top, bottom = s2.as_integer_ratio()  # bottom is a power of two
        s = top << _ENTROPY_BITS + 1 - bottom.bit_length()
        acc = sums[c]
        acc[0] += run
        acc[1] += run * num
        acc[2] += run * num * num
        acc[3] += run * s
        acc[4] += run * s * s


def _reduce(n: int, classes, exact: bool, rational_entropy: bool = True) -> EntropyStats:
    """The one reducer: (weight, sums of :func:`_add_terms`) classes to entropy and purity estimates.

    A moment is sum(weight * sum) / sum(weight * count).  Exact estimates
    stay rational (entropy only if rational_entropy), variance second -
    mean^2; Monte Carlo ones take n / (n - 1) times it, rounded once to float.
    """
    count = sum(sums[0] for _, sums in classes)
    total = sum(w * sums[0] for w, sums in classes)

    def estimate(i: int, scale: int, rational: bool) -> MomentEstimate:
        mean = Fraction(sum(w * sums[i] for w, sums in classes), total * scale)
        second = Fraction(sum(w * sums[i + 1] for w, sums in classes), total * scale * scale)
        variance = second - mean * mean
        if rational:
            return MomentEstimate(mean, second, variance, 0.0, 0.0, count, True)
        var = float(variance if exact else variance * count / (count - 1))
        errors = (0.0, 0.0) if exact else (math.sqrt(var / count), var * math.sqrt(2 / (count - 1)))
        return MomentEstimate(float(mean), float(second), var, *errors, count, exact)

    entropy = estimate(3, 1 << _ENTROPY_BITS, exact and rational_entropy)
    return EntropyStats(entropy, estimate(1, 1 << 2 * n, exact))


def _exhaustive_stats(spec: EnsembleSpec, u: int, sides) -> EntropyStats:
    """Exact purity and entropy moments over the 2^u subsets of a universe, from the 2^u_cross of its cut.

    The local edges leave every purity unchanged and their weights sum to
    1, so each run of cross subsets counts 2^(u - u_cross) times.  Subsets
    with c cross edges share the weight p^c (1-p)^(u_cross-c), so they are
    tallied by (edge count, numerator) and :func:`_reduce` weighs each
    count's sums.  :func:`_tally` overwrites the numerators a chunk at a
    time with keys num << b | c, b = u_cross.bit_length(), which fit uint64
    while 2N + b < 64 (num <= 2^(2N)): so for every cut of at most 26
    cross edges at N <= 31, as at N = 30 and 31 a cut has 0, 1 or over 26.
    2-edge numerators are powers of two, so their entropy moments are exact.
    """
    u_cross = sides[0][1].size
    nums = _subset_numerators(sides)
    chunks = [_tally(lo, nums[lo : lo + _TALLY_CHUNK], u_cross) for lo in range(0, nums.size, _TALLY_CHUNK)]
    keys, runs = (np.concatenate(arrays) for arrays in zip(*chunks))
    keys, where = np.unique(keys, return_inverse=True)
    mult = np.zeros(keys.size, dtype=np.int64)
    np.add.at(mult, where, runs)
    b = np.uint64(1 << u_cross.bit_length())  # keys are num * b + c
    sums = [[0] * 5 for _ in range(u_cross + 1)]
    terms = _key_terms(spec.n_qubits, False, keys // b)
    _add_terms(sums, (keys % b).tolist(), *terms, [m << u - u_cross for m in mult.tolist()])
    p = spec.edge_probability  # the weights p^c (1-p)^(u_cross-c) times denominator^u_cross, ints
    weights = [p.numerator**c * (p.denominator - p.numerator) ** (u_cross - c) for c in range(u_cross + 1)]
    return _reduce(spec.n_qubits, list(zip(weights, sums)), exact=True, rational_entropy=spec.edge_arity == 2)


def _runs(rows: np.ndarray):
    """(order, ends) of (n, W) uint64 rows: rows[order] is sorted, all-zero first, run i ends at ends[i]."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    return order, np.flatnonzero(np.append((ordered[1:] != ordered[:-1]).any(axis=1), True))


def _count_refusal(sides) -> str | None:
    """The refusal of the first counting bound past the byte budget, or None when all fit.

    A row that :func:`_runs` sorts, of W = ceil(u_cross / 64) words, takes
    8 (2W + 3) bytes.  The bounds: a side's min(2^D, 4^n_side) sets or
    pairs (as :func:`_side_pairs` counts), then the keys at min(2^D,
    1 + 2^(n-1) (2^n - 1)) masks a side (alpha is one of 2^D sets, and
    swapping x and x' keeps it).
    """
    words = max(1, -(-sides[0][1].size // 64))
    made = [min(1 << d.size, 1 + (1 << 2 * k - 1) - (1 << k - 1)) for d, _, k in sides]
    bounds = [
        (1 << min(d.size, 2 * k), f"{'sets of parts' if d.size < 2 * k else 'basis-state pairs'} "
         f"of a {k}-qubit side")
        for d, _, k in sides
    ]
    for rows, what in [*bounds, (made[0] * made[1], "collision keys")]:
        if (need := 8 * (2 * words + 3) * rows) > _TRANSFORM_BYTES:
            return (f"{what}: {rows} rows of {8 * words} bytes need {need} bytes, "
                    f"over the {_TRANSFORM_BYTES}-byte budget")
    return None


def _side_pairs(distinct: np.ndarray, which: np.ndarray, n_side: int):
    """(distinct alpha, pair count) of one side: alpha = iota(x) XOR iota(x') over its 4^n_side pairs.

    iota(x) marks the edges whose part here, distinct[which[j]] for edge j,
    lies in x: alpha is a set of the D distinct parts, held as its edges'
    mask.  At D < 2 n_side it is counted over the 2^D sets (superset counts
    of :func:`_pair_supersets` inverted by lo <- lo - hi), else over the pairs.
    """
    if distinct.size < 2 * n_side:
        counts = _pair_supersets(distinct, n_side)
        for lo, hi in _butterflies(counts):
            lo -= hi
        made = np.flatnonzero(counts)
        return _incidence(1 << which, made), counts[made]
    iota = _incidence(distinct[which], np.arange(1 << n_side, dtype=np.int64))
    alpha = (iota[:, np.newaxis] ^ iota).reshape(-1, iota.shape[1])
    order, ends = _runs(alpha)
    return alpha[order[ends]], np.diff(ends, prepend=-1)


def _check_subsets(u: int, refusal: str | None = None) -> None:
    """Refuse, by refusal if given, the subsets of u cross edges: two 2^u int64 arrays past the budget."""
    if 2 * 8 << u > _TRANSFORM_BYTES:  # 2^u is named, not printed: it can pass str()'s digit limit
        raise ValueError(refusal or f"{u} cross edges need two int64 arrays of 2^{u} entries, "
                         f"over the {_TRANSFORM_BYTES}-byte budget")


def _cut_sides(spec: EnsembleSpec, part: Bipartition, counting: bool = False):
    """(u, sides) for the exact routes: the universe's size, and (distinct parts, which, n_side) of A and B.

    Edge j's part on a side is distinct[which[j]], over the cross scope's
    universe, the one edge list built: for every family exactly the full
    one's cross edges; u is C(N, k) on a full all scope, else its length.
    A cut past the qubit cap, then, unless counting, 2^u_cross subsets
    past the byte budget, are refused before any edge is factored.
    """
    cross = edge_universe(replace(spec, scope=Scope.CROSS_ONLY), part)
    full = spec.scope is Scope.ALL_EDGES and spec.family is not Family.CCZ_HALF
    u = math.comb(spec.n_qubits, spec.edge_arity) if full else len(cross)
    check_qubit_cap(part.n_qubits)
    if not counting:
        _check_subsets(len(cross))
    _, *parts = _cross_parts(_edge_masks(cross), part)
    return u, [(*np.unique(m, return_inverse=True), k) for m, k in zip(parts, (part.n_a, part.n_b))]


def _counted_moments(n: int, u: int, sides) -> MomentEstimate:
    """Exact purity moments at p = 1/2 of a u-edge universe by counting basis-state pairs of its cut.

    The numerator of subset w of the cross edges is num(w) = sum_v cnt(v)
    (-1)^(w . v), with cnt(v) = #{(a, a', b, b') : alpha & beta = v} as
    masks of the cross edges (:func:`_subset_numerators`), so over the
    equally likely subsets E[num] = cnt(0) and E[num^2] = sum_v cnt(v)^2.
    Each of the K_A K_B pairs of the sides' masks (:func:`_side_pairs`) is
    keyed by alpha & beta in W = ceil(u_cross / 64) words; a cumulative
    sum of their count products in key order, read at each run's end,
    gives cnt, key 0 first, exact in int64 (at most 4^N) under the qubit
    cap; the 2^u subsets' sums go to :func:`_reduce`.
    :func:`_count_refusal` bounds the rows before any is formed.
    """
    (e_a, p_a), (e_b, p_b) = (_side_pairs(*side) for side in sides)
    order, ends = _runs((e_a[:, np.newaxis] & e_b).reshape(-1, e_a.shape[1]))
    sums = np.outer(p_a, p_b).ravel()[order]
    cnt = np.diff(np.cumsum(sums, out=sums)[ends], prepend=0)
    blocks = (cnt[lo : lo + _SQUARE_CHUNK].tolist() for lo in range(0, cnt.size, _SQUARE_CHUNK))
    second = sum(c * c for block in blocks for c in block)
    return _reduce(n, [(1, [1 << u, int(cnt[0]) << u, second << u, 0, 0])], exact=True).purity


def exact_moments(spec: EnsembleSpec, part: Bipartition) -> MomentEstimate:
    """Exact purity mean and variance over every subset of the universe, from its cut.

    The route is chosen before anything is formed.  At p = 1/2 the pairs
    are counted (:func:`_counted_moments`) when every counting bound fits
    the byte budget, else the 2^u_cross subsets enumerated
    (:func:`_exhaustive_stats`) when they fit it (a 1|N-1 CZ cut at
    N = 25-27 needs 2^N keys), else the counting refusal raised.  Any
    other p enumerates.  Both report 2^u samples.
    """
    counting = spec.edge_probability == Fraction(1, 2)
    u, sides = _cut_sides(spec, part, counting)
    if counting:
        if (refusal := _count_refusal(sides)) is None:
            return _counted_moments(part.n_qubits, u, sides)
        _check_subsets(sides[0][1].size, refusal)
    return _exhaustive_stats(spec, u, sides).purity


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
    """fn((*args, seed, first, count)) for each worker's non-empty share, in worker order.

    Worker w takes the w-th contiguous share of the samples, count of
    them from sample first on.  Every share reads the one stream of the
    run's seed, sample i at positions fixed by i alone, so what a share
    draws depends neither on the worker count nor on the process that
    computes it.  With S non-empty shares and C usable cores,
    P = min(S, C) - 1 pooled children and the caller compute them: share w runs in process w mod (P + 1), process 0 being the
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
        (*args, seed, w * base + min(w, extra), base + (w < extra))
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


def _stream_worker(args) -> list:
    """Samples [first, first + count) of a run: their exact sums of :func:`_add_terms`.

    Sample i keeps the edges of the u-edge universe whose choices
    [i u, (i + 1) u) of the seed's stream are made.
    """
    spec, part, seed, first, count = args
    chunk = min(_MC_CHUNK, count)
    tally, terms = _cut_sampler(edge_universe(spec, part), part, spec.edge_probability, chunk)
    sums = [[0] * 5]
    for done in range(0, count, chunk):
        keys, runs = tally(seed, first + done, min(chunk, count - done))
        _add_terms(sums, repeat(0), *terms(keys), runs.tolist())
    return sums[0]


def _run_sampling(spec, part, samples, seed, workers) -> EntropyStats:
    shares = split_run(_stream_worker, samples, seed, workers, spec, part)
    return _reduce(spec.n_qubits, [(1, share) for share in shares], exact=False)


def mc_moments(
    spec: EnsembleSpec,
    part: Bipartition,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MomentEstimate:
    """Monte Carlo purity moments; the draws are fixed by the seed, at any worker count."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return _run_sampling(spec, part, samples, seed, workers).purity


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
        return _exhaustive_stats(spec, *_cut_sides(spec, part))
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return _run_sampling(spec, part, samples, seed, workers)
