"""Hypergraphs, bipartitions, and the sign function of phase states.

A hypergraph on n qubits generates the phase state whose amplitude on
basis index x is (+-1) * 2**(-n/2): one diagonal gate per edge flips the
sign of every basis state whose support contains the whole edge.  The
sign function is therefore

    s(x) = (-1) ** (number of edges e with e subset of support(x)),

counted mod 2.  Qubit i corresponds to bit i of the basis index
(little-endian throughout).  :func:`toggle_supersets` XORs one edge's
superset indicator into a packed table of sign bits; the purity module
builds the rows of a cut with it, never the whole 2**n table.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, ...]

DEFAULT_MAX_QUBITS = 26
MAX_QUBITS_ENV = "HYPERENT_MAX_QUBITS"


def max_qubits() -> int:
    """Single-state qubit cap; overridable via the HYPERENT_MAX_QUBITS env var."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be >= 1, got {raw}")
    return cap


def canonicalize_edges(raw_edges, n: int) -> frozenset[Edge]:
    """Reduce a gate list to a canonical edge set.

    Each applied gate is an involution, so an edge occurring an even
    number of times cancels and an odd number of times counts once.
    Edges come back as strictly increasing vertex tuples.
    """
    seen: set[Edge] = set()
    for raw in raw_edges:
        verts = tuple(sorted(raw))
        if len(verts) == 0:
            raise ValueError("empty edge")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertex in edge {raw!r}")
        if verts[0] < 0 or verts[-1] >= n:
            raise ValueError(f"vertex out of range [0, {n}) in edge {raw!r}")
        seen.symmetric_difference_update({verts})
    return frozenset(seen)


def all_k_edges(n: int, k: int) -> list[Edge]:
    """All C(n, k) k-edges over vertices [0, n), in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"edge arity {k} out of range [1, {n}]")
    return list(itertools.combinations(range(n), k))


def _edge_mask(edge: Edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus canonical mod-2 edge set.

    ``edges`` must already be canonical (use :func:`canonicalize_edges`
    or :meth:`from_gates` for raw input).  Edge bitmasks are cached for
    the monomial inner loop.
    """

    n_qubits: int
    edges: frozenset[Edge]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if tuple(sorted(set(e))) != e or len(e) == 0:
                raise ValueError(f"edge {e!r} is not a strictly increasing tuple")
            if e[0] < 0 or e[-1] >= self.n_qubits:
                raise ValueError(f"edge {e!r} out of range for n={self.n_qubits}")
        masks = tuple(_edge_mask(e) for e in sorted(self.edges))
        object.__setattr__(self, "_masks", masks)

    @classmethod
    def from_gates(cls, n: int, raw_edges) -> "Hypergraph":
        return cls(n, canonicalize_edges(raw_edges, n))

    @property
    def edge_masks(self) -> tuple[int, ...]:
        """Bitmasks of the edges, ordered by the sorted edge tuples."""
        return self._masks

    def is_k_uniform(self, k: int) -> bool:
        return all(len(e) == k for e in self.edges)


@dataclass(frozen=True)
class Bipartition:
    """Subsystem split: bit i of a_mask selects qubit i into subsystem A.

    Entanglement queries need a proper split, so the mask must be
    neither empty nor full.
    """

    n_qubits: int
    a_mask: int

    def __post_init__(self):
        full = (1 << self.n_qubits) - 1
        if not 0 < self.a_mask < full:
            raise ValueError(
                f"a_mask {self.a_mask:#x} must select a nonempty proper subset of {self.n_qubits} qubits"
            )

    @classmethod
    def from_first(cls, n: int, n_a: int) -> "Bipartition":
        """A = the n_a lowest qubit indices."""
        return cls(n, (1 << n_a) - 1)

    @property
    def b_mask(self) -> int:
        return ((1 << self.n_qubits) - 1) ^ self.a_mask

    @property
    def n_a(self) -> int:
        return self.a_mask.bit_count()

    @property
    def n_b(self) -> int:
        return self.n_qubits - self.n_a

    @property
    def d(self) -> int:
        return 1 << self.n_qubits

    @property
    def d_a(self) -> int:
        return 1 << self.n_a

    @property
    def d_b(self) -> int:
        return 1 << self.n_b

    @property
    def a_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_qubits) if self.a_mask >> i & 1)

    @property
    def b_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_qubits) if self.b_mask >> i & 1)

    def complement(self) -> "Bipartition":
        return Bipartition(self.n_qubits, self.b_mask)


def _n_words(n: int) -> int:
    return max(1, (1 << n) >> 6)


# Entry i has bit j set iff bit i of j is set: 0xAAAA..., 0xCCCC..., ..., 0xFFFFFFFF00000000.
_LOW_BIT_WORDS = tuple(sum(1 << j for j in range(64) if j >> i & 1) for i in range(6))


def _low_bit_pattern(low_mask: int, n: int) -> np.uint64:
    """64-bit word whose bit j is set iff j & low_mask == low_mask (j < 2^n)."""
    word = (1 << min(64, 1 << n)) - 1
    for i, bit_word in enumerate(_LOW_BIT_WORDS):
        if low_mask >> i & 1:
            word &= bit_word
    return np.uint64(word)


def toggle_supersets(words: np.ndarray, mask: int, n: int) -> None:
    """XOR the packed indicator of {x < 2^n : x contains mask} into words, in place.

    ``words`` is one contiguous packed 2^n-bit table (bit x at word
    x >> 6, position x & 63).  The mask splits into a within-word pattern
    and a word-index part, which selects a strided view: one XOR per
    touched word, with no index arrays.
    """
    high_bits = max(0, n - 6)
    if mask >> n or words.shape != (_n_words(n),) or not words.flags.c_contiguous:
        raise ValueError("mask must be below 2^n and words a contiguous 2^n-bit table")
    # C order is big-endian: axis k of the (2,) * high_bits reshape is word-index bit high_bits-1-k
    select = tuple(
        1 if mask >> (5 + high_bits - k) & 1 else slice(None) for k in range(high_bits)
    )
    words.reshape((2,) * high_bits)[select] ^= _low_bit_pattern(mask & 63, n)


def sign_at(h: Hypergraph, x: int) -> int:
    """Sign of basis state x: parity of edges contained in support(x)."""
    if not 0 <= x < (1 << h.n_qubits):
        raise ValueError(f"basis index {x} out of range for n={h.n_qubits}")
    fired = 0
    for m in h.edge_masks:
        if x & m == m:
            fired ^= 1
    return -1 if fired else 1


def check_qubit_cap(n: int) -> None:
    """Raise ValueError when n exceeds the single-state qubit cap (:func:`max_qubits`)."""
    limit = max_qubits()
    if n > limit:
        raise ValueError(f"n={n} exceeds the single-state qubit cap ({limit})")


def parse_graph_file(text: str) -> Hypergraph:
    """Parse the plain-text graph format: ``n <N>`` then one edge per line.

    Repeated edge lines cancel mod 2, matching gate semantics.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n "):
        raise GraphFormatError("first line must be 'n <N>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise GraphFormatError(f"bad header line {lines[0]!r}") from exc
    raw_edges = []
    for ln in lines[1:]:
        try:
            raw_edges.append(tuple(int(tok) for tok in ln.split()))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
    return Hypergraph.from_gates(n, raw_edges)


def format_graph_file(h: Hypergraph) -> str:
    lines = [f"n {h.n_qubits}"]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(h.edges))
    return "\n".join(lines) + "\n"


class GraphFormatError(Exception):
    """Malformed graph-file text (syntax, not domain invariants)."""
