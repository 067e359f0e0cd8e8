"""Hypergraphs, bipartitions, and the sign function of phase states.

A hypergraph on n qubits generates the phase state whose amplitude on
basis index x is (+-1) * 2**(-n/2): one diagonal gate per edge flips the
sign of every basis state whose support contains the whole edge.  The
sign function is therefore

    s(x) = (-1) ** (number of edges e with e subset of support(x)),

counted mod 2.  Qubit i corresponds to bit i of the basis index
(little-endian throughout).  The sign bits are thus the GF(2) superset
transform of the edge indicator; the purity module builds a cut's rows
of them from the edge masks, never the whole 2**n table.  Those masks
come from :func:`edge_pass`, the one pass that checks, cancels and masks
each edge.  This module holds plain Python data only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

Edge = tuple[int, ...]


def edge_pass(edges, n: int, canonical: bool = False) -> dict[int, Edge]:
    """mask -> edge of the edges listed an odd number of times: the one edge check and mask builder.

    Every edge rejection is raised here, before the edge cancels.  A gate
    is sorted, then must be nonempty, have no repeated vertex and lie in
    [0, n).  A canonical edge (the constructor's) must be the strictly
    increasing tuple itself, then lie in range.
    """
    kept: dict[int, Edge] = {}
    for raw in edges:
        edge = raw if canonical else tuple(sorted(raw))
        if canonical:
            if tuple(sorted(set(edge))) != edge or not edge:
                raise ValueError(f"edge {edge!r} is not a strictly increasing tuple")
            if edge[0] < 0 or edge[-1] >= n:
                raise ValueError(f"edge {edge!r} out of range for n={n}")
        elif not edge:
            raise ValueError("empty edge")
        elif len(set(edge)) != len(edge):
            raise ValueError(f"repeated vertex in edge {raw!r}")
        elif edge[0] < 0 or edge[-1] >= n:
            raise ValueError(f"vertex out of range [0, {n}) in edge {raw!r}")
        mask = 0
        for v in edge:
            mask |= 1 << v
        if kept.pop(mask, None) is None:
            kept[mask] = edge
    return kept


def canonicalize_edges(raw_edges, n: int) -> frozenset[Edge]:
    """Reduce a gate list to a canonical edge set.

    Each applied gate is an involution, so an edge occurring an even
    number of times cancels and an odd number of times counts once.
    Edges come back as strictly increasing vertex tuples.
    """
    return frozenset(edge_pass(raw_edges, n).values())


def all_k_edges(n: int, k: int) -> list[Edge]:
    """All C(n, k) k-edges over vertices [0, n), in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"edge arity {k} out of range [1, {n}]")
    return list(itertools.combinations(range(n), k))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus canonical mod-2 edge set.

    ``edges`` must already be canonical (:meth:`from_gates` takes raw
    input).  Each edge is checked and masked once, by the
    :func:`edge_pass` of the constructor or of ``from_gates``; the masks
    are cached for the sign and cut-row routines.
    """

    n_qubits: int
    edges: frozenset[Edge]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        edge_at = edge_pass(self.edges, self.n_qubits, canonical=True)
        object.__setattr__(self, "_masks", tuple(sorted(edge_at, key=edge_at.__getitem__)))

    @classmethod
    def from_gates(cls, n: int, raw_edges) -> "Hypergraph":
        edge_at = edge_pass(raw_edges, n)
        h = cls(n, frozenset())  # checks n alone: the pass has checked every gate
        object.__setattr__(h, "edges", frozenset(edge_at.values()))
        object.__setattr__(h, "_masks", tuple(sorted(edge_at, key=edge_at.__getitem__)))
        return h

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
        if not 0 < n_a < n:  # before a mask of n_a bits is built
            raise ValueError(f"n_a={n_a} out of range [1, {n - 1}] for {n} qubits")
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


def graph_file_gates(text: str) -> tuple[int, list[Edge]]:
    """(N, raw gates) of the plain-text graph format: ``n <N>`` then one edge per line.

    The one line parser: only syntax is checked here, so callers can
    check N before any gate is masked.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n "):
        raise GraphFormatError("first line must be 'n <N>'")
    try:
        _, size = lines[0].split()  # exactly 'n <N>', as an edge line takes no extra token
        n = int(size)
    except ValueError as exc:
        raise GraphFormatError(f"bad header line {lines[0]!r}") from exc
    raw_edges = []
    for ln in lines[1:]:
        try:
            raw_edges.append(tuple(map(int, ln.split())))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
    return n, raw_edges


def parse_graph_file(text: str) -> Hypergraph:
    """Parse the plain-text graph format: ``n <N>`` then one edge per line.

    Repeated edge lines cancel mod 2, matching gate semantics.
    """
    return Hypergraph.from_gates(*graph_file_gates(text))


def format_graph_file(h: Hypergraph) -> str:
    lines = [f"n {h.n_qubits}"]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(h.edges))
    return "\n".join(lines) + "\n"


class GraphFormatError(Exception):
    """Malformed graph-file text (syntax, not domain invariants)."""
