"""Exact simulation and entanglement statistics of random hypergraph states."""

from .hypergraph import (
    Bipartition,
    Hypergraph,
    all_k_edges,
    canonicalize_edges,
    format_graph_file,
    parse_graph_file,
)
from .gf2 import RankHistogram, empirical_rank_distribution
from .purity import (
    graph_entropy_rank,
    renyi2,
    state_purity,
)
from .ensembles import (
    EnsembleSpec,
    EntropyStats,
    Family,
    MomentEstimate,
    Scope,
    edge_universe,
    entropy_stats,
    exact_moments,
    mc_moments,
    sample_hypergraph,
)
from .rng import CounterRng
from . import formulas

__all__ = [
    "Bipartition",
    "CounterRng",
    "EnsembleSpec",
    "EntropyStats",
    "Family",
    "Hypergraph",
    "MomentEstimate",
    "RankHistogram",
    "Scope",
    "all_k_edges",
    "canonicalize_edges",
    "edge_universe",
    "empirical_rank_distribution",
    "entropy_stats",
    "exact_moments",
    "format_graph_file",
    "formulas",
    "graph_entropy_rank",
    "mc_moments",
    "parse_graph_file",
    "renyi2",
    "sample_hypergraph",
    "state_purity",
]

__version__ = "0.1.0"
