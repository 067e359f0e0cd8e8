"""Exact simulation and entanglement statistics of random hypergraph states."""

from .hypergraph import (
    Bipartition,
    Hypergraph,
    all_k_edges,
    canonicalize_edges,
    format_graph_file,
    parse_graph_file,
    sign_at,
)
from .gf2 import Gf2Matrix, RankHistogram, empirical_rank_distribution, random_matrix, rank
from .purity import (
    DyadicRational,
    graph_cut_matrix,
    graph_entropy_rank,
    renyi2,
    state_purity,
)
from .ensembles import (
    EnsembleSpec,
    EntropyStats,
    Family,
    Method,
    MomentEstimate,
    Scope,
    edge_universe,
    enumerate_ensemble,
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
    "DyadicRational",
    "EnsembleSpec",
    "EntropyStats",
    "Family",
    "Gf2Matrix",
    "Hypergraph",
    "Method",
    "MomentEstimate",
    "RankHistogram",
    "Scope",
    "all_k_edges",
    "canonicalize_edges",
    "edge_universe",
    "empirical_rank_distribution",
    "enumerate_ensemble",
    "entropy_stats",
    "exact_moments",
    "format_graph_file",
    "formulas",
    "graph_cut_matrix",
    "graph_entropy_rank",
    "mc_moments",
    "parse_graph_file",
    "random_matrix",
    "rank",
    "renyi2",
    "sample_hypergraph",
    "sign_at",
    "state_purity",
]

__version__ = "0.1.0"
