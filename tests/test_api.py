"""The public API: every exported name resolves, and the export list and
the parameter names of every exported callable are pinned."""

import enum
import inspect
import types

import hyperent

PUBLIC = {
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
}

# parameter names, in order, of every exported function and class
# (enums and the formulas module aside)
SIGNATURES = {
    "Bipartition": ("n_qubits", "a_mask"),
    "CounterRng": ("seed", "cursor"),
    "EnsembleSpec": ("n_qubits", "family", "k", "edge_probability", "scope"),
    "EntropyStats": ("entropy", "purity"),
    "Hypergraph": ("n_qubits", "edges"),
    "MomentEstimate": (
        "mean",
        "second_moment",
        "variance",
        "std_error_mean",
        "std_error_variance",
        "samples",
        "exact",
    ),
    "RankHistogram": ("n", "counts", "samples"),
    "all_k_edges": ("n", "k"),
    "canonicalize_edges": ("raw_edges", "n"),
    "edge_universe": ("spec", "part"),
    "empirical_rank_distribution": ("n", "samples", "rng"),
    "entropy_stats": ("spec", "part", "samples", "seed", "workers"),
    "exact_moments": ("spec", "part"),
    "format_graph_file": ("h",),
    "graph_entropy_rank": ("h", "part"),
    "mc_moments": ("spec", "part", "samples", "seed", "workers"),
    "parse_graph_file": ("text",),
    "renyi2": ("p",),
    "sample_hypergraph": ("spec", "part", "rng"),
    "state_purity": ("h", "part"),
}


def test_all_names_resolve():
    for name in hyperent.__all__:
        assert getattr(hyperent, name) is not None, name


def test_all_is_pinned():
    # a change to the public API must edit this set too
    assert len(hyperent.__all__) == len(set(hyperent.__all__))
    assert set(hyperent.__all__) == PUBLIC


def test_signatures_are_pinned():
    # a new or dropped parameter (a knob) must edit SIGNATURES too
    callables = {
        name
        for name in hyperent.__all__
        if not isinstance(getattr(hyperent, name), (types.ModuleType, enum.EnumMeta))
    }
    assert callables == set(SIGNATURES)
    for name, params in SIGNATURES.items():
        assert tuple(inspect.signature(getattr(hyperent, name)).parameters) == params, name
