"""The public API: every exported name resolves, and the export list is pinned."""

import hyperent

PUBLIC = {
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
}


def test_all_names_resolve():
    for name in hyperent.__all__:
        assert getattr(hyperent, name) is not None, name


def test_all_is_pinned():
    # a change to the public API must edit this set too
    assert len(hyperent.__all__) == len(set(hyperent.__all__))
    assert set(hyperent.__all__) == PUBLIC
