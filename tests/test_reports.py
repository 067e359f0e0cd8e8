"""Report rows: closed-form columns, z-scores, deterministic rendering."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hyperent import gf2, reports
from hyperent.ensembles import EnsembleSpec, Family, MomentEstimate, edge_universe, mc_moments
from hyperent.hypergraph import Bipartition
from hyperent.rng import CounterRng, bernoulli_block


def test_closed_form_columns_by_family():
    part = Bipartition.from_first(6, 3)
    cf = reports.closed_form_moments(EnsembleSpec(6, Family.CZ), part)
    assert cf == (Fraction(15, 64), Fraction(49, 4096))
    cf = reports.closed_form_moments(EnsembleSpec(6, Family.CCZ), part)
    assert cf[0] == Fraction(1104, 4096) and cf[1] is None
    cf = reports.closed_form_moments(EnsembleSpec(6, Family.CCZ_HALF), part)
    assert cf == (Fraction(1632, 4096), Fraction(133, 16384))
    cf = reports.closed_form_moments(EnsembleSpec(6, Family.K_UNIFORM, k=2), part)
    assert cf[0] == Fraction(15, 64)
    cf = reports.closed_form_moments(EnsembleSpec(6, Family.K_UNIFORM, k=4), part)
    assert cf == (None, None)
    skewed = EnsembleSpec(6, Family.CZ, edge_probability=Fraction(1, 4))
    assert reports.closed_form_moments(skewed, part) == (None, None)


def test_z_score_exact_and_sampled():
    exact_hit = MomentEstimate(Fraction(1, 2), Fraction(1, 4), Fraction(0), 0.0, 0.0, 4, True)
    assert reports.z_score(exact_hit, Fraction(1, 2)) == 0.0
    exact_miss = MomentEstimate(Fraction(1, 3), Fraction(1, 9), Fraction(0), 0.0, 0.0, 4, True)
    assert reports.z_score(exact_miss, Fraction(1, 2)) == math.inf
    sampled = MomentEstimate(0.55, 0.33, 0.02, 0.01, 0.001, 100, False)
    assert abs(reports.z_score(sampled, Fraction(1, 2)) - 5.0) < 1e-12
    assert reports.z_score(sampled, None) is None


def test_fmt_rendering():
    assert reports.fmt(Fraction(3, 8)) == "3/8"
    assert reports.fmt(0.5) == "0.5"
    assert reports.fmt(None) == ""
    assert reports.fmt(7) == "7"


def test_moments_row_schema():
    spec = EnsembleSpec(4, Family.CZ)
    part = Bipartition.from_first(4, 2)
    row = reports.compute_moments_row(spec, part, None, 0, 1)
    assert list(row) == reports.MOMENTS_COLUMNS
    assert row["mean"] == Fraction(7, 16)
    assert row["z_score"] == 0.0
    csv = reports.to_csv(reports.MOMENTS_COLUMNS, [row])
    # cross universe at (4, 2) has 4 edges, so 16 subsets
    assert csv.splitlines()[1] == "4,2,cz,cross,1/2,16,7/16,9/256,0.0,7/16,9/256,0.0"


def test_rank_distribution_worker_split_deterministic():
    a = reports.rank_distribution(6, 1000, seed=5, workers=3)
    b = reports.rank_distribution(6, 1000, seed=5, workers=3)
    assert a.counts == b.counts and a.samples == 1000
    c = reports.rank_distribution(6, 1000, seed=5, workers=1)
    assert c.counts == a.counts and c.samples == 1000  # matrix i is fixed by i alone


def test_rank_distribution_counts_pinned():
    # ranks are exact, so these counts must not drift
    hist = reports.rank_distribution(16, 30000, seed=13, workers=3)
    assert hist.counts == {0: 8762, 1: 17269, 2: 3812, 3: 154, 4: 3}
    assert hist.samples == 30000


@pytest.mark.parametrize("n", [3, 5, 16])
def test_rank_law_matrix_is_cz_cut_block(monkeypatch, n):
    # matrix i of the rank law is the cut block of CZ sample i at N = 2n,
    # n|n: the cross universe in lexicographic order is that block, row-major
    seed, samples = 17, 300
    spec, part = EnsembleSpec(2 * n, Family.CZ), Bipartition.from_first(2 * n, n)
    assert edge_universe(spec, part) == [(a, n + b) for a in range(n) for b in range(n)]
    ranked = []
    real = gf2.batch_rank
    monkeypatch.setattr(gf2, "batch_rank", lambda w, c: ranked.append(w.copy()) or real(w, c))
    mc_moments(spec, part, samples, seed)
    monkeypatch.undo()
    # the blocks the CZ Monte Carlo ranks are its samples' choices, packed
    bits = bernoulli_block(seed, 0, samples * n * n, Fraction(1, 2)).reshape(samples, n, n)
    words = gf2._random_words(samples, n, n, seed, 0)
    assert np.array_equal(np.concatenate(ranked), gf2.pack_rows(bits))
    assert np.array_equal(np.concatenate(ranked), words)
    defects = Counter((n - gf2.batch_rank(words, n)).tolist())
    assert reports.rank_distribution(n, samples, seed, workers=2).counts == defects
    # the public law reads the same matrices from bit 64 * cursor on
    assert gf2.empirical_rank_distribution(n, samples, CounterRng(seed)).counts == defects


def test_rankdist_rows_have_bands():
    rows = reports.rankdist_rows(4, 500, seed=1)
    assert sum(r["count"] for r in rows) == 500
    for r in rows:
        assert 0 < r["closed_form_Qs"] < 1
        assert r["std_error"] > 0


def test_state_record_fields():
    from hyperent.hypergraph import Hypergraph

    h = Hypergraph.from_gates(2, [(0, 1)])
    rec = reports.state_record(h, Bipartition(2, 1))
    assert rec["purity_numerator"] == 1 and rec["purity_exponent"] == 1
    assert rec["renyi2"] == 1.0
    assert rec["n_edges"] == 1
