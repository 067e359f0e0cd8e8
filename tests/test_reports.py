"""Report rows: closed-form columns, z-scores, deterministic rendering."""

import math
from fractions import Fraction

from hyperent import reports
from hyperent.ensembles import EnsembleSpec, Family, MomentEstimate
from hyperent.hypergraph import Bipartition


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
    assert c.samples == 1000  # different split may give different counts


def test_rank_distribution_counts_pinned():
    # ranks are exact, so these counts must not drift
    hist = reports.rank_distribution(16, 30000, seed=13, workers=3)
    assert hist.counts == {0: 8724, 1: 17186, 2: 3907, 3: 180, 4: 3}
    assert hist.samples == 30000


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
