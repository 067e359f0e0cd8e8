"""Row builders and serialization shared by the CLI and the verify suite.

Output is byte-stable for a fixed (configuration, seed, worker count):
floats are rendered with repr (shortest round-trip), exact rationals as
"numerator/denominator", and no timestamps enter the documents.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import formulas
from .ensembles import (
    EnsembleSpec,
    Family,
    MomentEstimate,
    exact_moments,
    mc_moments,
    split_run,
)
from .gf2 import RankHistogram, _rank_law
from .hypergraph import Bipartition, Hypergraph
from .purity import renyi2, state_purity

MOMENTS_COLUMNS = (
    "n n_a family scope p samples mean variance std_err_mean closed_form_mean "
    "closed_form_variance z_score"
).split()

RANKDIST_COLUMNS = ["s", "count", "frequency", "closed_form_Qs", "std_error"]


def fmt(value) -> str:
    """Deterministic cell rendering: Fractions exact, floats via repr."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def jsonable(value):
    """JSON cell: Fractions as "numerator/denominator", non-finite floats as null."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no Infinity or NaN
    return value


def closed_form_moments(spec: EnsembleSpec, part: Bipartition):
    """(mean, variance) closed forms where defined, else Nones.

    Closed forms hold for p = 1/2 only.  The full 3-edge ensemble has no
    exact variance closed form (only the asymptotic leading order), so
    its variance cell stays empty.
    """
    if spec.edge_probability != Fraction(1, 2):
        return None, None
    n_a, n_b = part.n_a, part.n_b
    if spec.family is Family.CCZ_HALF:
        return (
            formulas.ccz_half_avg_purity(n_a, n_b),
            formulas.ccz_half_purity_variance(n_a, n_b),
        )
    if spec.edge_arity == 2:
        return formulas.cz_avg_purity(n_a, n_b), formulas.cz_purity_variance(n_a, n_b)
    if spec.edge_arity == 3:
        return formulas.ccz_avg_purity(n_a, n_b), None
    return None, None


def z_score(estimate: MomentEstimate, closed_mean) -> float | None:
    if closed_mean is None:
        return None
    if estimate.exact:
        return 0.0 if estimate.mean == closed_mean else math.inf
    if estimate.std_error_mean == 0.0:
        return 0.0 if estimate.mean == float(closed_mean) else math.inf
    return (estimate.mean - float(closed_mean)) / estimate.std_error_mean


def moments_row(spec: EnsembleSpec, part: Bipartition, estimate: MomentEstimate) -> dict:
    cf_mean, cf_var = closed_form_moments(spec, part)
    return {
        "n": spec.n_qubits,
        "n_a": part.n_a,
        "family": spec.family.value,
        "scope": spec.scope.value,
        "p": spec.edge_probability,
        "samples": estimate.samples,
        "mean": estimate.mean,
        "variance": estimate.variance,
        "std_err_mean": estimate.std_error_mean,
        "closed_form_mean": cf_mean,
        "closed_form_variance": cf_var,
        "z_score": z_score(estimate, cf_mean),
    }


def compute_moments_row(
    spec: EnsembleSpec,
    part: Bipartition,
    samples: int | None,
    seed: int,
    workers: int,
) -> dict:
    if samples is None:
        estimate = exact_moments(spec, part)
    else:
        estimate = mc_moments(spec, part, samples, seed, workers=workers)
    return moments_row(spec, part, estimate)


def _rank_worker(args) -> RankHistogram:
    n, seed, first, count = args
    return _rank_law(n, count, seed, first * n * n)


def rank_distribution(n: int, samples: int, seed: int, workers: int = 1) -> RankHistogram:
    """Worker-split rank-defect histogram of matrices 0 .. samples - 1 of the seed's rank law.

    Matrix i is choices [i n^2, (i + 1) n^2) of the seed's stream,
    whichever share holds it, and counts add in any order, so the
    histogram depends on the seed alone: it equals
    ``empirical_rank_distribution(n, samples, CounterRng(seed))``.
    """
    hist = RankHistogram(n)
    for part in split_run(_rank_worker, samples, seed, workers, n):
        hist = hist.merge(part)
    return hist


def rankdist_rows(n: int, samples: int, seed: int, workers: int = 1) -> list[dict]:
    """One row per observed defect s, ascending, in RANKDIST_COLUMNS."""
    hist = rank_distribution(n, samples, seed, workers)
    rows = []
    for s in sorted(hist.counts):
        q = formulas.rank_defect_probability(s)
        rows.append(
            {
                "s": s,
                "count": hist.counts[s],
                "frequency": hist.frequency(s),
                "closed_form_Qs": q,
                "std_error": math.sqrt(q * (1.0 - q) / hist.samples),
            }
        )
    return rows


def state_record(h: Hypergraph, part: Bipartition) -> dict:
    p = state_purity(h, part)
    return {
        "n_qubits": h.n_qubits,
        "a_mask": part.a_mask,
        "n_edges": len(h.edges),
        "purity_numerator": p.numerator,
        "purity_exponent": p.denominator.bit_length() - 1,
        "purity": float(p),
        "renyi2": renyi2(p),
    }


def to_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def to_json_doc(kind: str, rows: list[dict]) -> str:
    payload = {
        "kind": kind,
        "rows": [{k: jsonable(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"
