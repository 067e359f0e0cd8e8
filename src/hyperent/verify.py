"""Acceptance criteria as runnable checks, for the CLI verify subcommand.

Every criterion is self-contained: it states its expected value and
tolerance, runs at the pinned problem size with a pinned seed, and
reports expected/observed strings a reviewer can eyeball.  The quick
suite is the subset that finishes in a few seconds; the full suite adds
the sampling-heavy checks.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import formulas
from .ensembles import (
    EnsembleSpec,
    Family,
    Scope,
    entropy_stats,
    exact_moments,
    mc_moments,
    sample_hypergraph,
)
from .hypergraph import Bipartition
from .purity import graph_entropy_rank, state_purity
from .reports import (
    MOMENTS_COLUMNS,
    RANKDIST_COLUMNS,
    jsonable,
    moments_row,
    rank_distribution,
    rankdist_rows,
    to_csv,
)
from .rng import CounterRng

SEED_MC_CZ = 20260808
SEED_MC_CCZ = 20260808
SEED_RANKDIST = 99
SEED_ENTROPY_CZ = 11
SEED_ENTROPY_CCZ = 12
SEED_RANK_EQUIV = 424242


@dataclass
class CriterionResult:
    criterion: str
    name: str
    passed: bool
    expected: str
    observed: str
    tolerance: str
    seconds: float = 0.0
    budget_seconds: float = math.inf
    notes: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # checks may yield numpy bools, which json rejects

    @property
    def over_budget(self) -> bool:
        """Whether the run took longer than its budget; reported, never a failure."""
        return self.seconds > self.budget_seconds

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "seconds": round(self.seconds, 3),
            # a crashed criterion keeps the infinite default, written as null
            "budget_seconds": jsonable(self.budget_seconds),
            "over_budget": self.over_budget,
            "notes": self.notes,
        }


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> CriterionResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - start
        return result

    return wrapper


@_timed
def criterion_01_cz_exact_mean(workers: int = 1) -> CriterionResult:
    spec = EnsembleSpec(8, Family.CZ, scope=Scope.CROSS_ONLY)
    part = Bipartition.from_first(8, 4)
    est = exact_moments(spec, part)
    expected = formulas.cz_avg_purity(4, 4)
    return CriterionResult(
        "1",
        "exact-cz-mean",
        est.mean == expected,
        f"mean = {expected} (exhaustive 2^16 cross graphs, N=8, N_A=4)",
        f"mean = {est.mean}",
        "exact rational equality",
        budget_seconds=10.0,
    )


@_timed
def criterion_02_cz_exact_variance(workers: int = 1) -> CriterionResult:
    spec = EnsembleSpec(8, Family.CZ, scope=Scope.CROSS_ONLY)
    part = Bipartition.from_first(8, 4)
    est = exact_moments(spec, part)
    expected = Fraction(225, 65536)
    closed_form = formulas.cz_purity_variance(4, 4)
    return CriterionResult(
        "2",
        "exact-cz-variance",
        est.variance == expected == closed_form,
        f"variance = {expected}",
        f"variance = {est.variance}",
        "exact rational equality",
        budget_seconds=10.0,
        notes="" if expected == closed_form else f"closed form gives {closed_form}",
    )


@_timed
def criterion_03_ccz_exact_mean(workers: int = 1) -> CriterionResult:
    spec = EnsembleSpec(6, Family.CCZ, scope=Scope.CROSS_ONLY)
    part = Bipartition.from_first(6, 3)
    est = exact_moments(spec, part)
    expected = Fraction(1104, 4096)
    closed_form = formulas.ccz_avg_purity(3, 3)
    residual = abs(est.mean - expected) / expected
    notes = "" if est.mean == expected else f"nonzero residual {float(residual):.3e} vs closed form"
    if expected != closed_form:
        notes = f"closed form gives {closed_form}"
    return CriterionResult(
        "3",
        "exact-ccz-mean",
        residual <= Fraction(1, 10**9) and expected == closed_form,
        f"mean = {expected} (exhaustive 2^18 cross 3-edge graphs, N=6, N_A=3)",
        f"mean = {est.mean}, exact equality: {est.mean == expected}",
        "relative 1e-9 (exact equality expected)",
        budget_seconds=900.0,
        notes=notes,
    )


@_timed
def criterion_04_half_ccz_exact(workers: int = 1) -> CriterionResult:
    pinned = {(1, 2): Fraction(9, 256), (2, 2): Fraction(27, 1024)}
    failures = []
    observed = []
    for n_a, n_b in [(1, 2), (2, 2), (1, 3), (3, 3)]:
        n = n_a + n_b
        spec = EnsembleSpec(n, Family.CCZ_HALF)
        part = Bipartition.from_first(n, n_a)
        est = exact_moments(spec, part)
        want_mean = formulas.ccz_half_avg_purity(n_a, n_b)
        want_var = formulas.ccz_half_purity_variance(n_a, n_b, formulas.CountSource.EXACT)
        observed.append(f"({n_a},{n_b}): mean {est.mean}, var {est.variance}")
        if est.mean != want_mean or est.variance != want_var:
            failures.append((n_a, n_b))
        if (n_a, n_b) in pinned and est.variance != pinned[(n_a, n_b)]:
            failures.append((n_a, n_b, "pinned"))
    return CriterionResult(
        "4",
        "exact-half-ccz-moments",
        not failures,
        "exhaustive = closed forms at (1,2),(2,2),(1,3),(3,3); var(1,2)=9/256, var(2,2)=27/1024",
        "; ".join(observed),
        "exact rational equality",
        budget_seconds=60.0,
    )


@_timed
def criterion_05_tuple_count_oracle(workers: int = 1) -> CriterionResult:
    pinned = {1: 16, 2: 136, 3: 704}
    observed = []
    ok = True
    for m in range(6):
        dp = formulas.count_orthogonal_tuples(m)
        naive = formulas.count_orthogonal_tuples_naive(m)
        observed.append(f"m={m}: dp={dp} naive={naive}")
        if dp != naive or pinned.get(m, dp) != dp:
            ok = False
    return CriterionResult(
        "5",
        "orthogonal-tuple-oracle",
        ok,
        "dp count = naive 16^m enumeration for m in 0..5; 16/136/704 at m=1,2,3",
        "; ".join(observed),
        "exact integer equality",
        budget_seconds=120.0,
    )


@_timed
def criterion_06_rank_purity_equivalence(workers: int = 1) -> CriterionResult:
    rng = CounterRng(SEED_RANK_EQUIV)
    mismatches = 0
    for _ in range(500):
        n = 2 + rng.next_u64() % 9
        spec = EnsembleSpec(int(n), Family.CZ, scope=Scope.ALL_EDGES)
        a_mask = 1 + rng.next_u64() % ((1 << n) - 2)
        part = Bipartition(int(n), int(a_mask))
        h = sample_hypergraph(spec, part, rng)
        r = graph_entropy_rank(h, part)
        p = state_purity(h, part)
        if p != Fraction(1, 1 << r):
            mismatches += 1
    return CriterionResult(
        "6",
        "rank-purity-equivalence",
        mismatches == 0,
        "2^(-rank) equals state-vector purity on 500 random graphs, n <= 10",
        f"{mismatches} mismatches out of 500",
        "exact",
        budget_seconds=120.0,
    )


@_timed
def criterion_07_mc_consistency(workers: int = 1) -> CriterionResult:
    spec_cz = EnsembleSpec(16, Family.CZ, scope=Scope.CROSS_ONLY)
    part_cz = Bipartition.from_first(16, 8)
    est_cz = mc_moments(spec_cz, part_cz, 100_000, SEED_MC_CZ, workers)
    z_cz = (est_cz.mean - float(formulas.cz_avg_purity(8, 8))) / est_cz.std_error_mean
    spec_ccz = EnsembleSpec(14, Family.CCZ, scope=Scope.CROSS_ONLY)
    part_ccz = Bipartition.from_first(14, 7)
    est_ccz = mc_moments(spec_ccz, part_ccz, 10_000, SEED_MC_CCZ, workers)
    z_ccz = (est_ccz.mean - float(formulas.ccz_avg_purity(7, 7))) / est_ccz.std_error_mean
    return CriterionResult(
        "7",
        "mc-consistency",
        abs(z_cz) <= 5 and abs(z_ccz) <= 5,
        "|z| <= 5 for CZ N=16 (1e5 rank samples) and CCZ N=14 (1e4 samples)",
        f"z_cz = {z_cz:.3f}, z_ccz = {z_ccz:.3f}",
        "5 standard errors",
        budget_seconds=600.0,
    )


@_timed
def criterion_08_ccz_variance_order(workers: int = 1) -> CriterionResult:
    spec = EnsembleSpec(6, Family.CCZ, scope=Scope.CROSS_ONLY)
    part = Bipartition.from_first(6, 3)
    est = exact_moments(spec, part)
    leading, _ = formulas.ccz_purity_variance_leading(3, 3)
    ratio = float(est.variance) / leading
    return CriterionResult(
        "8",
        "ccz-variance-order",
        0.5 <= ratio <= 2.0,
        f"exhaustive N=6 variance within factor 2 of leading order {leading:.6e}",
        f"variance = {est.variance} = {float(est.variance):.6e}, ratio = {ratio:.4f}",
        "factor 2 (unknown O(N^4) d^-3 remainder)",
        budget_seconds=120.0,
    )


@_timed
def criterion_09_rank_distribution(workers: int = 1) -> CriterionResult:
    hist = rank_distribution(16, 100_000, SEED_RANKDIST, workers)
    q0 = formulas.rank_defect_probability(0)
    f0 = hist.frequency(0)
    band = 5 * math.sqrt(q0 * (1 - q0) / hist.samples)
    r1 = hist.frequency(1) / f0
    r2 = hist.frequency(2) / f0
    ok = abs(f0 - q0) <= band and abs(r1 - 2.0) <= 0.1 and abs(r2 - 4.0 / 9.0) <= 0.05
    return CriterionResult(
        "9",
        "rank-defect-distribution",
        ok,
        f"f(0) within {band:.4f} of {q0:.4f}; f(1)/f(0) within 0.1 of 2; f(2)/f(0) within 0.05 of {4/9:.4f}",
        f"f(0) = {f0:.4f}, f(1)/f(0) = {r1:.4f}, f(2)/f(0) = {r2:.4f}",
        "5 binomial std deviations; ratio bands 0.1 and 0.05",
        budget_seconds=300.0,
    )


@_timed
def criterion_10_entropy_variance_separation(workers: int = 1) -> CriterionResult:
    spec_cz = EnsembleSpec(32, Family.CZ, scope=Scope.CROSS_ONLY)
    part_cz = Bipartition.from_first(32, 16)
    cz = entropy_stats(spec_cz, part_cz, 100_000, SEED_ENTROPY_CZ, workers)
    var_cz = cz.entropy.variance
    spec_ccz = EnsembleSpec(12, Family.CCZ, scope=Scope.CROSS_ONLY)
    part_ccz = Bipartition.from_first(12, 6)
    ccz = entropy_stats(spec_ccz, part_ccz, 2000, SEED_ENTROPY_CCZ, workers)
    var_ccz = ccz.entropy.variance
    bound_ccz = formulas.entropy_variance_bound(12, "ccz").value
    lower = formulas.avg_entropy_lower_bound(6, 6)
    mean_ok = ccz.entropy.mean >= lower - 3 * ccz.entropy.std_error_mean
    ok = 0.3 <= var_cz <= 0.5 and var_cz > 0.128 and var_ccz < bound_ccz and mean_ok
    return CriterionResult(
        "10",
        "entropy-variance-separation",
        ok,
        f"CZ N=32: Var in [0.3, 0.5] and > 0.128; CCZ N=12: Var < {bound_ccz}, mean >= {lower} - 3 SE",
        f"Var_cz = {var_cz:.4f}; Var_ccz = {var_ccz:.3e}, mean_ccz = {ccz.entropy.mean:.4f}",
        "interval checks as stated",
        budget_seconds=900.0,
    )


def _mc_report_bytes() -> bytes:
    spec = EnsembleSpec(16, Family.CZ, scope=Scope.CROSS_ONLY)
    part = Bipartition.from_first(16, 8)
    est = mc_moments(spec, part, 100_000, SEED_MC_CZ, workers=1)
    moments_csv = to_csv(MOMENTS_COLUMNS, [moments_row(spec, part, est)])
    rank_csv = to_csv(RANKDIST_COLUMNS, rankdist_rows(16, 100_000, SEED_RANKDIST, workers=1))
    return (moments_csv + rank_csv).encode()


@_timed
def criterion_11_determinism(workers: int = 1) -> CriterionResult:
    first = _mc_report_bytes()
    second = _mc_report_bytes()
    return CriterionResult(
        "11",
        "mc-determinism",
        first == second,
        "re-running MC reports with identical seed and worker count is byte-identical",
        f"identical = {first == second} ({len(first)} bytes)",
        "byte equality",
        budget_seconds=300.0,
    )


ALL_CRITERIA = [
    ("1", criterion_01_cz_exact_mean),
    ("2", criterion_02_cz_exact_variance),
    ("3", criterion_03_ccz_exact_mean),
    ("4", criterion_04_half_ccz_exact),
    ("5", criterion_05_tuple_count_oracle),
    ("6", criterion_06_rank_purity_equivalence),
    ("7", criterion_07_mc_consistency),
    ("8", criterion_08_ccz_variance_order),
    ("9", criterion_09_rank_distribution),
    ("10", criterion_10_entropy_variance_separation),
    ("11", criterion_11_determinism),
]

QUICK_IDS = {"1", "2", "3", "4", "5", "6", "8"}


@dataclass
class SuiteReport:
    suite: str
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "passed": self.passed,
            "criteria": [r.to_dict() for r in self.results],
        }
        return json.dumps(doc, indent=2) + "\n"


def run_suite(suite: str = "quick", workers: int = 1, progress=None) -> SuiteReport:
    if suite not in ("quick", "full"):
        raise ValueError("suite must be 'quick' or 'full'")
    report = SuiteReport(suite)
    for cid, fn in ALL_CRITERIA:
        if suite == "quick" and cid not in QUICK_IDS:
            continue
        try:
            result = fn(workers)
        except Exception as exc:  # a crashed check is a failed check
            result = CriterionResult(
                cid, fn.__name__, False, "criterion to run to completion", f"raised {exc!r}", "-"
            )
        report.results.append(result)
        if progress is not None:
            progress(result)
    return report
