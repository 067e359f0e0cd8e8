"""Closed-form averages, variances and bounds for the random gate ensembles.

Every exact formula returns a big-integer rational; asymptotic formulas
and bounds return floats and are labeled in FormulaReport.validity_note
so downstream comparison code never mistakes a bound for a prediction.

The pairwise-orthogonal tuple count over F_2^4 (which controls the
restricted 3-edge ensemble's purity variance) comes in three flavors:
a dynamic program over the subspace lattice (ground truth), a literal
full enumeration (cross-check for small m), and the printed large-m
closed form, which is known to overcount at small m (192 vs the true
136 at m=2) and is exposed only with an asymptotic validity note.
"""

from __future__ import annotations

import enum
import inspect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class FormulaReport:
    label: str
    value: object
    validity_note: str
    inputs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _dims(n_a: int, n_b: int) -> tuple[int, int, int]:
    if n_a < 1 or n_b < 1:
        raise ValueError("subsystem qubit counts must be >= 1")
    return 1 << n_a, 1 << n_b, 1 << (n_a + n_b)


def haar_avg_purity(n_a: int, n_b: int) -> Fraction:
    """(d_A + d_B) / (d + 1): mean subsystem purity of Haar-random states."""
    d_a, d_b, d = _dims(n_a, n_b)
    return Fraction(d_a + d_b, d + 1)


def cz_avg_purity(n_a: int, n_b: int) -> Fraction:
    """(d_A + d_B - 1) / d: mean purity over the random 2-edge ensemble."""
    d_a, d_b, d = _dims(n_a, n_b)
    return Fraction(d_a + d_b - 1, d)


def ccz_avg_purity(n_a: int, n_b: int) -> Fraction:
    """Mean purity over the random 3-edge ensemble.

    (d_A + d_B - 1)/d + N_A (N_A + 1) N_B (N_B + 1) / d^2; needs at
    least 3 qubits in total (no 3-edge crosses a 2-qubit cut both ways).
    """
    d_a, d_b, d = _dims(n_a, n_b)
    if n_a + n_b < 3:
        raise ValueError("3-edge ensemble needs n >= 3")
    return Fraction(d_a + d_b - 1, d) + Fraction(n_a * (n_a + 1) * n_b * (n_b + 1), d * d)


def ccz_half_avg_purity(n_a: int, n_b: int) -> Fraction:
    """Mean purity over the restricted 3-edge ensemble (one vertex in A, two in B).

    (d_A + d_B - 1)/d + d_A (d_A - 1) N_B (N_B + 1) / d^2.
    """
    d_a, d_b, d = _dims(n_a, n_b)
    if n_b < 2:
        raise ValueError("restricted 3-edge ensemble needs at least 2 complement qubits")
    return Fraction(d_a + d_b - 1, d) + Fraction(d_a * (d_a - 1) * n_b * (n_b + 1), d * d)


def cz_purity_variance(n_a: int, n_b: int) -> Fraction:
    """(d_A - 1)(d_B - 1) / d^2: purity variance of the random 2-edge ensemble."""
    d_a, d_b, d = _dims(n_a, n_b)
    return Fraction((d_a - 1) * (d_b - 1), d * d)


# -- pairwise-orthogonal tuples over F_2^4 ---------------------------------


def _dot_parity(u: int, v: int) -> int:
    return (u & v).bit_count() & 1


@lru_cache(maxsize=None)
def _complement(span: frozenset) -> tuple[int, ...]:
    return tuple(v for v in range(16) if all(_dot_parity(v, u) == 0 for u in span))


@lru_cache(maxsize=None)
def _extend_span(span: frozenset, v: int) -> frozenset:
    if v in span:
        return span
    return frozenset(span | {x ^ v for x in span})


def count_orthogonal_tuples(m: int) -> int:
    """Number of m-tuples of vectors in F_2^4 with all pairwise dot products even.

    Dynamic program over the subspace lattice: the state is the span of
    the vectors placed so far, and the next vector must lie in the
    orthogonal complement of that span.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    dp: dict[frozenset, int] = {frozenset({0}): 1}
    for _ in range(m):
        nxt: dict[frozenset, int] = {}
        for span, count in dp.items():
            for v in _complement(span):
                new = _extend_span(span, v)
                nxt[new] = nxt.get(new, 0) + count
        dp = nxt
    return sum(dp.values())


def count_orthogonal_tuples_naive(m: int) -> int:
    """Literal enumeration of all 16**m assignments, testing every pair.

    Exponential; meant as the independent cross-check for small m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 1
    table = np.array([[_dot_parity(u, v) for v in range(16)] for u in range(16)], dtype=np.uint8)
    grids = np.indices((16,) * m).reshape(m, -1)
    ok = np.ones(grids.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(m), 2):
        ok &= table[grids[i], grids[j]] == 0
    return int(np.count_nonzero(ok))


def falling_factorial(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1); zero when k > m."""
    return math.perm(m, k)


def orthogonal_tuple_count_closed_form(m: int) -> int:
    """Printed large-m expression for the pairwise-orthogonal tuple count.

    3*4^m + (6m^2 + 6m - 2)*2^m + 4*A(m,2) + 8*A(m,3) + 56*A(m,4).
    The leading term is right, but the expression overcounts at small m
    (192 at m=2, against the true 136); treat it as asymptotic only.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return (
        3 * 4**m
        + (6 * m * m + 6 * m - 2) * 2**m
        + 4 * falling_factorial(m, 2)
        + 8 * falling_factorial(m, 3)
        + 56 * falling_factorial(m, 4)
    )


class CountSource(enum.Enum):
    EXACT = "exact"
    CLOSED_FORM = "closed_form"


def ccz_half_purity_variance(
    n_a: int, n_b: int, source: CountSource = CountSource.EXACT
) -> Fraction:
    """Purity variance of the restricted 3-edge ensemble.

    d_A^2 (d_A - 1) * { T(N_B) - [d_B + N_B(N_B+1)]^2 } / d^4, where T
    is the pairwise-orthogonal tuple count at m = N_B.  Exact with the
    EXACT count source; asymptotic-only with CLOSED_FORM.
    """
    d_a, d_b, d = _dims(n_a, n_b)
    if n_b < 2:
        raise ValueError("restricted 3-edge ensemble needs at least 2 complement qubits")
    if source is CountSource.EXACT:
        tuples = count_orthogonal_tuples(n_b)
    else:
        tuples = orthogonal_tuple_count_closed_form(n_b)
    inner = tuples - (d_b + n_b * (n_b + 1)) ** 2
    return Fraction(d_a * d_a * (d_a - 1) * inner, d**4)


def ccz_half_variance_bound(n_a: int, n_b: int) -> Fraction:
    """9 d_A / d^2, itself below 9 d^(-3/2) when N_A <= N_B."""
    d_a, _, d = _dims(n_a, n_b)
    return Fraction(9 * d_a, d * d)


def ccz_purity_variance_leading(n_a: int, n_b: int) -> tuple[float, float]:
    """Leading-order purity variance of the full 3-edge ensemble, plus bound.

    Estimate 4 d^-2 - 2 (d_A + d_B) d^-3 with an unknown O(N^4) d^-3
    remainder; the rigorous companion bound is 3 N^2 d^(-3/2).
    """
    d_a, d_b, d = _dims(n_a, n_b)
    n = n_a + n_b
    if n < 3:
        raise ValueError("3-edge ensemble needs n >= 3")
    estimate = 4.0 / d**2 - 2.0 * (d_a + d_b) / d**3
    bound = 3.0 * n * n * d**-1.5
    return estimate, bound


def rank_defect_probability(s: int) -> float:
    """Limiting probability that a uniform square GF(2) matrix has rank defect s.

    2^(-s^2) * prod_{i >= s+1} (1 - 2^-i) * prod_{1 <= i <= s} (1 - 2^-i)^-1,
    with the infinite product truncated once a factor is within 1e-15 of 1.
    """
    if s < 0:
        raise ValueError("defect must be >= 0")
    prod = 1.0
    i = s + 1
    while 2.0**-i >= 1e-15:
        prod *= 1.0 - 2.0**-i
        i += 1
    for i in range(1, s + 1):
        prod /= 1.0 - 2.0**-i
    return 2.0 ** (-s * s) * prod


def avg_entropy_lower_bound(n_a: int, n_b: int) -> float:
    """-log2((d_A + d_B) / d): lower bound on the mean Renyi-2 entropy.

    For an equal partition this is N/2 - 1.
    """
    d_a, d_b, d = _dims(n_a, n_b)
    return -(np.log2(d_a + d_b) - (n_a + n_b))


def entropy_deviation_bound(
    n_a: int, n_b: int, epsilon: float, variance: float
) -> tuple[float, float]:
    """Chebyshev-style tail bound on low-entropy states.

    Returns (threshold, probability): the entropy falls at or below
    -log2((d_A+d_B)/d) - 1.5 * eps * d_A with probability at most
    variance / eps^2.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d_a, _, _ = _dims(n_a, n_b)
    threshold = avg_entropy_lower_bound(n_a, n_b) - 1.5 * epsilon * d_a
    return threshold, variance / epsilon**2


def entropy_variance_bound(n: int, family: str) -> FormulaReport:
    """Entropy-variance separation at the equal partition.

    The 3-edge ensemble's entropy variance is below 1.6 N 2^(-N/2);
    the 2-edge ensemble's exceeds the constant (4/9) Q_0 ~ 0.128.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("equal partition needs even n >= 2")
    fam = family.lower()
    if fam == "ccz":
        value = 1.6 * n * 2.0 ** (-n / 2)
        return FormulaReport(
            "ccz_entropy_variance_upper_bound",
            value,
            "bound (upper), equal partition, large N",
            {"n": n, "family": fam},
        )
    if fam == "cz":
        derived = (4.0 / 9.0) * rank_defect_probability(0)
        return FormulaReport(
            "cz_entropy_variance_lower_bound",
            0.128,
            "bound (lower), equal partition, large N",
            {"n": n, "family": fam},
            extras={"derivation_constant_4_9_Q0": derived},
        )
    raise ValueError(f"no entropy variance bound for family {family!r}")


# -- CLI-facing formula registry --------------------------------------------


def _report(label, value, note, **inputs) -> FormulaReport:
    return FormulaReport(label, value, note, inputs)


def _asymptotic_leading(n_a: int, n_b: int) -> FormulaReport:
    estimate, bound = ccz_purity_variance_leading(n_a, n_b)
    return FormulaReport(
        "ccz_purity_variance_leading",
        estimate,
        "asymptotic (unknown O(N^4) d^-3 remainder)",
        {"n_a": n_a, "n_b": n_b},
        extras={"upper_bound_3N2_d15": bound},
    )


def _half_variance_report(n_a: int, n_b: int, source: str = "exact") -> FormulaReport:
    try:
        src = CountSource(source)
    except ValueError:
        valid = ", ".join(s.value for s in CountSource)
        raise ValueError(f"source={source!r} is not one of {valid}") from None
    value = ccz_half_purity_variance(n_a, n_b, src)
    note = "exact" if src is CountSource.EXACT else "asymptotic (large complement)"
    return FormulaReport(
        "ccz_half_purity_variance",
        value,
        note,
        {"n_a": n_a, "n_b": n_b, "source": src.value},
        extras={"upper_bound_9da_d2": ccz_half_variance_bound(n_a, n_b)},
    )


def _deviation_report(n_a: int, n_b: int, epsilon: float, variance: float) -> FormulaReport:
    threshold, prob = entropy_deviation_bound(n_a, n_b, epsilon, variance)
    return FormulaReport(
        "entropy_deviation_bound",
        prob,
        "bound (upper tail probability)",
        {"n_a": n_a, "n_b": n_b, "epsilon": epsilon, "variance": variance},
        extras={"entropy_threshold": threshold},
    )


FORMULAS: dict[str, callable] = {
    "haar_avg_purity": lambda n_a, n_b: _report(
        "haar_avg_purity", haar_avg_purity(n_a, n_b), "exact", n_a=n_a, n_b=n_b
    ),
    "cz_avg_purity": lambda n_a, n_b: _report(
        "cz_avg_purity", cz_avg_purity(n_a, n_b), "exact", n_a=n_a, n_b=n_b
    ),
    "ccz_avg_purity": lambda n_a, n_b: _report(
        "ccz_avg_purity", ccz_avg_purity(n_a, n_b), "exact", n_a=n_a, n_b=n_b
    ),
    "ccz_half_avg_purity": lambda n_a, n_b: _report(
        "ccz_half_avg_purity", ccz_half_avg_purity(n_a, n_b), "exact", n_a=n_a, n_b=n_b
    ),
    "cz_purity_variance": lambda n_a, n_b: _report(
        "cz_purity_variance", cz_purity_variance(n_a, n_b), "exact", n_a=n_a, n_b=n_b
    ),
    "ccz_half_purity_variance": _half_variance_report,
    "ccz_purity_variance_leading": _asymptotic_leading,
    "orthogonal_tuple_count": lambda m: _report(
        "orthogonal_tuple_count", count_orthogonal_tuples(m), "exact", m=m
    ),
    "orthogonal_tuple_count_closed_form": lambda m: _report(
        "orthogonal_tuple_count_closed_form",
        orthogonal_tuple_count_closed_form(m),
        "asymptotic (overcounts at small m)",
        m=m,
    ),
    "rank_defect_probability": lambda s: _report(
        "rank_defect_probability", rank_defect_probability(s), "exact (limit law)", s=s
    ),
    "avg_entropy_lower_bound": lambda n_a, n_b: _report(
        "avg_entropy_lower_bound",
        avg_entropy_lower_bound(n_a, n_b),
        "bound (lower)",
        n_a=n_a,
        n_b=n_b,
    ),
    "entropy_deviation_bound": _deviation_report,
    "entropy_variance_bound": entropy_variance_bound,
}


_COUNT_INPUTS = frozenset({"n", "n_a", "n_b", "m", "s"})  # qubit, tuple and defect counts


def evaluate(name: str, **inputs) -> FormulaReport:
    """Evaluate a registered formula by name with keyword inputs.

    Inputs are checked against the formula's signature first: a missing
    or unknown input, text where a number is due, or a non-integer count,
    raises a ValueError that names the formula's inputs and the bad one.
    Only an input annotated ``str`` or with a text default takes text,
    and the counts (:data:`_COUNT_INPUTS`) take integers only.
    """
    try:
        fn = FORMULAS[name]
    except KeyError:
        raise ValueError(f"unknown formula {name!r}; known: {sorted(FORMULAS)}") from None
    signature = inspect.signature(fn)
    takes = f"formula {name} takes inputs {', '.join(signature.parameters)}"
    try:
        signature.bind(**inputs)
    except TypeError as exc:  # a missing or unknown input, named in exc
        raise ValueError(f"{takes}; {exc}") from None
    for key, value in inputs.items():
        param = signature.parameters[key]
        if isinstance(value, str) and not (
            param.annotation in (str, "str") or isinstance(param.default, str)
        ):
            raise ValueError(f"{takes}; {key}={value!r} is not a number")
        if key in _COUNT_INPUTS and not isinstance(value, int):
            raise ValueError(f"{takes}; {key}={value!r} is not an integer")
    return fn(**inputs)
