"""Command-line front end: single-state queries, moment sweeps, rank
statistics, formula evaluation, and the acceptance verify suite.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain error (invariant violation, capacity exceeded).  Output is
deterministic for a fixed (configuration, seed, worker count); sweeps
iterate n ascending and flush each CSV row as it completes so partial
output is useful if interrupted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import formulas, verify
from .ensembles import EnsembleSpec, Family, Method, Scope
from .hypergraph import Bipartition, GraphFormatError, parse_graph_file
from .reports import (
    MOMENTS_COLUMNS,
    RANKDIST_COLUMNS,
    compute_moments_row,
    fmt,
    jsonable,
    rankdist_rows,
    state_record,
    to_csv,
    to_json_doc,
)

_FAMILIES = {
    "cz": Family.CZ,
    "ccz": Family.CCZ,
    "ccz-half": Family.CCZ_HALF,
    "k-uniform": Family.K_UNIFORM,
}
_SCOPES = {"cross": Scope.CROSS_ONLY, "all": Scope.ALL_EDGES}
_METHODS = {"auto": None, "rank": Method.RANK, "statevector": Method.STATE_VECTOR}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _write(path: str | None, text: str) -> None:
    stream, close = _out_stream(path)
    stream.write(text)
    if close:
        stream.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperent",
        description="Random hypergraph states: exact purity, entropy, and ensemble statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="purity and entropy of one graph-file state")
    p_state.add_argument("--graph-file", required=True)
    p_state.add_argument("--na", type=int, help="subsystem A = the NA lowest qubit indices")
    p_state.add_argument("--a-mask", type=lambda s: int(s, 0), help="explicit A bit mask")
    p_state.add_argument("--format", choices=["text", "json"], default="text")
    p_state.add_argument("--out")

    p_mom = sub.add_parser("moments", help="purity moments vs closed forms over a sweep")
    p_mom.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p_mom.add_argument("--k", type=int, help="edge arity for the k-uniform family")
    p_mom.add_argument("--n", type=_int_list, required=True, help="qubit counts, comma separated")
    p_mom.add_argument("--na", type=int, help="subsystem size (default n // 2)")
    p_mom.add_argument(
        "--p", type=Fraction, default=Fraction(1, 2), help="edge probability, e.g. 1/2 or 0.3"
    )
    p_mom.add_argument("--scope", choices=sorted(_SCOPES), default="cross")
    p_mom.add_argument("--samples", type=int)
    p_mom.add_argument("--exhaustive", action="store_true")
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--method", choices=sorted(_METHODS), default="auto")
    p_mom.add_argument("--workers", type=int, default=1)
    p_mom.add_argument("--format", choices=["csv", "json"], default="csv")
    p_mom.add_argument("--out")

    p_rank = sub.add_parser("rankdist", help="empirical rank-defect distribution vs closed form")
    p_rank.add_argument("--n", type=int, required=True)
    p_rank.add_argument("--samples", type=int, required=True)
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.add_argument("--workers", type=int, default=1)
    p_rank.add_argument("--format", choices=["csv", "json"], default="csv")
    p_rank.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run the acceptance criteria")
    p_ver.add_argument("--suite", choices=["quick", "full"], default="quick")
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.add_argument("--out")

    p_form = sub.add_parser("formula", help="evaluate a closed-form expression as JSON")
    p_form.add_argument("name")
    p_form.add_argument("inputs", nargs="*", help="key=value inputs, e.g. n_a=2 n_b=3")

    return parser


def _cmd_state(args) -> int:
    try:
        with open(args.graph_file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.graph_file}: {exc}", file=sys.stderr)
        return 2
    h = parse_graph_file(text)
    if args.a_mask is not None:
        part = Bipartition(h.n_qubits, args.a_mask)
    elif args.na is not None:
        part = Bipartition.from_first(h.n_qubits, args.na)
    else:
        part = Bipartition.from_first(h.n_qubits, h.n_qubits // 2)
    record = state_record(h, part)
    if args.format == "json":
        _write(args.out, json.dumps(record, indent=2) + "\n")
    else:
        lines = [
            f"purity = {record['purity_numerator']}/2^{record['purity_exponent']}"
            f" = {record['purity']!r}",
            f"renyi2 = {record['renyi2']!r}",
        ]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_moments(args) -> int:
    if args.exhaustive == (args.samples is not None):
        print("error: give exactly one of --samples or --exhaustive", file=sys.stderr)
        return 2
    family = _FAMILIES[args.family]

    def sweep():
        for n in sorted(args.n):
            n_a = args.na if args.na is not None else n // 2
            spec = EnsembleSpec(
                n, family, k=args.k, edge_probability=args.p, scope=_SCOPES[args.scope]
            )
            yield compute_moments_row(
                spec,
                Bipartition.from_first(n, n_a),
                None if args.exhaustive else args.samples,
                args.seed,
                _METHODS[args.method],
                args.workers,
            )

    # nothing is opened or written before the first row is ready, so a
    # sweep that fails at once leaves no output behind
    if args.format == "json":
        _write(args.out, to_json_doc("moments", list(sweep())))
        return 0
    lines = (",".join(fmt(row[c]) for c in MOMENTS_COLUMNS) + "\n" for row in sweep())
    first = ",".join(MOMENTS_COLUMNS) + "\n" + next(lines, "")
    stream, close = _out_stream(args.out)
    try:
        for line in itertools.chain([first], lines):
            stream.write(line)
            stream.flush()
    finally:
        if close:
            stream.close()
    return 0


def _cmd_rankdist(args) -> int:
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    if args.n > 1024:
        print("error: --n is capped at 1024", file=sys.stderr)
        return 2
    rows = rankdist_rows(args.n, args.samples, args.seed, args.workers)
    if args.format == "json":
        _write(args.out, to_json_doc("rankdist", rows))
    else:
        _write(args.out, to_csv(RANKDIST_COLUMNS, rows))
    return 0


def _cmd_verify(args) -> int:
    def progress(result):
        status = "PASS" if result.passed else "FAIL"
        over = ", over budget" if result.over_budget else ""
        print(
            f"{status} {result.criterion:>2} {result.name} ({result.seconds:.2f}s{over}): "
            f"{result.observed}",
            file=sys.stderr,
        )

    report = verify.run_suite(args.suite, args.workers, progress=progress)
    if args.format == "json" or args.out:
        _write(args.out, report.to_json())
    summary = "all criteria passed" if report.passed else "CRITERIA FAILED"
    print(f"{args.suite} suite: {summary} ({len(report.results)} run)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_formula(args) -> int:
    inputs = {}
    for item in args.inputs:
        if "=" not in item:
            print(f"error: formula inputs look like key=value, got {item!r}", file=sys.stderr)
            return 2
        key, raw = item.split("=", 1)
        try:
            inputs[key] = int(raw)
        except ValueError:
            try:
                inputs[key] = float(raw)
            except ValueError:
                inputs[key] = raw
    report = formulas.evaluate(args.name, **inputs)
    doc = {
        "label": report.label,
        "inputs": {k: jsonable(v) for k, v in report.inputs.items()},
        "value": jsonable(report.value),
        "validity": report.validity_note,
    }
    if report.extras:
        doc["extras"] = {k: jsonable(v) for k, v in report.extras.items()}
    print(json.dumps(doc, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # refused before any command computes or writes anything
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    handlers = {
        "state": _cmd_state,
        "moments": _cmd_moments,
        "rankdist": _cmd_rankdist,
        "verify": _cmd_verify,
        "formula": _cmd_formula,
    }
    try:
        return handlers[args.command](args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
