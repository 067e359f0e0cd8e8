"""Runs passes of a workload through hyperent's public entry points.

CLI ops go through ``hyperent.cli.main`` in-process with stdout captured;
small states go through ``hyperent.reports.state_record``.  Run as a
script, this module is one measuring process of a benchmark run: a fresh
interpreter that times ``import hyperent`` plus its first, cold pass,
then runs warm passes, and prints times and outputs as one JSON line.
A run spreads its passes over several such processes because a Python
process's speed shifts by several percent from one process to the next
(memory layout, hash seed), which passes within one process cannot
average out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Runner:
    """Holds the ops of one workload and the hyperent objects the small ops take."""

    def __init__(self, ops):
        from hyperent import cli, reports
        from hyperent.hypergraph import Bipartition, Hypergraph

        self.ops = ops
        self._entries = (cli.main, reports.state_record)
        self._small = {
            op.key: [(Hypergraph.from_gates(n, e), Bipartition(n, m)) for n, m, e in op.params["states"]]
            for op in ops
            if op.kind == "small"
        }
        self._op_id = 0

    def run_pass(self, tracer=None):
        """Run every op once: (pass seconds, [(op, op seconds, output)])."""
        if tracer is not None:
            tracer.install()
            entries = tracer.entries()
        else:
            entries = self._entries
        results = []
        try:
            start = time.perf_counter()
            for op in self.ops:
                t0 = time.perf_counter()
                output = self._run(op, entries, tracer)
                results.append((op, time.perf_counter() - t0, output))
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return seconds, results

    def _next_op(self, tracer) -> None:
        if tracer is not None:
            tracer.op = self._op_id
        self._op_id += 1

    def _run(self, op, entries, tracer):
        cli_main, state_record = entries
        try:
            if op.kind == "small":
                records = []
                for h, part in self._small[op.key]:
                    self._next_op(tracer)
                    records.append(state_record(h, part))
                return records
            self._next_op(tracer)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(op.argv))
            return buf.getvalue() if code == 0 else None
        except Exception:  # a crashed op is a failed op; keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            return None


def _pass_record(seconds, results, traced) -> dict:
    return {
        "seconds": seconds,
        "traced": traced,
        "ops": [[op.key, sec] for op, sec, _ in results],
        "outputs": [output for _, _, output in results],
    }


def measure(ops, seconds: float, min_passes: int, trace: bool) -> dict:
    """Import hyperent, run a cold pass, then warm passes for ``seconds``.

    Without tracing, stops once ``seconds`` have passed and ``min_passes``
    warm passes ran.  With tracing, alternates untraced and traced passes
    and stops once ``seconds`` have passed and ``min_passes`` of each ran.
    """
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hyperent.cli  # noqa: F401  (what the CLI loads: every module)

    import_s = time.perf_counter() - start
    runner = Runner(ops)
    cold_s, cold = runner.run_pass()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    passes = []
    counts = {False: 0, True: 0}
    start = time.perf_counter()
    while True:
        traced = trace and counts[False] > counts[True]
        pass_s, results = runner.run_pass(tracer if traced else None)
        passes.append(_pass_record(pass_s, results, traced))
        counts[traced] += 1
        done = min(counts.values()) if trace else counts[False]
        if time.perf_counter() - start >= seconds and done >= min_passes:
            break
    out = {
        "setup_s": import_s + cold_s,
        "cold": _pass_record(cold_s, cold, False),
        "passes": passes,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


if __name__ == "__main__":
    import workloads

    parser = argparse.ArgumentParser(description="one measuring process of a benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    ops = workloads.build(args.workload, args.seed, Path(args.workdir))
    print(json.dumps(measure(ops, args.seconds, args.min_passes, bool(args.trace))))
