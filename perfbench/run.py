"""hyperent benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {rank,ccz,state} --seed N --seconds S --trace {0,1}

Run from the repository root (any checkout holding ``src/hyperent``).
The run makes its inputs from ``--seed`` and spreads ``--seconds`` of
warm passes over PROCESSES fresh measuring processes, run one after
another (see runner.py).  Each process first times ``import hyperent``
plus a cold pass.  Every op's output is checked after all passes, in
this process, which never imports hyperent.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it record the environment and notes on the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, per traced pass, plus the workload throughputs
measured on the untraced passes.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import workloads
from checks import Tally
from runner import ROOT, SRC

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PROCESSES = 4
MIN_PASSES = 11  # wall_tail_s needs 10 passes beyond the reported one
MIN_TRACED_PASSES = 4
PROCESS_TIMEOUT_S = 60.0
WORKDIR = ".perfbench_work"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Machine and library versions, read and never changed."""
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def run_process(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict | None:
    """One measuring process; None if it failed."""
    min_passes = math.ceil((MIN_TRACED_PASSES if trace else MIN_PASSES) / PROCESSES)
    cmd = [sys.executable, str(Path(__file__).with_name("runner.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--min-passes", str(min_passes),
           "--trace", str(int(trace)), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("measuring process timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _rate(passes, ops, kinds) -> float:
    """Median over passes of (work units / seconds) of the ops of the given kinds."""
    rates = []
    for p in passes:
        timed = [(ops[key], sec) for key, sec in p["ops"] if ops[key].kind in kinds]
        units = sum(op.units for op, _ in timed)
        if units:
            rates.append(units / sum(sec for _, sec in timed))
    return statistics.median(rates) if rates else 0.0


def _parallel_efficiency(passes, ops) -> float:
    """Median over passes of T(1 worker) / (workers * T(workers)) on the same commands."""
    ratios = []
    for p in passes:
        timed = [(ops[key], sec) for key, sec in p["ops"] if ops[key].kind in ("mc", "rankdist")]
        parallel = [(op.workers, sec) for op, sec in timed if op.workers > 1]
        if parallel:
            serial = sum(sec for op, sec in timed if op.workers == 1)
            ratios.append(serial / (parallel[0][0] * sum(sec for _, sec in parallel)))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(ops, runs, tally) -> dict:
    untraced = [p for r in runs for p in r["passes"] if not p["traced"]]
    traced = [p for r in runs for p in r["passes"] if p["traced"]]
    n = len(traced)
    c, t = Counter(), Counter()
    for r in runs:
        c.update(r["trace"]["counts"])
        t.update(r["trace"]["times"])
    op_seconds = sum(sec for p in traced for _, sec in p["ops"])
    wall_traced = statistics.median(p["seconds"] for p in traced)
    wall_untraced = statistics.median(p["seconds"] for p in untraced)
    return {
        "rng.stream_block.calls": c["rng.stream_block.calls"] / n,
        "rng.stream_block.draws": c["rng.stream_block.draws"] / n,
        "rng.stream_block.s": t["rng.stream_block.total"] / n,
        "gf2.batch_rank.calls": c["gf2.batch_rank.calls"] / n,
        "gf2.batch_rank.matrices": c["gf2.batch_rank.matrices"] / n,
        "gf2.batch_rank.s": t["gf2.batch_rank.total"] / n,
        "gf2.batch_rank.pivot_ratio": (
            c["gf2.batch_rank.pivots"] / c["gf2.batch_rank.pivot_slots"]
            if c["gf2.batch_rank.pivot_slots"] else 0.0
        ),
        "ensembles.samples": c["ensembles.samples"] / n,
        "ensembles.subsets": c["ensembles.subsets"] / n,
        "ensembles.self_s": t["ensembles"] / n,
        "hypergraph.build_sign_table.calls": c["hypergraph.build_sign_table.calls"] / n,
        "hypergraph.build_sign_table.s": t["hypergraph.build_sign_table.total"] / n,
        "hypergraph.build_sign_table.edges": c["hypergraph.build_sign_table.edges"] / n,
        "hypergraph.build_sign_table.word_ops": c["hypergraph.build_sign_table.word_ops"] / n,
        "hypergraph.local_edge_ratio": (
            c["state.local_edges"] / c["state.edges"] if c["state.edges"] else 0.0
        ),
        "purity.sign_matrix_bits.s": t["purity.sign_matrix_bits.total"] / n,
        "purity.reduced_purity.self_s": t["purity.reduced_purity"] / n,
        "purity.numerator.word_ops": c["purity.numerator.word_ops"] / n,
        "purity.numerator.bytes": c["purity.numerator.bytes"] / n,
        "reports.self_s": t["reports"] / n,
        "cli.self_s": t["cli"] / n,
        "rng.self_s": t["rng"] / n,
        "gf2.self_s": t["gf2"] / n,
        "hypergraph.self_s": t["hypergraph"] / n,
        "purity.self_s": t["purity"] / n,
        "pool.s": t["pool"] / n,
        "pool.calls": c["pool.ProcessPoolExecutor.calls"] / n,
        "trace.spans": sum(r["trace"]["spans"] for r in runs) / n,
        "trace.wall_s": wall_traced,
        "trace.untraced_wall_s": wall_untraced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.self_sum_ratio": sum(r["trace"]["root_s"] for r in runs) / op_seconds,
        "samples_per_s": _rate(untraced, ops, ("mc",)),
        "subsets_per_s": _rate(untraced, ops, ("exhaustive",)),
        "matrices_per_s": _rate(untraced, ops, ("rankdist",)),
        "states_per_s": _rate(untraced, ops, ("small",)),
        "amplitudes_per_s": _rate(untraced, ops, ("state",)),
        "parallel_efficiency": _parallel_efficiency(untraced, ops),
        "failed_ratio": tally.failed_ratio,
    }


def summarize(op_list, runs, trace: bool, peak_rss_kb: int):
    """Check every output of the measuring processes and compute the metrics.

    ``runs`` holds one result per process, None for a process that failed;
    a failed process counts one failed pass.  Returns (result, notes).
    """
    ops = {op.key: op for op in op_list}
    tally = Tally()
    done = [r for r in runs if r is not None]
    for r in done:
        for p in (r["cold"], *r["passes"]):
            for (key, _), output in zip(p["ops"], p["outputs"]):
                tally.add(ops[key], output)
    for _ in range(len(runs) - len(done)):
        for op in op_list:
            tally.add(op, None)
    notes = {
        "processes": len(runs),
        "failed_processes": len(runs) - len(done),
        "setup_s": [r["setup_s"] for r in done],
        "pass_s": [[p["seconds"] for p in r["passes"] if not p["traced"]] for r in done],
    }
    metrics = {}
    if done and trace:
        notes["traced_pass_s"] = [[p["seconds"] for p in r["passes"] if p["traced"]] for r in done]
        notes["untraced_layers"] = sorted({m for r in done for m in r["trace"]["missing"]})
        metrics = layer_metrics(ops, done, tally)
    elif done:
        pass_s = [s for per in notes["pass_s"] for s in per]
        tail_s, pct = tail(pass_s)
        notes["wall_tail_percentile"] = pct
        notes["passes"] = len(pass_s)
        metrics = {
            "setup_s": statistics.median(notes["setup_s"]),
            "wall_s": statistics.median(pass_s),
            "wall_tail_s": tail_s,
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
    result = {
        "correct": tally.failed == 0 and len(done) == len(runs),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperent" / "__init__.py").is_file():
        print(f"error: no hyperent sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / WORKDIR / str(os.getpid())
    trace = bool(args.trace)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runs = [
            run_process(args.workload, args.seed, args.seconds / PROCESSES, trace, workdir)
            for _ in range(PROCESSES)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORKDIR).rmdir()
        except OSError:
            pass
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result, notes = summarize(ops, runs, trace, peak_rss_kb)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
