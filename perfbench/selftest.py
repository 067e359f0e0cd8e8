"""Self-test of the benchmark's output checks: corrupted results must count as failed.

    python3 perfbench/selftest.py

Runs one real pass of each workload and checks that its outputs pass;
then corrupts one output of each kind (a purity numerator off by one, a
Monte Carlo mean 6 standard errors off its closed form, an exhaustive variance, a
rank-law count, a crashed op) and checks that each is counted as one
failure.  Last, it runs a traced ``state`` measurement in-process with
hyperent returning the numerator off by one for the balanced state only,
and checks that exactly those ops land in ``failed_ratio``.  Exits 0 when
every case holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys

import workloads
from checks import Tally, cz_mean, cz_variance
from runner import ROOT, SRC, Runner

WORKDIR = ROOT / ".perfbench_work" / "selftest"


def _first(results, kind):
    return next((op, out) for op, _, out in results if op.kind == kind)


def _bump_numerator(record: dict) -> dict:
    return {**record, "purity_numerator": record["purity_numerator"] + 1}


def _edit_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _shift_mean(rows):
    n_a = int(rows[0]["n_a"])
    n_b = int(rows[0]["n"]) - n_a
    std_err = math.sqrt(cz_variance(n_a, n_b) / int(rows[0]["samples"]))
    rows[0]["mean"] = repr(float(cz_mean(n_a, n_b)) + 6 * std_err)


def _move_rank_counts(rows):
    by_s = {r["s"]: r for r in rows}
    moved = int(by_s["0"]["count"]) // 10
    by_s["0"]["count"] = str(int(by_s["0"]["count"]) - moved)
    by_s["1"]["count"] = str(int(by_s["1"]["count"]) + moved)


def _wrong_variance(rows):
    rows[0]["variance"] = "10/256"


def corruptions(passes: dict) -> list:
    """(name, op, corrupted output) cases, one failure each."""
    state_op, state_out = _first(passes["state"], "state")
    small_op, small_out = _first(passes["state"], "small")
    mc_op, mc_out = _first(passes["rank"], "mc")
    law_op, law_out = _first(passes["rank"], "rankdist")
    half_op, half_out = next(
        (op, out) for op, _, out in passes["ccz"] if op.key == "ccz-half-exhaustive-1-2"
    )
    return [
        ("state numerator + 1", state_op, json.dumps(_bump_numerator(json.loads(state_out)))),
        ("small-state numerator + 1", small_op, [_bump_numerator(small_out[0]), *small_out[1:]]),
        ("MC mean at closed form + 6 standard errors", mc_op, _edit_csv(mc_out, _shift_mean)),
        ("rank law: 10% of f(0) moved to f(1)", law_op, _edit_csv(law_out, _move_rank_counts)),
        ("ccz-half (1,2) variance 10/256", half_op, _edit_csv(half_out, _wrong_variance)),
        ("crashed op", state_op, None),
    ]


def end_to_end_numerator_case() -> list[str]:
    """A traced state measurement with one input's numerator off by one inside hyperent."""
    import hyperent.cli
    import hyperent.reports
    from run import summarize
    from runner import measure

    original = hyperent.reports.state_record

    def off_by_one(h, part):
        record = original(h, part)
        return _bump_numerator(record) if part.n_qubits == 22 and part.n_a == 11 else record

    ops = workloads.build("state", 1, WORKDIR)
    hyperent.reports.state_record = hyperent.cli.state_record = off_by_one
    try:
        run = measure(ops, 0.0, 1, True)
    finally:
        hyperent.reports.state_record = hyperent.cli.state_record = original
    result, _ = summarize(ops, [run], True, 0)
    passes = 1 + len(run["passes"])  # the cold pass and the measured ones
    ratio = result["metrics"]["failed_ratio"]["value"]
    errors = []
    if result["correct"] or result["failed"] != passes:
        errors.append(f"end to end: {result['failed']} failed, expected {passes}")
    if not math.isclose(ratio, passes / result["attempted"]):
        errors.append(f"end to end: failed_ratio {ratio} != {passes}/{result['attempted']}")
    return errors


def main() -> int:
    sys.path.insert(0, str(SRC))
    errors = []
    passes = {}
    for name in workloads.WORKLOADS:
        _, passes[name] = Runner(workloads.build(name, 1, WORKDIR)).run_pass()
        tally = Tally()
        for op, _, output in passes[name]:
            tally.add(op, output)
        if tally.failed:
            errors.append(f"{name}: {tally.failed} of {tally.attempted} real outputs failed")
    for name, op, output in corruptions(passes):
        tally = Tally()
        tally.add(op, output)
        expected = 1 / tally.attempted
        if tally.failed != 1 or tally.failed_ratio != expected:
            errors.append(f"{name}: failed_ratio {tally.failed_ratio}, expected {expected}")
    errors += end_to_end_numerator_case()
    for line in errors:
        print("FAIL", line)
    print("selftest:", "FAILED" if errors else "all corrupted results counted as failed")
    return 1 if errors else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:
            pass
