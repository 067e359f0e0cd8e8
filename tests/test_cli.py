"""CLI behavior: exit codes, formats, determinism, fault injection."""

import argparse
import functools
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hyperent import cli, ensembles, gf2, verify

BELL = "n 2\n0 1\n"
CCZ3 = "n 3\n0 1 2\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_bell(tmp_path, capsys):
    f = tmp_path / "bell.graph"
    f.write_text(BELL)
    code, out, _ = run_cli(capsys, "state", "--graph-file", str(f), "--na", "1")
    assert code == 0
    assert "purity = 1/2^1 = 0.5" in out
    assert "renyi2 = 1.0" in out


def test_state_empty_graph(tmp_path, capsys):
    f = tmp_path / "empty.graph"
    f.write_text("n 3\n")
    code, out, _ = run_cli(capsys, "state", "--graph-file", str(f), "--na", "1")
    assert code == 0
    assert "purity = 1/2^0 = 1.0" in out
    assert "renyi2 = 0.0" in out or "renyi2 = -0.0" in out


def test_state_ccz_json(tmp_path, capsys):
    f = tmp_path / "ccz.graph"
    f.write_text(CCZ3)
    code, out, _ = run_cli(capsys, "state", "--graph-file", str(f), "--na", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["purity_numerator"] == 5 and doc["purity_exponent"] == 3
    assert doc["purity"] == 0.625
    assert set(doc) == {
        "n_qubits",
        "a_mask",
        "n_edges",
        "purity_numerator",
        "purity_exponent",
        "purity",
        "renyi2",
    }


def test_state_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("nope\n")
    code, _, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 2
    assert "parse error" in err


def test_state_domain_error_exit_3(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("n 2\n0 7\n")
    code, _, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 3
    assert "domain error" in err


def _forbid_bipartitions(monkeypatch):
    class Unreachable:
        def __init__(self, *args):
            raise AssertionError("bipartition built past a size limit")

        from_first = __init__

    monkeypatch.setattr(cli, "Bipartition", Unreachable)


def test_state_above_cap_exit_3(tmp_path, capsys):
    f = tmp_path / "big.graph"
    f.write_text("n 32\n0 6\n1 7 8\n")
    code, out, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 3 and out == ""
    assert "exceeds the qubit cap (31)" in err and "int64" in err


def test_state_header_past_cap_exit_3(tmp_path, capsys, monkeypatch):
    # refused from the header, before a 2^n bipartition mask is built
    _forbid_bipartitions(monkeypatch)
    f = tmp_path / "big.graph"
    f.write_text("n 32\n")
    code, out, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 3 and out == ""
    assert "exceeds the qubit cap (31): numerators must fit int64" in err


def test_state_past_old_cap_computes(tmp_path, capsys):
    # N = 28 is inside the int64 limit: the 3-qubit CCZ state with 25 idle
    # qubits has the 3-qubit state's purity
    outs = []
    for n in (3, 28):
        f = tmp_path / f"ccz{n}.graph"
        f.write_text(f"n {n}\n0 1 2\n")
        code, out, _ = run_cli(capsys, "state", "--graph-file", str(f), "--na", "1")
        assert code == 0
        outs.append(out)
    assert outs[1] == outs[0] and outs[0].startswith("purity = 5/2^3 = 0.625\n")


def _limit_address_space():
    limit = 3 << 29  # 1.5 GiB: a regression dies with MemoryError, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("n_a", ["99999999999", "-1", "0"])
@pytest.mark.parametrize("command", ["state", "moments"])
def test_na_out_of_range_exit_3(tmp_path, command, n_a):
    # checked before the n_a-bit mask is built, in a capped subprocess
    f = tmp_path / "bell.graph"
    f.write_text(BELL)
    if command == "state":
        argv, n = ["state", "--graph-file", str(f)], 2
    else:
        argv, n = ["moments", "--family", "cz", "--n", "8", "--samples", "2"], 8
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "hyperent.cli", *argv, "--na", n_a],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"domain error: n_a={n_a} out of range [1, {n - 1}] for {n} qubits\n"


def test_state_non_utf8_file_exit_2(tmp_path, capsys):
    f = tmp_path / "latin1.graph"
    f.write_bytes(b"n 2\n0 1 # \xe9\n")
    code, out, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {f}: ")


def test_state_na_and_a_mask_exclusive_exit_2(tmp_path, capsys):
    # one flag must not silently win over the other
    f = tmp_path / "path.graph"
    f.write_text("n 4\n0 1\n2 3\n0 2\n")
    assert run_cli(capsys, "state", "--graph-file", str(f), "--na", "1")[:2] == (
        0,
        "purity = 1/2^1 = 0.5\nrenyi2 = 1.0\n",
    )
    assert run_cli(capsys, "state", "--graph-file", str(f), "--a-mask", "0x5")[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["state", "--graph-file", str(f), "--na", "1", "--a-mask", "0x5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # every example in the README's CLI block must name flags the parser knows
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    examples = [argv[1:] for argv in examples if argv[:1] == ["hyperent"]]
    assert len(examples) >= 5
    parser = cli._build_parser()
    for argv in examples:
        assert parser.parse_args(argv).command == argv[0]


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    # three calls build at most one argparse tree, and a parse leaves it
    # as it was: the third call gets the default format back
    f = tmp_path / "bell.graph"
    f.write_text(BELL)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "hyperent":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["state", "--graph-file", str(f), "--na", "1"]
    runs = [run_cli(capsys, *argv, *extra) for extra in ([], ["--format", "json"], [])]
    assert len(built) <= 1
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0] == runs[2] and json.loads(runs[1][1])["purity_exponent"] == 1


def test_state_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "state", "--graph-file", "/nonexistent.graph")
    assert code == 2


def test_moments_exhaustive_row(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--family", "cz", "--n", "8", "--na", "4", "--exhaustive"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,n_a,family,scope,p,samples,mean,")
    cells = lines[1].split(",")
    row = dict(zip(lines[0].split(","), cells))
    assert row["mean"] == "31/256"
    assert row["variance"] == "225/65536"
    assert row["closed_form_mean"] == "31/256"
    assert row["z_score"] == "0.0"


def test_moments_requires_mode(capsys):
    code, _, err = run_cli(capsys, "moments", "--family", "cz", "--n", "4")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "moments", "--family", "cz", "--n", "4", "--samples", "10", "--exhaustive"
    )
    assert code == 2


def test_moments_sweep_ascending(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments",
        "--family",
        "cz",
        "--n",
        "6,4",
        "--samples",
        "50",
        "--seed",
        "1",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["4", "6"]


def test_moments_json_deterministic(capsys):
    argv = [
        "moments",
        "--family",
        "ccz",
        "--n",
        "8",
        "--samples",
        "300",
        "--seed",
        "5",
        "--format",
        "json",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "moments"
    assert set(doc["rows"][0]) == {
        "n",
        "n_a",
        "family",
        "scope",
        "p",
        "samples",
        "mean",
        "variance",
        "std_err_mean",
        "closed_form_mean",
        "closed_form_variance",
        "z_score",
    }


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "moments --family ccz --n 10,12,14 --samples 600 --seed 5 --workers 1",
            "196476f6120cea1871a6cbec4999eefbd6a1e6baba8c5560da3e387a388839dc",
        ),
        (
            "moments --family ccz --n 10,12,14 --samples 600 --seed 5 --workers 2",
            "8a01b14bce561b1819e98d38820308c25e1550e5f7ae2f08666c4c9920d72b7a",
        ),
        (
            "moments --family ccz-half --n 9,11 --samples 500 --seed 3",
            "c88a4362d3291a481244ec2e80067673c1e3ee66153060f00ef6a8df4daf44fb",
        ),
        (
            "moments --family k-uniform --k 3 --n 12 --na 3 --samples 400 --seed 8 --p 3/10",
            "98dd89d2a2c12cdfe6d9c704393042a59b2cb2f45b5d87f7bec1a928daeafbf5",
        ),
    ],
)
def test_moments_gauss_route_bytes_pinned(capsys, argv, digest):
    # Monte Carlo rows of the 3-edge families, pinned as the Gram route
    # printed them: the Gauss-sum numerators are the same integers
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_moments_domain_error_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "moments", "--family", "ccz-half", "--n", "4", "--na", "3", "--exhaustive"
    )
    assert code == 3
    assert "domain error" in err


def test_moments_sample_over_memory_budget_exit_3(capsys, monkeypatch):
    # one N=40 sample of 4-edges needs 128 GiB of sign rows, and CCZ at
    # N=40 is past the Gauss route's qubit cap; both checks must come
    # before anything is built, so the edge factoring must never be reached
    def unreachable(*args):
        raise AssertionError("cut factors built past the memory budget")

    monkeypatch.setattr(ensembles, "_cross_parts", unreachable)
    code, out, err = run_cli(capsys, "moments", "--family", "k-uniform", "--k", "4", "--n", "40",
                             "--samples", "2")
    assert code == 3 and out == ""
    assert "domain error" in err and "byte budget" in err
    code, out, err = run_cli(capsys, "moments", "--family", "ccz", "--n", "40", "--samples", "2")
    assert code == 3 and out == ""
    assert err == "domain error: n=40 exceeds the qubit cap (31): numerators must fit int64\n"


def test_moments_sample_rows_within_budget(capsys):
    # N=26, N_A=2: one sample's rows are 4 x 2^18 words (8 MiB); the 576
    # cross edges once counted toward the budget and made this exit 3
    from hyperent.ensembles import EnsembleSpec, Family, sample_hypergraph
    from hyperent.hypergraph import Bipartition
    from hyperent.purity import state_purity
    from hyperent.rng import CounterRng, child_seed

    code, out, err = run_cli(capsys, "moments", "--family", "ccz", "--n", "26", "--na", "2",
                             "--samples", "2")
    assert (code, err) == (0, "")
    row = dict(zip(*[line.split(",") for line in out.splitlines()]))
    assert (row["n"], row["n_a"], row["samples"]) == ("26", "2", "2")
    spec, part = EnsembleSpec(26, Family.CCZ), Bipartition.from_first(26, 2)
    rng = CounterRng(child_seed(0, 0))
    want = sum(float(state_purity(sample_hypergraph(spec, part, rng), part)) for _ in range(2))
    assert float(row["mean"]) == want / 2


def _broken_share(failing, args):
    """A stand-in sampling share that raises at every share, or at every share after the first."""
    from hyperent.rng import child_seed

    if failing == "every" or args[-1] != child_seed(9, 0):
        raise ValueError("injected share failure")
    return (args[-2], 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("failing", ["every", "last"])
def test_moments_worker_failure_same_at_any_worker_count(capsys, monkeypatch, failing):
    # a share that raises, in the caller or in a forked child, reaches the
    # CLI as the same domain error, with nothing on stdout; the stand-in
    # travels to the child by pickle, so it is a partial of a module function
    monkeypatch.setattr(ensembles, "_stream_worker", functools.partial(_broken_share, failing))
    argv = ["moments", "--family", "cz", "--n", "8", "--samples", "100", "--seed", "9"]
    runs = {w: run_cli(capsys, *argv, "--workers", str(w)) for w in (1, 2)}
    if failing == "every":
        assert runs[1] == runs[2]
    assert runs[2] == (3, "", "domain error: injected share failure\n")


def test_cli_import_loads_no_multiprocessing():
    # only a worker split forks, so a process that never forks does not
    # load multiprocessing; checked in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, hyperent.cli; print([m for m in sys.modules if 'multiprocessing' in m])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_one_core_split_loads_no_multiprocessing():
    # with one usable core a worker split forks nothing, so it does not
    # load multiprocessing either; checked in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from hyperent import cli, ensembles\n"
        "ensembles._usable_cores = lambda: 1\n"
        "code = cli.main(['moments', '--family', 'cz', '--n', '8', '--samples', '100',"
        " '--workers', '2'])\n"
        "print(code, [m for m in sys.modules if 'multiprocessing' in m], file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "0 []\n")
    assert done.stdout.startswith("n,n_a,")


def test_rankdist_bytes_independent_of_core_count(capsys, monkeypatch):
    # 7 shares on 1, 2 or 4 cores: the same shares in any process give the same bytes
    argv = ["rankdist", "--n", "8", "--samples", "400", "--seed", "3", "--workers", "7"]
    runs = []
    for n_cores in (1, 2, 4):
        monkeypatch.setattr(ensembles, "_usable_cores", lambda: n_cores)
        runs.append(run_cli(capsys, *argv))
    assert runs[0][0] == 0 and runs[0][1].startswith("s,count,")
    assert runs == [runs[0]] * 3


def test_moments_workers_piped_rows_printed_once(capsys):
    # with stdout a pipe, block-buffered, no forked worker may flush the
    # caller's pending output: each row appears once, as in process
    argv = ["moments", "--family", "cz", "--n", "16,32,12", "--samples", "3000", "--seed", "4",
            "--workers", "2"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "hyperent.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    lines = done.stdout.decode().splitlines()
    assert [line.split(",")[0] for line in lines] == ["n", "12", "16", "32"]
    assert done.stdout.decode() == run_cli(capsys, *argv)[1]


def test_moments_exhaustive_past_int64_exit_3(capsys, monkeypatch):
    # at N=32 a numerator can reach 2^64; refused before the edges are factored
    def unreachable(*args):
        raise AssertionError("edges factored past the int64 guard")

    monkeypatch.setattr(ensembles, "_side_index", unreachable)
    argv = ["moments", "--family", "k-uniform", "--k", "32", "--n", "32", "--exhaustive"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "domain error" in err and "int64" in err


def test_moments_exhaustive_past_byte_budget_exit_3(capsys, monkeypatch):
    # 45 edges: the two 2^45 transform arrays are refused before anything is built
    def unreachable(*args):
        raise AssertionError("edges factored past the byte budget")

    monkeypatch.setattr(ensembles, "_side_index", unreachable)
    argv = ["moments", "--family", "cz", "--n", "10", "--scope", "all", "--exhaustive"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "domain error" in err and "byte budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "cz", "--n", "99999999999", "--samples", "2"],
        ["--family", "cz", "--n", "99999999999", "--exhaustive"],
        ["--family", "cz", "--n", "3000", "--samples", "2"],
        ["--family", "k-uniform", "--k", "1000000", "--n", "2000000", "--samples", "2"],
        ["--family", "k-uniform", "--k", "99999999999", "--n", "99999999999", "--samples", "2"],
    ],
)
def test_moments_universe_past_sampling_piece_exit_3(capsys, monkeypatch, argv):
    # refused from the sizes alone, before a 2^n bipartition mask or an edge list is built
    _forbid_bipartitions(monkeypatch)
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 3 and out == ""
    assert "domain error" in err and "does not fit one sampling piece of 2097152 draws" in err


@pytest.mark.parametrize("p", ["1/0", "0.3.1", "x"])
def test_moments_bad_probability_exit_2(capsys, p):
    # a usage error, not a traceback with the verification-failure code
    with pytest.raises(SystemExit) as exc:
        cli.main(["moments", "--family", "cz", "--n", "4", "--exhaustive", "--p", p])
    assert exc.value.code == 2
    assert f"argument --p: invalid fraction value: {p!r}" in capsys.readouterr().err


def test_moments_json_strict_when_z_is_infinite(capsys):
    # every block has full rank, so the std error is 0 and z is infinite
    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")

    argv = ["moments", "--family", "cz", "--n", "150", "--na", "70", "--samples", "200", "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    (row,) = json.loads(out, parse_constant=strict)["rows"]
    assert row["std_err_mean"] == 0.0 and row["z_score"] is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[1].endswith(",inf")


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "0", "--samples", "10"],
        ["--n", "8", "--samples", "1"],
        ["--n", "0", "--samples", "10", "--format", "json"],
    ],
)
def test_moments_failing_sweep_writes_nothing(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, "moments", "--family", "cz", *argv)
    assert code == 3 and out == "" and "domain error" in err
    target = tmp_path / "m.out"
    code, out, _ = run_cli(capsys, "moments", "--family", "cz", *argv, "--out", str(target))
    assert code == 3 and out == ""
    assert not target.exists()


def test_moments_empty_and_partial_sweeps(tmp_path, capsys):
    header = "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,"
    code, out, _ = run_cli(capsys, "moments", "--family", "cz", "--n", "", "--samples", "10")
    assert code == 0 and out.startswith(header) and out.count("\n") == 1
    target = tmp_path / "m.json"
    argv = ["moments", "--family", "cz", "--n", "", "--samples", "10", "--format", "json"]
    code, _, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and json.loads(target.read_text()) == {"kind": "moments", "rows": []}
    # rows still stream: the N=6 row is out before N=40 fails the subset cap
    code, out, _ = run_cli(capsys, "moments", "--family", "cz", "--n", "6,40", "--exhaustive")
    assert code == 3
    assert [line.split(",")[0] for line in out.splitlines()] == ["n", "6"]


def test_rankdist_guards(capsys):
    code, _, _ = run_cli(capsys, "rankdist", "--n", "8", "--samples", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "rankdist", "--n", "2000", "--samples", "10")
    assert code == 2
    for n in ["0", "-3"]:
        code, _, err = run_cli(capsys, "rankdist", "--n", n, "--samples", "10")
        assert code == 2 and "--n must be >= 1" in err


def test_rankdist_csv(capsys):
    code, out, _ = run_cli(capsys, "rankdist", "--n", "1", "--samples", "2000", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,count,frequency,closed_form_Qs,std_error"
    # a 1x1 matrix is zero half of the time
    by_s = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    freq1 = float(by_s["1"][2])
    assert abs(freq1 - 0.5) < 0.06


def test_formula_subcommand(capsys):
    code, out, _ = run_cli(capsys, "formula", "haar_avg_purity", "n_a=1", "n_b=1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "label": "haar_avg_purity",
        "inputs": {"n_a": 1, "n_b": 1},
        "value": "4/5",
        "validity": "exact",
    }
    code, _, _ = run_cli(capsys, "formula", "no_such_formula")
    assert code == 3
    code, _, _ = run_cli(capsys, "formula", "haar_avg_purity", "oops")
    assert code == 2


def test_formula_missing_input_names_it(capsys):
    code, out, err = run_cli(capsys, "formula", "cz_purity_variance", "n_a=2")
    assert (code, out) == (3, "")
    assert err == (
        "domain error: formula cz_purity_variance takes inputs n_a, n_b; "
        "missing a required argument: 'n_b'\n"
    )


def test_formula_text_input_names_it(capsys):
    code, out, err = run_cli(capsys, "formula", "cz_purity_variance", "n_a=2", "n_b=x")
    assert (code, out) == (3, "")
    assert err == (
        "domain error: formula cz_purity_variance takes inputs n_a, n_b; n_b='x' is not a number\n"
    )
    # a text input where the formula takes text still evaluates
    code, out, _ = run_cli(capsys, "formula", "entropy_variance_bound", "n=8", "family=cz")
    assert code == 0 and json.loads(out)["inputs"] == {"n": 8, "family": "cz"}


def test_formula_fractional_count_names_it(capsys):
    code, out, err = run_cli(capsys, "formula", "haar_avg_purity", "n_a=2.5", "n_b=3")
    assert (code, out) == (3, "")
    assert err == (
        "domain error: formula haar_avg_purity takes inputs n_a, n_b; n_a=2.5 is not an integer\n"
    )


def test_formula_unknown_source_lists_the_valid_ones(capsys):
    code, out, err = run_cli(capsys, "formula", "ccz_half_purity_variance", "n_a=2", "n_b=3",
                             "source=asymptotic")
    assert (code, out) == (3, "")
    assert err == "domain error: source='asymptotic' is not one of exact, closed_form\n"


def test_verify_quick_subset(capsys, monkeypatch):
    # trim the quick suite to its fastest members to keep this test snappy
    monkeypatch.setattr(verify, "QUICK_IDS", {"1", "2", "4"})
    code, out, err = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["criterion"] for c in doc["criteria"]] == ["1", "2", "4"]
    assert "PASS" in err


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_verify_workers_below_one_exit_2(capsys, monkeypatch, suite):
    # refused up front, as rankdist --n 0 is: no criterion runs or reports
    monkeypatch.setattr(verify, "QUICK_IDS", {"1", "2", "4"})
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--workers", "0", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--workers" in err
    assert "PASS" not in err and "FAIL" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--family", "cz", "--n", "8", "--samples", "50", "--workers", "0"],
        ["moments", "--family", "cz", "--n", "6", "--exhaustive", "--workers", "-1"],
        ["rankdist", "--n", "8", "--samples", "50", "--workers", "0"],
        ["rankdist", "--n", "8", "--samples", "50", "--workers", "-2", "--format", "json"],
    ],
)
def test_sampling_workers_below_one_exit_2(capsys, monkeypatch, tmp_path, argv):
    # a usage error, as for verify: refused before anything is computed or written
    def boom(*args, **kwargs):
        raise AssertionError("computed before --workers was checked")

    monkeypatch.setattr(cli, "compute_moments_row", boom)
    monkeypatch.setattr(cli, "rankdist_rows", boom)
    out_file = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err == "error: --workers must be >= 1\n"


def test_verify_criterion_6_checks_state_purity(capsys, monkeypatch):
    # criterion 6 must check the single-state route the CLI runs
    monkeypatch.setattr(verify, "state_purity", lambda h, part: Fraction(3, 4))
    monkeypatch.setattr(verify, "QUICK_IDS", {"1", "6"})
    code, out, _ = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 1
    by_id = {c["criterion"]: c for c in json.loads(out)["criteria"]}
    assert by_id["6"]["passed"] is False
    assert by_id["6"]["observed"] == "500 mismatches out of 500"
    assert by_id["1"]["passed"] is True


def test_verify_json_with_numpy_verdict(capsys, monkeypatch):
    # criterion 10 computes its verdict from numpy scalars; the JSON
    # document must still serialize
    monkeypatch.setattr(verify, "QUICK_IDS", {"10"})
    code, out, _ = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [(c["criterion"], c["passed"]) for c in doc["criteria"]] == [("10", True)]


@pytest.mark.parametrize(
    "criterion, closed_form",
    [
        (verify.criterion_02_cz_exact_variance, "cz_purity_variance"),
        (verify.criterion_03_ccz_exact_mean, "ccz_avg_purity"),
    ],
)
def test_criterion_checks_pinned_value_against_closed_form(monkeypatch, criterion, closed_form):
    # the pinned rational must equal its closed form as part of the verdict
    monkeypatch.setattr(verify.formulas, closed_form, lambda n_a, n_b: Fraction(1, 3))
    result = criterion()
    assert result.passed is False
    assert result.notes == "closed form gives 1/3"


def test_verify_fault_injection_names_criterion(capsys, monkeypatch):
    # corrupt the rank routine: the rank/purity criterion must fail and
    # the report must say which one
    real = gf2.batch_rank

    def corrupted(words, cols):
        return np.minimum(real(words, cols) + 1, min(words.shape[1], cols))

    monkeypatch.setattr(gf2, "batch_rank", corrupted)
    monkeypatch.setattr(verify, "QUICK_IDS", {"4", "6"})
    code, out, _ = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    by_id = {c["criterion"]: c for c in doc["criteria"]}
    assert by_id["6"]["passed"] is False
    assert by_id["6"]["name"] == "rank-purity-equivalence"
    assert by_id["4"]["passed"] is True  # the counting route ranks nothing


def test_out_files_match_stdout(tmp_path, capsys):
    argv = ["moments", "--family", "cz", "--n", "6", "--exhaustive"]
    _, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_verify_survives_crashing_criterion(capsys, monkeypatch):
    def boom(words, cols):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(gf2, "batch_rank", boom)
    monkeypatch.setattr(verify, "QUICK_IDS", {"6"})
    code, out, _ = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["criteria"][0]["passed"] is False
    assert "synthetic failure" in doc["criteria"][0]["observed"]


def test_verify_budget_fields_strict_json(capsys, monkeypatch):
    # a crashed criterion keeps the infinite default budget, which must
    # not reach the JSON document; going over budget never fails a run
    def boom(workers):
        raise RuntimeError("synthetic failure")

    def slow(workers):
        return verify.CriterionResult(
            "2", "slow", True, "-", "-", "-", seconds=2.0, budget_seconds=1.0
        )

    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(verify, "ALL_CRITERIA", [("1", boom), ("2", slow)])
    monkeypatch.setattr(verify, "QUICK_IDS", {"1", "2"})
    code, out, err = run_cli(capsys, "verify", "--suite", "quick", "--format", "json")
    assert code == 1
    crashed, over = json.loads(out, parse_constant=strict)["criteria"]
    assert crashed["passed"] is False and crashed["budget_seconds"] is None
    assert crashed["over_budget"] is False
    assert over["passed"] is True and over["over_budget"] is True
    assert over["budget_seconds"] == 1.0
    assert "PASS  2 slow (2.00s, over budget)" in err


def test_moments_sampled_z_within_band(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments",
        "--family",
        "ccz",
        "--n",
        "10",
        "--samples",
        "2000",
        "--seed",
        "5",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    z = float(dict(zip(header.split(","), row.split(",")))["z_score"])
    assert abs(z) <= 5


def test_verify_text_format_writes_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "QUICK_IDS", {"2"})
    target = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "quick", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["passed"] is True and doc["suite"] == "quick"
    assert {"criterion", "expected", "observed", "tolerance"} <= set(doc["criteria"][0])


@pytest.mark.parametrize("target", ["dir", "missing parent"])
@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--na", "1"],
        ["moments", "--family", "cz", "--n", "4", "--exhaustive"],
        ["rankdist", "--n", "4", "--samples", "10"],
        ["verify", "--suite", "quick", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exit_2(tmp_path, capsys, monkeypatch, argv, target):
    # a usage error like an unreadable --graph-file, not a traceback with
    # the verification-failure code; refused before any sampling or criterion
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before --out was opened")

    monkeypatch.setattr(verify, "run_suite", unreachable)
    monkeypatch.setattr(cli, "rankdist_rows", unreachable)
    if argv[0] == "state":
        graph = tmp_path / "bell.graph"
        graph.write_text(BELL)
        argv = [*argv, "--graph-file", str(graph)]
    out_path = tmp_path if target == "dir" else tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"error: cannot write {out_path}: ")
