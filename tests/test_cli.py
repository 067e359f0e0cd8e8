"""CLI behavior: exit codes, formats, determinism, fault injection."""

import argparse
import functools
import hashlib
import itertools
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

from hyperent import cli, ensembles, gf2, hypergraph, purity, verify

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


def test_state_header_with_extra_token_exit_2(tmp_path, capsys):
    # 'n 3 7' was read as n = 3; the header is exactly 'n <N>'
    f = tmp_path / "bad.graph"
    f.write_text("n 3 7\n0 1\n")
    code, out, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 2 and out == ""
    assert "parse error" in err and "bad header line 'n 3 7'" in err


def test_state_domain_error_exit_3(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("n 2\n0 7\n")
    code, _, err = run_cli(capsys, "state", "--graph-file", str(f))
    assert code == 3
    assert "domain error" in err


# (graph file, exit code, stderr): every rejection of a graph file.  A
# blank or whitespace-only line is skipped, so a file has no empty edge.
GRAPH_FILE_REJECTIONS = [
    ("", 2, "parse error: first line must be 'n <N>'"),
    ("# only a comment\n", 2, "parse error: first line must be 'n <N>'"),
    ("m 3\n0 1\n", 2, "parse error: first line must be 'n <N>'"),
    ("n\t3\n", 2, "parse error: first line must be 'n <N>'"),
    ("n x\n", 2, "parse error: bad header line 'n x'"),
    ("n 3 7\n0 1\n", 2, "parse error: bad header line 'n 3 7'"),
    ("n 3\n0 one\n", 2, "parse error: bad edge line '0 one'"),
    ("n 3\n0 1 # note\n", 2, "parse error: bad edge line '0 1 # note'"),
    ("n 2\n0 5\n0 x\n", 2, "parse error: bad edge line '0 x'"),
    ("n 2\n1 1\n", 3, "domain error: repeated vertex in edge (1, 1)"),
    ("n 2\n0 5\n", 3, "domain error: vertex out of range [0, 2) in edge (0, 5)"),
    ("n 2\n-1 0\n", 3, "domain error: vertex out of range [0, 2) in edge (-1, 0)"),
    ("n 2\n5 5\n", 3, "domain error: repeated vertex in edge (5, 5)"),
    ("n 2\n0 5\n0 5\n", 3, "domain error: vertex out of range [0, 2) in edge (0, 5)"),
    ("n 0\n", 3, "domain error: n_qubits must be >= 1"),
    ("n -2\n", 3, "domain error: n_qubits must be >= 1"),
    ("n 0\n0\n", 3, "domain error: vertex out of range [0, 0) in edge (0,)"),
]


@pytest.mark.parametrize("text, code, err", GRAPH_FILE_REJECTIONS)
def test_state_graph_file_rejections(tmp_path, capsys, text, code, err):
    f = tmp_path / "bad.graph"
    f.write_text(text)
    assert run_cli(capsys, "state", "--graph-file", str(f)) == (code, "", err + "\n")


def test_state_skips_blank_and_comment_lines(tmp_path, capsys):
    f = tmp_path / "bell.graph"
    f.write_text("  # a comment\n n 2 \n\n   \n# 0 0\n 1   0 \n")
    code, out, _ = run_cli(capsys, "state", "--graph-file", str(f), "--na", "1")
    assert (code, out) == (0, "purity = 1/2^1 = 0.5\nrenyi2 = 1.0\n")


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


def test_state_checks_the_cap_before_any_edge_mask(tmp_path, capsys, monkeypatch):
    # an edge on vertex 10^10 - 1 would be a 1.25 GB mask: the header's N
    # is refused first, and no edge is checked or masked
    def unreachable(*args, **kwargs):
        raise AssertionError("edge masked past the qubit cap")

    monkeypatch.setattr(hypergraph, "edge_pass", unreachable)
    f = tmp_path / "huge.graph"
    cap = "exceeds the qubit cap (31): numerators must fit int64\n"
    for text, code, err in [
        ("n 10000000000\n9999999999 0\n", 3, f"domain error: n=10000000000 {cap}"),
        ("n 40\n0 50\n", 3, f"domain error: n=40 {cap}"),  # past the cap and out of range
        ("n 10000000000\n0 x\n", 2, "parse error: bad edge line '0 x'\n"),  # syntax first
    ]:
        f.write_text(text)
        assert run_cli(capsys, "state", "--graph-file", str(f)) == (code, "", err)


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


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every example in the README's CLI block runs in a fresh directory,
    # after the files its heredocs write, and exits 0; each "#   " comment
    # under an example is a line it prints
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines = iter(block.splitlines())
    ran, printed = [], []
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["cat"]:  # cat > FILE <<EOF, then the file's lines up to EOF
            assert argv[1] == ">" and argv[3] == "<<EOF"
            body = itertools.takewhile(lambda ln: ln != "EOF", lines)
            (tmp_path / argv[2]).write_text("".join(ln + "\n" for ln in body))
        elif argv[:1] == ["hyperent"]:
            code, out, _ = run_cli(capsys, *argv[1:])
            assert code == 0, line
            ran.append(argv[1])
            printed = out.splitlines()
        elif line.startswith("#   "):
            assert line[4:] in printed, line
    assert len(ran) >= 5 and {"state", "moments", "rankdist", "formula", "verify"} <= set(ran)


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


def _repinned(argv, digest, was):
    """A param of (argv, digest) whose id keeps was, the digest of the rows the float sums printed.

    The means are unchanged; the variance, std error and z-score cells
    moved in their last digits once the sums became exact.
    """
    return pytest.param(argv, digest, id=f"{argv}-{was}")


@pytest.mark.parametrize(
    "argv, digest",
    [
        _repinned(
            "moments --family ccz --n 10,12,14 --samples 600 --seed 5 --workers 1",
            "eb9019c0a15f0018a03f867e1d3a201f03ca11d63322d69c4b2a5d42204be54c",
            "c4165acae055e2ecae6db4761ca7a113cd379d5f1e87d70fa7c922448735d375",
        ),
        _repinned(
            "moments --family ccz --n 10,12,14 --samples 600 --seed 5 --workers 2",
            "eb9019c0a15f0018a03f867e1d3a201f03ca11d63322d69c4b2a5d42204be54c",
            "c4165acae055e2ecae6db4761ca7a113cd379d5f1e87d70fa7c922448735d375",
        ),
        _repinned(
            "moments --family ccz-half --n 9,11 --samples 500 --seed 3",
            "fe93ee2502cb33d283d640c79696e86392c2b2df02bab620d3f2b25359d9291d",
            "0540361a051bd9024826faed898d570fd49f8c8b933a7b155b51ff6da859a806",
        ),
        _repinned(
            "moments --family k-uniform --k 3 --n 12 --na 3 --samples 400 --seed 8 --p 3/10",
            "cf7bee3ffe8473c101f2444a9a872f86788cab0bac62a4b2d872f9bdc0e544fc",
            "6228699eb2b645e22e51a0d5c216f2c595e757ddf5c7f8281af616e1327cf1e6",
        ),
    ],
)
def test_moments_gauss_route_bytes_pinned(capsys, argv, digest):
    # Monte Carlo rows of the 3-edge families: the Gauss-sum numerators are
    # the integers the Gram route made, reduced to exact sums and rounded once
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

    monkeypatch.setattr(purity, "_edge_masks", unreachable)
    monkeypatch.setattr(purity, "_cross_parts", unreachable)
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
    from hyperent.ensembles import EnsembleSpec, Family, edge_universe
    from hyperent.hypergraph import Bipartition, Hypergraph
    from hyperent.purity import state_purity
    from hyperent.rng import bernoulli_block

    code, out, err = run_cli(capsys, "moments", "--family", "ccz", "--n", "26", "--na", "2",
                             "--samples", "2")
    assert (code, err) == (0, "")
    row = dict(zip(*[line.split(",") for line in out.splitlines()]))
    assert (row["n"], row["n_a"], row["samples"]) == ("26", "2", "2")
    spec, part = EnsembleSpec(26, Family.CCZ), Bipartition.from_first(26, 2)
    universe = edge_universe(spec, part)
    u = len(universe)
    # sample i keeps the edges of choices [i u, (i + 1) u) of the root seed
    samples = [itertools.compress(universe, bernoulli_block(0, i * u, u, spec.edge_probability))
               for i in range(2)]
    want = sum(float(state_purity(Hypergraph(26, frozenset(s)), part)) for s in samples)
    assert float(row["mean"]) == want / 2


def _broken_share(failing, args):
    """A stand-in sampling share that raises at every share, or at every share after the first."""
    if failing == "every" or args[-2] != 0:
        raise ValueError("injected share failure")
    return (args[-1], 0.0, 0.0, 0.0, 0.0)


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


@pytest.mark.parametrize(
    "argv",
    [
        "moments --family cz --n 16,32 --samples 20000 --seed 3",
        "rankdist --n 16 --samples 100000 --seed 99",
        # shares that start inside a byte, and two-word rows
        "rankdist --n 5 --samples 20000 --seed 98",
        "rankdist --n 70 --samples 601 --seed 97",
        # n_B = 5 and 17: cut-block rows that are not whole bytes
        "moments --family cz --n 10,34 --samples 20000 --seed 2",
    ],
)
def test_rank_route_bytes_independent_of_workers(capsys, monkeypatch, argv):
    # sample i reads positions fixed by i alone, and the rank route's sums
    # of 2^-r, 2^-2r and r are exact here in any order, so any worker count
    # on any core count prints the same bytes
    runs = {}
    for n_cores in (1, 2):
        monkeypatch.setattr(ensembles, "_usable_cores", lambda: n_cores)
        for workers in (1, 2, 3):
            runs[n_cores, workers] = run_cli(capsys, *argv.split(), "--workers", str(workers))
    assert runs[1, 1][0] == 0 and runs[1, 1][2] == ""
    assert set(runs.values()) == {runs[1, 1]}


@pytest.mark.parametrize(
    "argv",
    [
        "moments --family ccz --n 10,12,14 --samples 600 --seed 5",
        "moments --family k-uniform --k 4 --n 10 --samples 300",
        "moments --family cz --n 16,32 --samples 20000",
        "moments --family cz --n 16 --p 1/3 --samples 5000",
    ],
)
def test_moments_bytes_independent_of_workers(capsys, argv):
    # every route's shares return exact sums, so the rows do not depend on
    # how the samples are split, on the Gauss and Gram routes too
    runs = {w: run_cli(capsys, *argv.split(), "--workers", str(w)) for w in (1, 2, 3)}
    assert runs[1][0] == 0 and runs[1][2] == ""
    assert runs[2] == runs[3] == runs[1]


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


@pytest.mark.parametrize(
    "argv, row, json_digest",
    [
        (
            "moments --family cz --n 8 --na 4 --exhaustive",
            "8,4,cz,cross,1/2,65536,31/256,225/65536,0.0,31/256,225/65536,0.0",
            "3e84ae7be775d8c018cbef618bd1300788dcef0f961750ea29d584582793cc36",
        ),
        (
            "moments --family ccz --n 6 --na 3 --exhaustive",
            "6,3,ccz,cross,1/2,262144,69/256,349/262144,0.0,69/256,,0.0",
            "fae2543d9f965652a0008d1bfab708aefdf4877dfe8e07a4818ceebbb17e932a",
        ),
        (
            "moments --family ccz-half --n 3 --na 1 --exhaustive",
            "3,1,ccz-half,cross,1/2,2,13/16,9/256,0.0,13/16,9/256,0.0",
            "aff97b0eecad0ddbd674706786a37e9d679a2e3235cf07baf5950a2d1f617619",
        ),
        (
            "moments --family ccz-half --n 4 --na 2 --exhaustive",
            "4,2,ccz-half,cross,1/2,4,23/32,27/1024,0.0,23/32,27/1024,0.0",
            "2caeb2f445cd4e0ce250656a5e4a4f410223a311e3beaf6b1202f2b154178e35",
        ),
        (
            "moments --family ccz-half --n 4 --na 1 --exhaustive",
            "4,1,ccz-half,cross,1/2,8,21/32,19/1024,0.0,21/32,19/1024,0.0",
            "b2e7066a28cc853d228d6d6219c7cfa6657212308795404101e2e28f83a0721e",
        ),
        (
            "moments --family ccz-half --n 6 --na 3 --exhaustive",
            "6,3,ccz-half,cross,1/2,512,51/128,133/16384,0.0,51/128,133/16384,0.0",
            "aa85415e8acce941792db8bc25d495b0a4d1f854e568f315c5f75e8fbb1b975b",
        ),
        (
            "moments --family cz --n 4 --p 3/10 --exhaustive",
            "4,2,cz,cross,3/10,16,5791/10000,6400569/100000000,0.0,,,",
            "21da0ad79b69696e4b0bd9613d65de415e8b0f23a4924de563a3c3ca771c98cf",
        ),
        (
            "moments --family cz --n 6 --scope all --exhaustive",
            "6,3,cz,all,1/2,32768,15/64,49/4096,0.0,15/64,49/4096,0.0",
            "c977192b41d561e8f9fb626c54f851f49b01a3fe68602f537994c889cc933905",
        ),
        (
            "moments --family k-uniform --k 4 --n 6 --exhaustive",
            "6,3,k-uniform,cross,1/2,32768,57/128,119/32768,0.0,,,",
            "de595a89aacacb9ac0c5fe086264e47db8c87f457f87e058a7b7b534d9015380",
        ),
    ],
)
def test_moments_exhaustive_bytes_pinned(capsys, argv, row, json_digest):
    # the benchmark's six exhaustive rows and three enumerated ones (p != 1/2,
    # the full scope, 4-edges), CSV and JSON, as the enumeration printed them
    header = (
        "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,closed_form_mean,"
        "closed_form_variance,z_score\n"
    )
    assert run_cli(capsys, *argv.split()) == (0, header + row + "\n", "")
    code, out, err = run_cli(capsys, *argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest


def test_moments_counted_past_the_enumeration_cap_bytes_pinned(capsys):
    # 45 edges, which the 2^26-subset cap refused; counted at p = 1/2
    argv = ["moments", "--family", "ccz", "--n", "8", "--na", "3", "--exhaustive"]
    assert run_cli(capsys, *argv) == (
        0,
        "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,closed_form_mean,"
        "closed_form_variance,z_score\n"
        "8,3,ccz,cross,1/2,35184372088832,1293/8192,4957/67108864,0.0,1293/8192,,0.0\n",
        "",
    )
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86718653048aaedd1518722b7802971c565e732378d3aeee2a25dcba823b030d"
    )


def test_moments_counting_refused_enumerates_bytes_pinned(capsys):
    # cz 1|24 at p = 1/2: counting needs 2^25 keys, past the byte budget,
    # but the 2^24 subsets fit it, so they are enumerated, with the bytes
    # printed before counting reached these cuts (about 4 s)
    argv = ["moments", "--family", "cz", "--n", "25", "--na", "1", "--exhaustive"]
    assert run_cli(capsys, *argv) == (
        0,
        "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,closed_form_mean,"
        "closed_form_variance,z_score\n"
        "25,1,cz,cross,1/2,16777216,16777217/33554432,16777215/1125899906842624,0.0,"
        "16777217/33554432,16777215/1125899906842624,0.0\n",
        "",
    )


def test_moments_exhaustive_past_pair_limit_exit_3(capsys, monkeypatch):
    # ccz 1|13 at p = 1/2: the 4^13 basis-state pairs of B are refused, with
    # their own message, before any pair is formed
    def unreachable(*args):
        raise AssertionError("pairs formed past the byte budget")

    monkeypatch.setattr(ensembles, "_incidence", unreachable)
    argv = ["moments", "--family", "ccz", "--n", "14", "--na", "1", "--exhaustive"]
    assert run_cli(capsys, *argv) == (
        3,
        "",
        "domain error: basis-state pairs of a 13-qubit side: 67108864 rows of 16 bytes need "
        "3758096384 bytes, over the 1073741824-byte budget\n",
    )


def test_moments_exhaustive_widest_tally_keys_bytes_pinned(capsys):
    # one 31-edge at N = 31: numerators up to 2^62, so the tally's keys
    # num << 1 | c reach bit 63
    argv = ["moments", "--family", "k-uniform", "--k", "31", "--n", "31", "--scope", "all"]
    code, out, _ = run_cli(capsys, *argv, "--exhaustive")
    assert code == 0
    assert out == (
        "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,closed_form_mean,"
        "closed_form_variance,z_score\n"
        "31,15,k-uniform,all,1/2,2,1152921502459461631/1152921504606846976,"
        "4611263819920769025/1329227995784915872903807060280344576,0.0,,,\n"
    )


def test_moments_exhaustive_past_int64_exit_3(capsys, monkeypatch):
    # at N=32 a numerator can reach 2^64; refused before the edges are factored
    def unreachable(*args):
        raise AssertionError("edges factored past the int64 guard")

    monkeypatch.setattr(ensembles, "_edge_masks", unreachable)
    argv = ["moments", "--family", "k-uniform", "--k", "32", "--n", "32", "--exhaustive"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "domain error" in err and "int64" in err


def test_moments_exhaustive_past_byte_budget_exit_3(capsys, monkeypatch):
    # 66 edges, 36 across the cut, at p = 1/3, which enumerates the cross
    # edges: the two 2^36 transform arrays are refused before anything is
    # built
    def unreachable(*args):
        raise AssertionError("edges factored past the byte budget")

    monkeypatch.setattr(ensembles, "_edge_masks", unreachable)
    argv = ["moments", "--family", "cz", "--n", "12", "--scope", "all", "--p", "1/3", "--exhaustive"]
    assert run_cli(capsys, *argv) == (
        3,
        "",
        "domain error: 36 cross edges need two int64 arrays of 2^36 entries, over the "
        "1073741824-byte budget\n",
    )


def test_moments_all_scope_enumerates_the_cross_edges_bytes_pinned(capsys):
    # 28 edges, 16 across the 4|4 cut, at p = 1/3: the 2^28 subsets passed
    # the byte budget, the 2^16 cross subsets do not; every subset is
    # still counted, 2^28 samples
    argv = ["moments", "--family", "cz", "--n", "8", "--scope", "all", "--p", "1/3", "--exhaustive"]
    assert run_cli(capsys, *argv) == (
        0,
        "n,n_a,family,scope,p,samples,mean,variance,std_err_mean,closed_form_mean,"
        "closed_form_variance,z_score\n"
        "8,4,cz,all,1/3,268435456,14616905/86093442,18888192829013/1853020188851841,0.0,,,\n",
        "",
    )
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d6892172aa77d0cbc98138b62ffe409bd41e17652555af05ae66c1e541082f08"
    )


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
