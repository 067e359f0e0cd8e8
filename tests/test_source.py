"""Source-level rules for the package code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperent"


def _sources():
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_assert_statements():
    # assert is stripped under python -O, so it cannot carry a runtime check
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_pool_and_one_blas_pin():
    # the thread pin in purity covers the workers that ensembles.split_run
    # forks, its one fork site; an executor or another fork site, or
    # another ctypes user, would escape it
    sources = _sources()
    imports_ctypes = sorted(
        name
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Import) and any(a.name == "ctypes" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "ctypes"
    )
    assert imports_ctypes == ["purity.py"]
    other_spawners = ("ProcessPoolExecutor", "concurrent.futures", "os.fork", "Popen")
    assert [(n, w) for n, text in sources.items() for w in other_spawners if w in text] == []
    forks = {name: text.count('get_context("fork")') for name, text in sources.items()}
    assert {name: count for name, count in forks.items() if count} == {"ensembles.py": 1}


def test_kernels_import_no_report_layer():
    # the GF(2), hypergraph and stream kernels know nothing of formulas,
    # report rows, the CLI or the verify suite, not even inside a function
    upper = {"formulas", "reports", "cli", "verify"}
    sources = _sources()
    found = []
    for name in ["gf2.py", "hypergraph.py", "rng.py"]:
        for node in ast.walk(ast.parse(sources[name])):
            if isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split(".")) | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names = {part for a in node.names for part in a.name.split(".")}
            else:
                continue
            found += [f"{name}:{node.lineno} {mod}" for mod in sorted(names & upper)]
    assert found == []


def test_no_environment_knobs():
    # behaviour is set by arguments alone: no module reads the environment
    found = [
        f"{name}:{node.lineno}"
        for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names)
        )
    ]
    assert found == []


def test_one_bernoulli_route():
    # ensembles draws edge choices through rng.bernoulli_block alone, never
    # a raw uint64 block compared with a threshold of its own
    raw = {"stream_block", "threshold_u64"}
    found = []
    for node in ast.walk(ast.parse(_sources()["ensembles.py"])):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name in raw]
        elif isinstance(node, ast.Attribute) and node.attr in raw:
            found.append(f"{node.lineno} .{node.attr}")
    assert found == []


def _elimination_loops(tree):
    """Line numbers of loops that take a row's lowest set bit and XOR rows with it.

    The lowest set bit is x & -x or x & (~x + 1).
    """

    def negated(node):
        return (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.UnaryOp) and isinstance(node.left.op, ast.Invert)
        )

    def low_bit(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
            and (negated(node.left) or negated(node.right))
        )

    def xor_update(node):
        return (
            isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bitwise_xor"
        )

    return [
        loop.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, (ast.For, ast.While))
        and any(low_bit(node) for node in ast.walk(loop))
        and any(xor_update(node) for node in ast.walk(loop))
    ]


def test_one_elimination_kernel():
    # the GF(2) pivot/XOR elimination loop lives in gf2.eliminate alone;
    # the rank law and the Gauss-sum purity both call it
    trees = {name: ast.parse(text) for name, text in _sources().items()}
    found = {name: _elimination_loops(tree) for name, tree in trees.items()}
    kernel = next(
        node for node in ast.walk(trees["gf2.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "eliminate"
    )
    assert {name: lines for name, lines in found.items() if lines} == {
        "gf2.py": _elimination_loops(kernel)
    }
    assert len(found["gf2.py"]) == 1
    purity_calls = {
        node.attr
        for node in ast.walk(trees["purity.py"])
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "gf2"
    }
    assert "eliminate" in purity_calls


def test_one_sign_row_builder():
    # a cut's sign rows come from purity._sign_rows alone, for single
    # states and Monte Carlo batches: the per-edge superset toggle and the
    # separate A-axis zeta pass are gone, hypergraph holds plain Python
    # data, and ensembles scatters no rows of its own
    sources = _sources()
    gone = ["toggle_supersets", "_low_bit_pattern", "_LOW_BIT_WORDS", "_zeta_rows", "cut_rows"]
    assert [(name, word) for name, text in sources.items() for word in gone if word in text] == []
    trees = {name: ast.parse(text) for name, text in sources.items()}
    hypergraph_imports = set()
    for node in ast.walk(trees["hypergraph.py"]):
        if isinstance(node, ast.Import):
            hypergraph_imports |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            hypergraph_imports |= {(node.module or "").split(".")[0]} | {a.name for a in node.names}
    assert hypergraph_imports & {"numpy", "gf2"} == set()
    builders = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_sign_rows"
    ]
    assert builders == ["purity.py"]
    from_purity = {
        a.name
        for node in ast.walk(trees["ensembles.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "purity"
        for a in node.names
    }
    calls = {
        node.func.id
        for node in ast.walk(trees["ensembles.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "_sign_rows" in from_purity & calls
    assert "reduceat" not in sources["ensembles.py"]
