"""Source-level rules for the package code."""

import ast
import re
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
    # purity draws Monte Carlo edge choices and gf2 draws rank-law matrices
    # and packed cut blocks through rng's named routes alone
    # (bernoulli_block, half_rows), never a raw uint64 block of their own,
    # compared with a threshold or cut into bits; ensembles draws through
    # CounterRng alone
    raw = {"stream_block", "take", "threshold_u64", "_mix_tile"}
    found = []
    for name in ("ensembles.py", "gf2.py", "purity.py"):
        for node in ast.walk(ast.parse(_sources()[name])):
            if isinstance(node, ast.ImportFrom):
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name in raw]
            elif isinstance(node, ast.Attribute) and node.attr in raw:
                if getattr(node.value, "id", None) != "np":  # np.take gathers, it draws nothing
                    found.append(f"{name}:{node.lineno} .{node.attr}")
    assert found == []


def test_exhaustive_tally_sorts_in_place():
    # the tally sorts its keys in place and the pair histogram bins its
    # incidence vectors: neither takes unique values or an argsort
    tree = ast.parse(_sources()["ensembles.py"])

    def names(fn):
        return {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(fn)}

    found = {
        fn.name: sorted(names(fn) & {"unique", "argsort"})
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_tally", "_pair_supersets")
    }
    assert found == {"_tally": [], "_pair_supersets": []}


def test_one_basis_state_loop_feeds_both_exact_routes():
    # _incidence is the one function that tests edge parts against basis
    # states, and both the counting route and the enumeration reach it; of
    # its callers, _pair_supersets alone bins the incidence vectors; the
    # counting route groups its pairs and keys by one lexicographic sort
    # (_runs), with no other sort, argsort or reduceat
    tree = ast.parse(_sources()["ensembles.py"])
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def names(fn):
        return {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(fn)}

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            fn = fns[todo.pop()]
            calls = {
                node.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            todo += sorted((calls & fns.keys()) - seen)
            seen |= calls & fns.keys()
        return seen

    def tests_parts(fn):
        # a comparison (x & parts) == parts
        return any(
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.BitAnd)
            and isinstance(node.ops[0], ast.Eq)
            for node in ast.walk(fn)
        )

    assert sorted(name for name, fn in fns.items() if tests_parts(fn)) == ["_incidence"]
    assert "_incidence" in reached("_counted_moments") & reached("_subset_numerators")
    callers = sorted(name for name, fn in fns.items() if "_incidence" in names(fn) - {fn.name})
    assert callers == ["_pair_supersets", "_side_pairs"]
    # one bins the incidence vectors, the other merges the exhaustive tally's runs
    binners = sorted(name for name, fn in fns.items() if names(fn) & {"bincount", "at"})
    assert binners == ["_exhaustive_stats", "_pair_supersets"]
    counting = set().union(*(names(fns[name]) for name in reached("_counted_moments")))
    assert counting & {"argsort", "reduceat", "sort"} == set()
    sorters = sorted(name for name, fn in fns.items() if names(fn) & {"lexsort"})
    assert sorters == ["_runs"] and "_runs" in reached("_counted_moments")


def test_exact_routes_read_the_cut_once():
    # exact_moments and the exhaustive entropies read the cut through one
    # helper, the one function that factors edges; the p = 1/2 route is a
    # plain condition, so no exception class is caught and no function
    # that the exact routes reach holds a try
    text = _sources()["ensembles.py"]
    tree = ast.parse(text)
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert "_PastBudget" not in text

    def calls(fn):
        return {
            node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    factoring = sorted(name for name, fn in fns.items() if calls(fn) & {"_edge_masks", "_cross_parts"})
    assert factoring == ["_cut_sides"]
    assert "_cut_sides" in calls(fns["exact_moments"]) & calls(fns["entropy_stats"])
    seen, todo = set(), ["exact_moments", "_exhaustive_stats"]
    while todo:
        name = todo.pop()
        seen.add(name)
        todo += sorted((calls(fns[name]) & fns.keys()) - seen)
    assert {"_cut_sides", "_counted_moments", "_subset_numerators", "_tally"} <= seen
    tries = sorted(name for name in seen if any(isinstance(n, ast.Try) for n in ast.walk(fns[name])))
    assert tries == []


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
    # a cut's sign rows come from purity._sign_rows alone, and single
    # states and Monte Carlo batches reach it, and the Gauss-sum kernel,
    # only through the one numerator dispatcher purity._numerators: the
    # per-edge superset toggle, the separate A-axis zeta pass and the
    # single-state Gauss-sum code are gone, hypergraph holds plain Python
    # data, and ensembles scatters no rows of its own
    sources = _sources()
    gone = ["toggle_supersets", "_low_bit_pattern", "_LOW_BIT_WORDS", "_zeta_rows", "cut_rows"]
    gone += ["_vertex_table", "_x_rows", "_gauss_exponents", "_gauss_numerator("]
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
    callers = {
        (name, fn.name, node.func.id)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("_sign_rows", "_gauss_numerators", "gram_numerator", "_numerators")
    }
    assert callers == {
        ("purity.py", "_numerators", "_sign_rows"),
        ("purity.py", "_numerators", "_gauss_numerators"),
        ("purity.py", "_numerators", "gram_numerator"),
        ("purity.py", "state_purity", "_numerators"),
        ("purity.py", "_numerator_values", "_numerators"),
    }
    assert "reduceat" not in sources["ensembles.py"]


def test_purity_owns_every_monte_carlo_route():
    # ensembles sums the tally that purity._cut_sampler makes of each chunk;
    # the route (bools or packed cut blocks, then ranks or numerators),
    # each route's limit, the bool pieces and the BLAS pin are decided in
    # purity (the packed blocks' batches in gf2), so _stream_worker has no
    # branch and one loop, over chunks, and ensembles reaches no GF(2) or
    # numerator kernel and no stream
    sources = _sources()
    tree = ast.parse(sources["ensembles.py"])
    imported = set()  # (module, name), name "*" for the whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.name.split(".")[-1], "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "hyperent"):
            imported |= {(a.name, "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module.split(".")[-1], a.name) for a in node.names}
    assert {name for module, name in imported if module == "gf2"} == set()
    from_purity = {name for module, name in imported if module == "purity"}
    assert from_purity == {
        "_cut_sampler", "_key_terms", "check_qubit_cap", "_edge_masks", "_cross_parts", "_MC_PIECE_DRAWS"
    }
    owned = re.compile(r"\b(_numerators|_cut_ranks|_SAMPLE_BYTES|_one_blas_thread)\b")
    named = {name: owned.findall(text) for name, text in sources.items() if name != "purity.py"}
    assert {name: found for name, found in named.items() if found} == {}
    worker = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_stream_worker"
    )
    branches = [
        node.lineno
        for node in ast.walk(worker)
        if isinstance(node, (ast.If, ast.IfExp, ast.Match, ast.BoolOp))
    ]
    assert branches == []
    loops = [node for node in ast.walk(worker) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1


def test_one_draw_and_rank_loop():
    # packed cut blocks and rank-law matrices are drawn and ranked by one
    # loop, gf2._rank_counts, whose batch rule is the only one for them
    sources = _sources()
    callers = sorted(
        (name, fn.name)
        for name, text in sources.items()
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and "_random_words" in ast.unparse(node.func)
    )
    assert callers == [("gf2.py", "_rank_counts")]
    assert [name for name, text in sources.items() if "_block_draw" in text] == []
    batch_rules = [name for name, text in sources.items() if re.search(r"\b_RANK_BATCH\b", text)]
    assert batch_rules == ["gf2.py"]


def test_one_moment_reducer():
    # every MomentEstimate the ensembles compute comes from _reduce, which
    # exhaustive enumeration, collision counting and Monte Carlo all reach;
    # Monte Carlo keeps exact sums, so ensembles holds no float sum of
    # per-sample values and no float estimate beside the reducer
    sources = _sources()
    text = sources["ensembles.py"]
    tree = ast.parse(text)
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert [name for name, src in sources.items() if "_mc_estimate" in src] == []
    float_sums = re.compile(r"float\(np\.sum\(|\bp \* p\b|\bs2 \* s2\b|np\.sum\(p\b")
    assert float_sums.findall(text) == []

    def calls(fn):
        return {
            node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            found = calls(fns[todo.pop()]) & fns.keys()
            todo += sorted(found - seen)
            seen |= found
        return seen

    def builds(node):
        return sum(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "MomentEstimate"
            for n in ast.walk(node)
        )

    assert builds(fns["_reduce"]) == builds(tree) > 0
    for name in ("_exhaustive_stats", "_counted_moments", "mc_moments", "entropy_stats"):
        assert "_reduce" in reached(name), name
    assert "_reduce" in calls(fns["_run_sampling"]) & calls(fns["_exhaustive_stats"])


def test_gauss_kernel_reads_q_off_the_reduced_rows():
    # q_x(c) comes off each reduced row's U block: after its one
    # elimination the kernel keeps no upper-triangle rows and runs no
    # loop over the n_b rows to rebuild U_x^T c
    tree = ast.parse(_sources()["purity.py"])
    kernel = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_gauss_numerators"
    )
    calls = [
        node.lineno
        for node in ast.walk(kernel)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "eliminate"
    ]
    assert len(calls) == 1
    names = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    assert "uppers" not in names
    loops_over_rows = [
        node.lineno
        for node in ast.walk(kernel)
        if isinstance(node, ast.For)
        and node.lineno > calls[0]
        and any(isinstance(arg, ast.Name) and arg.id == "n_b" for arg in ast.walk(node.iter))
    ]
    assert loops_over_rows == []


def _by_function(tree):
    """(innermost enclosing function name, or "<module>", node) for every node of tree."""
    todo = [("<module>", tree)]
    while todo:
        scope, node = todo.pop()
        yield scope, node
        inner = node.name if isinstance(node, ast.FunctionDef) else scope
        todo += [(inner, child) for child in ast.iter_child_nodes(node)]


def _mask_sums(tree):
    """Functions that accumulate 1 << v over the vertices v of an edge.

    That is a sum of a comprehension of 1 << v, or name |= 1 << v, with v
    the loop variable of a loop over anything but a range of bit positions.
    """
    found = set()
    for scope, node in _by_function(tree):
        loops = []
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum" and node.args:
            comp = node.args[0]
            if isinstance(comp, (ast.GeneratorExp, ast.ListComp)):
                loops = [(gen, comp.elt) for gen in comp.generators]
        elif isinstance(node, ast.For):
            loops = [
                (node, stmt.value)
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, (ast.BitOr, ast.Add))
                and isinstance(stmt.target, ast.Name)
            ]
        for loop, value in loops:
            over_bits = isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None) == "range"
            if (
                not over_bits
                and isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.LShift)
                and getattr(value.left, "value", None) == 1
                and isinstance(value.right, ast.Name)
                and isinstance(loop.target, ast.Name)
                and value.right.id == loop.target.id
            ):
                found.add(scope)
    return found


def test_one_edge_pass():
    # every edge is checked, cancelled and masked in hypergraph.edge_pass
    # alone: it raises every edge rejection, and no other function sums
    # 1 << v over an edge; canonicalize_edges, from_gates, the constructor
    # and purity's universe masks all take that pass, and from_gates
    # constructs with no edge to check again
    trees = {name: ast.parse(text) for name, text in _sources().items()}
    rejection = re.compile(
        r"empty edge|repeated vertex|vertex out of range|strictly increasing tuple|out of range for n="
    )
    raisers = {
        (name, scope)
        for name, tree in trees.items()
        for scope, node in _by_function(tree)
        if isinstance(node, ast.Raise)
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and rejection.search(part.value)
            for part in ast.walk(node)
        )
    }
    assert raisers == {("hypergraph.py", "edge_pass")}
    sums = {(name, scope) for name, tree in trees.items() for scope in _mask_sums(tree)}
    assert sums == {("hypergraph.py", "edge_pass")}
    callers = {
        (name, scope)
        for name, tree in trees.items()
        for scope, node in _by_function(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "edge_pass"
    }
    assert callers == {
        ("hypergraph.py", "canonicalize_edges"),
        ("hypergraph.py", "__post_init__"),
        ("hypergraph.py", "from_gates"),
        ("purity.py", "_edge_masks"),
    }
    from_gates = next(
        node
        for node in ast.walk(trees["hypergraph.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "from_gates"
    )
    called = [node for node in ast.walk(from_gates) if isinstance(node, ast.Call)]
    assert "canonicalize_edges" not in {getattr(node.func, "id", None) for node in called}
    constructs = [ast.unparse(node) for node in called if getattr(node.func, "id", None) == "cls"]
    assert constructs == ["cls(n, frozenset())"]
