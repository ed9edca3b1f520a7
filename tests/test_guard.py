"""Guards on the shape of the package.

Every function in the package is called by the package itself: a helper that
only tests call belongs under tests/ (see tests/oracles.py), so one check
fails on any function or method of src/branchfloer whose name is referenced
nowhere in the package outside its own definition, unless the package exports
it in `branchfloer.__all__`.  A bare name that is a parameter of an enclosing
function refers to that parameter, so it does not count as a reference.  Checks raise typed errors, so another check
fails on any `assert` statement or raised AssertionError, which `python -O`
would strip or misfile.  The package has no runtime dependencies, so
another check fails if starting the command line imports numpy, and one
more if it imports a process pool, hashing or temporary files, which no
command needs.  The F_2[U] chain layer, `complexes`, is the largest module
and only sums and `--verify` run it, so a check fails if starting the
command line, a knot's or a mirror's `invariants` or a `root` loads it, and
another if a public name stops resolving through the package's lazy
`__getattr__` or `ConsistencyError` splits into two classes.  Output
depends only on the arguments and stdin, so a check fails if any module
reads `os.environ` or `os.getenv`, and `root` with the
retired BRANCHFLOER_CACHE_DIR set writes nothing there.  The package runs
in one process, so a check fails if any module imports `concurrent.futures`,
`multiprocessing` or `threading` (ROADMAP item 15: measure before adding
parallelism back).  Evaluation logic lives in `knots`, so a check
fails if the command line uses any private `knots` name but the two that
build an evaluation tree, `_evaluate` and `_summed`.  No result may outlive
the objects it belongs to (the benchmark re-parses every input to measure
each pass in full), so a check fails on any use of `functools.lru_cache` or
`functools.cache` in the package.  The benchmark's tracer
(perfbench/tracer.py) wraps the package's layer functions by name and reads
size attributes off their arguments and results, so one check runs
`independence` and a sum's `invariants` under it.  A public name must be
one a user can find: every name in `branchfloer.__all__` is used by the
README's code, a demo, the command line or the acceptance tests.
"""

import ast
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchfloer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "branchfloer"


def _referenced_names(node, params=frozenset()):
    """Names, attributes and imported names under `node`, except bare names
    bound as parameters of an enclosing function (`params` from outside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        params = params | {a.arg for a in named if a is not None}
    if isinstance(node, ast.Name):
        if node.id not in params:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.split(".")[-1]
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, params)


def _definitions(tree):
    """Top-level functions, and methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def unreferenced_functions(modules=None):
    """"file:line name" of each function nothing else references, over
    `modules` (file name -> parsed module), the package's by default."""
    if modules is None:
        modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    counts = {}
    for tree in modules.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    out = []
    for file_name, tree in modules.items():
        for fn in _definitions(tree):
            name = fn.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in branchfloer.__all__:
                continue
            own = sum(1 for n in _referenced_names(fn) if n == name)
            if counts.get(name, 0) - own == 0:
                out.append(f"{file_name}:{fn.lineno} {name}")
    return out


def test_no_function_is_referenced_only_by_its_own_definition():
    assert unreferenced_functions() == []


COLLIDING = """
def helper(x):
    return x


class Root:
    def switched(self, flag):
        return flag

    def compare(self, other, switched=True):
        return (lambda helper: helper)(other) if switched else other


def caller(root):
    return root.compare(root, switched=False)
"""


def test_a_parameter_of_the_same_name_is_not_a_reference():
    # `switched` and `helper` are only ever parameters where they are read,
    # so only `compare` counts as referenced
    modules = {"m.py": ast.parse(COLLIDING)}
    assert unreferenced_functions(modules) == ["m.py:2 helper", "m.py:7 switched", "m.py:14 caller"]


def test_package_has_no_asserts():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_keeps_no_cross_call_cache():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "functools" else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ("lru_cache", "cache")]
    assert found == []


def test_package_runs_in_one_process():
    """No pool, no threads: `independence` in one process was faster on every
    input measured (ROADMAP item 15), so parallelism comes back only with a
    measurement that shows it pays."""
    pools = ("concurrent", "multiprocessing", "threading")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in pools]
    assert found == []


def test_cli_reaches_knots_privates_only_through_the_evaluation_tree():
    tree = ast.parse((SRC / "cli.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "knots":
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("knots", "branchfloer.knots"):
            used.update(alias.name for alias in node.names)
    assert {name for name in used if name.startswith("_")} <= {"_evaluate", "_summed"}


def test_cli_start_up_imports_no_numpy():
    probe = "import sys, branchfloer.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_start_up_imports_no_pool_or_cache_modules():
    # the package imports no pool module itself (test_package_runs_in_one_process),
    # nor does any standard module it loads at start-up, and no command needs
    # hashlib or tempfile, which cost milliseconds to import.
    # -S: no site hooks of the environment load these modules first
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import branchfloer.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'hashlib', 'tempfile') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


CHAIN_LAYER_RUNS = [
    ["invariants", "torus(3,7)"],
    ["invariants", "mirror(torus(2,5))"],
    ["root", "pretzel(7,-3,5)", "--dot"],
    ["invariants", "sum(torus(2,3),torus(2,5))"],
]


def test_cli_loads_the_chain_layer_only_for_a_sum():
    # a knot's and a mirror's invariants and every root are read off the
    # graded root, so only sums and --verify compile `complexes`, the largest
    # module, which costs every other command its compile time; -S as above
    probe = (
        f"import contextlib, io, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import branchfloer.cli as cli; seen = ['branchfloer.complexes' in sys.modules]\n"
        f"for argv in {CHAIN_LAYER_RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((cli.main(argv), 'branchfloer.complexes' in sys.modules))\n"
        "print(seen)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, (0, False), (0, False), (0, False), (0, True)]"


def test_every_public_name_resolves_and_the_errors_stay_one_class():
    from branchfloer import complexes, connected, plumbing

    star_imported = {}
    exec("from branchfloer import *", star_imported)
    for name in branchfloer.__all__:
        assert star_imported[name] is getattr(branchfloer, name), name
    for name in ("no_such_name", "tensor_complex"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(branchfloer, name)
    # every `except` clause and the exit-code mapping catch one class
    assert branchfloer.ConsistencyError is plumbing.ConsistencyError is complexes.ConsistencyError
    assert branchfloer.GradedUModule is connected.GradedUModule is complexes.GradedUModule
    assert connected.BranchedModule is complexes.BranchedModule
    assert branchfloer.UComplex is complexes.UComplex


def test_package_reads_no_environment_variable():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "os" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ("environ", "getenv")]
    assert found == []


BUSH = '{"weights":[-3,-2,-2,-3,-2,-2],"edges":[[0,1],[1,2],[1,3],[3,4],[3,5]]}'
BUSH_ROOT = (
    '{"engine": "box", "involution": {"0": 0, "1": 1, "2": 2}, "leaves": [0], '
    '"schema": 1, "stable": true, "successor": {"0": 1, "1": 2}, "vertices": '
    '[{"id": 0, "level": 0, "weight": [-1, 4]}, {"id": 1, "level": 1, "weight": '
    '[-9, 4]}, {"id": 2, "level": 2, "weight": [-17, 4]}]}\n'
)


def test_root_ignores_the_retired_cache_directory(tmp_path):
    env = dict(os.environ, BRANCHFLOER_CACHE_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "branchfloer", "root", BUSH],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == BUSH_ROOT
    assert list(tmp_path.iterdir()) == []


def test_benchmark_tracer_finds_every_traced_name():
    # the tracer wraps only loaded modules, and cli loads `complexes` only for
    # a sum, so it is imported here for its readers of ATTRS
    from branchfloer import cli, complexes, knots, plumbing

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original, tensor = plumbing.pd_vector, complexes.tensor_complex
    t = tracer.Tracer()
    t.install()
    try:
        assert plumbing.pd_vector is not original
        plumbing.pd_vector(plumbing.PlumbingTree((-2,), ()), (0,))
        assert [s["name"] for s in t.spans] == ["plumbing.pd_vector"]
        # the readers of ATTRS, cli._omega_of's args[0][0] among them
        cli.cmd_independence(["torus(2,3)", "torus(2,5)"], cli.RunConfig(), out=io.StringIO())
        knots.invariants(knots.parse_spec("sum(torus(2,3),torus(2,5))"))
    finally:
        t.uninstall()
    assert plumbing.pd_vector is original and complexes.tensor_complex is tensor
    tasks = [s.get("task") for s in t.spans if s["name"] == "cli._omega_of"]
    assert tasks == ["sum(torus(2,3),torus(2,5))"]
    built = [s for s in t.spans if s["name"].startswith("roots.build_root")]
    assert len(built) == 4 and all(s["vertices"] > 0 for s in built)
    tensors = [s for s in t.spans if s["name"] == "complexes.tensor_complex"]
    assert tensors and all(s["rank"] > 0 for s in tensors)


def _readme_code() -> str:
    """The README's fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```.*?\n(.*?)```", text, flags=re.S)
    outside = re.sub(r"```.*?```", "", text, flags=re.S)
    return "\n".join(fenced + re.findall(r"`([^`\n]+)`", outside))


def test_every_public_name_is_used_where_a_user_looks():
    users = [ROOT / "src" / "branchfloer" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    users += sorted((ROOT / "demos").glob("*.py"))
    used = set(re.findall(r"\w+", _readme_code()))
    for path in users:
        used.update(_referenced_names(ast.parse(path.read_text())))
    assert sorted(set(branchfloer.__all__) - used) == []
