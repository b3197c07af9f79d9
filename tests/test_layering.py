"""Import layering of the package, read from each module's source with ast.

The modules form one chain, core -> geometry -> objectives -> solvers ->
bench -> cli: each imports only modules before it. linesearch imports no
module of the package, so armijo stays a one-dimensional search that any
layer from solvers on may use. Every file format lives in bench: no module
before it, nor linesearch, reads or writes a file. And the package carries
no API that only tests call: every definition is named somewhere else in
its code, docstrings and comments aside. The modules an iteration runs
through call no numpy function whose argument handling costs about as much
as its work on an iteration's small blocks. Every package name that the
benchmark's code (perfbench/) or the equivalence check (tools/equiv.py)
uses exists. The tests' dense reference of
the methods (tests/reference.py) takes nothing of the package but the line
search's scalar rules.
"""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import rankdescent

PACKAGE = Path(rankdescent.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EQUIV = Path(__file__).resolve().parents[1] / "tools" / "equiv.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
CHAIN = ("core", "geometry", "objectives", "solvers", "bench", "cli")
STANDALONE = ("linesearch",)
# definitions that no other line of the package names, each with its reason
UNNAMED = {
    "g_lower_bound": "the paper's lower bound on the cone projection, checked by the tests",
    "angle_check": "the paper's angle condition on a direction, checked by the tests",
    "a1_violations": "the paper's primary descent ratio contract, checked by the tests",
    "random_point": "the quadratic start of perfbench's quad-deficient-start and tools/equiv.py, and a test fixture",
    "QuadraticDistance": "the objective of acceptance criterion 2 and of perfbench's quad-deficient-start",
}
# calls that read or write a file, which only bench and cli make
FILE_CALLS = {"open", "np.savetxt", "np.loadtxt", "os.makedirs", "tempfile.TemporaryFile"}
# (module, call) pairs allowed all the same, each with its reason
FILE_CALLS_ALLOWED = {
    ("solvers", "tempfile.TemporaryFile"): "IterateHistory's unnamed file, read by no other program",
}
# numpy wrappers whose argument handling an iteration would pay on every
# call: core._norm takes np.linalg.norm's own steps, np.concatenate(...,
# axis=1) stacks, and retract fills its middle matrix by slices
WRAPPER_CALLS = {"np.linalg.norm", "np.hstack", "np.block"}


def package_imports(path: Path) -> set[str]:
    """The package modules that the source at path imports, anywhere in it."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "rankdescent":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
            elif node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rankdescent":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def dotted_calls(path: Path) -> set[str]:
    """The dotted names (open, np.savetxt, ...) that the source at path calls."""

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    tree = ast.parse(path.read_text())
    calls = (dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call))
    return {name for name in calls if name}


def test_every_module_has_a_place():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(CHAIN) | set(STANDALONE)


@pytest.mark.parametrize("name", CHAIN)
def test_chain_imports_only_earlier_modules(name):
    allowed = set(CHAIN[: CHAIN.index(name)]) | set(STANDALONE)
    assert package_imports(PACKAGE / f"{name}.py") <= allowed


@pytest.mark.parametrize("name", STANDALONE)
def test_standalone_module_imports_nothing_of_the_package(name):
    assert package_imports(PACKAGE / f"{name}.py") == set()


def test_reference_imports_only_the_line_search():
    # so the reference never calls the projection, retraction or line code
    # that it checks
    assert package_imports(REFERENCE) <= {"linesearch"}


def test_import_reader_sees_every_form(tmp_path):
    # relative, bare relative, absolute and nested imports all count
    (tmp_path / "probe.py").write_text(
        "from .core import truncate\n"
        "from . import geometry\n"
        "import rankdescent.objectives\n"
        "def f():\n"
        "    from rankdescent.solvers import solve\n"
        "import numpy as np\n"
    )
    assert package_imports(tmp_path / "probe.py") == {"core", "geometry", "objectives", "solvers"}


@pytest.mark.parametrize("name", CHAIN[: CHAIN.index("bench")] + STANDALONE)
def test_file_formats_live_in_bench(name):
    allowed = {call for module, call in FILE_CALLS_ALLOWED if module == name}
    assert dotted_calls(PACKAGE / f"{name}.py") & FILE_CALLS <= allowed


@pytest.mark.parametrize("name", CHAIN[: CHAIN.index("bench")])
def test_iteration_path_calls_no_numpy_wrapper(name):
    assert dotted_calls(PACKAGE / f"{name}.py") & WRAPPER_CALLS == set()


def test_call_reader_sees_every_form(tmp_path):
    (tmp_path / "probe.py").write_text(
        "import numpy as np\n"
        "with open('f') as fh:\n"
        "    np.savetxt(fh, np.zeros(2))\n"
        "def f():\n"
        "    return os.path.join('a', 'b')\n"
        "g()()\n"
    )
    assert dotted_calls(tmp_path / "probe.py") == {"open", "np.savetxt", "np.zeros", "os.path.join", "g"}


def code_names(text: str) -> list[str]:
    """The NAME tokens of a module's source: strings and comments hold none."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NAME]


def test_name_reader_skips_strings_and_comments():
    text = 'def f():\n    """g is named here."""\n    return h(1)  # and k here\nx = "m"\n'
    assert code_names(text) == ["def", "f", "return", "h", "x"]


def test_every_definition_is_named_elsewhere_in_the_package():
    # a function, class or method (dunder methods aside) counts as named when
    # its name occurs in the package's code more often than it is defined:
    # in a call, an import or an attribute, not in a docstring or a comment
    texts = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    words = Counter(w for text in texts for w in code_names(text))
    defined = Counter(
        node.name
        for text in texts
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not re.fullmatch(r"__\w+__", node.name)
    )
    assert {name for name, n in defined.items() if words[name] <= n} == set(UNNAMED)


def benchmark_names(path: Path) -> set[str]:
    """The package names that the source at path uses, qualified: every name
    imported from rankdescent or one of its modules, every attribute read
    off a module so imported, and every vars(<module>)["name"]. String
    arguments (span names, soft probes) do not count."""
    tree = ast.parse(path.read_text())
    modules, out = {}, set()  # local name -> imported package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rankdescent":
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(qualified)
                except ImportError:
                    out.add(qualified)
                else:
                    modules[alias.asname or alias.name] = qualified
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                out.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            for name, module in modules.items():
                if ast.unparse(node.value) == f"vars({name})":
                    out.add(f"{module}.{node.slice.value}")
    return out


def test_benchmark_reader_sees_every_form(tmp_path):
    (tmp_path / "probe.py").write_text(
        "from rankdescent import bench, core as c\n"
        "from rankdescent.solvers import solve\n"
        "bench.PRESETS\n"
        "c.truncate(x)\n"
        "vars(bench)['gen_problem']\n"
        "wrap(c, 'mask_gather', 'core.mask_gather')\n"
    )
    assert benchmark_names(tmp_path / "probe.py") == {
        "rankdescent.solvers.solve",
        "rankdescent.bench.PRESETS",
        "rankdescent.core.truncate",
        "rankdescent.bench.gen_problem",
    }


def test_benchmark_entry_points_exist():
    # perfbench drives the package through these names, and tools/equiv.py
    # through its own; losing one makes either fail before it runs anything
    found = set().union(*(benchmark_names(p) for p in [*sorted(PERFBENCH.glob("*.py")), EQUIV]))
    assert {
        "rankdescent.bench.solve",
        "rankdescent.bench.gen_problem",
        "rankdescent.bench.initial_guess",
        "rankdescent.core.truncate",
        "rankdescent.geometry.random_point",
        "rankdescent.geometry.VarietyPoint",
        "rankdescent.solvers.TraceRecord",
    } <= found
    missing = set()
    for qualified in found:
        module, name = qualified.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), name):
            missing.add(qualified)
    assert missing == set()
