"""Import layering of the package, read from each module's source with ast.

The modules form one chain, core -> geometry -> objectives -> solvers ->
bench -> cli: each imports only modules before it. linesearch imports no
module of the package, so armijo stays a one-dimensional search that any
layer from solvers on may use. And the package carries no API that only
tests call: every definition is named somewhere else in it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import rankdescent

PACKAGE = Path(rankdescent.__file__).parent
CHAIN = ("core", "geometry", "objectives", "solvers", "bench", "cli")
STANDALONE = ("linesearch",)
# definitions that no other line of the package names, each with its reason
UNNAMED = {
    "g_lower_bound": "the paper's lower bound on the cone projection, checked by the tests",
    "angle_check": "the paper's angle condition on a direction, checked by the tests",
    "a1_violations": "the paper's primary descent ratio contract, checked by the tests",
    "random_point": "a test fixture, until it moves to the tests' helpers",
}


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


def test_every_definition_is_named_elsewhere_in_the_package():
    # a function, class or method (dunder methods aside) counts as named when
    # its name occurs in the package's source more often than it is defined:
    # in a call, an import, an attribute or a docstring
    texts = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defined = Counter(
        node.name
        for text in texts
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not re.fullmatch(r"__\w+__", node.name)
    )
    assert {name for name, n in defined.items() if words[name] <= n} == set(UNNAMED)
