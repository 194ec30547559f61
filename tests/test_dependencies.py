"""What the package depends on, and what depends on the package.

README promises "Runtime dependency is numpy only".  Every import statement
in every module under `src/fewtag`, at any depth of the module, must name a
standard-library module, numpy or fewtag itself; relative imports are
fewtag's own.

Every function and class the package defines is named by the package or by
the benchmark under `bench/`: a definition that only tests name is code no
program path needs.

Every module parses at the oldest Python that `pyproject.toml` declares in
`requires-python`, so syntax of a later version (`except*`, say) fails here.
"""

import ast
import pathlib
import re
import sys
from collections import Counter

import fewtag

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fewtag"}


def imported_roots(path: pathlib.Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_import_only_the_standard_library_and_numpy():
    modules = sorted(pathlib.Path(fewtag.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    outside = {f"{m.name}: {root}" for m in modules for root in imported_roots(m) - ALLOWED}
    assert not outside


# Defined only as the tests' reference: criterion 3 and test_gaussian check
# the closed-form divergences against `js` by quadrature.
TEST_ONLY = {"js"}


def test_every_definition_is_named_outside_the_tests():
    package = pathlib.Path(fewtag.__file__).parent
    bench = package.parents[1] / "bench"
    modules = sorted(package.glob("*.py"))
    defined = Counter(
        node.name for m in modules for node in ast.walk(ast.parse(m.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__"))
    text = "\n".join(p.read_text() for p in modules + sorted(bench.glob("*.py")))
    unnamed = {name for name, n in defined.items()
               if len(re.findall(rf"\b{name}\b", text)) <= n}
    assert unnamed == TEST_ONLY


def test_modules_parse_at_the_declared_python_floor():
    package = pathlib.Path(fewtag.__file__).parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    minor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    for module in sorted(package.glob("*.py")):
        ast.parse(module.read_text(), filename=str(module), feature_version=(3, minor))
