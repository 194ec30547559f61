"""The package imports nothing but the standard library and numpy.

README promises "Runtime dependency is numpy only".  Every import statement
in every module under `src/fewtag`, at any depth of the module, must name a
standard-library module, numpy or fewtag itself; relative imports are
fewtag's own.
"""

import ast
import pathlib
import sys

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
