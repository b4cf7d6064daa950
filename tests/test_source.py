"""Source-level rules for the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import darboux7r

SOURCES = sorted(Path(darboux7r.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no correctness check may be one.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_only_stdlib_numpy_and_the_package():
    # The runtime dependency is numpy alone; sympy and mpmath may be installed
    # but must not be imported by the package.
    allowed = set(sys.stdlib_module_names) | {"numpy", "darboux7r"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    assert found == []


# The exact algebra layer stands on its own: the float fitting, the loops,
# the file formats, the plots and the command line build on it, never the
# other way round.
ALGEBRA_MODULES = ("scalars", "errors", "dualquat", "motionpoly", "darboux")
UPPER_MODULES = {"conics", "linkage", "serialize", "svgplot", "cli"}


def imported_names(path: Path):
    """(line, name) for each module or name a source file imports, package prefix dropped."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import m" names the module in an alias, "from .m import n" in module.
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield node.lineno, name.removeprefix("darboux7r.")


def test_algebra_layer_imports_no_upper_layer():
    package = Path(darboux7r.__file__).parent
    found = [
        f"{name}.py:{line} imports {module}"
        for name in ALGEBRA_MODULES
        for line, module in imported_names(package / f"{name}.py")
        if module in UPPER_MODULES
    ]
    assert found == []


def test_only_the_numpy_handle_imports_numpy():
    # _numpy.py decides when numpy loads; a module that imported it itself
    # would load it with the package, on the exact lane too.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "_numpy.py"
        for line, name in imported_names(path)
        if name.split(".")[0] == "numpy"
    ]
    assert found == []


MAX_DEFAULTED_PARAMETERS = 9


def test_parameters_with_a_default_stay_at_the_ceiling():
    # Each defaulted parameter is a settable value that tests and benchmarks
    # must cover; a new one replaces an old one or becomes a constant.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in (*node.args.defaults, *node.args.kw_defaults)
        if default is not None
    ]
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, found


def test_exports_match_the_package_imports():
    # A deleted function must leave no stale name in __all__, and a name the
    # package imports for export must not be missing from it.
    exported = darboux7r.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(darboux7r, name)] == []
    init = Path(darboux7r.__file__)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(), filename=str(init)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [name for name in imported if not name.startswith("_") and name not in exported] == []
