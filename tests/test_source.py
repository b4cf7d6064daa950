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


MAX_DEFAULTED_PARAMETERS = 3
MAX_SOURCE_LINES = 2842


def test_source_lines_stay_at_the_ceiling():
    # Deletions count as progress: src/ may not grow past the newline count
    # (as wc -l gives it) that the last change left, unless a change raises
    # the ceiling and says why.
    assert sum(path.read_text().count("\n") for path in SOURCES) <= MAX_SOURCE_LINES


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


# Public names that no other module of the package runs, each kept for a reason.
UNCALLED_EXPORTS = {
    "derive_fi": "the paper's algorithm; the certify benchmark workload calls it",
    "derive_fiii": "the paper's algorithm; the certify benchmark workload calls it",
    "right_factor_from_quadratic": "the generic step that test_c05 shows failing on C",
    "closes_exactly": "states the exact closure at rational t that test_c09 pins",
    "joint_angle": "states the joint-angle convention, theta(0) = pi, that tests pin",
    "transform_axis": "the benchmark tracer wraps it; it goes once the tracer is mended",
}


def test_every_export_is_run_by_the_package():
    # An export that only tests reach belongs in the tests, or nowhere; a name
    # counts as run when some other module loads it, not when a docstring names it.
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    exported = [name for name in darboux7r.__all__ if not name.startswith("__")]  # not metadata
    assert sorted(name for name in exported if name not in loaded) == sorted(UNCALLED_EXPORTS)


def test_no_module_uses_dataclasses_replace():
    # replace builds an instance from the fields alone, so it drops every
    # value a Factorization keeps (C, its forms, the roots, the residual)
    # and the copy forms them again; build the instance instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and "replace" in [alias.name for alias in node.names])
        or (isinstance(node, ast.Attribute) and node.attr == "replace"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")
    ]
    assert found == []


def names_bound_or_loaded(node: ast.AST) -> list:
    """The names a node defines, imports, assigns or reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def kernel_names_found(kernel: set) -> list:
    """Where a src/ module defines, imports or reads a name in kernel."""
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in names_bound_or_loaded(node)
        if name in kernel
    ]


# Poses, axes and point orbits are exact polynomials, each rounded once and
# evaluated at t (linkage.simulate and its Samples, MotionPoly.orbit).
# Products of rounded rows lost the loop's closure and the axes' digits at
# large parameters, so no float product kernel is kept: no module, the
# conjugation included, multiplies float dual quaternion rows.


def test_only_the_conjugation_multiplies_float_rows():
    assert kernel_names_found({"dq_mul_many", "_qmul"}) == []


def test_only_orbits_conjugate_float_rows():
    assert kernel_names_found({"conjugate_many"}) == []


def test_only_simulate_and_the_orbit_sampler_evaluate_rounded_tables():
    # A loop has one float evaluation, linkage.simulate (its Samples read the
    # axes), and a point's orbit one, motionpoly.orbit_samples: no other code
    # loads the Horner pass.
    found = [
        f"{path.name}:{node.lineno} {getattr(top, 'name', '')}"
        for path in SOURCES
        if path.name != "linkage.py"
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if (path.name, getattr(top, "name", None)) != ("motionpoly.py", "orbit_samples")
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom))
        and "_horner_many" in names_bound_or_loaded(node)
    ]
    assert found == []


# A loop's link poses are displacements exactly: each one's norm is the
# product of its rotation factors' real norms, which check_rotation_chain
# proves.  So the float lane keeps no array twin of has_real_norm; only
# the scalar act and classify test the norm of floats a caller passes in.


def test_the_float_lane_tests_no_rounded_norm():
    assert kernel_names_found({"_displacement_norms"}) == []
    found = kernel_names_found({"_FLOAT_REAL_NORM_RTOL"})
    assert [where for where in found if not where.startswith("dualquat.py:")] == []


def test_joints_are_read_off_identical_adjacent():
    # check_rotation_chain proves each pair names two equal adjacent factors,
    # so no module compares the factors again to find a joint's run.
    assert kernel_names_found({"_runs_of_equal"}) == []


def test_plot_frames_map_anchors_like_the_orbit():
    # svgplot forms every anchor d x m / |d|^2 with dualquat's vcross and
    # vdot on component-first arrays and projects by indexing, so neither a
    # point-at-a-time projection nor a second in-view length test comes back.
    assert kernel_names_found({"_project", "_is_view_parallel"}) == []
    svgplot = ast.parse((Path(darboux7r.__file__).parent / "svgplot.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(svgplot)
        if isinstance(node, ast.ImportFrom) and node.module == "dualquat"
        for alias in node.names
    }
    loaded = {
        node.id
        for node in ast.walk(svgplot)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert {"vcross", "vdot"} <= imported & loaded
