"""Source-level rules for the package."""

from __future__ import annotations

import ast
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
