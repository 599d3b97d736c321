"""Invariants of the library source itself."""

import ast
from pathlib import Path

import revopt


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so the library's invariants must
    # raise explicit errors instead.
    modules = sorted(Path(revopt.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
