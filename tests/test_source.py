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


def _linear_program_calls(tree):
    """Qualified names ("f", "C.m", "f.g") of the functions that call
    LinearProgram(...); "" for module-level calls."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "LinearProgram":
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_linear_programs_are_assembled_in_four_places_only():
    # Outside lp.py only the membership-LP builder, the V-polytope membership
    # test and the one epigraph LP (every exact infimum) build an LP.
    allowed = {
        ("polytope", "vpoly_member"),
        ("certificates", "_LpBuilder.lp"),
        ("subdiff", "epigraph_inf"),
    }
    sites = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        if path.stem == "lp":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope) for scope in _linear_program_calls(tree)}
    assert sites == allowed
