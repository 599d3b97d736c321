"""Invariants of the library source itself."""

import ast
import os
import subprocess
import sys
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
        ("certificates", "membership_lp"),
        ("subdiff", "epigraph_inf"),
    }
    sites = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        if path.stem == "lp":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope) for scope in _linear_program_calls(tree)}
    assert sites == allowed


def _bench_bindings():
    """The (module, attribute) pairs that bench/spans.py wraps, read from its
    source: the bench code is neither imported nor run."""
    root = Path(revopt.__file__).resolve().parents[2]
    tree = ast.parse((root / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "BINDINGS" for target in node.targets
        ):
            bindings = ast.literal_eval(node.value)
            return {(module, attr) for module, attr, _name in bindings}
    raise AssertionError("bench/spans.py defines no BINDINGS")


def test_unused_imports_are_kept_only_where_the_bench_traces_them():
    # An import that its module never reads (flagged `# noqa: F401`) is
    # dead code unless bench/spans.py wraps the function at that module.
    kept = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "revopt" if path.stem == "__init__" else f"revopt.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if not any("# noqa: F401" in line for line in span):
                continue
            kept |= {
                (module, alias.asname or alias.name)
                for alias in node.names
                if (alias.asname or alias.name) not in read
            }
    # The scan sees the imports it is meant to check.
    assert ("revopt.certificates", "lp_max_component") in kept
    assert kept - _bench_bindings() == set()


_VERIFY_AND_REPLAY = """
import io, json, sys
from contextlib import redirect_stdout
from revopt import cli
from revopt.problemfile import load_problem
print(sys.flags.optimize, file=sys.stderr)
for path in sys.argv[1:]:
    for mode in cli.MODES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(["verify", "--problem", path, "--mode", mode])
        cli.replay(load_problem(path), json.loads(buf.getvalue()))
        sys.stdout.write(f"{code}\\n{buf.getvalue()}")
"""


def test_verify_and_replay_do_not_depend_on_assert_statements():
    # Under python -O an invariant kept in an assert would silently vanish;
    # the reports and their replay must come out the same either way.
    root = Path(revopt.__file__).resolve().parents[2]
    paths = [str(root / "problems" / f"example_{x}.json") for x in "ab"]
    env = dict(os.environ, PYTHONPATH=str(Path(revopt.__file__).resolve().parents[1]))
    runs = {}
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _VERIFY_AND_REPLAY, *paths],
            env=env,
            capture_output=True,
            check=True,
        )
        assert proc.stderr.decode().strip() == str(len(flags))
        runs[flags] = proc.stdout
    assert runs[("-O",)] == runs[()]
    assert runs[()].count(b'"verdict"') == 8
