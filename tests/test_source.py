"""Invariants of the library source itself."""

import ast
import importlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import revopt
from corpus import gen
from reference import replace
from revopt import cli
from revopt.model import AffineForm, PolyhedralConvexFunction
from revopt.problemfile import dump_problem, load_problem


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


def _scopes(tree, matches):
    """Qualified names ("f", "C.m", "f.g") of the functions that hold a node
    for which `matches` is true, once per node; "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def _calls(tree, callee):
    """The scopes (`_scopes`) of the calls `callee`(...)."""

    def is_call(node):
        if not isinstance(node, ast.Call):
            return False
        return (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == callee

    return _scopes(tree, is_call)


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
        sites |= {(path.stem, scope) for scope in _calls(tree, "LinearProgram")}
    assert sites == allowed


def test_objects_are_built_past_their_constructor_in_four_places_only():
    # An LP or a model object is made without its constructor's checks only
    # from values that are valid already: a problem file's parse, the probe
    # template's builder for such values (`_cone`), and `with_rhs`; the two LP
    # builders name the fields and caches they set. Nothing copies an object
    # and patches the copy.
    sites = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope) for scope in _calls(tree, "_built")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "copy" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "copy", path.name
    assert sites == {
        ("model", "_parsed_function"),
        ("model", "_parsed_problem"),
        ("lp", "LinearProgram._cone"),
        ("lp", "LinearProgram.with_rhs"),
    }


def test_the_oriented_system_is_built_for_the_simplex_and_the_check_only():
    # One builder turns an LP's Fraction data into its integer oriented
    # system, whose layout every certificate indexes: the LP's cached
    # `_system`, which the tableau and the certificate check read, and which
    # an LP that `with_rhs` derived reads as its template's rescaled. The
    # Fraction layout `oriented_rows` is gone.
    sites = set()
    readers = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope) for scope in _calls(tree, "_oriented")}
        reads = _scopes(tree, lambda node: getattr(node, "attr", None) == "_system")
        readers |= {(path.stem, scope) for scope in reads}
        assert _calls(tree, "oriented_rows") == []
        assert not any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "oriented_rows"
            for node in ast.walk(tree)
        )
    assert sites == {("lp", "LinearProgram._system")}
    assert readers == {
        ("lp", "_Simplex.__init__"),
        ("lp", "check_outcome"),
        ("lp", "LinearProgram._system"),
    }


_SOLVER_NAMES = {"_Simplex", "_solved", "resolved", "solve", "_solve", "_run", "_dual_run"}


def test_certificates_solves_only_through_its_lp_solve_binding():
    # The bench tracer (bench/spans.py) and the tests count a decision's LPs
    # by wrapping `lp_solve` where certificates binds it, and a warm start
    # happens inside that one call. So certificates never names the tableau
    # or a solve step, not even as a string, and calls the solver only by
    # its module-level name.
    tree = ast.parse((Path(revopt.__file__).parent / "certificates.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    assert names & _SOLVER_NAMES == set()
    solver_calls = [
        node.func
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "lp_solve"
    ]
    assert solver_calls and all(isinstance(func, ast.Name) for func in solver_calls)
    assert ("revopt.certificates", "lp_solve") in _bench_bindings()


_IMAGES = {"_image", "_rows"}


def _definitions(tree, names):
    """Qualified names ("C.m") of the functions named in `names`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in names:
                    found.append(".".join(scope + (child.name,)))
                visit(child, scope + (child.name,))

    visit(tree, ())
    return found


def test_the_integer_images_are_built_in_model_only():
    # The layout of a function's and a polyhedron's integer images is
    # model's: only model.py defines, assigns or names (as a keyword or a
    # string) `_image` and `_rows`, so problemfile, certificates and the
    # rest can only read them. oracle's GridSpec has an image of its own grid.
    def builds(node):
        if isinstance(node, ast.Attribute):
            return node.attr in _IMAGES and not isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.keyword):
            return node.arg in _IMAGES
        return isinstance(node, ast.Constant) and node.value in _IMAGES

    sites = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope) for scope in _scopes(tree, builds)}
        sites |= {(path.stem, name) for name in _definitions(tree, _IMAGES)}
    assert {site for site in sites if site[0] != "model"} == {("oracle", "GridSpec._image")}
    assert {
        ("model", "HPolyhedron._rows"),
        ("model", "PolyhedralConvexFunction._image"),
        ("model", "_parsed_function"),
    } <= sites


def test_the_grid_is_walked_one_piece_at_a_time_over_all_rows():
    # oracle takes each form's constants on every row once per evaluator
    # (`_row_tables`) and each criterion's interval on every row in one pass
    # per piece (`_rows_at_most`): no per-row shift of the pieces, and no
    # evaluator method that takes a row's leading indices.
    tree = ast.parse((Path(revopt.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    assert _definitions(tree, {"_shift", "domain", "shifted", "row"}) == []
    assert _calls(tree, "_row_tables") == ["_GridEvaluator.__init__"] * 2
    assert _calls(tree, "_rows_at_most") == ["_GridEvaluator.__init__", "_GridEvaluator.at_most"]


def test_no_module_of_src_imports_dataclasses():
    # Every command runs in a fresh process, and `dataclasses` brings in
    # `inspect`, `ast`, `dis` and `tokenize`: the records are made by
    # `model._record` instead.
    importers = set()
    modules = sorted(Path(revopt.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_no_module_but_cli_imports_unbounded():
    # lp defines Unbounded, and lp.lp_value is the one reading of an outcome
    # as a value; cli builds and writes outcomes for reports, so it needs the
    # class as well.
    importers = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "Unbounded" for alias in node.names
            ):
                importers.add(path.stem)
    assert importers == {"cli"}


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
    # An import that its module never reads is dead code unless bench/spans.py
    # wraps the function at that module. The package's __init__ re-exports by
    # its module __getattr__, so it is held to the same rule.
    unread = set()
    for path in sorted(Path(revopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "revopt" if path.stem == "__init__" else f"revopt.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                if name in read:
                    continue
                unread.add((module, name))
    # The scan sees the imports it is meant to check.
    assert ("revopt.certificates", "lp_max_component") in unread
    assert unread - _bench_bindings() == set()


def _def_shapes(path: Path) -> dict:
    """Each def in the file, nested ones too, keyed by `ast.dump` of its
    arguments and of its body without the docstring: "file:name" lists."""
    shapes = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            key = ast.dump(node.args) + "".join(map(ast.dump, body))
            shapes.setdefault(key, []).append(f"{path.name}:{node.name}")
    return shapes


def test_the_tests_copy_no_bench_generator_or_truth():
    # The tests draw their families from bench/gen.py and take the convex
    # truth from bench/truth.py: a def in tests/ with the arguments and body
    # of one there is a copy that can drift from the one the bench runs.
    root = Path(revopt.__file__).resolve().parents[2]
    bench = {}
    for path in (root / "bench" / "gen.py", root / "bench" / "truth.py"):
        for key, names in _def_shapes(path).items():
            bench.setdefault(key, []).extend(names)
    copies = [
        (name, bench[key])
        for path in sorted((root / "tests").glob("*.py"))
        for key, names in _def_shapes(path).items()
        if key in bench
        for name in names
    ]
    assert copies == []


#: public functions that no command reaches and the bench and the acceptance
#: suite do not name, each with the reason it stays public
_CALLERLESS = {
    ("revopt.cli", "main"): "the console script, which hands argv to `cli.run`",
    ("revopt.lp", "max_component_lp"): "the LP that the bench-traced `lp_max_component` solves",
    ("revopt.pareto", "vdom"): "the orthant order that `reee_check` compares by",
}


def _imported_from_revopt(path: Path) -> set:
    """The ids of the `revopt` objects that the file at `path` imports by
    name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("revopt"):
            module = importlib.import_module(node.module)
            found |= {id(getattr(module, alias.name)) for alias in node.names}
    return found


def _command_lines(paths, constraints):
    """Every command of `cli._USAGE` on each problem file, with each of its
    choices: verify (with the grid cross-check) and falsify, and brute, in
    every mode; pareto with each sigma and without; subdiff on each function
    at three values of eps."""
    lines = []
    for path, count in zip(paths, constraints):
        problem = ["--problem", path]
        grid = ["--box", "-3", "3", "--step", "1"]
        cross_check = ["--cross-check-grid", "-3", "3", "1"]
        for mode in cli.MODES:
            lines.append(["verify", *problem, "--mode", mode, *cross_check])
            lines.append(["falsify", *problem, "--mode", mode])
            lines.append(["brute", *problem, "--mode", mode, *grid])
        for sigma in ((), *(["--sigma", kind] for kind in cli.SIGMA_KINDS)):
            lines.append(["pareto", *problem, *grid, *sigma])
        fns = ["objective", "reverse", *(f"constraint:{j}" for j in range(count))]
        for fn in fns:
            for eps in ("0", "1/2", "2"):
                lines.append(["subdiff", *problem, "--fn", fn, "--eps", eps])
    return lines


def test_every_public_function_has_a_caller(tmp_path):
    # A public function earns its place by a caller: a command reaches it,
    # the bench traces or imports it, or the acceptance suite imports it.
    # Every command runs in process under a profiler on the problem files, a
    # 2-D corpus problem and a problem with a constraint, and each verify
    # report is replayed.
    root = Path(revopt.__file__).resolve().parents[2]
    paths = sorted(str(path) for path in (root / "problems").glob("*.json"))
    example_b = load_problem(paths[-1])
    g = PolyhedralConvexFunction(1, (AffineForm((1,), -2), AffineForm((-1,), -2)))
    for name, problem in (
        ("corpus_2d", gen.corpus_instance(1120, 2)),
        ("constrained", replace(example_b, constraints=(g,))),
    ):
        paths.append(str(tmp_path / f"{name}.json"))
        dump_problem(problem, paths[-1])
    constraints = [len(load_problem(path).constraints) for path in paths]
    assert constraints[-1] == 1 and load_problem(paths[-2]).n == 2

    reached = set()

    def profile(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in _command_lines(paths, constraints):
            out = io.StringIO()
            with redirect_stdout(out):
                codes.append(cli.run(argv))
            report = json.loads(out.getvalue())
            if argv[0] == "verify" and "verdict" in report:
                cli.replay(load_problem(argv[2]), report)
    finally:
        sys.setprofile(None)
    assert cli.EXIT_INPUT_ERROR not in codes

    public = {}
    for path in sorted(Path(revopt.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"revopt.{path.stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                public.setdefault(id(obj), (module.__name__, name, obj))
    named = {
        id(getattr(importlib.import_module(module), attr)) for module, attr in _bench_bindings()
    }
    for path in sorted((root / "bench").glob("*.py")):
        named |= _imported_from_revopt(path)
    named |= _imported_from_revopt(root / "tests" / "test_acceptance.py")
    assert set(_CALLERLESS) <= {(module, name) for module, name, _ in public.values()}
    callerless = [
        (module, name)
        for key, (module, name, obj) in public.items()
        if obj.__code__ not in reached
        and key not in named
        and (module, name) not in _CALLERLESS
    ]
    assert callerless == []


def test_the_cli_parses_argv_by_its_table_and_writes_one_compact_report():
    # argparse cost more than a tenth of a small verify, and json's indent
    # path runs the pure-Python encoder; a report is written in one place.
    tree = ast.parse(Path(revopt.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"argparse", "functools"})
    dumps = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dumps"
    ]
    assert len(dumps) == 1
    assert [kw.arg for kw in dumps[0].keywords] == ["separators"]
    assert not any(
        isinstance(node, ast.keyword) and node.arg == "indent" for node in ast.walk(tree)
    )


def test_the_cli_calls_every_traced_function_through_its_module_global(monkeypatch):
    # bench/spans.py traces these by rebinding revopt.cli's globals, which
    # only works while the cli calls them by those names at call time.
    traced = {attr for module, attr in _bench_bindings() if module == "revopt.cli"}
    assert traced == {
        "verify", "falsify", "load_problem", "check_outcome", "subdiff_vrep", "brute_eps_argmin"
    }
    calls = dict.fromkeys(traced, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in traced:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    root = Path(revopt.__file__).resolve().parents[2]
    path = str(root / "problems" / "example_b.json")
    grid = ["--cross-check-grid", "-3", "3", "1"]
    report = io.StringIO()
    with redirect_stdout(report):
        cli.run(["verify", "--problem", path, "--mode", "rop", *grid])
    cli.replay(load_problem(path), json.loads(report.getvalue()))
    with redirect_stdout(io.StringIO()):
        cli.run(["falsify", "--problem", path, "--mode", "rop"])
        cli.run(["subdiff", "--problem", path, "--fn", "reverse", "--eps", "0"])
    assert all(calls.values()), calls


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


def test_verify_and_replay_do_not_depend_on_assert_statements(tmp_path):
    # Under python -O an invariant kept in an assert would silently vanish;
    # the reports and their replay must come out the same either way. Example
    # A at eps = 1 fails the essential gate and certifies by its (0, 0) check.
    root = Path(revopt.__file__).resolve().parents[2]
    paths = [str(root / "problems" / f"example_{x}.json") for x in "ab"]
    doc = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
    relaxed = tmp_path / "example_a_eps1.json"
    relaxed.write_text(json.dumps({**doc, "epsilon": "1"}), encoding="utf-8")
    paths.append(str(relaxed))
    env = dict(os.environ, PYTHONPATH=str(Path(revopt.__file__).resolve().parents[1]))
    runs = {}
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, "-B", *flags, "-c", _VERIFY_AND_REPLAY, *paths],
            env=env,
            capture_output=True,
            check=True,
        )
        assert proc.stderr.decode().strip() == str(len(flags))
        runs[flags] = proc.stdout
    assert runs[("-O",)] == runs[()]
    assert runs[()].count(b'"verdict"') == 12


_DECIDE_AND_REPLAY = """
import io, json, sys
from contextlib import redirect_stdout


def reports(paths):
    from revopt import cli
    from revopt.problemfile import load_problem

    out = []
    for path in paths:
        for mode in cli.MODES:
            for command in ("verify", "falsify"):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.run([command, "--problem", path, "--mode", mode])
                out.append(f"{code}\\n{buf.getvalue()}")
                if command == "verify":
                    cli.replay(load_problem(path), json.loads(buf.getvalue()))
    return "".join(out)
"""


def _other_interpreters() -> dict:
    """Interpreters of another Python >= 3.10 than this one, by (major,
    minor), one each: python3.X on the PATH, then those installed beside
    this one's base prefix (a pyenv-style versions directory)."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    beside = Path(sys.base_prefix).parent
    candidates += sorted(str(path) for path in beside.glob("*/bin/python3"))
    found = {}
    for exe in dict.fromkeys(filter(None, candidates)):
        probe = subprocess.run(
            [exe, "-I", "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if probe.returncode == 0:
            version = tuple(map(int, probe.stdout.split()))
            if version >= (3, 10) and version != sys.version_info[:2]:
                found.setdefault(version, exe)
    return found


def test_every_supported_interpreter_writes_the_same_reports():
    # pyproject.toml claims Python >= 3.10: under every other such
    # interpreter found, verify, falsify and replay on the problem files in
    # every mode, run on the stdlib alone in a subprocess, write the bytes
    # that this interpreter writes in process. -I ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the runs from writing into src/.
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other Python >= 3.10 found")
    src = Path(revopt.__file__).resolve().parents[1]
    paths = sorted(str(path) for path in (src.parent / "problems").glob("*.json"))
    namespace = {}
    exec(_DECIDE_AND_REPLAY, namespace)
    expected = namespace["reports"](paths)
    assert expected.count('"verdict"') == 4 * 2 * len(paths) >= 16
    main = "sys.path.insert(0, sys.argv[1]); sys.stdout.write(reports(sys.argv[2:]))"
    for version, exe in interpreters.items():
        proc = subprocess.run(
            [exe, "-I", "-B", "-c", _DECIDE_AND_REPLAY + main, str(src), *paths],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (version, proc.stderr)
        assert proc.stdout == expected, version
