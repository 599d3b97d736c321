import dis
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from corpus import corpus, face_domain_family, wide_modes
from reference import (
    probe_template,
    reference_cross_check_doc,
    reference_outcome_doc,
    reference_verdict_doc,
    replace,
)
from revopt import certificates, cli, lp, oracle
from revopt.certificates import MODES
from revopt.cli import replay, run
from revopt.lp import CertificateError, _Simplex
from revopt.model import INF, PolyhedralConvexFunction
from revopt.oracle import GridSpec
from revopt.pareto import bridge_check
from revopt.problemfile import load_problem, parse_problem, problem_to_doc

F = Fraction
PROBLEMS = sorted(Path(__file__).resolve().parent.parent.glob("problems/*.json"))


def example_a_doc(eps="0"):
    return {
        "n": 1,
        "objective": {
            "pieces": [{"a": ["1"], "b": "0"}, {"a": ["-1"], "b": "0"}]
        },
        "reverse": {
            "pieces": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "-1"}]
        },
        "point": ["1"],
        "epsilon": eps,
    }


def example_b_doc(eps="0"):
    doc = example_a_doc(eps)
    doc["objective"] = {
        "pieces": [{"a": ["2"], "b": "0"}, {"a": ["-1"], "b": "0"}]
    }
    return doc


@pytest.fixture
def problem_a(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(example_a_doc()))
    return str(path)


@pytest.fixture
def problem_b(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(example_b_doc()))
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_example_a(problem_a, capsys):
    code, doc = _run(capsys, ["verify", "--problem", problem_a, "--mode", "rop"])
    assert code == 0
    assert doc["verdict"] == "CERTIFIED_ON_GRID"


def test_verify_example_b_refuted(problem_b, capsys):
    code, doc = _run(capsys, ["verify", "--problem", problem_b, "--mode", "rop"])
    assert code == 1
    assert doc["witness"] == {"eps_prime": "2", "x_star": ["-1"]}


def test_verify_cross_check(problem_b, capsys):
    code, doc = _run(
        capsys,
        [
            "verify", "--problem", problem_b, "--mode", "rop",
            "--cross-check-grid", "-3", "3", "1/4",
        ],
    )
    assert code == 1
    cc = doc["oracle_cross_check"]
    assert cc["min_value"] == "1"
    assert cc["consistent"] is True


def test_argv_parsing_keeps_no_state_across_calls(problem_b, capsys):
    plain = ["verify", "--problem", problem_b, "--mode", "rop"]
    code, first = _run(capsys, plain)
    grid = ["--cross-check-grid", "-3", "3", "1/4"]
    code, crossed = _run(capsys, plain + grid)
    assert "oracle_cross_check" in crossed
    code, second = _run(capsys, plain)
    assert code == 1
    assert "oracle_cross_check" not in second
    assert second == first
    assert run(["verify", "--problem", problem_b]) == 3  # no --mode
    capsys.readouterr()


def _line(command, flags):
    return [command, *(word for flag, values in flags.items() for word in (flag, *values))]


def _usage_errors(problem):
    """The complete command lines with only their required flags, and (id,
    argv) pairs of usage errors."""
    box = {"--box": ["0", "1"], "--step": ["1"]}
    required = {
        "verify": {"--problem": [problem], "--mode": ["rop"]},
        "falsify": {"--problem": [problem], "--mode": ["rop"]},
        "subdiff": {"--problem": [problem], "--fn": ["objective"], "--eps": ["0"]},
        "brute": {"--problem": [problem], "--mode": ["rop"], **box},
        "pareto": {"--problem": [problem], **box},
    }
    full = [_line(command, flags) for command, flags in required.items()]
    verify, pareto = full[0], full[-1]
    cases = [
        ("empty", []),
        ("unknown-command", ["certify", *verify[1:]]),
        ("eps-prime", [*verify, "--eps-prime", "0,2"]),
        ("abbreviation", ["verify", "--prob", problem, "--mode", "rop"]),
        ("equals-sign", ["verify", "--problem", problem, "--mode=rop"]),
        ("double-dash", [*verify, "--"]),
        ("missing-value", [*verify, "--seed"]),
        ("missing-grid-value", [*verify, "--cross-check-grid", "-3", "3"]),
        ("flag-as-value", ["verify", "--problem", "--mode", "rop"]),
        ("bad-mode", ["verify", "--problem", problem, "--mode", "bogus"]),
        ("bad-sigma", [*pareto, "--sigma", "q"]),
        ("bad-seed", [*verify, "--seed", "x"]),
        # a repeated flag is rejected, not overridden by its last value
        ("repeated-flag", [*verify, "--mode", "convex"]),
        ("flag-of-another-command", [*verify, "--step", "1"]),
    ]
    for command, flags in required.items():
        for left_out in flags:
            kept = {flag: values for flag, values in flags.items() if flag != left_out}
            cases.append((f"{command}-without-{left_out[2:]}", _line(command, kept)))
    return full, cases


def test_usage_errors_are_a_json_error_line_with_exit_3(problem_a, capsys):
    full, cases = _usage_errors(problem_a)
    assert len(cases) == 14 + 2 + 2 + 3 + 4 + 3
    for name, argv in cases:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 3, name
        assert out.count("\n") == 1 and out.endswith("\n"), name
        doc = json.loads(out)
        assert set(doc) == {"command", "error"}, name
        assert doc["command"] == (argv[0] if argv else None), name
    for argv in full:  # the complete lines are accepted
        assert run(argv) in (0, 1), argv
        assert "error" not in json.loads(capsys.readouterr().out)


#: the error text of each usage error of `_usage_errors`
_USAGE_ERROR_TEXT = {
    "empty": "unknown command None; expected one of verify, falsify, subdiff, brute, pareto",
    "unknown-command": (
        "unknown command 'certify'; expected one of verify, falsify, subdiff, brute, pareto"
    ),
    "eps-prime": "verify: unknown or repeated argument '--eps-prime'",
    "abbreviation": "verify: unknown or repeated argument '--prob'",
    "equals-sign": "verify: unknown or repeated argument '--mode=rop'",
    "double-dash": "verify: unknown or repeated argument '--'",
    "missing-value": "verify: --seed expects 1 value(s)",
    "missing-grid-value": "verify: --cross-check-grid expects 3 value(s)",
    "flag-as-value": "verify: --problem expects 1 value(s)",
    "bad-mode": "verify: bad --mode value 'bogus'",
    "bad-sigma": "pareto: bad --sigma value 'q'",
    "bad-seed": "verify: bad --seed value 'x'",
    "repeated-flag": "verify: unknown or repeated argument '--mode'",
    "flag-of-another-command": "verify: unknown or repeated argument '--step'",
    "verify-without-problem": "verify: missing --problem",
    "verify-without-mode": "verify: missing --mode",
    "falsify-without-problem": "falsify: missing --problem",
    "falsify-without-mode": "falsify: missing --mode",
    "subdiff-without-problem": "subdiff: missing --problem",
    "subdiff-without-fn": "subdiff: missing --fn",
    "subdiff-without-eps": "subdiff: missing --eps",
    "brute-without-problem": "brute: missing --problem",
    "brute-without-mode": "brute: missing --mode",
    "brute-without-box": "brute: missing --box",
    "brute-without-step": "brute: missing --step",
    "pareto-without-problem": "pareto: missing --problem",
    "pareto-without-box": "pareto: missing --box",
    "pareto-without-step": "pareto: missing --step",
}


def test_usage_errors_read_their_exact_text(problem_a, capsys):
    # Each usage error names what is wrong in a fixed text; -h or --help
    # anywhere prints the usage, even after a bad flag; and a value may
    # start with one `-` whatever the flag's arity.
    _full, cases = _usage_errors(problem_a)
    assert [name for name, _argv in cases] == list(_USAGE_ERROR_TEXT)
    for name, argv in cases:
        assert run(argv) == 3, name
        assert json.loads(capsys.readouterr().out)["error"] == _USAGE_ERROR_TEXT[name], name
    for argv in (["verify", "--bogus", "-h"], ["verify", "--seed", "--help"], ["certify", "-h"]):
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == cli._USAGE, argv
    problem = ["--problem", problem_a]
    lines = {
        1: ["subdiff", *problem, "--fn", "objective", "--eps", "-1"],
        2: ["pareto", *problem, "--box", "-3", "-1", "--step", "1"],
        3: ["verify", *problem, "--mode", "rop", "--cross-check-grid", "-3", "-1", "-1/2"],
    }
    args = {arity: cli._parse(argv) for arity, argv in lines.items()}
    assert (args[1].eps, args[2].box, args[3].cross_check_grid) == (
        "-1", ["-3", "-1"], ["-3", "-1", "-1/2"]
    )
    assert cli._parse([*lines[1][:-1], "-"]).eps == "-"
    assert args[3].seed is None and args[1].mode is None


def _problem_file_cases():
    """(id, bytes) of problem files that text mode and a byte read must read
    alike: line ends, a BOM, other encodings."""
    text = json.dumps(example_b_doc(), indent=1)
    malformed = '{\n"n": ,}\n'
    return [
        ("crlf", text.replace("\n", "\r\n").encode()),
        ("cr", text.replace("\n", "\r").encode()),
        ("crlf-malformed", malformed.replace("\n", "\r\n").encode()),
        ("cr-malformed", malformed.replace("\n", "\r").encode()),
        ("mixed-malformed", '{\r\n"n":\r1,\n\r"x" ]'.encode()),
        ("bom", b"\xef\xbb\xbf" + text.encode()),
        ("utf-16", text.encode("utf-16")),
        ("invalid-utf-8", b'{"n": "\xff"}'),
    ]


def test_the_problem_file_reads_as_text_mode_reads_it(tmp_path, capsys):
    # CRLF and lone-CR line ends read as LF, so a JSON error's position is
    # counted in text mode's characters; a BOM, UTF-16 and invalid UTF-8
    # are input errors, and so are a missing file and a directory.
    not_json = "problem file is not valid JSON"
    expected = {
        "crlf": (1, None),
        "cr": (1, None),
        "crlf-malformed": (3, f"{not_json}: Expecting value: line 2 column 6 (char 7)"),
        "cr-malformed": (3, f"{not_json}: Expecting value: line 2 column 6 (char 7)"),
        "mixed-malformed": (3, f"{not_json}: Expecting ':' delimiter: line 5 column 5 (char 15)"),
        "bom": (
            3,
            f"{not_json}: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)",
        ),
        "utf-16": (
            3,
            "cannot read problem file: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
        ),
        "invalid-utf-8": (
            3,
            "cannot read problem file: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte",
        ),
    }
    plain = tmp_path / "plain.json"
    plain.write_bytes(json.dumps(example_b_doc(), indent=1).encode())
    _code, reference = _run(capsys, ["verify", "--problem", str(plain), "--mode", "rop"])
    cases = _problem_file_cases()
    assert [name for name, _data in cases] == list(expected)
    for name, data in cases:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
        assert code == expected[name][0], name
        error = {"command": "verify", "error": expected[name][1]}
        assert doc == (reference if code == 1 else error), name
    missing, directory = tmp_path / "missing.json", tmp_path
    for path, error in (
        (missing, f"cannot read problem file: [Errno 2] No such file or directory: '{missing}'"),
        (directory, f"cannot read problem file: [Errno 21] Is a directory: '{directory}'"),
    ):
        code, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
        assert (code, doc) == (3, {"command": "verify", "error": error})


def test_brute_rejects_an_unknown_mode_by_the_flag_table(problem_a, capsys):
    argv = ["brute", "--problem", problem_a, "--mode", "bogus", "--box", "0", "1", "--step", "1"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 3 and out.count("\n") == 1
    assert json.loads(out) == {"command": "brute", "error": "brute: bad --mode value 'bogus'"}


def test_python_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for module in ("revopt", "revopt.cli"):
        argv = ["verify", "--problem", "problems/example_b.json", "--mode", "rop"]
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, module  # REFUTED
        assert proc.stdout.count("\n") == 1, module
        assert json.loads(proc.stdout)["verdict"] == "REFUTED", module


def test_help_prints_the_usage_and_negative_values_parse(problem_b, capsys):
    for argv in (["--help"], ["-h"], ["verify", "-h"], ["pareto", "--help"]):
        assert run(argv) == 0
        assert capsys.readouterr().out == cli._USAGE
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert cli._USAGE in readme  # the synopsis, verbatim
    argv = ["brute", "--problem", problem_b, "--mode", "rop", "--box", "-3", "3", "--step", "1"]
    code, doc = _run(capsys, argv)
    assert code == 0 and doc["min_value"] == "1"
    argv = ["verify", "--problem", problem_b, "--mode", "rop"]
    code, doc = _run(capsys, [*argv, "--cross-check-grid", "-3", "3", "1/4"])
    assert code == 1 and doc["oracle_cross_check"]["consistent"] is True


def test_every_flag_of_the_table_is_in_the_usage():
    lines = cli._USAGE.replace("\\\n", "").splitlines()
    for command, (_handler, required, optional) in cli._COMMANDS.items():
        (line,) = [line for line in lines if line.split()[1] == command]
        assert re.findall(r"--[a-z-]+", line) == [*required, *optional], command
        assert re.findall(r"\[(--[a-z-]+)", line) == list(optional), command
        words = line.replace("[", " ").replace("]", " ").split()
        for flag in required + optional:
            after = words[words.index(flag) + 1 :]
            values = list(takewhile(lambda word: not word.startswith("--"), after))
            assert len(values) == cli._FLAGS[flag][0], flag


def test_verify_inapplicable(tmp_path, capsys):
    doc = example_a_doc()
    doc["point"] = ["2"]  # h(2) = 1: off the boundary {h = 0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "falsify"):
        code, out = _run(capsys, [command, "--problem", str(path), "--mode", "rop"])
        assert code == 2
        assert out["verdict"] == "INAPPLICABLE"
        assert out["reason"] == "point-not-on-boundary"
        assert out["checks"] == [] and "info" not in out


def test_a_failed_essential_gate_certifies_and_agrees_with_the_grid(tmp_path, capsys):
    # At eps = 1 inf f = 0 is not below f(1) - 1: the gate fails, and the
    # one check at (0, 0) certifies.
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(example_a_doc("1")))
    argv = ["verify", "--problem", str(path), "--mode", "rop"]
    code, doc = _run(capsys, [*argv, "--cross-check-grid", "-3", "3", "1/4"])
    assert code == 0
    assert doc["verdict"] == "CERTIFIED_ON_GRID"
    assert doc["gates"][-1] == ["essential", False]
    assert [(c["eps_prime"], c["generator"], c["accepted"]) for c in doc["checks"]] == [
        ("0", ["0"], True)
    ]
    assert doc["oracle_cross_check"]["consistent"] is True
    assert "info" not in doc
    replay(load_problem(str(path)), doc)


def test_falsify_exit_codes(problem_a, problem_b, capsys):
    code, _ = _run(capsys, ["falsify", "--problem", problem_b, "--mode", "rop"])
    assert code == 1
    code, _ = _run(capsys, ["falsify", "--problem", problem_a, "--mode", "rop"])
    assert code == 0


def test_falsify_reports_the_verify_decision(problem_a, problem_b, capsys):
    for path in (problem_a, problem_b):
        for mode in ("rop", "constrained", "equality", "convex"):
            args = ["--problem", path, "--mode", mode]
            v_code, v_doc = _run(capsys, ["verify", *args])
            f_code, f_doc = _run(capsys, ["falsify", *args, "--seed", "5"])
            assert f_code == v_code
            assert {**f_doc, "command": "verify"} == v_doc
            if mode == "convex":
                assert len(f_doc["checks"]) == 1


def test_seed_has_no_effect_and_eps_prime_is_gone(problem_b, capsys):
    argv = ["verify", "--problem", problem_b, "--mode", "rop"]
    _, plain = _run(capsys, argv)
    _, seeded = _run(capsys, [*argv, "--seed", "7"])
    assert seeded == plain
    assert run([*argv, "--eps-prime", "0,2"]) == 3
    capsys.readouterr()


def test_subdiff_reverse(problem_a, capsys):
    code, doc = _run(
        capsys,
        ["subdiff", "--problem", problem_a, "--fn", "reverse", "--eps", "1/2"],
    )
    assert code == 0
    assert doc["vertices"] == [["1/2"], ["1"]]
    assert doc["rays"] == []


def test_brute_command(problem_a, capsys):
    code, doc = _run(
        capsys,
        ["brute", "--problem", problem_a, "--mode", "rop",
         "--box", "-3", "3", "--step", "1/4"],
    )
    assert code == 0
    assert doc["min_value"] == "1"
    assert doc["eps_argmin"] == [["-1"], ["1"]]


def _report_digest(results) -> str:
    """sha256 over each command's problem file name, argv, exit code and
    printed report, in order, from (path, argv, code, report) tuples."""
    digest = hashlib.sha256()
    for path, argv, code, out in results:
        digest.update(f"{Path(path).name} {' '.join(argv)}\n{code}\n{out}".encode())
    return digest.hexdigest()


def _command_digest(commands) -> str:
    """`_report_digest` of each (path, argv) command, run in process."""
    results = []
    for path, argv in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run([argv[0], "--problem", str(path), *argv[1:]])
        results.append((path, argv, code, out.getvalue()))
    return _report_digest(results)


#: `_command_digest`s of the commands below: brute taken before the oracle
#: read f's interval minimum in closed form, the cross-check when constrained
#: mode lost its Slater gate (its reports equal to the earlier ones but for
#: the dropped `["slater",true]` entry, its oracle objects unchanged), pareto
#: and subdiff before the grid layer and the double description loaded on
#: first use
BRUTE_DIGEST = "e50b56ab4ed330b2202d35c91a18bc59ac49287a462ce3afe238e0a8b6f7e1f5"
CROSS_CHECK_DIGEST = "3b9c5f706841b206b7aeee7285a18056350e82731c6d148b707487b21682752d"
PARETO_SUBDIFF_DIGEST = "701a66b27d506ffceb38ac5d40c9303272d6540c26924e6052faa3f0f22c8465"


def _grid_commands() -> list:
    """The commands on the shipped problems that run the grid layer or the
    double description, as (commands, pinned digest) groups."""
    brute = [
        (path, ["brute", "--mode", mode, "--box", "-3", "3", "--step", step])
        for path in PROBLEMS
        for mode in MODES
        for step in ("1/4", "3/7")
    ]
    verify = [
        (path, ["verify", "--mode", mode, "--cross-check-grid", "-3", "3", "1/4"])
        for path in PROBLEMS
        for mode in MODES
    ]
    pareto = [
        (path, ["pareto", "--box", "-3", "3", "--step", "1/4", *sigma])
        for path in PROBLEMS
        for sigma in ((), *(["--sigma", kind] for kind in cli.SIGMA_KINDS))
    ]
    subdiff = [
        (path, ["subdiff", "--fn", fn, "--eps", eps])
        for path in PROBLEMS
        for fn in ("objective", "reverse")
        for eps in ("0", "1/2", "2")
    ]
    return [
        (brute, BRUTE_DIGEST),
        (verify, CROSS_CHECK_DIGEST),
        (pareto + subdiff, PARETO_SUBDIFF_DIGEST),
    ]


def test_grid_commands_print_the_pinned_bytes():
    # The grid layer's outputs on the shipped problems, pinned byte for byte:
    # a rewrite of the oracle must leave every report as it was.
    assert len(PROBLEMS) == 2
    for commands, digest in _grid_commands():
        assert _command_digest(commands) == digest


#: Run in a fresh interpreter under a profile hook that records every (file
#: name, code name) that runs: `import revopt.cli` and the decisions, each
#: verify report replayed, then the commands; prints what ran in each part,
#: the modules loaded after the import and after the decisions, and the
#: commands' exit codes and reports.
_FRESH_COMMANDS = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

ran = set()


def profile(frame, event, _arg):
    if event == "call":
        ran.add((Path(frame.f_code.co_filename).name, frame.f_code.co_name))


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


decisions, commands = json.loads(sys.argv[1])
sys.setprofile(profile)
from revopt import cli
from revopt.problemfile import load_problem

imported = sorted(sys.modules)
for argv in decisions:
    code, out = run(argv)
    if argv[0] == "verify":
        cli.replay(load_problem(argv[2]), json.loads(out))
decided = sorted(ran)
loaded = sorted(sys.modules)
ran.clear()
reports = [run(argv) for argv in commands]
sys.setprofile(None)
json.dump(
    {
        "decided": decided,
        "imported": imported,
        "loaded": loaded,
        "commands": sorted(ran),
        "reports": reports,
    },
    sys.stdout,
)
"""

#: the modules that no decision runs
_LAZY_FILES = {"oracle.py", "pareto.py", "polytope.py"}

#: standard modules that no decision loads: `dataclasses` and what it brings
_UNLOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _fresh(script, *args) -> dict:
    """The JSON that `script` prints, run with `args` in a fresh interpreter
    that writes no bytecode."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_decision_runs_no_grid_or_polytope_code():
    # `import revopt.cli` and verify, falsify and replay on the shipped
    # problems in every mode run no line of the grid layer or the double
    # description, module bodies included; brute, pareto, subdiff and the
    # cross-check then load them and print the pinned bytes.
    decisions = [
        [command, "--problem", str(path), "--mode", mode]
        for path in PROBLEMS
        for mode in MODES
        for command in ("verify", "falsify")
    ]
    groups = _grid_commands()
    commands = [
        [argv[0], "--problem", str(path), *argv[1:]]
        for group, _digest in groups
        for path, argv in group
    ]
    result = _fresh(_FRESH_COMMANDS, json.dumps([decisions, commands]))
    decided = {name for name, _code in result["decided"]}
    assert {"certificates.py", "lp.py", "cli.py"} <= decided
    # neither the import nor a decision loads a module of `_UNLOADED` that a
    # bare interpreter does not load already
    bare = subprocess.run(
        [sys.executable, "-B", "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "revopt.cli" in result["imported"] and "sys" in bare
    assert (_UNLOADED - set(bare)) & {*result["imported"], *result["loaded"]} == set()
    assert decided.isdisjoint(_LAZY_FILES)
    assert {(name, "<module>") for name in _LAZY_FILES} <= set(map(tuple, result["commands"]))
    reports = iter(result["reports"])
    for group, digest in groups:
        assert _report_digest([(path, argv, *next(reports)) for path, argv in group]) == digest


#: the names that the package re-exported when it imported every module
_REEXPORTS = {
    "model": (
        "INF", "AffineForm", "HPolyhedron", "Inapplicable", "InputError",
        "PolyhedralConvexFunction", "ReverseProblem",
    ),
    "lp": ("LinearProgram", "lp_max_component", "lp_solve"),
    "polytope": ("VPolytope", "project", "vertex_enumerate"),
    "subdiff": (
        "SubdiffQuery", "scale_subdiff", "subdiff_epigraph", "subdiff_member", "subdiff_vrep",
    ),
    "certificates": (
        "CertificateVerdict", "essential_check", "falsify", "membership_lp", "slater_check",
        "union_member", "verify",
    ),
    "oracle": ("GridSpec", "brute_eps_argmin"),
    "pareto": ("ParetoSample", "bridge_check", "eff_set", "reee_check", "vdom"),
    "problemfile": ("load_problem", "parse_problem", "problem_to_doc"),
}

#: Run in a fresh interpreter after `import revopt.cli`: binds cli's
#: `brute_eps_argmin` and subdiff's `prune` to counting wrappers before either
#: module has bound them, runs a cross-check and a `subdiff_vrep`, then reads
#: every re-exported name from the package and its module and every bench
#: binding; prints what it saw.
_FRESH_NAMES = """
import importlib, io, json, sys
from contextlib import redirect_stdout

from revopt import cli, subdiff

path, reexports, bench = json.loads(sys.argv[1])
bound_early = sorted({"brute_eps_argmin", "prune"} & {*vars(cli), *vars(subdiff)})
calls = []


def counted(fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


cli.brute_eps_argmin = early_brute = counted(sys.modules["revopt.oracle"].brute_eps_argmin)
subdiff.prune = early_prune = counted(sys.modules["revopt.polytope"].prune)
with redirect_stdout(io.StringIO()):
    cli.run(["verify", "--problem", path, "--mode", "rop", "--cross-check-grid", "-3", "3", "1"])
problem = cli.load_problem(path)
vrep = subdiff.subdiff_vrep(subdiff.SubdiffQuery(problem.reverse, problem.point, 1))
kept = [cli.brute_eps_argmin is early_brute, subdiff.prune is early_prune]

import revopt

differ = [
    name
    for module, names in reexports.items()
    for name in names
    if getattr(revopt, name) is not getattr(importlib.import_module(f"revopt.{module}"), name)
]
sys.path.insert(0, bench)
from spans import BINDINGS

unresolved = [
    [module, attr]
    for module, attr, _name in BINDINGS
    if not callable(getattr(sys.modules[module], attr, None))
]
json.dump(
    {
        "bound_early": bound_early,
        "calls": calls,
        "kept": kept,
        "vertices": len(vrep.vertices),
        "differ": differ,
        "unresolved": unresolved,
        "bindings": len(BINDINGS),
    },
    sys.stdout,
)
"""


def test_every_name_resolves_and_an_early_binding_is_the_one_called():
    # After `import revopt.cli` alone, a binding set before its module binds
    # the name on first use is kept and called; every name the package
    # re-exported resolves to its module's object, and every binding the
    # bench traces resolves by getattr.
    bench = Path(cli.__file__).resolve().parents[2] / "bench"
    path = str(PROBLEMS[0])
    result = _fresh(_FRESH_NAMES, json.dumps([path, _REEXPORTS, str(bench)]))
    assert result["bound_early"] == []
    assert result["calls"] == ["brute_eps_argmin", "prune"]
    assert result["kept"] == [True, True]
    assert result["vertices"] == 2
    assert sum(map(len, _REEXPORTS.values())) == 35
    assert result["differ"] == []
    assert result["unresolved"] == [] and result["bindings"] > 0
    sigma_kinds = [sys.modules[f"revopt.{module}"].SIGMA_KINDS for module in ("model", "pareto")]
    assert all(kinds is cli.SIGMA_KINDS for kinds in sigma_kinds)


#: `_command_digest` of the decisions below, taken when every mode came to
#: be decided as rop on its lifted problem and constrained mode lost its
#: Slater gate: each report equals the one before but for the dropped
#: `["slater",true]` gate entry
DECISION_DIGEST = "29604074cc56bb886adf32ea788dfe61b0360c5ea92748025f92ccc7d39be1ac"


def test_decisions_print_the_pinned_bytes(tmp_path):
    # Every verify and falsify report, in every mode, on the shipped
    # problems, the acceptance corpus and h with a face domain, pinned byte
    # for byte: a faster solver must leave every report as it was.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000) + face_domain_family(30)
    commands = []
    for i, problem in enumerate(problems):
        path = tmp_path / f"p{i:03d}.json"
        path.write_text(json.dumps(problem_to_doc(problem)))
        for mode in MODES:
            commands += [(path, [command, "--mode", mode]) for command in ("verify", "falsify")]
    assert len(commands) == 8 * 232
    assert _command_digest(commands) == DECISION_DIGEST


#: every string a decision's report holds that is not a rational literal
_REPORT_TOKENS = {
    "verify", "falsify",  # commands
    "CERTIFIED_ON_GRID", "REFUTED", "INAPPLICABLE",  # verdict tags
    *MODES, *oracle.MODE_MAP.values(),
    "dom-f", "h=0", "h<=0", "G<=0", "essential",  # gate names
    "point-off-domain", "point-not-on-boundary",  # reasons
    "vertex", "ray", "optimal", "infeasible", "unbounded",  # kinds, outcome tags
    "inf", "-inf",
}
_LITERAL = re.compile(r"-?\d+(/\d+)?")


def _strings(doc):
    """Every string in a JSON document, keys aside."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for item in doc:
            yield from _strings(item)
    elif isinstance(doc, dict):
        for item in doc.values():
            yield from _strings(item)


def _gate_docs():
    """A problem per INAPPLICABLE reason, with the mode that gives it and the
    (tag, reason) it gets: x_bar off {h = 0}, x_bar off dom f and
    G(x_bar) > 0; and a constraint with no strictly feasible point (g = 0),
    which constrained mode decides as rop on f, refuting example B."""
    off_boundary = {**example_a_doc(), "point": ["2"]}
    off_domain = example_b_doc()
    off_domain["objective"]["domain"] = {"A": [["1"]], "b": ["0"]}
    g_positive = {**example_b_doc(), "constraints": [{"pieces": [{"a": ["1"], "b": "0"}]}]}
    no_slater = {**example_b_doc(), "constraints": [{"pieces": [{"a": ["0"], "b": "0"}]}]}
    return [
        (off_boundary, "rop", ("INAPPLICABLE", "point-not-on-boundary")),
        (off_domain, "rop", ("INAPPLICABLE", "point-off-domain")),
        (g_positive, "constrained", ("INAPPLICABLE", "point-off-domain")),
        (no_slater, "constrained", ("REFUTED", None)),
    ]


def test_decision_reports_are_the_compact_json_of_the_reference_objects(tmp_path, monkeypatch):
    # A decision's report line is written in one pass from its verdict; it
    # must be `json.dumps` of the report object the command line built
    # before (`reference_verdict_doc`, `reference_cross_check_doc`), byte
    # for byte: on the problem files, the acceptance corpus, h with a face
    # domain (its ray checks) and the rational wide instances, in every
    # mode, through verify with and without the grid cross-check and through
    # falsify (which takes no grid), on a problem for each INAPPLICABLE
    # reason, and on a constraint with no strictly feasible point. Each
    # string written without escaping is a rational literal or a token that
    # JSON writes as it is.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000) + face_domain_family(30)
    problems += [instance.problem for instance in wide_modes(0)]
    cases = [(problem_to_doc(p), mode, None) for p in problems for mode in MODES]
    cases += _gate_docs()
    verdicts = []

    def recorded(decide):
        def decide_and_record(problem, mode):
            verdicts.append((problem, decide(problem, mode)))
            return verdicts[-1][1]

        return decide_and_record

    monkeypatch.setattr(cli, "verify", recorded(cli.verify))
    monkeypatch.setattr(cli, "falsify", recorded(cli.falsify))
    grid = ("-2", "2", "1")
    sups, kinds, strings = set(), set(), set()
    for i, (doc, mode, decided) in enumerate(cases):
        path = tmp_path / f"p{i:03d}.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ["verify", "--problem", str(path), "--mode", mode],
            ["verify", "--problem", str(path), "--mode", mode, "--cross-check-grid", *grid],
            ["falsify", "--problem", str(path), "--mode", mode],
        ):
            out = io.StringIO()
            with redirect_stdout(out):
                code = run(argv)
            problem, verdict = verdicts.pop()
            expected = {"command": argv[0], **reference_verdict_doc(verdict)}
            if len(argv) > 5:
                box = GridSpec(((F(-2), F(2)),) * problem.n, F(1))
                expected["oracle_cross_check"] = reference_cross_check_doc(
                    problem, mode, box, verdict
                )
            assert out.getvalue() == json.dumps(expected, separators=(",", ":")) + "\n"
            assert code == cli._EXIT_CODE[verdict.tag]
            assert decided is None or (verdict.tag, verdict.reason) == decided
            sups.update(rec.evidence.sup for rec in verdict.log)
            kinds.update(rec.kind for rec in verdict.log)
            strings.update(_strings(expected))
    assert {INF, -INF} < sups and kinds == {"vertex", "ray"}
    tokens = {text for text in strings if not _LITERAL.fullmatch(text)}
    assert tokens <= _REPORT_TOKENS and len(tokens) > 20
    for token in _REPORT_TOKENS:
        assert json.dumps(token) == f'"{token}"'


def test_pareto_command(problem_a, capsys):
    code, doc = _run(
        capsys,
        ["pareto", "--problem", problem_a, "--box", "-3", "3",
         "--step", "1/4", "--sigma", "e"],
    )
    assert code == 0
    assert doc["violations"] == {
        "argmin_not_weak": [],
        "efficient_boundary_not_argmin": [],
    }
    assert ["1"] in doc["sigma_set"]


def test_pareto_command_samples_the_grid_once(monkeypatch, capsys):
    calls = []
    values = oracle._GridEvaluator.values

    def recording_values(self):
        calls.append(self.m)
        return values(self)

    def no_pointwise_value(self, x):
        raise AssertionError("the grid is evaluated all rows at once")

    problems = Path(__file__).resolve().parent.parent / "problems"
    for name in ("example_a.json", "example_b.json"):
        path = str(problems / name)
        argv = ["pareto", "--problem", path, "--box", "-1", "1", "--step", "1/2"]
        monkeypatch.setattr(oracle._GridEvaluator, "values", recording_values)
        monkeypatch.setattr(PolyhedralConvexFunction, "value", no_pointwise_value)
        calls.clear()
        code, doc = _run(capsys, [*argv, "--sigma", "w"])
        assert calls == [5, 5]  # f and h once each, on the one row of 5 grid points
        monkeypatch.undo()
        p = load_problem(path)
        box = ((F(-1), F(1)),)
        rep = bridge_check(p.objective, p.reverse, box, F(1, 2), p.epsilon)
        pts = [[str(F(k, 2))] for k in range(-2, 3)]
        assert doc["eps_argmin"] == [pts[i] for i in rep.eps_argmin]
        assert doc["weak_set"] == doc["sigma_set"] == [pts[i] for i in rep.weak_set]
        assert doc["efficient_set"] == [pts[i] for i in rep.eff_set]
        assert code == (0 if rep.passed else 1)


def test_input_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = _run(capsys, ["verify", "--problem", str(bad), "--mode", "rop"])
    assert code == 3
    assert doc["error"] == (
        "problem file is not valid JSON: Expecting property name enclosed in"
        " double quotes: line 1 column 2 (char 1)"
    )

    doc_float = example_a_doc()
    doc_float["epsilon"] = "0.5"
    p = tmp_path / "float.json"
    p.write_text(json.dumps(doc_float))
    code, doc = _run(capsys, ["verify", "--problem", str(p), "--mode", "rop"])
    assert code == 3
    assert doc["error"] == "not a rational literal: '0.5'"

    doc_unknown = example_a_doc()
    doc_unknown["extra"] = 1
    p2 = tmp_path / "unknown.json"
    p2.write_text(json.dumps(doc_unknown))
    code, doc = _run(capsys, ["verify", "--problem", str(p2), "--mode", "rop"])
    assert code == 3
    assert doc["error"] == "problem: unknown fields ['extra']"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# Each malformed shape with the error its report gives. A string where an
# array belongs is rejected as a whole, never read character by character.
_MALFORMED = {
    "constraints-null": (("constraints",), None, "constraints: expected an array"),
    "constraints-object": (("constraints",), {}, "constraints: expected an array"),
    "pieces-number": (("objective", "pieces"), 5, "objective.pieces: expected an array"),
    "a-string": (("objective", "pieces", 0, "a"), "1", "objective.pieces[0].a: expected an array"),
    "a-string-12": (
        ("objective", "pieces", 0, "a"), "12", "objective.pieces[0].a: expected an array"
    ),
    "point-string": (("point",), "1", "point: expected an array"),
    "n-boolean": (("n",), True, "problem: n must be a positive integer"),
    "epsilon-boolean": (("epsilon",), True, "not a rational literal: True"),
    "b-boolean": (("objective", "pieces", 0, "b"), False, "not a rational literal: False"),
    "a-boolean": (("objective", "pieces", 0, "a"), [True], "not a rational literal: True"),
    "a-float": (("objective", "pieces", 0, "a"), [1.5], "not a rational literal: 1.5"),
    "b-zero-denominator": (
        ("objective", "pieces", 0, "b"), "1/0", "not a rational literal: '1/0'"
    ),
    "b-negative-denominator": (
        ("objective", "pieces", 0, "b"), "1/-2", "not a rational literal: '1/-2'"
    ),
    "piece-list": (
        ("objective", "pieces", 0), ["1", "0"], "objective.pieces[0]: expected an object"
    ),
    "A-string": (
        ("reverse", "domain"), {"A": "1", "b": ["1"]}, "reverse.domain.A: expected an array"
    ),
    "A-row-string": (
        ("reverse", "domain"), {"A": ["1"], "b": ["1"]}, "reverse.domain.A[0]: expected an array"
    ),
    "domain-b-string": (
        ("reverse", "domain"), {"A": [["1"]], "b": "1"}, "reverse.domain.b: expected an array"
    ),
    "A-row-wide": (
        ("reverse", "domain"),
        {"A": [["1", "2"]], "b": ["1"]},
        "polyhedron: row width 2 != dimension 1",
    ),
    "a-wide": (("objective", "pieces", 0, "a"), ["1", "2"], "piece dimension 2 != function dimension 1"),
    "point-wide": (("point",), ["1", "2"], "point: expected length 1, got 2"),
    # A bad literal is reported as it reads, wherever it sits, before any
    # shape check of its vector or row.
    "domain-row-literal": (
        ("reverse", "domain"), {"A": [["1", "1.5"]], "b": ["1"]}, "not a rational literal: '1.5'"
    ),
    "domain-b-literal": (
        ("reverse", "domain"), {"A": [["1"]], "b": ["--1"]}, "not a rational literal: '--1'"
    ),
    "domain-literal-past-a-wide-row": (
        ("reverse", "domain"),
        {"A": [["1", "2"], ["x"]], "b": ["1", "1"]},
        "not a rational literal: 'x'",
    ),
    "constraint-piece-literal": (
        ("constraints",),
        [{"pieces": [{"a": ["1"], "b": "0"}]}, {"pieces": [{"a": ["1/0"], "b": "0"}]}],
        "not a rational literal: '1/0'",
    ),
    "constraint-b-literal": (
        ("constraints",), [{"pieces": [{"a": ["1"], "b": "- 1"}]}], "not a rational literal: '- 1'"
    ),
    "point-minus": (("point",), ["-"], "not a rational literal: '-'"),
    "point-signs": (("point",), ["+-1"], "not a rational literal: '+-1'"),
    "point-boolean": (("point",), [False], "not a rational literal: False"),
    "point-literal-past-the-length": (("point",), ["1", "x"], "not a rational literal: 'x'"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_shapes_exit_3(tmp_path, capsys, name):
    path, value, error = _MALFORMED[name]
    doc = example_a_doc()
    _set(doc, path, value)
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    for argv in (
        ["verify", "--mode", "rop"],
        ["subdiff", "--fn", "objective", "--eps", "0"],
    ):
        code, out = _run(capsys, [argv[0], "--problem", str(p), *argv[1:]])
        assert code == 3
        assert out == {"command": argv[0], "error": error}


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python converts ints of any length")
def test_over_long_numbers_are_input_errors(tmp_path, capsys):
    # Python converts ints to and from strings of at most
    # sys.get_int_max_str_digits() digits (4300 by default). Past it, a
    # literal read by `rat` or by json, and a value printed by `fmt`, give
    # one JSON error line and exit 3, not a traceback and the REFUTED code 1;
    # replay raises a CertificateError.
    digits = "1" * (_DIGIT_LIMIT + 700)
    halves = [str(10 ** (_DIGIT_LIMIT // 2 + 200) + k) for k in (1, 3)]  # coprime
    doc = example_a_doc(eps=f"1/{halves[0]}")
    doc["objective"]["pieces"][0]["b"] = f"1/{halves[1]}"
    files = {  # the text, and the start of its error
        "literal": (json.dumps(example_a_doc(eps=digits)), "rational literal too long"),
        "bare-integer": (
            json.dumps(example_a_doc(eps="EPS")).replace('"EPS"', digits),
            "cannot read problem file: Exceeds the limit",
        ),
        # both parse, but the report's numbers have their denominators' product
        "printed": (json.dumps(doc), "a rational is too long to print"),
    }
    for name, (text, error) in files.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        for command in ("verify", "falsify"):
            code = run([command, "--problem", str(p), "--mode", "rop"])
            lines = capsys.readouterr().out.splitlines()
            assert code == 3 and len(lines) == 1, name
            out = json.loads(lines[0])
            assert out["command"] == command and out["error"].startswith(error), name
    path = next(p for p in PROBLEMS if p.name == "example_b.json")
    _, report = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    report["checks"][0]["eps_prime"] = digits
    with pytest.raises(CertificateError):
        replay(load_problem(str(path)), report)


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python converts ints of any length")
def test_a_too_long_dual_entry_is_an_input_error(monkeypatch, capsys):
    # Every number of a report is printed as `fmt` prints it: a verdict whose
    # only rational too long to print is one dual entry of one check is an
    # input error, one JSON error line and exit 3.
    path = str(next(p for p in PROBLEMS if p.name == "example_b.json"))
    verdict = certificates.verify(load_problem(path), "rop")
    k, rec = next(
        (k, rec)
        for k, rec in enumerate(verdict.log)
        if isinstance(rec.evidence.outcome, lp.Optimal) and len(rec.evidence.outcome.dual) > 1
    )
    outcome = rec.evidence.outcome
    dual = (*outcome.dual[:-1], F(1, 10 ** (_DIGIT_LIMIT + 1)))
    evidence = replace(rec.evidence, outcome=lp.Optimal(outcome.x, outcome.value, dual))
    log = list(verdict.log)
    log[k] = replace(rec, evidence=evidence)
    forged = replace(verdict, log=tuple(log))
    monkeypatch.setattr(cli, "verify", lambda problem, mode: forged)
    code = run(["verify", "--problem", path, "--mode", "rop"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3 and len(lines) == 1
    assert json.loads(lines[0]) == {"command": "verify", "error": "a rational is too long to print"}
    monkeypatch.setattr(cli, "verify", lambda problem, mode: verdict)
    assert run(["verify", "--problem", path, "--mode", "rop"]) == 1


def test_subdiff_rejects_a_constraint_index_out_of_range(tmp_path, capsys):
    doc = example_a_doc()
    doc["constraints"] = [{"pieces": [{"a": ["1"], "b": "-5"}]}]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    argv = ["subdiff", "--problem", str(p), "--eps", "0", "--fn"]
    code, out = _run(capsys, [*argv, "constraint:0"])
    assert code == 0
    assert out["vertices"] == [["1"]]
    for bad in ("constraint:-1", "constraint:1", "constraint:x", "constraint:"):
        code, out = _run(capsys, [*argv, bad])
        assert code == 3
        assert "error" in out


def test_parse_roundtrip():
    doc = example_a_doc()
    problem = parse_problem(doc)
    again = parse_problem(problem_to_doc(problem))
    assert again == problem


def test_reports_byte_identical(problem_b, capsys):
    argv = ["verify", "--problem", problem_b, "--mode", "rop"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


_REPORT_KEYS = ["command", "verdict", "mode", "reason", "gates", "checks", "witness"]
_CHECK_KEYS = ["eps_prime", "generator", "kind", "accepted", "sup", "outcome"]


def test_a_report_is_one_compact_json_line(capsys):
    examples = [p for p in PROBLEMS if p.stem in ("example_a", "example_b")]
    assert len(examples) == 2
    for path in examples:
        problem = load_problem(str(path))
        for mode in MODES:
            for command in ("verify", "falsify"):
                code = run([command, "--problem", str(path), "--mode", mode])
                out = capsys.readouterr().out
                doc = json.loads(out)
                assert out == json.dumps(doc, separators=(",", ":")) + "\n"
                assert list(doc) == _REPORT_KEYS
                assert doc["command"] == command and doc["mode"] == mode
                assert code == {"CERTIFIED_ON_GRID": 0, "REFUTED": 1}[doc["verdict"]]
                assert all(list(check) == _CHECK_KEYS for check in doc["checks"])
                replay(problem, doc)


def test_replay_validates_and_detects_tampering(problem_b, capsys):
    code, doc = _run(capsys, ["verify", "--problem", problem_b, "--mode", "rop"])
    assert code == 1
    problem = load_problem(problem_b)
    replay(problem, doc)  # every stored certificate re-validates

    tampered = json.loads(json.dumps(doc))
    target = tampered["checks"][-1]["outcome"]
    key = "farkas" if target["tag"] == "infeasible" else ("dual" if target["tag"] == "optimal" else "ray")
    target[key][0] = "7/3"
    with pytest.raises(CertificateError):
        replay(problem, tampered)


def test_replay_covers_ray_checks(tmp_path, capsys):
    # Reverse function with a domain: its subdifferential grows rays.
    doc = {
        "n": 1,
        "objective": {
            "pieces": [{"a": ["1"], "b": "0"}, {"a": ["-1"], "b": "0"}]
        },
        "reverse": {
            "pieces": [{"a": ["1"], "b": "-1"}],
            "domain": {"A": [["1"]], "b": ["1"]},
        },
        "point": ["1"],
        "epsilon": "0",
    }
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(doc))
    code, rep = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    assert code == 0
    (ray,) = [c for c in rep["checks"] if c["kind"] == "ray"]
    assert (ray["eps_prime"], ray["generator"]) == ("0", ["1"])
    problem = load_problem(str(path))
    replay(problem, rep)
    ray["generator"] = ["2"]  # a direction the report did not check
    with pytest.raises(CertificateError):
        replay(problem, rep)


def test_replay_takes_a_refutation_beyond_a_ray_only_on_that_ray(tmp_path, capsys):
    # h = 2x - 2 on dom h = {x >= -1} at x_bar = 1: E is (0, 2) plus the cone
    # of (1, 0) and the ray (2, -1). The check at (0, 2) is accepted, the ray
    # from it leaves the union, and verify refutes at (6, -1) beyond it.
    doc = {
        "n": 1,
        "objective": {"pieces": [{"a": ["1"], "b": "-3"}]},
        "reverse": {
            "pieces": [{"a": ["2"], "b": "-2"}],
            "domain": {"A": [["-1"]], "b": ["1"]},
        },
        "point": ["1"],
        "epsilon": "0",
    }
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(doc))
    _, rep = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    problem = load_problem(str(path))
    assert [(c["eps_prime"], c["generator"], c["kind"]) for c in rep["checks"]] == [
        ("0", ["2"], "vertex"), ("2", ["-1"], "ray"), ("6", ["-1"], "vertex")
    ]
    assert rep["verdict"] == "REFUTED"
    replay(problem, rep)
    replay(problem, {**rep, "checks": rep["checks"][-1:]})
    # (6, -2) is rejected too, but lies on no ray from (0, 2).
    probe = certificates.membership_lp(problem, "rop", F(6), (F(-2),))
    evidence = certificates.probe_evidence(probe, lp.lp_solve(probe))
    assert not evidence.member
    log = (certificates.CheckRecord(F(6), (F(-2),), "vertex", evidence),)
    forged = reference_verdict_doc(certificates.CertificateVerdict("REFUTED", "rop", log=log))
    forged["gates"] = rep["gates"]
    with pytest.raises(CertificateError, match="not a point of E"):
        replay(problem, forged)


def test_replay_covers_convex_mode(tmp_path, capsys):
    # At x_bar = 1 the convex problem min |x| s.t. |x| - 1 <= 0 is
    # 1-optimal but not 0-optimal.
    for eps, verdict in (("1", "CERTIFIED_ON_GRID"), ("0", "REFUTED")):
        path = tmp_path / f"convex{eps}.json"
        path.write_text(json.dumps(example_a_doc(eps)))
        _, rep = _run(capsys, ["verify", "--problem", str(path), "--mode", "convex"])
        assert rep["verdict"] == verdict
        problem = load_problem(str(path))
        replay(problem, rep)

    (check,) = rep["checks"]
    assert check["outcome"]["tag"] == "optimal"
    check["outcome"]["dual"][0] = "7/3"
    with pytest.raises(CertificateError):
        replay(problem, rep)


def test_f_at_x_bar_is_read_at_most_once_per_decision_and_replay(monkeypatch):
    # The probe's columns, f(x_bar) in the budget among them, are built once
    # per problem and mode, however many checks a decision logs or replays.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += face_domain_family(12)
    seen = []
    original = PolyhedralConvexFunction.value

    def counting(self, x):
        seen.append((self, tuple(x)))
        return original(self, x)

    def f_at_x_bar(problem):
        count = sum(fn is problem.objective and x == problem.point for fn, x in seen)
        seen.clear()
        return count

    monkeypatch.setattr(PolyhedralConvexFunction, "value", counting)
    most_checks = 0
    for problem in problems:
        for mode in MODES:
            fresh = parse_problem(problem_to_doc(problem))
            seen.clear()
            doc = reference_verdict_doc(cli.verify(fresh, mode))
            assert f_at_x_bar(fresh) <= 1
            fresh = parse_problem(problem_to_doc(problem))
            replay(fresh, doc)
            assert f_at_x_bar(fresh) <= 1
            most_checks = max(most_checks, len(doc["checks"]))
    assert most_checks >= 2


def test_the_probe_matrix_is_oriented_once_per_problem_and_mode(monkeypatch):
    # A decision orients no probe, rays included: the template built once per
    # problem and mode, which is also the probe at (0, 0), starts its solve
    # from its integer columns, and every other probe, at a point or at a
    # ray's direction, is derived from it and re-solves from its basis.
    # Replay's certificate checks orient the template once; each probe
    # derived from it reads the template's system rescaled.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += face_domain_family(24)
    built = []  # the LPs oriented, anywhere
    probes = []
    oriented, membership_lp = lp._oriented, certificates.membership_lp

    def counting_oriented(problem_lp):
        built.append(problem_lp)
        return oriented(problem_lp)

    def recording_membership_lp(*args):
        probes.append(membership_lp(*args))
        return probes[-1]

    monkeypatch.setattr(lp, "_oriented", counting_oriented)
    for module in (certificates, cli):
        monkeypatch.setattr(module, "membership_lp", recording_membership_lp)

    def assert_oriented_once(templates_too):
        templates = {id(vars(probe).get("_template", probe)): probe for probe in probes}
        assert len(templates) <= 1
        derived = {id(probe) for probe in probes} - set(templates)
        expected = sorted(templates if templates_too else ())
        matrix = set(templates) | derived
        assert sorted(id(problem_lp) for problem_lp in built if id(problem_lp) in matrix) == expected
        built.clear()
        probes.clear()
        return len(derived)

    most_rays = most_derived = 0
    for problem in problems:
        for mode in MODES:
            fresh = parse_problem(problem_to_doc(problem))
            verdict = cli.verify(fresh, mode)
            doc = reference_verdict_doc(verdict)
            most_derived = max(most_derived, assert_oriented_once(templates_too=False))
            most_rays = max(most_rays, sum(rec.kind == "ray" for rec in verdict.log))
            replay(parse_problem(problem_to_doc(problem)), doc)
            assert_oriented_once(templates_too=True)
    assert most_rays >= 1 and most_derived >= 1


def test_a_decision_and_its_replay_leave_no_reference_cycle():
    # A problem keeps its lifted problems in its own instance dict, each
    # lifted problem (the problem itself in rop mode) its probe template in
    # its own, and no LP, tableau, verdict or report refers back to them:
    # once the caller drops the problem and what it got back, reference
    # counting alone frees the problem, its lifted problems and its
    # templates, with the cycle collector off.
    docs = [problem_to_doc(load_problem(str(path))) for path in PROBLEMS]
    docs += [problem_to_doc(problem) for problem in face_domain_family(24)]
    seen = set()
    templates = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for doc in docs:
            for mode in MODES:
                report = reference_verdict_doc(cli.verify(parse_problem(doc), mode))
                for step in ("verify", "falsify", "replay"):
                    problem = parse_problem(doc)
                    if step == "replay":
                        out = replay(problem, report)
                    else:
                        out = getattr(cli, step)(problem, mode)
                        seen |= {out.tag, *(rec.kind for rec in out.log)}
                    template = probe_template(problem, mode)
                    lifted = vars(problem).get("_lifted", {}).values()
                    refs = [weakref.ref(obj) for obj in (problem, *lifted)]
                    refs += [weakref.ref(template)] if template is not None else []
                    templates += template is not None
                    del lifted, template
                    del problem, out
                    assert all(ref() is None for ref in refs), (step, mode)
    finally:
        if enabled:
            gc.enable()
    assert {"REFUTED", "CERTIFIED_ON_GRID", "ray"} <= seen and templates > 100


def test_replay_trusts_no_solver(capsys, monkeypatch):
    # Replay re-validates the stored certificates by linear algebra alone:
    # every report of the problem files replays with the simplex disabled.
    reports = []
    for path in PROBLEMS:
        for mode in MODES:
            _, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", mode])
            reports.append((load_problem(str(path)), doc))
    tags = {c["outcome"]["tag"] for _, doc in reports for c in doc["checks"]}
    assert len(reports) >= 8 and {"optimal", "infeasible"} <= tags

    def refuse(self):
        raise RuntimeError("replay ran the simplex")

    monkeypatch.setattr(_Simplex, "solve", refuse)
    for problem, doc in reports:
        replay(problem, doc)


def test_replay_rereads_each_checks_verdict_off_its_outcome(capsys):
    # A certificate that re-validates does not vouch for the `accepted` and
    # `sup` logged beside it: replay reads them again off the outcome.
    path = next(p for p in PROBLEMS if p.name == "example_b.json")
    code, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    assert code == 1
    problem = load_problem(str(path))
    replay(problem, doc)

    forged = json.loads(json.dumps(doc))
    refuting = forged["checks"][-1]
    assert (refuting["accepted"], refuting["outcome"]["tag"]) == (False, "infeasible")
    refuting["accepted"], refuting["sup"] = True, "1"  # the Farkas vector stays
    with pytest.raises(CertificateError):
        replay(problem, forged)
    for key, value in (("accepted", True), ("sup", "1")):
        half = json.loads(json.dumps(doc))
        half["checks"][-1][key] = value
        with pytest.raises(CertificateError):
            replay(problem, half)

    unknown = json.loads(json.dumps(doc))
    unknown["checks"][0]["kind"] = "edge"
    with pytest.raises(CertificateError):
        replay(problem, unknown)


def test_replay_rederives_the_verdict_from_the_gates_and_checks(tmp_path, capsys):
    # Every honest report replays: a failed gate is the last one, a failed
    # essential gate certifies by one accepted check at (0, 0), any other
    # failed gate is INAPPLICABLE with no checks, and otherwise the checks
    # decide between CERTIFIED and REFUTED.
    off = example_a_doc()
    off["point"] = ["2"]
    paths = [str(p) for p in PROBLEMS]
    for name, doc in (("a1.json", example_a_doc("1")), ("off.json", off)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    reports = {}
    for path in paths:
        for mode in MODES:
            _, doc = _run(capsys, ["verify", "--problem", path, "--mode", mode])
            replay(load_problem(path), doc)
            reports[Path(path).stem, mode] = doc
            # A refutation cut to its refuting check replays on its own.
            if doc["verdict"] == "REFUTED":
                replay(load_problem(path), {**doc, "checks": doc["checks"][-1:]})
    assert {doc["verdict"] for doc in reports.values()} == {
        "CERTIFIED_ON_GRID", "REFUTED", "INAPPLICABLE"
    }

    def forged(key, **changes):
        doc = json.loads(json.dumps(reports[key]))
        doc.update(changes)
        return doc

    b = load_problem(next(str(p) for p in PROBLEMS if p.name == "example_b.json"))
    a1, off_problem = load_problem(paths[-2]), load_problem(paths[-1])
    gates = [["dom-f", True], ["h=0", True], ["essential", False]]
    inapplicable = {"verdict": "INAPPLICABLE", "reason": "essential-assumption-fails"}
    for problem, doc in (
        # A refutation hidden behind a failed essential gate with no checks.
        (b, forged(("example_b", "rop"), gates=gates, checks=[], **inapplicable)),
        # A refutation relabelled, and a certificate relabelled.
        (b, forged(("example_b", "rop"), verdict="CERTIFIED_ON_GRID")),
        (b, forged(("example_b", "rop"), verdict="INAPPLICABLE")),
        (a1, forged(("a1", "rop"), verdict="REFUTED")),
        # A failed essential gate without its check, or not the last gate.
        (a1, forged(("a1", "rop"), checks=[])),
        (a1, forged(("a1", "rop"), gates=[["essential", False], ["h=0", True]])),
        # A point gate that failed, read as a certificate.
        (off_problem, forged(("off", "rop"), verdict="CERTIFIED_ON_GRID")),
        # Passed gates and no checks.
        (b, forged(("example_b", "rop"), checks=[])),
    ):
        with pytest.raises(CertificateError):
            replay(problem, doc)
    # Gates that verify never writes: flags that are not JSON booleans, a
    # gate appended, and the last gate dropped or renamed. In convex mode the
    # last gate is one on x_bar, whose comparison rejects those two already.
    for path in PROBLEMS:
        for mode in MODES:
            honest = reports[path.stem, mode]["gates"]
            forgeries = [
                [[name, int(ok), *proof] for name, ok, *proof in honest],
                honest + [["bogus", True]],
            ]
            if mode != "convex":
                forgeries += [honest[:-1], honest[:-1] + [["zzz", honest[-1][1]]]]
            for forged_gates, match in zip(forgeries, ["not a boolean"] + ["verify writes"] * 3):
                with pytest.raises(CertificateError, match=match):
                    replay(load_problem(str(path)), forged((path.stem, mode), gates=forged_gates))

    def certificate(problem, mode, gates, eps_prime):
        """A certificate whose one check, at (eps', 0), is accepted."""
        zero = (F(0),)
        probe = certificates.membership_lp(problem, mode, eps_prime, zero)
        evidence = certificates.probe_evidence(probe, lp.lp_solve(probe))
        assert evidence.member
        log = (certificates.CheckRecord(eps_prime, zero, "vertex", evidence),)
        return reference_verdict_doc(
            certificates.CertificateVerdict("CERTIFIED_ON_GRID", mode, gates=gates, log=log)
        )

    # x_bar off {h = 0} is INAPPLICABLE at any eps; at eps = 2 its probe at
    # (0, 0) is accepted, and a report that forges the h=0 gate logs it.
    off_eps2 = parse_problem({**off, "epsilon": "2"})
    assert certificates.verify(off_eps2, "rop").reason == "point-not-on-boundary"
    forged_gate = certificate(off_eps2, "rop", gates, F(0))
    with pytest.raises(CertificateError, match="gates on x_bar"):
        replay(off_eps2, forged_gate)
    # Forgery (1): a refutation without its refuting check, relabelled. And
    # where a certificate is the check at (0, 0) alone, in convex mode (example
    # B is refuted there) and after a failed essential gate, a check at
    # eps' = 10 in its place.
    assert all(reports["example_b", mode]["verdict"] == "REFUTED" for mode in MODES)
    convex_gates = (("dom-f", True), ("h<=0", True))
    for problem, doc in (
        *(
            (b, forged(key, checks=reports[key]["checks"][:-1], verdict="CERTIFIED_ON_GRID"))
            for key in (("example_b", mode) for mode in ("rop", "constrained", "equality"))
        ),
        (b, certificate(b, "convex", convex_gates, F(10))),
        (a1, certificate(a1, "rop", gates, F(10))),
    ):
        with pytest.raises(CertificateError, match="the ones a certificate logs"):
            replay(problem, doc)

    # A rejected vertex check before the refuting one is no refutation.
    refuted = reports["example_b", "rop"]
    last = refuted["checks"][-1]
    with pytest.raises(CertificateError):
        replay(b, {**refuted, "checks": [last, last]})

    def refutation(problem, mode, gates, eps_prime, xstar):
        """A refutation whose one check, at (eps', x*), is rejected, behind a
        report's `gates`."""
        probe = certificates.membership_lp(problem, mode, eps_prime, xstar)
        evidence = certificates.probe_evidence(probe, lp.lp_solve(probe))
        assert not evidence.member
        log = (certificates.CheckRecord(eps_prime, xstar, "vertex", evidence),)
        doc = reference_verdict_doc(certificates.CertificateVerdict("REFUTED", mode, log=log))
        return doc | {"gates": gates}

    # A refutation on a point off E = {(eps', s) : s in d_eps' h(x_bar)}:
    # d_0 h(1) = {1} for example A, which verify certifies in rop mode; and
    # example B, refuted in every mode, with its refuting check moved off E.
    a = load_problem(next(str(p) for p in PROBLEMS if p.name == "example_a.json"))
    assert reports["example_a", "rop"]["verdict"] == "CERTIFIED_ON_GRID"
    gates_of = {mode: reports["example_b", mode]["gates"] for mode in MODES}
    for problem, doc in (
        (a, refutation(a, "rop", reports["example_a", "rop"]["gates"], F(0), (F(-7),))),
        *((b, refutation(b, mode, gates_of[mode], F(0), (F(-7),))) for mode in MODES),
    ):
        with pytest.raises(CertificateError, match="not a point of E"):
            replay(problem, doc)


def test_the_implied_verdict_runs_every_line_of_its_rule():
    # A failed gate is the last one (`_gate_names`): a failed essential gate
    # certifies by one accepted check at (0, 0) and fits nothing else, and a
    # failed gate on x_bar is INAPPLICABLE with no checks and fits nothing
    # with one. Passed gates leave the verdict to the checks. On this table
    # every line of `_implied_verdict` runs.
    point = [["dom-f", True], ["h=0", True]]
    failed_essential, failed_point = point + [["essential", False]], point[:1] + [["h=0", False]]
    passed = point + [["essential", True]]
    accepted, rejected = ("vertex", True), ("vertex", False)
    located, ray = ("ray", False), ("ray", True)
    table = [
        (failed_essential, [accepted], "CERTIFIED_ON_GRID"),
        (failed_essential, [], None),
        (failed_essential, [accepted, accepted], None),
        (failed_essential, [rejected], None),
        (failed_point, [], "INAPPLICABLE"),
        (failed_point, [accepted], None),
        (failed_point, [rejected], None),
        (passed, [], None),
        (passed, [accepted, ray], "CERTIFIED_ON_GRID"),
        (passed, [accepted, rejected], "REFUTED"),
        (passed, [accepted, located, rejected], "REFUTED"),
        (passed, [accepted, located], None),
        (passed, [located, accepted, rejected], None),
        (passed, [rejected, rejected], None),
    ]
    code = cli._implied_verdict.__code__
    body = {line for _offset, line in dis.findlinestarts(code)} - {code.co_firstlineno}
    reached = set()

    def trace(frame, event, _arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            reached.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        verdicts = [cli._implied_verdict(gates, checks) for gates, checks, _ in table]
    finally:
        sys.settrace(None)
    assert verdicts == [tag for _, _, tag in table]
    assert body <= reached, sorted(body - reached)


def test_replay_rejects_a_refutation_behind_a_passed_essential_gate_without_its_probe():
    # f = 0, h(x) = x, x_bar = 0 and eps = 0: inf f = f(x_bar), so the probe
    # at (0, 0) accepts and verify certifies. (0, 1) is a point of E, since
    # d_0 h(0) = {1}, and its probe genuinely rejects. Logged after a passed
    # essential gate, it reads as a refutation; the gate must carry the
    # rejected probe at (0, 0) that let verify look past it, and none exists.
    problem = parse_problem(
        {
            "n": 1,
            "objective": {"pieces": [{"a": ["0"], "b": "0"}]},
            "reverse": {"pieces": [{"a": ["1"], "b": "0"}]},
            "point": ["0"],
            "epsilon": "0",
        }
    )
    honest = certificates.verify(problem, "rop")
    assert (honest.tag, honest.gates[-1]) == ("CERTIFIED_ON_GRID", ("essential", False))
    replay(problem, reference_verdict_doc(honest))
    probe = certificates.membership_lp(problem, "rop", F(0), (F(1),))
    evidence = certificates.probe_evidence(probe, lp.lp_solve(probe))
    assert not evidence.member and isinstance(evidence.outcome, lp.Infeasible)
    log = (certificates.CheckRecord(F(0), (F(1),), "vertex", evidence),)
    passed = (("dom-f", True), ("h=0", True), ("essential", True))
    forged = reference_verdict_doc(
        certificates.CertificateVerdict("REFUTED", "rop", gates=passed, log=log)
    )
    with pytest.raises(CertificateError, match="carries an outcome"):
        replay(problem, forged)
    # Nor does the gate probe's own outcome back it, or the rejected check's.
    gate = certificates.membership_lp(problem, "rop", F(0), (F(0),))
    for outcome, match in ((lp.lp_solve(gate), "accepts"), (evidence.outcome, "length|farkas")):
        forged["gates"][-1][2:] = [reference_outcome_doc(outcome)]
        with pytest.raises(CertificateError, match=match):
            replay(problem, forged)


def test_replay_rejects_a_malformed_report_by_certificate_error(capsys):
    # A report that lacks a field replay reads, or logs a vector of the wrong
    # length, is rejected as a bad certificate, not by a KeyError or an
    # IndexError from inside the check.
    path = next(p for p in PROBLEMS if p.name == "example_b.json")
    _, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    problem = load_problem(str(path))
    replay(problem, doc)
    assert any(c["outcome"]["tag"] == "optimal" for c in doc["checks"])

    def forged(change):
        copy = json.loads(json.dumps(doc))
        change(copy)
        return copy

    optimal = next(i for i, c in enumerate(doc["checks"]) if c["outcome"]["tag"] == "optimal")
    for report in (
        forged(lambda d: d["checks"][0].pop("sup")),
        forged(lambda d: d["checks"][0].pop("outcome")),
        forged(lambda d: d.pop("mode")),
        forged(lambda d: d["checks"][0].update(generator=[])),
        forged(lambda d: d["checks"][optimal]["outcome"]["x"].pop()),
        # An unknown outcome tag or mode.
        forged(lambda d: d["checks"][0]["outcome"].update(tag="feasible")),
        forged(lambda d: d.update(mode="reverse")),
        # A literal that is not rational, where replay reads a rational.
        forged(lambda d: d["checks"][0].update(eps_prime="0.5")),
        forged(lambda d: d["checks"][0].update(generator=["0.5"])),
        forged(lambda d: d["checks"][optimal]["outcome"]["x"].__setitem__(0, "0.5")),
        forged(lambda d: d["checks"][optimal]["outcome"].update(value=0.5)),
        # A string where replay reads a list, which iterates by character.
        forged(lambda d: d["checks"][0].update(generator="1")),
        forged(lambda d: d["checks"][optimal]["outcome"].update(x="1.")),
        # A part that is not an object, or not a list.
        forged(lambda d: d["checks"][0].update(outcome="optimal")),
        forged(lambda d: d["checks"].__setitem__(0, 5)),
        forged(lambda d: d.update(checks=5)),
        forged(lambda d: d.update(gates=[["dom-f"]])),
        forged(lambda d: d.update(gates=[["dom-f", True, "proof"]])),
        forged(lambda d: d.update(gates=[["dom-f", True], ["h=0", True], ["essential", True]])),
        forged(lambda d: d["gates"][-1].__setitem__(2, "optimal")),
        forged(lambda d: d["gates"][-1][2].update(tag="feasible")),
    ):
        with pytest.raises(CertificateError):
            replay(problem, report)
    # A ray check where x_bar is off dom h, so that E has no generators: f =
    # x, h = x - 1 on {x <= 0} and x_bar = 1. Its probe at the direction
    # exists and its outcome checks, so the gates and the verdict rule reject
    # it: the h=0 gate fails on x_bar, and a failed gate on x_bar logs no check.
    off_dom_h = parse_problem(
        {
            "n": 1,
            "objective": {"pieces": [{"a": ["1"], "b": "0"}]},
            "reverse": {
                "pieces": [{"a": ["1"], "b": "-1"}],
                "domain": {"A": [["1"]], "b": ["0"]},
            },
            "point": ["1"],
            "epsilon": "0",
        }
    )
    probe = certificates.membership_lp(off_dom_h, "rop", F(0), (F(1),))
    evidence = certificates.probe_evidence(probe, lp.lp_solve(probe), ray=True)
    log = (certificates.CheckRecord(F(0), (F(1),), "ray", evidence),)
    certificate = certificates.CertificateVerdict("CERTIFIED_ON_GRID", "rop", log=log)
    ray = reference_verdict_doc(certificate)
    with pytest.raises(CertificateError, match="gates on x_bar"):
        replay(off_dom_h, {**ray, "gates": doc["gates"]})
    for verdict in ("CERTIFIED_ON_GRID", "INAPPLICABLE"):
        evaluated = {"gates": [["dom-f", True], ["h=0", False]], "verdict": verdict}
        with pytest.raises(CertificateError, match="does not follow"):
            replay(off_dom_h, {**ray, **evaluated})


def test_replay_rejects_checks_logged_for_a_point_off_the_domain_of_f(capsys):
    # With x_bar off dom f there is no probe LP to re-check a logged check
    # against: replay rejects the report as a bad certificate, in every mode,
    # not by the InputError the probe builder raises.
    path = next(p for p in PROBLEMS if p.name == "example_b.json")
    problem_doc = problem_to_doc(load_problem(str(path)))
    problem_doc["objective"]["domain"] = {"A": [["1"]], "b": ["-100"]}  # x <= -100
    off_domain = parse_problem(problem_doc)
    for mode in MODES:
        _, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", mode])
        assert doc["checks"]
        with pytest.raises(CertificateError, match="off the domain of f"):
            replay(off_domain, doc)
