import json
from fractions import Fraction
from pathlib import Path

import pytest

from revopt.cli import replay, run
from revopt.lp import CertificateError
from revopt.model import PolyhedralConvexFunction
from revopt.pareto import bridge_check
from revopt.problemfile import load_problem, parse_problem, problem_to_doc

F = Fraction


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


def test_verify_inapplicable(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(example_a_doc("1")))  # essential fails at eps=1
    code, doc = _run(capsys, ["verify", "--problem", str(path), "--mode", "rop"])
    assert code == 2
    assert doc["reason"] == "essential-assumption-fails"


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
    original = PolyhedralConvexFunction.value

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    problems = Path(__file__).resolve().parent.parent / "problems"
    for name in ("example_a.json", "example_b.json"):
        path = str(problems / name)
        argv = ["pareto", "--problem", path, "--box", "-1", "1", "--step", "1/2"]
        monkeypatch.setattr(PolyhedralConvexFunction, "value", counted)
        calls.clear()
        code, doc = _run(capsys, [*argv, "--sigma", "w"])
        assert len(calls) == 10  # f and h at each of the 5 grid points
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

    doc_float = example_a_doc()
    doc_float["epsilon"] = "0.5"
    p = tmp_path / "float.json"
    p.write_text(json.dumps(doc_float))
    code, _ = _run(capsys, ["verify", "--problem", str(p), "--mode", "rop"])
    assert code == 3

    doc_unknown = example_a_doc()
    doc_unknown["extra"] = 1
    p2 = tmp_path / "unknown.json"
    p2.write_text(json.dumps(doc_unknown))
    code, _ = _run(capsys, ["verify", "--problem", str(p2), "--mode", "rop"])
    assert code == 3


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("constraints",), None),
        (("constraints",), {}),
        (("objective", "pieces"), 5),
        (("objective", "pieces", 0, "a"), "1"),
        (("point",), "1"),
        (("n",), True),
        (("epsilon",), True),
        (("objective", "pieces", 0, "b"), False),
        (("reverse", "domain"), {"A": "1", "b": ["1"]}),
        (("reverse", "domain"), {"A": ["1"], "b": ["1"]}),
        (("reverse", "domain"), {"A": [["1"]], "b": "1"}),
    ],
    ids=[
        "constraints-null",
        "constraints-object",
        "pieces-number",
        "a-string",
        "point-string",
        "n-boolean",
        "epsilon-boolean",
        "b-boolean",
        "A-string",
        "A-row-string",
        "domain-b-string",
    ],
)
def test_malformed_shapes_exit_3(tmp_path, capsys, path, value):
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
        assert "error" in out


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
