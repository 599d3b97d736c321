"""Tests of the benchmark's own code: generators, ground truth, span arithmetic.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import revopt.certificates  # noqa: E402
import revopt.cli  # noqa: E402,F401
from corpus import corpus, exact_feasible_inf  # noqa: E402
from revopt.oracle import MODE_MAP, GridSpec, brute_eps_argmin  # noqa: E402
from revopt.problemfile import problem_to_doc  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from truth import exact_inf  # noqa: E402

F = Fraction


def _docs(problems):
    return [problem_to_doc(p) for p in problems]


def test_corpus_block_zero_is_the_acceptance_corpus():
    reference = _docs(corpus(120, 80, seed_base=1000))
    assert _docs(p for _, p in gen.corpus_block(1000)) == reference
    first = gen.corpus_rop(0)[: gen.CORPUS_BLOCK]
    assert sorted(i.index for i in first) == list(range(gen.CORPUS_BLOCK))
    by_index = sorted(first, key=lambda i: i.index)
    assert _docs(i.problem for i in by_index) == reference
    assert {i.mode for i in first} == {"rop"}


def test_generators_are_deterministic_and_seeded():
    a, b = gen.corpus_rop(3, blocks=1), gen.corpus_rop(3, blocks=1)
    assert _docs(i.problem for i in a) == _docs(i.problem for i in b)
    c = gen.corpus_rop(4, blocks=1)
    assert _docs(i.problem for i in a) != _docs(i.problem for i in c)
    w1, w2 = gen.wide_modes(1, count=16), gen.wide_modes(1, count=16)
    assert [(i.mode, problem_to_doc(i.problem)) for i in w1] == [
        (i.mode, problem_to_doc(i.problem)) for i in w2
    ]


def test_interleave_keeps_the_mix_in_every_prefix():
    out = gen.interleave([list("a" * 120), list("b" * 80), list("c" * 10)])
    assert sorted(out) == sorted("a" * 120 + "b" * 80 + "c" * 10)
    for k in range(1, len(out) + 1):
        for letter, share in (("a", 120 / 210), ("b", 80 / 210), ("c", 10 / 210)):
            assert abs(out[:k].count(letter) - share * k) < 2


def test_every_corpus_block_fills_the_same_strata():
    for seed in (1, 2):
        insts = gen.corpus_rop(seed, blocks=1)
        keys = [gen._stratum(i.problem) for i in insts]
        assert {k: keys.count(k) for k in set(keys)} == gen.CORPUS_QUOTAS


def test_wide_modes_cover_the_declared_shape():
    insts = gen.wide_modes(0, count=32)
    assert [i.mode for i in insts[:4]] == list(gen.MODES)
    assert {i.problem.n for i in insts} == {2, 3}
    with_domain = [i for i in insts if i.problem.reverse.domain is not None]
    assert len(with_domain) == 16
    for inst in insts:
        p = inst.problem
        assert 2 <= len(p.reverse.pieces) <= 5
        assert p.reverse.value(p.point) == 0
        assert all(g.value(p.point) <= 0 for g in p.constraints)
        assert bool(p.constraints) == (inst.mode == "constrained")
    for inst in with_domain:
        dom = inst.problem.reverse.domain
        face = sum(a * x for a, x in zip(dom.a[0], inst.problem.point))
        assert face == dom.b[0]  # x_bar on the face of the first row


def test_truth_matches_exact_feasible_inf_on_the_corpus():
    for problem in corpus(120, 80, seed_base=1000):
        assert exact_inf(problem, "rop") == exact_feasible_inf(
            problem.objective, problem.reverse
        )


def test_truth_agrees_with_the_grid_oracle_when_h_has_a_domain():
    checked = 0
    for inst in gen.wide_modes(0, count=32):
        p = inst.problem
        if p.n != 2 or p.reverse.domain is None or inst.mode == "equality":
            continue
        truth = exact_inf(p, inst.mode)
        grid_spec = GridSpec(((F(-3), F(3)),) * 2, F(1, 8))
        grid = brute_eps_argmin(p, MODE_MAP[inst.mode], grid_spec)
        assert grid.min_value is not None and truth is not None
        assert truth <= grid.min_value <= truth + grid.error_bound
        checked += 1
    assert checked >= 6


def test_truth_counts_the_outside_of_dom_h_as_feasible():
    # min x on [-3, 3] with h(x) = -1 on dom h = {x <= 0}: h >= 0 only
    # outside dom h, where h = +inf, so the infimum is 0 (approached from above).
    from revopt.model import (
        AffineForm,
        HPolyhedron,
        PolyhedralConvexFunction,
        ReverseProblem,
    )

    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), gen.box_domain(1))
    h = PolyhedralConvexFunction(
        1, (AffineForm((0,), -1),), HPolyhedron(((F(1),),), (F(0),), 1)
    )
    problem = ReverseProblem(1, f, h, (F(1),), 0)
    assert exact_inf(problem, "rop") == 0
    assert exact_inf(problem, "convex") == -3
    assert exact_inf(problem, "equality") is None


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, {}]


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span("root", 0.0, 10.0, None),  # 0
        _span("a", 1.0, 4.0, 0),  # 1
        _span("a.x", 2.0, 3.0, 1),  # 2: grandchild, not subtracted from root
        _span("b", 3.5, 6.0, 0),  # 3: overlaps a by 0.5
        _span("c", 9.0, 12.0, 0),  # 4: runs past the root's end
    ]
    got = spans.self_times(tree)
    assert got == [10.0 - (5.0 + 1.0), 2.0, 1.0, 2.5, 3.0]


def test_tracer_restores_every_binding():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.BINDINGS}
    tracer = spans.Tracer()
    with tracer.installed():
        wrapped = revopt.certificates.lp_solve
        assert wrapped is not before[("revopt.certificates", "lp_solve")]
        revopt.certificates.essential_check(*_essential_args())
    after = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.BINDINGS}
    assert after == before
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["certificates.essential_check", "lp.lp_solve"]
    assert tracer.spans[1][spans.PARENT] == 0


def _essential_args():
    from revopt.model import AffineForm, PolyhedralConvexFunction

    absf = PolyhedralConvexFunction(1, (AffineForm((1,), 0), AffineForm((-1,), 0)))
    return absf, None, (F(1),), F(0)


def test_end_to_end_times_are_scaled_per_instance():
    import pytest

    import harness

    records = [
        harness.Record(None, {"oracle": 0.010 * k, "bridge": 0.002}, scale=scale)
        for k, scale in ((1, 0.5), (2, 1.0), (3, 2.0))
    ]
    m = harness.end_to_end(harness.WORKLOADS["grid-oracle"], records, setup_s=1.0)
    assert m["decide_ms_p50"]["value"] == pytest.approx(20.0)  # of 5, 20, 60 ms
    assert m["decide_per_s"]["value"] == pytest.approx(3 / 0.085)
    assert m["instance_ms_p50"]["value"] == pytest.approx(22.0)  # of 6, 22, 64 ms
    speed = harness.Speed()
    speed.times.extend((0.001, 0.004, 0.002))
    assert speed.factor() == harness.KERNEL_REF_S / 0.002


def _decision(problem, **outputs):
    import harness

    case = harness.Case(gen.Instance(0, problem, "rop"), path="")
    return harness.Record(case, outputs=outputs)


def test_a_report_without_a_verdict_is_a_failure():
    import json

    import harness

    error = json.dumps({"command": "verify", "error": "malformed LP"})
    checks = harness.Checks()
    harness.check_decisions([_decision(harness._warm_problem(), verify=error)], checks)
    assert checks.failed == 1 and not checks.verdicts


def test_an_input_error_of_the_cli_is_a_failed_operation(tmp_path):
    import harness

    path = tmp_path / "bad.json"
    path.write_text("{}")
    case = harness.Case(gen.Instance(0, harness._warm_problem(), "rop"), str(path))
    rec = harness.Client(harness.WORKLOADS["corpus-rop"]).take(case)
    assert rec.failed == ["verify", "falsify"] and not rec.outputs


def test_a_wrong_certification_is_a_failure_only_on_a_strict_instance():
    import json

    import harness

    # min |x| s.t. |x| - 1 >= 0 has infimum 1 < f(2) - 0: x = 2 is not optimal
    p = harness._warm_problem()
    problem = type(p)(1, p.objective, p.reverse, (F(2),), 0)
    certified = json.dumps({"command": "verify", "verdict": "CERTIFIED_ON_GRID"})
    records = [_decision(problem, verify=certified)]
    checks = harness.Checks()
    harness.check_decisions(records, checks)
    assert (checks.wrong_certified, checks.wrong_refutations, checks.failed) == (1, 0, 0)
    strict = harness.Checks()
    harness.check_decisions(records, strict, strict=lambda index: True)
    assert (strict.wrong_certified, strict.failed) == (1, 1)
    # strict: the acceptance corpus, the first block of corpus-rop at seed 0
    is_strict = harness.WORKLOADS["corpus-rop"].strict
    assert is_strict(0, 0) and is_strict(0, gen.CORPUS_BLOCK - 1)
    assert not is_strict(0, gen.CORPUS_BLOCK) and not is_strict(1, 0)
    assert not harness.WORKLOADS["wide-modes"].strict(0, 0)


def test_a_wrong_refutation_is_a_failure():
    import json

    import harness

    # x = 1 is optimal for min |x| s.t. |x| - 1 >= 0
    refuted = json.dumps({"command": "verify", "verdict": "REFUTED"})
    checks = harness.Checks()
    harness.check_decisions([_decision(harness._warm_problem(), verify=refuted)], checks)
    assert checks.wrong_refutations == 1 and checks.failed >= 1
