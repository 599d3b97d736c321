"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from corpus import beta_capped_member, corpus, exact_feasible_inf, random_fn
from revopt.certificates import falsify, union_member, verify
from revopt.cli import run
from revopt.lp import Infeasible, Optimal, check_outcome, lp_solve
from revopt.model import (
    INF,
    AffineForm,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from revopt.oracle import GridSpec, brute_eps_argmin
from revopt.pareto import ParetoSample, bridge_check, eff_set, reee_check
from revopt.subdiff import SubdiffQuery, scale_subdiff, subdiff_member, subdiff_vrep

F = Fraction
NEG_INF = float("-inf")


def fn(n, *pieces):
    return PolyhedralConvexFunction(n, tuple(AffineForm(a, b) for a, b in pieces))


def absf():
    return fn(1, ((1,), 0), ((-1,), 0))


def abs_minus_one():
    return fn(1, ((1,), -1), ((-1,), -1))


def steep():
    return fn(1, ((2,), 0), ((-1,), 0))


def example_a(eps=0):
    return ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(eps))


def example_b(eps=0):
    return ReverseProblem(1, steep(), abs_minus_one(), (F(1),), F(eps))


def _ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# -- corpus shared by criteria 3, 5 and 6 -----------------------------------


@pytest.fixture(scope="session")
def corpus_results():
    t0 = time.perf_counter()
    instances = corpus(120, 80, seed_base=1000)
    records = []
    for problem in instances:
        verdict = verify(problem, "rop")
        dense = falsify(problem, "rop")
        step = F(1, 60) if problem.n == 1 else F(1, 8)
        grid = GridSpec(((F(-3), F(3)),) * problem.n, step)
        oracle = brute_eps_argmin(problem, "reverse", grid)
        records.append(
            {
                "problem": problem,
                "verdict": verdict,
                "dense": dense,
                "oracle": oracle,
            }
        )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_worked_example_a():
    t0 = time.perf_counter()
    verdict = verify(example_a(), "rop")
    grid = GridSpec(((F(-3), F(3)),), F(1, 100))
    oracle = brute_eps_argmin(example_a(), "reverse", grid)
    elapsed = time.perf_counter() - t0
    assert verdict.tag == "CERTIFIED_ON_GRID"
    assert oracle.min_value == 1
    assert oracle.eps_argmin == ((F(-1),), (F(1),))
    assert elapsed < 1.0
    _ok(1, f"(example A certified, oracle min 1 at +-1, {elapsed:.2f}s)")


def test_criterion_2_worked_example_b():
    t0 = time.perf_counter()
    verdict = verify(example_b(), "rop")  # refuted at h's generator (2, -1)
    assert verdict.tag == "REFUTED"
    ep, xstar = verdict.witness
    assert subdiff_member(SubdiffQuery(abs_minus_one(), (F(1),), ep), xstar)
    check_outcome(verdict.witness_evidence.lp, verdict.witness_evidence.outcome)
    grid = GridSpec(((F(-3), F(3)),), F(1, 100))
    oracle = brute_eps_argmin(example_b(), "reverse", grid)
    assert oracle.min_value == 1 == steep().value((F(-1),))
    assert steep().value((F(1),)) == 2
    t1 = time.perf_counter()
    relaxed = verify(example_b(1), "rop")
    oracle_r = brute_eps_argmin(example_b(1), "reverse", grid)
    assert relaxed.tag == "CERTIFIED_ON_GRID"
    assert oracle_r.min_value >= steep().value((F(1),)) - 1
    t2 = time.perf_counter()
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0
    _ok(2, f"(refuted at eps'={ep}, relaxed instance certified; "
           f"{t1-t0:.2f}s / {t2-t1:.2f}s)")


def test_criterion_3_randomized_corpus(corpus_results):
    records, elapsed = corpus_results
    assert len(records) >= 200
    refuted = certified = inapplicable = 0
    for rec in records:
        problem, verdict, dense, oracle = (
            rec["problem"], rec["verdict"], rec["dense"], rec["oracle"],
        )
        # falsify is the same exact decision as verify.
        assert (dense.tag, dense.witness) == (verdict.tag, verdict.witness)
        if verdict.tag == "INAPPLICABLE":
            inapplicable += 1
            continue
        threshold = problem.objective.value(problem.point) - problem.epsilon
        exact_inf = exact_feasible_inf(problem.objective, problem.reverse)
        optimal = exact_inf is None or exact_inf >= threshold
        # Every applicable verdict is the exact truth, in both directions.
        assert verdict.tag == ("CERTIFIED_ON_GRID" if optimal else "REFUTED")
        if verdict.tag == "REFUTED":
            refuted += 1
            # Grid view agrees within the L*step bound.
            if oracle.min_value is not None and oracle.min_value != INF:
                assert oracle.min_value - threshold <= oracle.error_bound
            # Witness re-checks: true subgradient plus valid LP evidence.
            ep, xstar = verdict.witness
            assert subdiff_member(
                SubdiffQuery(problem.reverse, problem.point, ep), xstar
            )
            evidence = verdict.witness_evidence
            check_outcome(evidence.lp, evidence.outcome)
        else:
            certified += 1
            assert oracle.min_value is not None
            if oracle.min_value != INF:
                assert threshold - oracle.min_value <= oracle.error_bound
    assert refuted > 0 and certified > 0
    assert elapsed < 300.0
    _ok(3, f"({len(records)} instances: {certified} certified, {refuted} refuted, "
           f"{inapplicable} inapplicable; every verdict exact; zero oracle "
           f"contradictions; {elapsed:.0f}s)")


def test_criterion_4_closed_forms_and_scaling():
    for eps in (F(0), F(1, 2), F(1), F(4)):
        lo = max(F(-1), 1 - eps)
        expected = ((F(1),),) if lo == 1 else ((lo,), (F(1),))
        got = subdiff_vrep(SubdiffQuery(absf(), (F(1),), eps))
        assert got.vertices == expected and got.rays == ()
    rng = random.Random(404)
    lams = (F(1, 3), F(1, 2), F(2), F(5))
    checked = 0
    while checked < 50:
        n = rng.choice([1, 2])
        f = random_fn(rng, n)
        x0 = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        eps = F(rng.randint(0, 8), 4)
        lam = lams[checked % 4]
        via_law = scale_subdiff(SubdiffQuery(f, x0, eps), lam)
        direct = subdiff_vrep(SubdiffQuery(f.scaled(lam), x0, eps))
        assert via_law == direct
        checked += 1
    _ok(4, "(closed form at eps in {0,1/2,1,4}; scaling law exact on 50 instances)")


def test_criterion_5_pareto_identities(corpus_results):
    rng = random.Random(505)
    for _ in range(100):
        images = []
        for _ in range(rng.randint(1, 30)):
            if rng.random() < 0.1:
                images.append(None)
            else:
                images.append((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        pts = tuple((F(k),) for k in range(len(images)))
        sample = ParetoSample(2, pts, tuple(images))
        eps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        strong = set(eff_set(sample, eps, "s"))
        eff = set(eff_set(sample, eps, "e"))
        weak = set(eff_set(sample, eps, "w"))
        assert strong <= eff <= weak
        rep = reee_check(sample, eps, [(F(1), F(0)), (F(1, 2), F(1, 2))])
        assert rep.passed
    records, _ = corpus_results
    violations = 0
    for rec in records:
        problem = rec["problem"]
        step = F(1, 4) if problem.n == 1 else F(1, 2)
        box = ((F(-3), F(3)),) * problem.n
        rep = bridge_check(
            problem.objective, problem.reverse, box, step, problem.epsilon
        )
        violations += len(rep.missing_from_weak) + len(rep.missing_from_argmin)
    assert violations == 0
    _ok(5, "(chain + intersection identity on 100 samples; bridge violations: 0)")


def test_criterion_6_mode_coherence(corpus_results):
    records, _ = corpus_results
    for rec in records:
        problem = rec["problem"]
        again = verify(problem, "constrained")
        assert again.tag == rec["verdict"].tag
        assert again.witness == rec["verdict"].witness
    rng = random.Random(606)
    for _ in range(500):
        f = random_fn(rng, 1)
        x = (F(rng.randint(-2, 2)),)
        slope = F(rng.randint(1, 3))
        h = fn(1, ((slope,), -slope * x[0]))
        eps = F(rng.randint(0, 2))
        ep = F(rng.randint(0, 3), 2)
        xs = (F(rng.randint(-4, 4), rng.randint(1, 2)),)
        p = ReverseProblem(1, f, h, x, eps)
        a = union_member(p, "rop", ep, xs)
        b = beta_capped_member(p, ep, xs)
        assert a.member == b
    _ok(6, "(constrained m=0 matches rop verdict-for-verdict; 500 beta=0 queries agree)")


def test_criterion_7_lp_certificates(tmp_path, capsys):
    rng = random.Random(707)
    infeasible = optimal = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = tuple(
            (
                tuple(F(rng.randint(-4, 4)) for _ in range(n)),
                rng.choice(["<=", "=", ">="]),
                F(rng.randint(-6, 6)),
            )
            for _ in range(rng.randint(1, 6))
        )
        from revopt.lp import LinearProgram

        lp = LinearProgram(
            n,
            tuple(F(rng.randint(-3, 3)) for _ in range(n)),
            rng.choice(["min", "max"]),
            rows=rows,
            lower=tuple(
                F(rng.randint(-5, 0)) if rng.random() < 0.4 else None
                for _ in range(n)
            ),
            upper=tuple(
                F(rng.randint(1, 6)) if rng.random() < 0.4 else None
                for _ in range(n)
            ),
        )
        out = lp_solve(lp)
        check_outcome(lp, out)  # Farkas / duals / rays re-validate exactly
        if isinstance(out, Infeasible):
            infeasible += 1
        elif isinstance(out, Optimal):
            optimal += 1
        assert lp_solve(lp) == out  # determinism
    assert infeasible > 20 and optimal > 20

    doc = {
        "n": 1,
        "objective": {"pieces": [{"a": ["2"], "b": "0"}, {"a": ["-1"], "b": "0"}]},
        "reverse": {"pieces": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "-1"}]},
        "point": ["1"],
        "epsilon": "0",
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--problem", str(path), "--mode", "rop"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second  # byte-identical; the engine is single-threaded
    _ok(7, f"({infeasible} Farkas + {optimal} duality certificates re-validated; "
           "reports byte-identical)")
