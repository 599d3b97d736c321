import collections
import functools
import io
import json
import random
import sys
from fractions import Fraction
from operator import mul
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from corpus import (
    SLATER_FAILING_G,
    adversarial_family,
    beta_capped_member,
    box_domain,
    corpus,
    exact_feasible_inf,
    face_domain_family,
    random_fn,
    slater_failing_family,
    truth,
    wide_modes,
)
from reference import (
    _phis,
    probe_template,
    reference_phi_columns,
    reference_verdict_doc,
    replace,
)
from revopt import certificates, cli
from revopt.certificates import (
    MODES,
    essential_check,
    falsify,
    membership_lp,
    probe_evidence,
    slater_check,
    union_member,
    verify,
)
from revopt.cli import replay
from revopt.lp import LinearProgram, _oriented, check_outcome, lp_solve, lp_value
from revopt.model import (
    INF,
    AffineForm,
    HPolyhedron,
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from revopt.problemfile import dump_problem, load_problem
from revopt.subdiff import SubdiffQuery, subdiff_epigraph, subdiff_member

F = Fraction


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


# -- gates ---------------------------------------------------------------


def test_essential_whole_space():
    assert essential_check(absf(), None, (F(1),), F(0))
    assert not essential_check(absf(), None, (F(1),), F(1))


def test_essential_over_region():
    assert essential_check(steep(), (abs_minus_one(),), (F(1),), F(0))


def test_essential_infeasible_region_is_false():
    # phi(x) = |x| + 1 <= 0 has no solutions.
    phi = fn(1, ((1,), 1), ((-1,), 1))
    assert not essential_check(absf(), (phi,), (F(1),), F(0))


def test_slater_examples():
    f = absf()
    assert slater_check((fn(1, ((1,), -1)),), f)
    assert not slater_check((absf(),), f)
    assert slater_check((fn(1, ((1,), 0)), fn(1, ((-1,), -2))), f)


def test_slater_respects_the_domains_of_f_and_g():
    # G = (x,): x0 = -1 is strictly feasible unless a domain cuts it off.
    g = fn(1, ((1,), 0))
    at_least_one = HPolyhedron(((F(-1),),), (F(-1),), 1)

    def on(dom, f):
        return PolyhedralConvexFunction(1, f.pieces, dom)

    assert slater_check((g,), absf())
    assert not slater_check((g,), on(at_least_one, absf()))
    assert not slater_check((on(at_least_one, g),), absf())
    # dom f = [-3, 3] and dom g2 = {x <= 1/2}: any x0 in [-3, 1/2) works.
    g2 = on(HPolyhedron(((F(1),),), (F(1, 2),), 1), fn(1, ((1,), F(-1, 2))))
    assert slater_check((g, g2), on(box_domain(1), absf()))
    # Disjoint domains leave no point to be strictly feasible at.
    assert not slater_check((g2,), on(at_least_one, absf()))


# -- the lift ----------------------------------------------------------------


def test_the_lifted_template_has_the_phi_form_columns():
    # Each piece of each phi_j, lifted into dom f~ as a row a.x <= -b, gets
    # the column that its nu multiplier had when phi_j joined alpha*f in the
    # union, and the rows keep their order, so in the three modes that lift
    # the template's integer columns equal the phi-form ones tuple for
    # tuple. Where x_bar is off dom f~ there is no template, and a gate on
    # x_bar fails.
    problems = corpus(120, 80, 1000) + face_domain_family(300)
    problems += [inst.problem for seed in range(4) for inst in wide_modes(seed)]
    problems += [problem for problem, _below, _kind in slater_failing_family()]
    for problem in problems:
        zero = (F(0),) * problem.n
        for mode in ("constrained", "equality", "convex"):
            template = membership_lp(problem, mode, F(0), zero)
            assert vars(template)["_columns"] == reference_phi_columns(problem, mode), mode
    # h(x_bar) = 1: x_bar is off {h <= 0}, so off dom f~.
    off = ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0))
    for mode in ("equality", "convex"):
        assert not all(ok for _name, ok, _ in certificates._point_gates(off, mode))
        with pytest.raises(InputError, match="off the domain of f"):
            membership_lp(off, mode, F(0), (F(0),))


def test_constraints_without_a_slater_point_are_decided_exactly(tmp_path):
    # Constrained mode is rop on f + delta{G <= 0}, which needs no Slater
    # point. With a g that is nowhere < 0 on its domain (g = 0,
    # |c.(x - x_bar)|, c.(x - x_bar) on {c.(x - x_bar) >= 0}) or a G that
    # meets dom f in x_bar alone, every verdict, through verify and through
    # the command line, is the exact truth's (`truth.exact_inf`): certified
    # at eps* and refuted at eps* - 1/1000. Every report replays.
    tally = collections.Counter()
    for i, (problem, below, kind) in enumerate(slater_failing_family()):
        assert not slater_check(problem.constraints, problem.objective)
        want = "REFUTED" if below else "CERTIFIED_ON_GRID"
        assert verify(problem, "constrained").tag == want, (i, kind)
        path = tmp_path / f"s{i:04d}.json"
        dump_problem(problem, str(path))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(["verify", "--problem", str(path), "--mode", "constrained"])
        report = json.loads(out.getvalue())
        assert (report["verdict"], code) == (want, cli._EXIT_CODE[want]), (i, kind)
        replay(load_problem(str(path)), report)
        tally[kind, want] += 1
    assert set(tally) == {
        (kind, want)
        for kind in SLATER_FAILING_G
        for want in ("CERTIFIED_ON_GRID", "REFUTED")
        if (kind, want) != ("point", "REFUTED")  # eps* = 0 there
    }


# -- union membership ----------------------------------------------------


def vanishing_at(x):
    """h(y) = y - x, which is 0 at x, so the boundary gate h(x_bar) = 0 holds
    at x_bar = x."""
    return fn(1, ((1,), -x[0]))


def test_union_rop_examples():
    p = example_a()
    assert union_member(p, "rop", F(0), (F(2),)).member
    assert not union_member(p, "rop", F(0), (F(-1),)).member
    boundary = union_member(p, "rop", F(0), (F(0),))
    assert not boundary.member
    assert boundary.sup == 0  # only alpha = 0 is feasible


def test_union_rop_off_domain_raises():
    from revopt.model import HPolyhedron

    dom = HPolyhedron(((F(1),),), (F(0),), 1)
    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), dom)
    p = ReverseProblem(1, f, vanishing_at((F(1),)), (F(1),), F(0))
    with pytest.raises(Inapplicable):
        union_member(p, "rop", F(0), (F(1),))


def test_union_constrained_examples():
    g = fn(1, ((1,), -1))
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(0), (g,))
    assert union_member(p, "constrained", F(0), (F(2),)).member
    assert union_member(p, "constrained", F(0), (F(3),)).member


def test_union_constrained_reduces_to_rop_when_unconstrained():
    rng = random.Random(2)
    for _ in range(60):
        pieces = tuple(
            ((F(rng.randint(-3, 3)),), F(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 4))
        )
        f = fn(1, *pieces)
        x = (F(rng.randint(-2, 2)),)
        eps = F(rng.randint(0, 2))
        ep = F(rng.randint(0, 3), 2)
        xs = (F(rng.randint(-4, 4), rng.randint(1, 2)),)
        p = ReverseProblem(1, f, vanishing_at(x), x, eps)
        a = union_member(p, "rop", ep, xs)
        b = union_member(p, "constrained", ep, xs)
        assert a.member == b.member


def test_union_equality_examples():
    p = example_a()
    assert union_member(p, "equality", F(0), (F(5),)).member
    bad = union_member(p, "equality", F(0), (F(-1, 2),))
    assert not bad.member
    check_outcome(bad.lp, bad.outcome)  # LP infeasibility backs the refusal


def test_union_equality_beta_zero_matches_rop():
    rng = random.Random(3)
    for _ in range(500):
        pieces = tuple(
            ((F(rng.randint(-3, 3)),), F(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 4))
        )
        f = fn(1, *pieces)
        x = (F(rng.randint(-2, 2)),)
        # h vanishing at x keeps the boundary gate satisfied.
        slope = F(rng.randint(1, 3))
        h = fn(1, ((slope,), -slope * x[0]))
        eps = F(rng.randint(0, 2))
        ep = F(rng.randint(0, 3), 2)
        xs = (F(rng.randint(-4, 4), rng.randint(1, 2)),)
        p = ReverseProblem(1, f, h, x, eps)
        a = union_member(p, "rop", ep, xs)
        b = beta_capped_member(p, ep, xs)
        assert a.member == b


def test_union_equality_gates():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0))
    with pytest.raises(Inapplicable):
        union_member(p, "equality", F(0), (F(1),))


def test_convex_case_examples():
    zero = (F(0),)

    def member(x, eps):
        p = ReverseProblem(1, absf(), abs_minus_one(), x, eps)
        return union_member(p, "convex", F(0), zero).member

    assert member((F(0),), F(0))
    assert not member((F(1),), F(0))
    assert member((F(1),), F(1))


def gate_cases():
    """(problem, modes) pairs, one per gate on x_bar, that fail exactly that
    gate in each listed mode."""
    dom = HPolyhedron(((F(1),),), (F(0),), 1)  # x <= 0, so x_bar = 1 is off it
    off_dom_f = PolyhedralConvexFunction(1, absf().pieces, dom)
    yield ReverseProblem(1, off_dom_f, abs_minus_one(), (F(1),), F(0)), MODES
    # h(2) = 1: off the boundary, and outside {h <= 0}.
    yield ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0)), MODES
    g = fn(1, ((1,), -2))  # g(3) = 1 > 0
    h = vanishing_at((F(3),))
    yield ReverseProblem(1, absf(), h, (F(3),), F(0), (g,)), ("constrained",)


def test_union_member_raises_the_gate_reason_that_verify_reports():
    seen = set()
    for problem, modes in gate_cases():
        for mode in modes:
            v = verify(problem, mode)
            assert v.tag == "INAPPLICABLE"
            name, ok = v.gates[-1]
            assert not ok
            seen.add((name, mode))
            with pytest.raises(Inapplicable) as err:
                union_member(problem, mode, F(0), (F(0),))
            assert str(err.value) == v.reason
    assert seen == {
        *(("dom-f", mode) for mode in MODES),
        ("h=0", "rop"),
        ("h=0", "constrained"),
        ("h=0", "equality"),
        ("h<=0", "convex"),
        ("G<=0", "constrained"),
    }


# -- verify / falsify ----------------------------------------------------


def test_verify_example_a_certified():
    v = verify(example_a(), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"
    assert dict(v.gates)["essential"]


def test_verify_example_b_refuted_with_exact_witness():
    v = verify(example_b(), "rop")
    assert v.tag == "REFUTED"
    assert v.witness == (F(2), (F(-1),))
    # Soundness re-checks: the witness is a true eps'-subgradient of h and
    # its membership LP evidence re-validates.
    h = example_b().reverse
    assert subdiff_member(SubdiffQuery(h, (F(1),), F(2)), (F(-1),))
    check_outcome(v.log[-1].evidence.lp, v.log[-1].evidence.outcome)


def test_verify_example_b_relaxed_is_certified():
    v = verify(example_b(1), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"


def test_verify_boundary_gate():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0))
    v = verify(p, "rop")
    assert v.tag == "INAPPLICABLE"
    assert v.reason == "point-not-on-boundary"


def test_verify_essential_gate_reports_trivial_side():
    # inf f = 0 is not below f(1) - 1, so x_bar = 1 is 1-optimal: the failed
    # gate certifies, and its certificate is one accepted check at (0, 0).
    p = example_a(1)
    v = verify(p, "rop")
    assert (v.tag, v.reason, v.witness) == ("CERTIFIED_ON_GRID", None, None)
    assert v.gates[-1] == ("essential", False)
    (rec,) = v.log
    assert (rec.kind, rec.eps_prime, rec.generator) == ("vertex", 0, (F(0),))
    assert rec.evidence.member
    check_outcome(rec.evidence.lp, rec.evidence.outcome)
    assert exact_feasible_inf(p.objective, p.reverse) >= 1 - p.epsilon


def test_a_failed_essential_gate_costs_one_probe(monkeypatch):
    # The probe at (0, 0) is the gate and its certificate, so it is the whole
    # decision in every boundary mode: no epigraph LP through essential_check
    # and no subdifferential membership LP is asked. That probe is the
    # (problem, mode)'s template itself, not an LP derived from it.
    import revopt.certificates as certificates
    import revopt.subdiff as subdiff

    real, solved = subdiff.lp_solve, []

    def counted(lp):
        solved.append(lp)
        return real(lp)

    def forbidden(*args):
        raise AssertionError("essential_check or subdiff_member on the verify path")

    monkeypatch.setattr(subdiff, "lp_solve", counted)
    monkeypatch.setattr(certificates, "lp_solve", counted)
    monkeypatch.setattr(certificates, "essential_check", forbidden)
    monkeypatch.setattr(subdiff, "subdiff_member", forbidden)
    monkeypatch.setattr(certificates, "subdiff_member", forbidden)
    # f = |x| is 0-optimal at x_bar = 0, on the boundary of h(y) = y, also
    # under g(x) = x - 1 <= 0.
    p = ReverseProblem(1, absf(), vanishing_at((F(0),)), (F(0),), F(0))
    with_g = replace(p, constraints=(fn(1, ((1,), -1)),))
    for problem, mode in (
        (p, "rop"), (p, "constrained"), (with_g, "constrained"), (p, "equality"),
    ):
        solved.clear()
        v = verify(problem, mode)
        assert v.tag == "CERTIFIED_ON_GRID", mode
        assert v.gates[-1] == ("essential", False)
        assert len(solved) == 1, mode
        assert solved == [v.log[0].evidence.lp], mode
        assert solved[0] is probe_template(problem, mode), mode
        assert "_template" not in vars(solved[0]), mode


def test_vertex_checks_re_solve_from_the_gate_probe(monkeypatch):
    # A passed essential gate leaves the (0, 0) probe solved to an optimum;
    # every vertex check is derived from it and re-solves from its final
    # basis, so the gate's is the only tableau a decision without rays
    # builds, laid out from the template's integer columns with no oriented
    # system, and each LP still goes through `lp_solve` once.
    import revopt.certificates as certificates
    from revopt import lp
    from revopt.lp import _Simplex

    real, solved, built, laid_out, oriented = certificates.lp_solve, [], [], [], []
    original_init, original_from_columns = _Simplex.__init__, _Simplex.from_columns
    original_oriented = lp._oriented

    def counted(problem_lp):
        solved.append(problem_lp)
        return real(problem_lp)

    def counting_init(self, problem_lp):
        built.append(problem_lp)
        original_init(self, problem_lp)

    def counting_from_columns(problem_lp, columns):
        laid_out.append(problem_lp)
        return original_from_columns(problem_lp, columns)

    problems = corpus(120, 80, seed_base=1000)[:60]
    monkeypatch.setattr(certificates, "lp_solve", counted)
    monkeypatch.setattr(_Simplex, "__init__", counting_init)
    monkeypatch.setattr(_Simplex, "from_columns", counting_from_columns)
    monkeypatch.setattr(
        lp, "_oriented", lambda problem_lp: oriented.append(problem_lp) or original_oriented(problem_lp)
    )
    most_checks = 0
    for problem in problems:
        for mode in ("rop", "equality"):
            solved.clear()
            laid_out.clear()
            v = verify(problem, mode)
            if ("essential", True) not in v.gates:
                continue
            assert not any(rec.kind == "ray" for rec in v.log)
            gate = probe_template(problem, mode)
            assert solved[0] is gate and laid_out == [gate]
            assert solved[1:] == [rec.evidence.lp for rec in v.log]
            assert all(vars(probe)["_template"] is gate for probe in solved[1:])
            most_checks = max(most_checks, len(v.log))
    assert built == [] and oriented == []
    assert most_checks >= 2


def _fractions_made_within(scopes, run) -> tuple:
    """run()'s result, with the count of the Fractions made while a function
    whose code object is in `scopes` is on the stack: calls to
    `Fraction.__new__`, and to `Fraction._from_coprime_ints` where
    arithmetic makes them that way."""
    makers = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        makers.add(Fraction._from_coprime_ints.__func__.__code__)
    made = 0

    def profile(frame, event, _arg):
        nonlocal made
        if event == "call" and frame.f_code in makers:
            caller = frame.f_back
            while caller is not None and caller.f_code not in scopes:
                caller = caller.f_back
            made += caller is not None

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return made, result


def _eager_probe(problem, mode, eps_prime, xstar):
    """`membership_lp`'s probe assembled from the problem's Fractions by the
    LinearProgram constructor: lam, nu and eta columns, the slope rows = x*,
    and the budget row >= -<x*, x_bar> - eps'."""
    f, x_bar = problem.objective, problem.point
    phis = _phis(mode, problem)
    alpha = problem.epsilon - f.value(x_bar)
    cols = [(p.a, p.b + alpha) for p in f.pieces]
    cols += [(p.a, p.b) for phi in phis for p in phi.pieces]
    for g in (f, *phis):
        if g.domain is not None:
            cols += [(row, -rhs) for row, rhs in zip(g.domain.a, g.domain.b)]
    slopes, budget = zip(*cols)
    rows = [(row, "=", x) for row, x in zip(zip(*slopes), xstar)]
    rows.append((budget, ">=", -sum(map(mul, xstar, x_bar)) - eps_prime))
    n = len(cols)
    objective = (1,) * len(f.pieces) + (0,) * (n - len(f.pieces))  # max alpha = sum lam
    return LinearProgram(n, objective, "max", rows, (0,) * n)


def test_a_decision_builds_only_what_it_reads(monkeypatch):
    # A verify reads no probe's Fraction rows, with ray checks or without:
    # neither the template's nor any derived probe's `rows` are built, and
    # the template, the right-hand sides (`_probe_rhs`) and the gates on
    # x_bar (`_point_gates`) make no Fraction. Where rows are read, by
    # replay's certificate checks through the oriented system, they equal
    # those of the probe that the constructor builds eagerly from the
    # problem's Fractions, and so does the system.
    paths = sorted(Path(__file__).resolve().parent.parent.glob("problems/*.json"))
    problems = [load_problem(str(path)) for path in paths]
    problems += corpus(120, 80, seed_base=1000) + [inst.problem for inst in wide_modes(0)]
    scopes = {
        certificates._probe_template.__code__,
        certificates._probe_rhs.__code__,
        certificates._point_gates.__code__,
    }
    original = certificates.membership_lp
    built = []

    def recorded(*args):
        built.append((args, original(*args)))
        return built[-1][1]

    monkeypatch.setattr(certificates, "membership_lp", recorded)
    monkeypatch.setattr(cli, "membership_lp", recorded)
    kinds = {"without rays": 0, "with rays": 0}
    for problem in problems:
        for mode in MODES:
            built.clear()
            made, v = _fractions_made_within(scopes, lambda: verify(problem, mode))
            assert made == 0, mode
            if built:
                probes = [lp for _, lp in built] + [probe_template(problem, mode)]
                assert not any("rows" in vars(lp) for lp in probes), mode
            rays = any(rec.kind == "ray" for rec in v.log)
            kinds["with rays" if rays else "without rays"] += bool(built)
            built.clear()
            replay(problem, reference_verdict_doc(v))
            for args, lp in built:
                eager = _eager_probe(*args)
                assert lp.rows == eager.rows and lp == eager, mode
                assert lp._system == _oriented(eager), mode
    assert kinds["without rays"] >= 1000 and kinds["with rays"] >= 5, kinds


def test_constrained_lp_without_constraints_is_the_rop_lp():
    # Same columns, rows and order.
    rng = random.Random(11)
    dom = box_domain(1)
    for _ in range(40):
        pieces = tuple(
            AffineForm((F(rng.randint(-3, 3)),), F(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 4))
        )
        f = PolyhedralConvexFunction(1, pieces, dom if rng.random() < 0.5 else None)
        p = ReverseProblem(1, f, abs_minus_one(), (F(1),), F(rng.randint(0, 2)))
        ep = F(rng.randint(0, 3), 2)
        xs = (F(rng.randint(-4, 4), rng.randint(1, 2)),)
        assert membership_lp(p, "constrained", ep, xs) == membership_lp(p, "rop", ep, xs)


def test_membership_lp_matches_the_alpha_column_reference():
    # Folding alpha = sum lam into the lam columns changes neither the
    # verdict nor the supremum of any probe verify logs, vertex check or ray
    # check, and drops exactly alpha's column and its row. A ray check also
    # accepts exactly when the reference max-t probe from h's first
    # generator is unbounded.
    from reference import reference_membership_lp

    covered = set()
    for problem in corpus() + adversarial_family(60) + face_domain_family(60):
        base = None
        for mode in MODES:
            for rec in verify(problem, mode).log:
                ray = rec.kind == "ray"
                old = reference_membership_lp(problem, mode, rec.eps_prime, rec.generator)
                ref = probe_evidence(old, lp_solve(old), ray=ray)
                new = rec.evidence
                assert (new.member, new.sup) == (ref.member, ref.sup)
                assert len(new.lp.rows) == problem.n + 1
                assert (len(old.rows), old.n) == (len(new.lp.rows) + 1, new.lp.n + 1)
                if ray:
                    base = base or subdiff_epigraph(problem.reverse, problem.point)[0][0]
                    t_lp = reference_membership_lp(
                        problem, mode, *base, ray=(rec.eps_prime, rec.generator)
                    )
                    assert new.member == (lp_value(t_lp, lp_solve(t_lp)) == INF)
                covered.add((rec.kind, new.member))
    assert covered == {
        ("vertex", True), ("vertex", False), ("ray", True), ("ray", False)
    }


def test_a_ray_check_decides_what_the_max_t_probe_decided():
    # W is a convex cone and a direction recedes in it exactly when its own
    # point probe is feasible, so each ray check, that probe, accepts exactly
    # when the reference max-t probe from h's first generator (alpha = 0
    # allowed) is unbounded. A rejected ray refutes at base + t_out * ray on
    # a t_out past the reference's finite supremum t*, where even the closed
    # cone has left the ray.
    from reference import reference_membership_lp

    problems = [inst.problem for seed in (0, 1) for inst in wide_modes(seed)]
    counts = {"accepted": 0, "refuted": 0}
    for problem in problems + face_domain_family(60):
        base = None
        for mode in MODES:
            v = verify(problem, mode)
            for i, rec in enumerate(v.log):
                if rec.kind != "ray":
                    continue
                base = base or subdiff_epigraph(problem.reverse, problem.point)[0][0]
                ray = (rec.eps_prime, rec.generator)
                t_lp = reference_membership_lp(problem, mode, *base, ray=ray)
                t_star = lp_value(t_lp, lp_solve(t_lp))
                assert rec.evidence.member == (t_star == INF)
                if rec.evidence.member:
                    counts["accepted"] += 1
                    continue
                counts["refuted"] += 1
                assert i == len(v.log) - 2 and v.tag == "REFUTED"
                eps_prime, xstar = v.witness
                t_out = next(
                    (p - b) / r
                    for p, b, r in zip((eps_prime, *xstar), (base[0], *base[1]), (ray[0], *ray[1]))
                    if r
                )
                assert (eps_prime, xstar) == (
                    base[0] + t_out * ray[0],
                    tuple(b + t_out * r for b, r in zip(base[1], ray[1])),
                )
                assert 0 <= t_star < t_out, (t_out, t_star)
    assert counts == {"accepted": 76, "refuted": 17}


def test_verify_convex_mode():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1))
    assert verify(p, "convex").tag == "CERTIFIED_ON_GRID"
    q = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(0))
    assert verify(q, "convex").tag == "REFUTED"


def test_verify_convex_refutes_an_interior_point_that_is_not_optimal():
    # min x s.t. -x <= 0 has infimum 0 < f(1); h(1) = -1 < 0.
    p = ReverseProblem(1, fn(1, ((1,), 0)), fn(1, ((-1,), 0)), (F(1),), F(0))
    v = verify(p, "convex")
    assert v.tag == "REFUTED"
    assert v.witness == (F(0), (F(0),))
    lp = membership_lp(p, "convex", F(0), (F(0),))
    check_outcome(lp, v.log[-1].evidence.outcome)


def _interior_candidate(rng):
    """Integer data with h(x_bar) < 0 and eps spread around the exact gap
    f(x_bar) - inf{f : h <= 0}, so both verdicts occur."""
    n = rng.choice([1, 2])
    while True:
        f = random_fn(rng, n, domain=box_domain(n))
        h = random_fn(rng, n)
        x = tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        if f.is_finite_at(x) and h.value(x) < 0:
            break
    inf = truth.exact_inf(ReverseProblem(n, f, h, x, 0), "convex")
    gap = f.value(x) - inf
    eps = gap * F(rng.randint(0, 15), 10) if gap > 0 else F(rng.randint(0, 2))
    return ReverseProblem(n, f, h, x, eps), inf


def test_verify_convex_matches_the_exact_infimum_off_the_boundary():
    rng = random.Random(2024)
    wrong = []
    for i in range(150):
        p, inf = _interior_candidate(rng)
        optimal = inf >= p.objective.value(p.point) - p.epsilon
        tag = verify(p, "convex").tag
        if tag != ("CERTIFIED_ON_GRID" if optimal else "REFUTED"):
            wrong.append((i, tag))
    assert wrong == []


def ray_problem(eps=0):
    """min |x| s.t. x - 1 >= 0 with dom h = {x <= 1}, at x_bar = 1: h = +inf
    beyond 1, so x_bar is optimal and d_eps' h(1) grows the ray (0, 1)."""
    h = PolyhedralConvexFunction(
        1, (AffineForm((1,), -1),), HPolyhedron(((F(1),),), (F(1),), 1)
    )
    return ReverseProblem(1, absf(), h, (F(1),), F(eps))


def test_every_logged_check_revalidates_against_its_own_lp(monkeypatch):
    # The evidence's LP is the probe that was solved, in every mode, and
    # replay rebuilds exactly that LP from the report.
    from revopt import cli

    rebuilt = []
    monkeypatch.setattr(cli, "check_outcome", lambda lp, _outcome: rebuilt.append(lp))
    for problem in (example_a(), example_b(), ray_problem()):
        for mode in ("rop", "constrained", "equality", "convex"):
            v = verify(problem, mode)
            assert v.log
            for rec in v.log:
                check_outcome(rec.evidence.lp, rec.evidence.outcome)
            rebuilt.clear()
            cli.replay(problem, reference_verdict_doc(v))
            gate = [v.essential.lp] if v.essential is not None else []
            assert rebuilt == [rec.evidence.lp for rec in v.log] + gate
    v = verify(ray_problem(), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"
    assert [rec.kind for rec in v.log] == ["vertex", "ray"]


def test_verify_runs_no_double_description(monkeypatch):
    import revopt.certificates
    import revopt.polytope

    def forbidden(*args):
        raise AssertionError("double description on the verify path")

    monkeypatch.setattr(revopt.certificates, "subdiff_vrep", forbidden)
    monkeypatch.setattr(revopt.polytope, "vertex_enumerate", forbidden)
    for problem in (example_a(), example_b(), ray_problem()):
        for mode in ("rop", "constrained", "equality", "convex"):
            verify(problem, mode)
            falsify(problem, mode)


def test_verify_never_certifies_the_adversarial_family():
    # eps is below the exact gap on every instance, so no candidate is
    # eps-optimal; a finite eps' sweep certified some of them.
    family = adversarial_family(748)
    assert len(family) > 300
    for problem in family:
        v = verify(problem, "rop")
        assert v.tag != "CERTIFIED_ON_GRID"
        if v.tag == "REFUTED":
            ep, xstar = v.witness
            assert subdiff_member(SubdiffQuery(problem.reverse, problem.point, ep), xstar)


def test_verify_matches_the_exact_infimum_when_h_has_a_face_domain():
    paths = set()
    for problem in face_domain_family(300):
        v = verify(problem, "rop")
        rays = [rec for rec in v.log if rec.kind == "ray"]
        paths.add((v.tag, bool(rays), any(not rec.evidence.member for rec in rays)))
        if v.tag == "INAPPLICABLE":
            continue
        inf = exact_feasible_inf(problem.objective, problem.reverse)
        threshold = problem.objective.value(problem.point) - problem.epsilon
        optimal = inf is None or inf >= threshold
        assert v.tag == ("CERTIFIED_ON_GRID" if optimal else "REFUTED")
        for rec in v.log:
            check_outcome(rec.evidence.lp, rec.evidence.outcome)
        if v.tag == "REFUTED":
            # The witness is the last check, a rejected vertex check, also
            # when a ray failed first.
            last = v.log[-1]
            assert (last.kind, last.evidence.member) == ("vertex", False)
            assert v.witness == (last.eps_prime, last.generator)
            ep, xstar = v.witness
            assert subdiff_member(SubdiffQuery(problem.reverse, problem.point, ep), xstar)
    # The ray path certifies and refutes.
    assert ("CERTIFIED_ON_GRID", True, False) in paths
    assert ("REFUTED", True, True) in paths


def test_the_essential_gate_fails_exactly_when_the_zero_probe_accepts():
    # By LP duality the probe at (0, 0) accepts exactly when inf f over dom f
    # and {phi <= 0} is >= f(x_bar) - eps, which is the gate failing; so
    # verify's gate, decided by that probe, agrees with the primal epigraph LP
    # of essential_check, and a failed gate certifies with that one check,
    # which replays.
    from revopt import cli

    failed, passed = {}, {}
    for problem in corpus() + adversarial_family(60) + face_domain_family(60):
        f, x_bar, eps = problem.objective, problem.point, problem.epsilon
        zero = (F(0),) * problem.n
        regions = {
            "rop": (),
            "constrained": problem.constraints,
            "equality": (problem.reverse,),
        }
        for mode, region in regions.items():
            v = verify(problem, mode)
            gates = dict(v.gates)
            if "essential" not in gates:
                continue
            gate = essential_check(f, region, x_bar, eps)
            assert gates["essential"] == gate
            assert gate == (not union_member(problem, mode, F(0), zero).member)
            if gate:
                passed[mode] = passed.get(mode, 0) + 1
                continue
            failed[mode] = failed.get(mode, 0) + 1
            assert (v.tag, v.gates[-1]) == ("CERTIFIED_ON_GRID", ("essential", False))
            assert [(r.kind, r.eps_prime, r.generator) for r in v.log] == [
                ("vertex", 0, zero)
            ]
            cli.replay(problem, reference_verdict_doc(v))
            if mode == "rop":
                inf = exact_feasible_inf(f, problem.reverse)
                assert inf is None or inf >= f.value(x_bar) - eps
    assert failed == {"rop": 56, "constrained": 56, "equality": 158}
    assert passed == {"rop": 256, "constrained": 256, "equality": 154}


def test_exact_feasible_inf_counts_the_outside_of_dom_h():
    # min -x s.t. -x - 1 >= 0 on dom h = {x <= 0}: h = +inf for x > 0.
    h = PolyhedralConvexFunction(
        1, (AffineForm((-1,), -1),), HPolyhedron(((F(1),),), (F(0),), 1)
    )
    assert exact_feasible_inf(fn(1, ((-1,), 0)), h) == float("-inf")
    # |x| over {x <= -1} and {x > 0}: 0, approached from above.
    assert exact_feasible_inf(absf(), h) == 0


def test_falsify_finds_witness_on_example_b():
    v = falsify(example_b(), "rop")
    assert v.tag == "REFUTED"
    assert v.witness is not None


def test_falsify_none_on_example_a():
    v = falsify(example_a(), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"
    assert v.witness is None


def test_falsify_surfaces_inapplicable():
    # h(2) = 1: x_bar is off the boundary {h = 0}.
    v = falsify(ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0)), "rop")
    assert (v.tag, v.reason) == ("INAPPLICABLE", "point-not-on-boundary")
    assert v.witness is None


# -- invariants ----------------------------------------------------------


def test_union_accepted_set_is_convex():
    p = example_a(F(1, 2))
    rng = random.Random(5)
    accepted = []
    for _ in range(40):
        xs = (F(rng.randint(-8, 8), rng.randint(1, 3)),)
        if union_member(p, "rop", F(1), xs).member:
            accepted.append(xs)
    for i in range(0, len(accepted) - 1, 2):
        a, b = accepted[i], accepted[i + 1]
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            mid = (t * a[0] + (1 - t) * b[0],)
            assert union_member(p, "rop", F(1), mid).member


def test_eps_monotone_certification():
    # Once certified, every larger eps certifies too (while the essential
    # gate still holds; at eps = 2 example B leaves its scope).
    for eps in (F(1), F(5, 4), F(3, 2), F(7, 4)):
        v = verify(example_b(eps), "rop")
        assert v.tag == "CERTIFIED_ON_GRID", eps


def test_mode_coherence_constrained_vs_rop():
    for make in (example_a, example_b):
        for eps in (F(0), F(1)):
            p = make(eps)
            a = verify(p, "rop")
            b = verify(p, "constrained")
            assert a.tag == b.tag
            assert a.witness == b.witness


# -- invariances ---------------------------------------------------------------


def _decision(problem, mode):
    v = verify(problem, mode)
    return v.tag, v.reason, v.gates


@functools.cache
def _invariance_cases():
    """The corpus head (n = 1, integer data) and the bench's rational
    instances (n in {2, 3}, h with a face domain on every other eight), each
    with its decision in every mode."""
    problems = corpus(120, 80, seed_base=1000)[:50] + [i.problem for i in wide_modes(0)]
    return [(p, {mode: _decision(p, mode) for mode in MODES}) for p in problems]


def _assert_invariant(transform):
    """Each problem and `transform` of it get the same verdict, reason and
    gates in every mode; both verdicts occur."""
    tags = set()
    for problem, decisions in _invariance_cases():
        moved = transform(problem)
        for mode, decision in decisions.items():
            assert _decision(moved, mode) == decision, (problem, mode)
            tags.add(decision[0])
    assert {"CERTIFIED_ON_GRID", "REFUTED"} <= tags


def test_verdicts_are_invariant_under_scaling_f_and_eps():
    # f and eps times 5/3: f's image, the template's budget column and every
    # probe's right-hand side take the denominator 3.
    k = F(5, 3)
    _assert_invariant(
        lambda p: ReverseProblem(
            p.n, p.objective.scaled(k), p.reverse, p.point, p.epsilon * k, p.constraints
        )
    )


def _substituted(fn, t, c):
    """fn(T y + c) as a function of y: each piece (a, b) becomes
    (T^T a, <a, c> + b) and each domain row (A_r, d_r) becomes
    (T^T A_r, d_r - <A_r, c>)."""
    n = fn.n

    def row(a):
        return tuple(sum(a[i] * t[i][j] for i in range(n)) for j in range(n))

    def at_c(a):
        return sum(ai * ci for ai, ci in zip(a, c))

    pieces = tuple(AffineForm(row(p.a), p.b + at_c(p.a)) for p in fn.pieces)
    domain = fn.domain
    if domain is not None:
        domain = HPolyhedron(
            tuple(row(a) for a in domain.a),
            tuple(d - at_c(a) for a, d in zip(domain.a, domain.b)),
            n,
        )
    return PolyhedralConvexFunction(n, pieces, domain)


def test_verdicts_are_invariant_under_an_affine_change_of_variables():
    # x = T y + c with T rational upper triangular and invertible, and c
    # rational: every piece, domain row and the point get denominators.
    rng = random.Random(97)

    def transform(problem):
        n = problem.n
        t = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = rng.choice((F(2, 3), F(-3, 2), F(5, 7), F(1)))
            for j in range(i + 1, n):
                t[i][j] = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        c = [F(rng.randint(-5, 5), rng.choice((1, 2, 7))) for _ in range(n)]
        y = [F(0)] * n  # T y = x_bar - c, by back substitution
        for i in reversed(range(n)):
            rest = sum(t[i][j] * y[j] for j in range(i + 1, n))
            y[i] = (problem.point[i] - c[i] - rest) / t[i][i]
        sub = lambda fn: _substituted(fn, t, c)  # noqa: E731
        return ReverseProblem(
            n,
            sub(problem.objective),
            sub(problem.reverse),
            tuple(y),
            problem.epsilon,
            tuple(map(sub, problem.constraints)),
        )

    _assert_invariant(transform)
