import random
from fractions import Fraction

import pytest

from corpus import (
    adversarial_family,
    beta_capped_member,
    box_domain,
    exact_convex_inf,
    exact_feasible_inf,
    face_domain_family,
    random_fn,
)
from revopt.certificates import (
    MODES,
    essential_check,
    falsify,
    membership_lp,
    slater_check,
    union_member,
    verify,
)
from revopt.lp import check_outcome
from revopt.model import (
    AffineForm,
    HPolyhedron,
    Inapplicable,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from revopt.subdiff import SubdiffQuery, subdiff_member

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
    check_outcome(v.witness_evidence.lp, v.witness_evidence.outcome)


def test_verify_example_b_relaxed_is_certified():
    v = verify(example_b(1), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"


def test_verify_boundary_gate():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(2),), F(0))
    v = verify(p, "rop")
    assert v.tag == "INAPPLICABLE"
    assert v.reason == "point-not-on-boundary"


def test_verify_essential_gate_reports_trivial_side():
    v = verify(example_a(1), "rop")  # inf f = 0 is not below f(1) - 1
    assert v.tag == "INAPPLICABLE"
    assert v.reason == "essential-assumption-fails"
    assert dict(v.info)["zero-in-subdiff-f"] is True


def test_constrained_lp_without_constraints_is_the_rop_lp():
    # Same columns, rows and order, with and without a ray column.
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
        for ray in (None, (F(rng.randint(0, 2)), (F(rng.choice([-1, 1])),))):
            rop = membership_lp(p, "rop", ep, xs, ray=ray)
            assert membership_lp(p, "constrained", ep, xs, ray=ray) == rop


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
    check_outcome(lp, v.witness_evidence.outcome)


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
    inf = exact_convex_inf(f, h)
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
            cli.replay(problem, cli._verdict_to_doc(v))
            assert rebuilt == [rec.evidence.lp for rec in v.log]
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
        paths.add((v.tag, bool(rays), any(not rec.accepted for rec in rays)))
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
            assert (last.kind, last.accepted) == ("vertex", False)
            assert v.witness == (last.eps_prime, last.generator)
            ep, xstar = v.witness
            assert subdiff_member(SubdiffQuery(problem.reverse, problem.point, ep), xstar)
    # The ray path certifies and refutes.
    assert ("CERTIFIED_ON_GRID", True, False) in paths
    assert ("REFUTED", True, True) in paths


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
    v = falsify(example_a(1), "rop")
    assert v.tag == "INAPPLICABLE"
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
