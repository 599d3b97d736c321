import random
from fractions import Fraction

import pytest

from corpus import box_domain, exact_convex_inf, random_fn
from revopt.certificates import (
    EpsPrimeSweep,
    _membership_lp,
    convex_case_member,
    essential_check,
    falsify,
    slater_check,
    union_member_constrained,
    union_member_equality,
    union_member_rop,
    verify,
)
from revopt.lp import check_outcome, max_component_lp
from revopt.model import AffineForm, Inapplicable, PolyhedralConvexFunction, ReverseProblem
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


# -- union membership ----------------------------------------------------


def test_union_rop_examples():
    f = absf()
    x = (F(1),)
    assert union_member_rop(f, x, F(0), F(0), (F(2),)).member
    assert not union_member_rop(f, x, F(0), F(0), (F(-1),)).member
    boundary = union_member_rop(f, x, F(0), F(0), (F(0),))
    assert not boundary.member
    assert boundary.sup == 0  # only alpha = 0 is feasible


def test_union_rop_off_domain_raises():
    from revopt.model import HPolyhedron

    dom = HPolyhedron(((F(1),),), (F(0),), 1)
    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), dom)
    with pytest.raises(Inapplicable):
        union_member_rop(f, (F(1),), F(0), F(0), (F(1),))


def test_union_constrained_examples():
    f = absf()
    g = fn(1, ((1,), -1))
    x = (F(1),)
    assert union_member_constrained(f, (g,), x, F(0), F(0), (F(2),)).member
    assert union_member_constrained(f, (g,), x, F(0), F(0), (F(3),)).member


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
        a = union_member_rop(f, x, eps, ep, xs)
        b = union_member_constrained(f, (), x, eps, ep, xs)
        assert a.member == b.member


def test_union_equality_examples():
    f, h = absf(), abs_minus_one()
    x = (F(1),)
    assert union_member_equality(f, h, x, F(0), F(0), (F(5),)).member
    bad = union_member_equality(f, h, x, F(0), F(0), (F(-1, 2),))
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
        a = union_member_rop(f, x, eps, ep, xs)
        b = union_member_equality(f, h, x, eps, ep, xs, max_beta=F(0))
        assert a.member == b.member


def test_union_equality_gates():
    f, h = absf(), abs_minus_one()
    with pytest.raises(Inapplicable):
        union_member_equality(f, h, (F(2),), F(0), F(0), (F(1),))


def test_convex_case_examples():
    f, h = absf(), abs_minus_one()
    assert convex_case_member(f, h, (F(0),), F(0)).member
    assert not convex_case_member(f, h, (F(1),), F(0)).member
    assert convex_case_member(f, h, (F(1),), F(1)).member


# -- verify / falsify ----------------------------------------------------


def test_verify_example_a_certified():
    v = verify(example_a(), "rop")
    assert v.tag == "CERTIFIED_ON_GRID"
    assert dict(v.gates)["essential"]


def test_verify_example_b_refuted_with_exact_witness():
    v = verify(example_b(), "rop", EpsPrimeSweep((F(0), F(1), F(2))))
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
        for ray in (None, (F(rng.choice([-1, 1])),)):
            rop = _membership_lp("rop", p, ep, xs, ray=ray)
            assert _membership_lp("constrained", p, ep, xs, ray=ray) == rop


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
    lp, alpha, _ = _membership_lp("convex", p, F(0), (F(0),))
    check_outcome(max_component_lp(lp, alpha), v.witness_evidence.outcome)


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
    f = absf()
    x = (F(1),)
    rng = random.Random(5)
    accepted = []
    for _ in range(40):
        xs = (F(rng.randint(-8, 8), rng.randint(1, 3)),)
        if union_member_rop(f, x, F(1, 2), F(1), xs).member:
            accepted.append(xs)
    for i in range(0, len(accepted) - 1, 2):
        a, b = accepted[i], accepted[i + 1]
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            mid = (t * a[0] + (1 - t) * b[0],)
            assert union_member_rop(f, x, F(1, 2), F(1), mid).member


def test_eps_monotone_certification():
    # Once certified, every larger eps certifies too (while the essential
    # gate still holds; at eps = 2 example B leaves its scope).
    sweep = EpsPrimeSweep((F(0), F(1, 2), F(1), F(2), F(4)))
    for eps in (F(1), F(5, 4), F(3, 2), F(7, 4)):
        v = verify(example_b(eps), "rop", sweep)
        assert v.tag == "CERTIFIED_ON_GRID", eps


def test_mode_coherence_constrained_vs_rop():
    sweep = EpsPrimeSweep((F(0), F(1, 2), F(1), F(2)))
    for make in (example_a, example_b):
        for eps in (F(0), F(1)):
            p = make(eps)
            a = verify(p, "rop", sweep)
            b = verify(p, "constrained", sweep)
            assert a.tag == b.tag
            assert a.witness == b.witness
