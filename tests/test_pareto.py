import random
from fractions import Fraction

import pytest

from revopt.model import AffineForm, HPolyhedron, InputError, PolyhedralConvexFunction
from revopt.pareto import (
    ParetoSample,
    bridge_check,
    eff_set,
    product_rule_check,
    reee_check,
    scalarization_check,
    vdom,
)

F = Fraction


def fn(n, *pieces):
    return PolyhedralConvexFunction(n, tuple(AffineForm(a, b) for a, b in pieces))


def absf():
    return fn(1, ((1,), 0), ((-1,), 0))


def abs_minus_one():
    return fn(1, ((1,), -1), ((-1,), -1))


def steep():
    return fn(1, ((2,), 0), ((-1,), 0))


def sample_of(images):
    pts = tuple((F(i),) for i in range(len(images)))
    return ParetoSample(2, pts, tuple(images))


def test_vdom_table():
    assert vdom((F(1), F(2)), (F(1), F(3)), "le")
    assert not vdom((F(1), F(2)), (F(1), F(3)), "lt")
    assert vdom((F(1), F(2)), (F(1), F(3)), "lneq")
    y = (F(2), F(5))
    assert vdom(y, y, "le") and not vdom(y, y, "lt") and not vdom(y, y, "lneq")
    a, b = (F(0), F(5)), (F(1), F(1))
    for rel in ("le", "lt", "lneq"):
        assert not vdom(a, b, rel) and not vdom(b, a, rel)


def test_eff_set_examples():
    s = sample_of([(F(0), F(0)), (F(1), F(1))])
    assert eff_set(s, (F(0), F(0)), "e") == (0,)
    s2 = sample_of([(F(0), F(1)), (F(1), F(0))])
    assert eff_set(s2, (F(0), F(0)), "e") == (0, 1)
    assert eff_set(s2, (F(0), F(0)), "w") == (0, 1)


def test_eff_set_single_criterion_collapses_to_eps_argmin():
    rng = random.Random(9)
    f = absf()
    pts = tuple((F(rng.randint(-6, 6), 2),) for _ in range(15))
    sample = ParetoSample(1, pts, tuple((f.value(p),) for p in pts))
    for eps in (F(0), F(1, 2), F(1)):
        kept = eff_set(sample, (eps,), "e")
        best = min(f.value(p) for p in pts)
        brute = tuple(i for i, p in enumerate(pts) if f.value(p) <= best + eps)
        assert kept == brute
        assert eff_set(sample, (eps,), "s") == brute


def test_inclusion_chain_on_random_samples():
    rng = random.Random(31)
    for _ in range(100):
        images = []
        for _ in range(rng.randint(1, 30)):
            if rng.random() < 0.1:
                images.append(None)
            else:
                images.append((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        s = sample_of(images)
        eps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        strong = set(eff_set(s, eps, "s"))
        eff = set(eff_set(s, eps, "e"))
        weak = set(eff_set(s, eps, "w"))
        assert strong <= eff <= weak


def test_nonempty_guard():
    # Nonempty eps-sigma-efficient set forces eps not sigma-below zero.
    rng = random.Random(33)
    for _ in range(50):
        images = [
            (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 12))
        ]
        s = sample_of(images)
        eps = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        zero = (F(0), F(0))
        from revopt.pareto import _sigma_dominates

        for sigma in ("s", "e", "w"):
            if eff_set(s, eps, sigma):
                assert not _sigma_dominates(eps, zero, sigma)


def test_bridge_abs_example():
    rep = bridge_check(absf(), abs_minus_one(), ((F(-3), F(3)),), F(1, 4), F(0))
    assert rep.passed
    pts = {(F(-1),), (F(1),)}
    argmin_pts = {rep.eps_argmin[i] for i in range(len(rep.eps_argmin))}
    # indices map back to grid points
    sample_pts = [(F(-3) + F(k, 4),) for k in range(25)]
    assert {sample_pts[i] for i in rep.eps_argmin} == pts
    eff_boundary = {
        sample_pts[i]
        for i in rep.eff_set
        if abs_minus_one().value(sample_pts[i]) == 0
    }
    assert eff_boundary == pts
    assert {sample_pts[i] for i in rep.weak_set} >= pts


def test_bridge_steep_case():
    rep = bridge_check(steep(), abs_minus_one(), ((F(-3), F(3)),), F(1, 4), F(0))
    assert rep.passed
    sample_pts = [(F(-3) + F(k, 4),) for k in range(25)]
    argmin_pts = {sample_pts[i] for i in rep.eps_argmin}
    assert argmin_pts == {(F(-1),)}
    # x = 1 is strictly dominated (by x = -5/4 among others), so it sits in
    # neither the eps-argmin nor the weak set.
    weak_pts = {sample_pts[i] for i in rep.weak_set}
    assert (F(1),) not in argmin_pts and (F(1),) not in weak_pts
    assert (F(-1),) in weak_pts


def test_bridge_saturated_epsilon():
    rep = bridge_check(absf(), abs_minus_one(), ((F(-3), F(3)),), F(1, 4), F(100))
    assert rep.passed


class Counted:
    """A function that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def value(self, x):
        self.calls += 1
        return self.fn.value(x)


def test_bridge_check_evaluates_f_and_h_once_per_grid_point():
    # h is +inf right of x = 2, so some grid points have no image.
    h = PolyhedralConvexFunction(
        1, abs_minus_one().pieces, HPolyhedron(((F(1),),), (F(2),), 1)
    )
    box, step = ((F(-3), F(3)),), F(1, 4)
    for eps in (F(0), F(1, 2), F(100)):
        counted_f, counted_h = Counted(steep()), Counted(h)
        rep = bridge_check(counted_f, counted_h, box, step, eps)
        assert rep == bridge_check(steep(), h, box, step, eps)
        assert counted_f.calls == counted_h.calls == 25


def test_reee_two_point_example():
    s = sample_of([(F(0), F(0)), (F(2), F(2))])
    rep = reee_check(s, (F(0), F(0)), [(F(1), F(1))])
    assert rep.passed
    assert rep.witnesses == ((1, (F(1), F(1)), True),)


def test_reee_vacuous_cases():
    s = sample_of([(F(0), F(1)), (F(1), F(0))])  # whole sample efficient
    assert reee_check(s, (F(0), F(0)), [(F(1), F(2))]).passed
    single = sample_of([(F(3), F(4))])
    assert reee_check(single, (F(0), F(0)), [(F(1), F(1))]).passed


def test_reee_random_samples():
    rng = random.Random(37)
    for _ in range(100):
        images = [
            (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            for _ in range(rng.randint(2, 30))
        ]
        s = sample_of(images)
        eps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        rep = reee_check(s, eps, [(F(1), F(0)), (F(1, 2), F(1, 2))])
        assert rep.passed


def test_product_rule_examples():
    f = absf()
    x = (F(1),)
    assert product_rule_check((f, f), x, (F(0), F(0)), ((F(1),), (F(1),)))
    assert not product_rule_check((f, f), x, (F(0), F(0)), ((F(1),), (F(0),)))
    assert product_rule_check((f, f), x, (F(1), F(1)), ((F(0),), (F(0),)))


def test_product_rule_random_consistency():
    # Each row against the reference epigraph LP of tests/corpus.py: a is an
    # eps-subgradient of f at x iff inf (f - a x) >= f(x) - a x - eps.
    from corpus import _epigraph_lp

    from revopt.lp import Optimal, lp_solve

    def member(f, x, eps_i, row):
        folded = fn(1, *[((p.a[0] - row[0],), p.b) for p in f.pieces])
        out = lp_solve(_epigraph_lp(folded, (), []))
        return isinstance(out, Optimal) and out.value >= folded.value(x) - eps_i

    rng = random.Random(43)
    for _ in range(60):
        comps = tuple(
            fn(
                1,
                *[
                    ((F(rng.randint(-3, 3)),), F(rng.randint(-3, 3)))
                    for _ in range(rng.randint(1, 3))
                ],
            )
            for _ in range(2)
        )
        x = (F(rng.randint(-2, 2)),)
        eps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        a = ((F(rng.randint(-2, 2)),), (F(rng.randint(-2, 2)),))
        expected = all(map(member, comps, (x, x), eps, a))
        assert product_rule_check(comps, x, eps, a) == expected


def test_product_rule_restricts_components_to_the_joint_domain():
    # F = (f1, f2) lives on dom F = {x <= 0}; the row 1 of A is a
    # 0-subgradient of f2 = 0 restricted there (0 >= x on dom F), though not
    # of f2 on the whole line.
    f1 = PolyhedralConvexFunction(
        1, (AffineForm((0,), 0),), HPolyhedron(((F(1),),), (F(0),), 1)
    )
    f2 = fn(1, ((0,), 0))
    a = ((F(0),), (F(1),))
    assert product_rule_check((f1, f2), (F(0),), (F(0), F(0)), a)
    assert product_rule_check((f2, f1), (F(0),), (F(0), F(0)), a[::-1])
    minus = ((F(-1),), (F(0),))  # -x >= 0 fails on dom F
    assert not product_rule_check((f1, f2), (F(0),), (F(0), F(0)), minus)


def test_scalarization_examples():
    f = absf()
    x = (F(1),)
    assert scalarization_check(
        f, x, (F(0), F(0)), ((F(1),), (F(0),)), (F(1), F(1))
    )
    # Degenerate second weight: lam o F is the zero function.
    assert scalarization_check(
        f, x, (F(0), F(0)), ((F(0),), (F(0),)), (F(0), F(1))
    )
    # Scalar side false: implication vacuously true.
    assert scalarization_check(
        f, x, (F(0), F(0)), ((F(5),), (F(0),)), (F(1), F(1))
    )


def test_scalarization_rejects_zero_lambda():
    with pytest.raises(InputError):
        scalarization_check(
            absf(), (F(1),), (F(0), F(0)), ((F(1),), (F(0),)), (F(0), F(0))
        )


def test_scalarization_refutes_only_inside_dom_f():
    # f = 0 on {x <= 0}: with A = ((1,), (1,)) and lam = (1, 1) the combined
    # row 2 is a 0-subgradient of f at 0, and no x <= 0 violates both
    # criteria; x = 1 would, but it lies outside dom f.
    f = PolyhedralConvexFunction(
        1, (AffineForm((0,), 0),), HPolyhedron(((F(1),),), (F(0),), 1)
    )
    a = ((F(1),), (F(1),))
    assert scalarization_check(f, (F(0),), (F(0), F(0)), a, (F(1), F(1)))
    assert scalarization_check(f, (F(-1),), (F(1), F(0)), a, (F(1), F(1)))
