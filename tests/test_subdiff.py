import random
from fractions import Fraction

import pytest

from revopt.lp import Infeasible, Unbounded, lp_solve
from revopt.model import (
    NEG_INF,
    AffineForm,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
)
from revopt.polytope import VPolytope, project, vpoly_member
from revopt.subdiff import (
    SubdiffQuery,
    epigraph_inf,
    joint_domain,
    scale_subdiff,
    subdiff_epigraph,
    subdiff_member,
    subdiff_vrep,
)

F = Fraction


def absf():
    return PolyhedralConvexFunction(1, (AffineForm((1,), 0), AffineForm((-1,), 0)))


def q_abs(eps):
    return SubdiffQuery(absf(), (F(1),), F(eps))


def abs_subdiff_interval(eps):
    """Hand closed form: d_eps |.|(1) = [max(-1, 1-eps), 1]."""
    return max(F(-1), 1 - F(eps)), F(1)


def test_member_gradient_on_smooth_piece():
    assert subdiff_member(q_abs(0), (F(1),))


def test_member_relaxed_zero_slope():
    # Closed form gives [0, 1] at eps=1; confirm s=0 by dense sampling of the
    # defining inequality over x in [-10, 10].
    assert subdiff_member(q_abs(1), (F(0),))
    f = absf()
    for k in range(-40, 41):
        x = F(k, 4)
        assert f.value((x,)) >= f.value((F(1),)) + 0 * (x - 1) - 1


def test_member_rejects_below_range():
    assert not subdiff_member(q_abs(0), (F(1, 2),))


@pytest.mark.parametrize("eps", [F(0), F(1, 2), F(1), F(4)])
def test_vrep_matches_closed_form(eps):
    lo, hi = abs_subdiff_interval(eps)
    expected = ((hi,),) if lo == hi else ((lo,), (hi,))
    v = subdiff_vrep(q_abs(eps))
    assert v.vertices == expected
    assert v.rays == ()


def test_vrep_membership_bisection_consistency():
    # Confirm the eps=1/2 segment endpoints against the membership oracle.
    lo, hi = abs_subdiff_interval(F(1, 2))
    grid = [lo - F(1, 8), lo, (lo + hi) / 2, hi, hi + F(1, 8)]
    want = [False, True, True, True, False]
    for s, expect in zip(grid, want):
        assert subdiff_member(q_abs(F(1, 2)), (s,)) == expect


def test_vrep_off_domain_is_empty():
    dom = HPolyhedron(((F(1),),), (F(1),), 1)
    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), dom)
    q = SubdiffQuery(f, (F(2),), F(0))
    assert subdiff_vrep(q).is_empty()
    assert not subdiff_member(q, (F(1),))


def test_domain_boundary_gives_ray():
    # f(x) = x on {x <= 1} at the boundary point: subgradients [1, +inf).
    dom = HPolyhedron(((F(1),),), (F(1),), 1)
    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), dom)
    v = subdiff_vrep(SubdiffQuery(f, (F(1),), F(0)))
    assert v.vertices == ((F(1),),)
    assert v.rays == ((F(1),),)


def test_scale_subdiff_examples():
    assert scale_subdiff(q_abs(1), F(2)).vertices == ((F(1),), (F(2),))
    base = subdiff_vrep(q_abs(1))
    assert scale_subdiff(q_abs(1), F(1)) == base
    assert scale_subdiff(q_abs(0), F(3)).vertices == ((F(3),),)


def test_scale_subdiff_rejects_nonpositive():
    with pytest.raises(InputError):
        scale_subdiff(q_abs(0), F(0))


def _random_fn(rng, n, with_domain=False):
    pieces = tuple(
        AffineForm(tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                   F(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 4))
    )
    domain = None
    if with_domain:
        # A box keeps the domain nonempty and the query point inside.
        rows, rhs = [], []
        for j in range(n):
            e = [F(0)] * n
            e[j] = F(1)
            rows.append(tuple(e))
            rhs.append(F(rng.randint(1, 4)))
            e = [F(0)] * n
            e[j] = F(-1)
            rows.append(tuple(e))
            rhs.append(F(rng.randint(1, 4)))
        domain = HPolyhedron(tuple(rows), tuple(rhs), n)
    return PolyhedralConvexFunction(n, pieces, domain)


def test_monotone_in_eps_and_agreement_with_member():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = _random_fn(rng, n)
        x0 = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        small = SubdiffQuery(f, x0, F(rng.randint(0, 2)))
        big = SubdiffQuery(f, x0, small.eps + F(rng.randint(1, 3), 2))
        vs = subdiff_vrep(small)
        vb = subdiff_vrep(big)
        assert not vs.is_empty()  # hypothesis (H'): finite-valued case
        for vert in vs.vertices:
            assert vpoly_member(vb, vert)
            assert subdiff_member(small, vert)
        # Points strictly outside the larger set are rejected by the oracle.
        for vert in vb.vertices:
            shifted = tuple(c + 1 for c in vert)
            if not vpoly_member(vb, shifted):
                assert not subdiff_member(big, shifted)


def test_scaling_law_exact_on_random_instances():
    rng = random.Random(41)
    lams = [F(1, 3), F(1, 2), F(2), F(5)]
    done = 0
    for _ in range(50):
        n = rng.choice([1, 2])
        f = _random_fn(rng, n, with_domain=rng.random() < 0.3)
        x0 = tuple(F(rng.randint(-1, 1)) for _ in range(n))
        if not f.is_finite_at(x0):
            continue
        eps = F(rng.randint(0, 8), 4)
        lam = rng.choice(lams)
        via_law = scale_subdiff(SubdiffQuery(f, x0, eps), lam)
        direct = subdiff_vrep(SubdiffQuery(f.scaled(lam), x0, eps))
        assert via_law == direct
        done += 1
    assert done >= 40


def test_epigraph_closed_form_of_abs_minus_one():
    h = PolyhedralConvexFunction(1, (AffineForm((1,), -1), AffineForm((-1,), -1)))
    points, rays = subdiff_epigraph(h, (F(1),))
    assert points == ((F(0), (F(1),)), (F(2), (F(-1),)))
    assert rays == ()


def test_epigraph_generators_decide_membership_for_every_eps():
    # (eps, s) is in conv{(delta_i, a_i)} + cone{(1, 0), (sigma_r, C_r)}
    # exactly when s is in d_eps f(x0).
    rng = random.Random(17)
    done = 0
    for _ in range(40):
        n = rng.choice([1, 2])
        f = _random_fn(rng, n, with_domain=rng.random() < 0.5)
        x0 = tuple(F(rng.randint(-1, 1)) for _ in range(n))
        if not f.is_finite_at(x0):
            continue
        points, rays = subdiff_epigraph(f, x0)
        epigraph = VPolytope(
            n + 1,
            tuple((e, *s) for e, s in points),
            ((F(1),) + (F(0),) * n,) + tuple((e, *c) for e, c in rays),
        )
        for _ in range(12):
            eps = F(rng.randint(0, 8), 4)
            s = tuple(F(rng.randint(-6, 6), 2) for _ in range(n))
            q = SubdiffQuery(f, x0, eps)
            assert vpoly_member(epigraph, (eps, *s)) == subdiff_member(q, s)
        done += 1
    assert done >= 30


def _rational_query(rng):
    """n <= 3, rational pieces; half get a domain whose rows pass through x0
    (sigma = 0, rays) or not, some as equality pairs (lineality)."""

    def q():
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))

    n = rng.choice([1, 2, 3])
    x0 = tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n))
    pieces = tuple(
        AffineForm(tuple(q() for _ in range(n)), q())
        for _ in range(rng.randint(1, 5))
    )
    domain = None
    if rng.random() < 0.5:
        rows, rhs = [], []
        for _ in range(rng.randint(1, 4)):
            c = tuple(q() for _ in range(n))
            at_x0 = sum(a * x for a, x in zip(c, x0))
            if rng.random() < 0.25:
                rows += [c, tuple(-v for v in c)]
                rhs += [at_x0, -at_x0]
            else:
                rows.append(c)
                rhs.append(at_x0 + rng.choice([F(0), F(rng.randint(1, 9), 2)]))
        domain = HPolyhedron(tuple(rows), tuple(rhs), n)
    fn = PolyhedralConvexFunction(n, pieces, domain)
    return SubdiffQuery(fn, x0, F(rng.randint(0, 12), rng.choice([1, 2, 4])))


def _lifted_multiplier_system(q):
    """{(lam, eta, s) : lam in the unit simplex, eta >= 0,
    s = sum lam_i a_i + sum eta_r C_r, sum lam_i delta_i + sum eta_r sigma_r <= eps},
    whose projection onto s is d_eps fn(x0) by LP duality."""
    fn, x0 = q.fn, q.point
    gens = [(fn.value(x0) - p.value(x0), p.a) for p in fn.pieces]
    p = len(gens)
    if fn.domain is not None:
        for c, d in zip(fn.domain.a, fn.domain.b):
            gens.append((d - sum(a * x for a, x in zip(c, x0)), c))
    m, n = len(gens), fn.n
    rows, rhs = [], []
    for i in range(m):
        rows.append(tuple(-F(k == i) for k in range(m)) + (F(0),) * n)
        rhs.append(F(0))
    simplex = tuple(F(i < p) for i in range(m)) + (F(0),) * n
    rows += [simplex, tuple(-v for v in simplex)]
    rhs += [F(1), F(-1)]
    for j in range(n):
        row = tuple(-slope[j] for _, slope in gens) + tuple(F(k == j) for k in range(n))
        rows += [row, tuple(-v for v in row)]
        rhs += [F(0), F(0)]
    rows.append(tuple(cost for cost, _ in gens) + (F(0),) * n)
    rhs.append(q.eps)
    return HPolyhedron(tuple(rows), tuple(rhs), m + n), range(m, m + n)


def test_vrep_equals_double_description_of_the_lifted_system():
    rng = random.Random(29)
    seen = {"domain": 0, "rays": 0, "lineality": 0}
    for _ in range(240):
        q = _rational_query(rng)
        got = subdiff_vrep(q)
        assert got == project(*_lifted_multiplier_system(q))
        seen["domain"] += q.fn.domain is not None
        seen["rays"] += bool(got.rays)
        seen["lineality"] += any(tuple(-c for c in r) in got.rays for r in got.rays)
    assert min(seen.values()) >= 20, seen


def test_vrep_and_cli_subdiff_run_no_double_description(monkeypatch, tmp_path, capsys):
    import json

    import revopt.polytope
    import revopt.subdiff
    from revopt.cli import run

    def forbidden(*args):
        raise AssertionError("double description on the subdiff path")

    monkeypatch.setattr(revopt.polytope, "vertex_enumerate", forbidden)
    monkeypatch.setattr(revopt.subdiff, "project", forbidden)
    rng = random.Random(30)
    for _ in range(20):
        q = _rational_query(rng)
        assert not subdiff_vrep(q).is_empty()
        scale_subdiff(q, F(3, 2))
    # f(x) = x on {x <= 1} at its boundary point: [1, +inf).
    doc = {
        "n": 1,
        "objective": {
            "pieces": [{"a": ["1"], "b": "0"}],
            "domain": {"A": [["1"]], "b": ["1"]},
        },
        "reverse": {"pieces": [{"a": ["1"], "b": "-1"}]},
        "point": ["1"],
        "epsilon": "0",
    }
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(doc))
    argv = ["subdiff", "--problem", str(path), "--fn", "objective", "--eps", "1"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == [["1"]]
    assert out["rays"] == [["1"]]


def _rational_fn(rng, n, domain_chance):
    def q():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))

    pieces = tuple(
        AffineForm(tuple(q() for _ in range(n)), q()) for _ in range(rng.randint(1, 3))
    )
    domain = None
    if rng.random() < domain_chance:
        rows = [tuple(q() for _ in range(n)) for _ in range(rng.randint(1, 3))]
        domain = HPolyhedron(tuple(rows), tuple(q() for _ in rows), n)
    return PolyhedralConvexFunction(n, pieces, domain)


def test_epigraph_inf_matches_the_reference_epigraph_lp():
    # The reference folds the slope into fn's pieces and states the region's
    # pieces as extra rows of tests/corpus._epigraph_lp.
    from corpus import _epigraph_lp

    rng = random.Random(59)
    kinds = {"empty": 0, "unbounded": 0, "finite": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        fn = _rational_fn(rng, n, 0.5)
        region = tuple(_rational_fn(rng, n, 0.3) for _ in range(rng.randint(0, 2)))
        slope = None
        if rng.random() < 0.7:
            slope = tuple(F(rng.randint(-9, 9), rng.choice((1, 5))) for _ in range(n))
        s = slope or (F(0),) * n
        folded = PolyhedralConvexFunction(
            n,
            tuple(
                AffineForm(tuple(a - c for a, c in zip(p.a, s)), p.b) for p in fn.pieces
            ),
        )
        extra = [(p.a, "<=", -p.b) for phi in region for p in phi.pieces]
        ref = lp_solve(_epigraph_lp(folded, (fn, *region), extra))
        value, argmin = epigraph_inf(fn, region, slope)
        if isinstance(ref, Infeasible):
            kinds["empty"] += 1
            assert (value, argmin) == (None, None)
        elif isinstance(ref, Unbounded):
            kinds["unbounded"] += 1
            assert value == NEG_INF and argmin is None
        else:
            kinds["finite"] += 1
            assert value == ref.value
            assert fn.value(argmin) - sum(a * x for a, x in zip(s, argmin)) == value
            assert all(phi.value(argmin) <= 0 for phi in region)
    assert min(kinds.values()) >= 20, kinds


def test_joint_domain_stacks_the_rows_in_order():
    a = HPolyhedron(((F(1),),), (F(2),), 1)
    b = HPolyhedron(((F(-1),), (F(3),)), (F(0), F(9)), 1)
    fns = [PolyhedralConvexFunction(1, absf().pieces, d) for d in (a, None, b)]
    joint = joint_domain(1, fns)
    assert joint.a == ((F(1),), (F(-1),), (F(3),)) and joint.b == (F(2), F(0), F(9))
    assert joint_domain(1, [absf()]).m == 0
