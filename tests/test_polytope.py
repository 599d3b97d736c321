import random
from fractions import Fraction

import reference
from corpus import corpus
from revopt import polytope, subdiff
from revopt.lp import Infeasible, LinearProgram, lp_solve
from revopt.model import HPolyhedron
from revopt.polytope import VPolytope, project, prune, vertex_enumerate, vpoly_member
from revopt.subdiff import SubdiffQuery, subdiff_vrep

F = Fraction


def hp(rows, rhs, n):
    return HPolyhedron(tuple(tuple(F(v) for v in r) for r in rows),
                       tuple(F(v) for v in rhs), n)


def test_unit_interval():
    v = vertex_enumerate(hp([[1], [-1]], [1, 0], 1))
    assert v.vertices == ((F(0),), (F(1),))
    assert v.rays == ()


def test_nonnegative_quadrant():
    v = vertex_enumerate(hp([[-1, 0], [0, -1]], [0, 0], 2))
    assert v.vertices == ((F(0), F(0)),)
    assert set(v.rays) == {(F(1), F(0)), (F(0), F(1))}


def test_empty():
    v = vertex_enumerate(hp([[1], [-1]], [0, -1], 1))
    assert v.is_empty()


def test_whole_space_dim1():
    v = vertex_enumerate(hp([], [], 1))
    assert v.vertices == ((F(0),),)
    assert set(v.rays) == {(F(1),), (F(-1),)}


def test_hyperplane_has_line():
    v = vertex_enumerate(hp([[1, 0], [-1, 0]], [0, 0], 2))
    assert (F(0), F(0)) in v.vertices
    assert set(v.rays) == {(F(0), F(1)), (F(0), F(-1))}


def test_project_segment():
    # {(y,z): y = z, 0 <= z <= 1} onto y.
    p = hp([[1, -1], [-1, 1], [0, 1], [0, -1]], [0, 0, 1, 0], 2)
    v = project(p, (0,))
    assert v.vertices == ((F(0),), (F(1),))
    assert v.rays == ()


def test_project_halfline():
    # {(y,z): y >= z, z >= 0} onto y.
    p = hp([[-1, 1], [0, -1]], [0, 0], 2)
    v = project(p, (0,))
    assert v.vertices == ((F(0),),)
    assert v.rays == ((F(1),),)


def test_project_empty():
    p = hp([[1, 0], [-1, 0]], [0, -1], 2)
    assert project(p, (0,)).is_empty()


def test_h_member():
    p = hp([[1]], [1], 1)
    assert p.contains((F(1),))
    assert not p.contains((F(2),))
    assert hp([], [], 1).contains((F(123),))


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                fac = rows[i][col] / pr[col]
                rows[i] = [a - fac * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def _random_poly(rng, n):
    m = rng.randint(n + 1, n + 4)
    rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-2, 4)) for _ in range(m)]
    return hp(rows, rhs, n)


def test_round_trip_vertices_tight_and_rays_homogeneous():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        p = _random_poly(rng, n)
        v = vertex_enumerate(p)
        for vert in v.vertices:
            tight = []
            for row, rhs in zip(p.a, p.b):
                val = sum(a * x for a, x in zip(row, vert))
                assert val <= rhs
                if val == rhs:
                    tight.append(row)
            # Vertices of pointed polyhedra have n independent tight rows;
            # skip the claim when the recession cone contains a line.
            rays = set(v.rays)
            pointed = not any(tuple(-c for c in r) in rays for r in rays)
            if pointed:
                assert _rank(tight) == n
                checked += 1
        for ray in v.rays:
            for row in p.a:
                assert sum(a * r for a, r in zip(row, ray)) <= 0
    assert checked > 30


def test_vpoly_member_covers_polyhedron_points():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice([1, 2])
        p = _random_poly(rng, n)
        v = vertex_enumerate(p)
        if v.is_empty():
            continue
        # Random mixes of generators must lie in P and re-test as members.
        for _ in range(5):
            weights = [F(rng.randint(0, 4)) for _ in v.vertices]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            pt = [
                sum(w * vert[j] for w, vert in zip(weights, v.vertices)) / total
                for j in range(n)
            ]
            for ray in v.rays:
                c = F(rng.randint(0, 3))
                pt = [a + c * b for a, b in zip(pt, ray)]
            assert p.contains(tuple(pt))
            assert vpoly_member(v, tuple(pt))


def test_vpoly_member_in_one_dimension():
    # conv{-1, 1/2, 2} plus no ray, one ray, or both: an interval, a
    # half-line each way, and the whole line.
    pts = ((F(-1),), (F(2),), (F(1, 2),))
    up, down = (F(1),), (F(-1),)
    bodies = {
        (): (F(-1), F(2)),
        (up,): (F(-1), None),
        (down,): (None, F(2)),
        (up, down): (None, None),
    }
    for rays, (lo, hi) in bodies.items():
        body = VPolytope(1, pts, rays)
        for x in (F(-5), F(-1), F(-1, 3), F(2), F(7, 3), F(9)):
            inside = (lo is None or lo <= x) and (hi is None or x <= hi)
            assert vpoly_member(body, (x,)) is inside, (rays, x)
    assert not vpoly_member(VPolytope(1, (), (up,)), (F(0),))


def test_vpoly_member_reads_a_ray_by_its_direction_not_its_length():
    body = VPolytope(1, ((F(0),),), ((F(2),),))
    assert vpoly_member(body, (F(5),))
    assert not vpoly_member(body, (F(-1, 2),))


def test_projection_soundness():
    rng = random.Random(23)
    for _ in range(25):
        p = _random_poly(rng, 2)
        keep = (0,)
        v = project(p, keep)
        lifted = vertex_enumerate(p)
        if lifted.is_empty():
            assert v.is_empty()
            continue
        # Each projected vertex admits a feasible preimage in P.
        for vert in v.vertices:
            rows = tuple((row, "<=", rhs) for row, rhs in zip(p.a, p.b))
            rows += (((F(1), F(0)), "=", vert[0]),)
            lp = LinearProgram(2, (F(0), F(0)), rows=rows)
            assert not isinstance(lp_solve(lp), Infeasible)
        # Projections of lifted generators stay inside the projected body.
        for vert in lifted.vertices:
            assert vpoly_member(v, (vert[0],))


def _combinatorial_vertices(p):
    """Independent oracle: solve every n-subset of tight rows exactly and
    keep the feasible solutions."""
    import itertools

    n = p.n
    verts = set()
    for rows in itertools.combinations(range(p.m), n):
        mat = [list(p.a[i]) + [p.b[i]] for i in rows]
        # Gaussian elimination with exact pivots.
        sol = _solve_square(mat, n)
        if sol is not None and p.contains(sol):
            verts.add(sol)
    return verts


def _solve_square(mat, n):
    mat = [row[:] for row in mat]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        prow = mat[col]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                fac = mat[r][col] / prow[col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], prow)]
    return tuple(mat[r][n] / mat[r][r] for r in range(n))


def test_vertices_match_combinatorial_oracle_on_bounded_polytopes():
    rng = random.Random(71)
    nontrivial = 0
    for _ in range(40):
        n = rng.choice([2, 3])
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        rhs = [F(rng.randint(0, 4)) for _ in range(len(rows))]
        for j in range(n):  # box rows guarantee boundedness
            e = [F(0)] * n
            e[j] = F(1)
            rows.append(e[:])
            rhs.append(F(rng.randint(1, 3)))
            e[j] = F(-1)
            rows.append(e[:])
            rhs.append(F(rng.randint(1, 3)))
        p = hp(rows, rhs, n)
        got = vertex_enumerate(p)
        assert got.rays == ()
        expected = _combinatorial_vertices(p)
        assert set(got.vertices) == expected
        if len(expected) > 2:
            nontrivial += 1
    assert nontrivial > 20


def test_lp_optimum_matches_vertex_minimum():
    from revopt.lp import Optimal

    rng = random.Random(73)
    checked = 0
    for _ in range(40):
        n = rng.choice([2, 3])
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        rhs = [F(rng.randint(0, 4)) for _ in range(len(rows))]
        for j in range(n):
            e = [F(0)] * n
            e[j] = F(1)
            rows.append(e[:])
            rhs.append(F(rng.randint(1, 3)))
            e[j] = F(-1)
            rows.append(e[:])
            rhs.append(F(rng.randint(1, 3)))
        p = hp(rows, rhs, n)
        v = vertex_enumerate(p)
        if v.is_empty():
            continue
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        lp = LinearProgram(
            n, tuple(c), "min",
            rows=tuple((tuple(row), "<=", b) for row, b in zip(p.a, p.b)),
        )
        out = lp_solve(lp)
        assert isinstance(out, Optimal)
        best = min(sum(ci * xi for ci, xi in zip(c, vert)) for vert in v.vertices)
        assert out.value == best
        checked += 1
    assert checked > 25


def test_prune_on_a_line_keeps_what_the_lp_pass_keeps_by_one_sort(monkeypatch):
    # Random candidates (repeats, zero rays and rays of any length among
    # them), and those of the 1-D subdiff_vrep calls on the acceptance corpus.
    rng = random.Random(17)
    cases = []
    for _ in range(300):
        verts = [(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))),) for _ in range(rng.randint(0, 5))]
        rays = [(Fraction(rng.choice((-3, -1, 0, 1, 2)), rng.choice((1, 4))),) for _ in range(rng.randint(0, 3))]
        cases.append((1, verts, rays))

    def record(n, vertices, rays):
        cases.append((n, list(vertices), list(rays)))
        return prune(n, vertices, rays)

    monkeypatch.setattr(subdiff, "prune", record)
    for problem in corpus(40, 0):
        for fn in (problem.objective, problem.reverse):
            for eps in (Fraction(0), Fraction(1, 2), Fraction(2)):
                subdiff_vrep(SubdiffQuery(fn, problem.point, eps))
    monkeypatch.undo()
    assert len(cases) > 400
    expected = [reference.reference_prune(*case) for case in cases]
    kept = {len(vp.vertices) for vp in expected} | {len(vp.rays) for vp in expected}
    assert kept == {0, 1, 2}

    def no_lp(lp):
        raise AssertionError("prune solved an LP on a line")

    monkeypatch.setattr(polytope, "lp_solve", no_lp)
    assert [prune(*case) for case in cases] == expected
