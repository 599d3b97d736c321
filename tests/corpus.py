"""Randomized desk-scale corpus shared by the acceptance criteria.

Instances have integer-coefficient pieces with coefficients in [-3, 3] and a
candidate point constructed exactly on {h = 0} by root isolation along a
sign-changing segment.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

from revopt.model import (
    AffineForm,
    HPolyhedron,
    PolyhedralConvexFunction,
    ReverseProblem,
)

F = Fraction

BOX_LO, BOX_HI = F(-3), F(3)


def box_domain(n):
    rows, rhs = [], []
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        rows.append(tuple(e))
        rhs.append(BOX_HI)
        e = [F(0)] * n
        e[j] = F(-1)
        rows.append(tuple(e))
        rhs.append(-BOX_LO)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def random_fn(rng, n, max_pieces=4, domain=None):
    pieces = tuple(
        AffineForm(
            tuple(F(rng.randint(-3, 3)) for _ in range(n)),
            F(rng.randint(-3, 3)),
        )
        for _ in range(rng.randint(1, max_pieces))
    )
    return PolyhedralConvexFunction(n, pieces, domain)


def _random_point(rng, n):
    return tuple(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(n))


def _segment_root(h, pos, neg):
    """First zero of h on [pos, neg], walking from the h>0 endpoint."""
    cs = [p.value(pos) for p in h.pieces]
    ds = [
        sum(a * (yj - xj) for a, yj, xj in zip(p.a, neg, pos)) for p in h.pieces
    ]
    nodes = {F(0), F(1)}
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if ds[i] != ds[j]:
                t = (cs[j] - cs[i]) / (ds[i] - ds[j])
                if 0 < t < 1:
                    nodes.add(t)
    prev_t = F(0)
    prev_g = max(cs)
    for t in sorted(nodes)[1:]:
        gt = max(c + t * d for c, d in zip(cs, ds))
        if prev_g > 0 >= gt:
            root = prev_t + (t - prev_t) * prev_g / (prev_g - gt)
            return tuple((1 - root) * p + root * q for p, q in zip(pos, neg))
        prev_t, prev_g = t, gt
    raise AssertionError("sign change lost")


def _boundary_point(rng, n, draw_h):
    """Draw h until a sign-changing segment gives a root inside the box."""
    while True:
        h = draw_h()
        pos = neg = None
        for _ in range(60):
            pt = _random_point(rng, n)
            val = h.value(pt)
            if val > 0 and pos is None:
                pos = pt
            elif val < 0 and neg is None:
                neg = pt
            if pos is not None and neg is not None:
                break
        if pos is None or neg is None:
            continue
        x_bar = _segment_root(h, pos, neg)
        if all(BOX_LO <= c <= BOX_HI for c in x_bar):
            return h, x_bar


def _epigraph_lp(f, fns, extra_rows):
    """min t over the epigraph of f, the domains of `fns` and `extra_rows`
    (rows in x, lifted here by a zero t column)."""
    from revopt.lp import LinearProgram

    n = f.n
    rows = [(p.a + (-F(1),), "<=", -p.b) for p in f.pieces]
    for fn in fns:
        if fn.domain is not None:
            for row, rhs in zip(fn.domain.a, fn.domain.b):
                rows.append((row + (F(0),), "<=", rhs))
    rows += [(a + (F(0),), rel, rhs) for a, rel, rhs in extra_rows]
    return LinearProgram(n + 1, (F(0),) * n + (F(1),), rows=tuple(rows))


def _open_side_meets_dom(f, normal, rhs):
    """Does the open half-space {normal . x > rhs} meet dom f?"""
    from revopt.lp import Infeasible, LinearProgram, Unbounded, lp_solve

    rows = ()
    if f.domain is not None:
        rows = tuple((row, "<=", b) for row, b in zip(f.domain.a, f.domain.b))
    out = lp_solve(LinearProgram(f.n, normal, "max", rows=rows))
    if isinstance(out, Infeasible):
        return False
    return isinstance(out, Unbounded) or out.value > rhs


def beta_capped_member(problem, eps_prime, xstar):
    """Equality-mode membership with beta = 0 forced: `membership_lp` plus the
    row sum(nu) <= 0 over the multipliers on h's pieces. True when the
    supremum of alpha is positive."""
    from revopt.certificates import membership_lp
    from revopt.lp import LinearProgram, Optimal, Unbounded, lp_solve

    lp = membership_lp(problem, "equality", eps_prime, xstar)
    lam = len(problem.objective.pieces)
    nu = range(lam, lam + len(problem.reverse.pieces))
    cap = tuple(F(int(j in nu)) for j in range(lp.n))
    capped = LinearProgram(
        lp.n, lp.objective, lp.sense, lp.rows + ((cap, "<=", F(0)),), lp.lower
    )
    out = lp_solve(capped)
    return isinstance(out, Unbounded) or (isinstance(out, Optimal) and out.value > 0)


def exact_feasible_inf(f, h):
    """Exact inf of f over {h >= 0} (and dom f). h = +inf outside dom h, so
    the reverse region is the union of the per-piece polyhedra
    {piece_k >= 0} inside dom h and the open half-spaces {C_r x > d_r} of
    h's domain rows. One epigraph LP per polyhedron decides it; an open side
    has the infimum of its closed side {C_r x >= d_r} whenever it meets
    dom f. Returns a scalar, -inf, or None (empty region)."""
    from revopt.lp import Infeasible, Unbounded, lp_solve

    lps = [_epigraph_lp(f, (f, h), [(p.a, ">=", -p.b)]) for p in h.pieces]
    if h.domain is not None:
        for normal, rhs in zip(h.domain.a, h.domain.b):
            if _open_side_meets_dom(f, normal, rhs):
                lps.append(_epigraph_lp(f, (f,), [(normal, ">=", rhs)]))
    best = None
    unbounded = False
    for lp in lps:
        out = lp_solve(lp)
        if isinstance(out, Infeasible):
            continue
        if isinstance(out, Unbounded):
            unbounded = True
            continue
        if best is None or out.value < best:
            best = out.value
    if unbounded:
        return float("-inf")
    return best


def exact_convex_inf(f, h):
    """Exact inf of f over {h <= 0} (and dom f, dom h): the region is one
    polyhedron, so one epigraph LP decides it; its outcome is re-validated
    with check_outcome. Returns a scalar, -inf, or None (empty region)."""
    from revopt.lp import Infeasible, Unbounded, check_outcome, lp_solve

    lp = _epigraph_lp(f, (f, h), [(p.a, "<=", -p.b) for p in h.pieces])
    out = lp_solve(lp)
    check_outcome(lp, out)
    if isinstance(out, Infeasible):
        return None
    if isinstance(out, Unbounded):
        return float("-inf")
    return out.value


def make_instance(seed: int, n: int) -> ReverseProblem:
    """A reverse problem with the candidate exactly on the boundary {h = 0}.

    The objective carries the sampling box as its effective domain, so the
    grid oracle and the certificate engines reason about the same feasible
    competition (and the extended-value multiplier path gets exercised).
    Every third seed tunes epsilon into the certification window between the
    feasible and unconstrained slacks of the candidate.
    """
    rng = random.Random(seed)
    f = random_fn(rng, n, domain=box_domain(n))
    h, x_bar = _boundary_point(rng, n, lambda: random_fn(rng, n, max_pieces=4))
    eps = rng.choice([F(0), F(0), F(1, 4), F(1), F(2)])
    if seed % 3 == 0:
        fx = f.value(x_bar)
        feas_inf = exact_feasible_inf(f, h)
        everywhere = PolyhedralConvexFunction(n, ((tuple([F(0)] * n), F(0)),))
        box_inf = exact_feasible_inf(f, everywhere)
        if feas_inf is not None and box_inf is not None and box_inf < feas_inf:
            eps = fx - feas_inf + (feas_inf - box_inf) / 4
    return ReverseProblem(n, f, h, x_bar, eps)


def corpus(count_1d=120, count_2d=80, seed_base=1000):
    out = []
    for i in range(count_1d):
        out.append(make_instance(seed_base + i, 1))
    for i in range(count_2d):
        out.append(make_instance(seed_base + count_1d + i, 2))
    return out


# -- adversarial families ------------------------------------------------------

ADVERSARIAL_DENOMINATORS = (7, 11, 13)


def _adversarial_fn(rng, n, domain=None):
    def coeff():
        return F(rng.randint(-9, 9), rng.choice(ADVERSARIAL_DENOMINATORS))

    pieces = tuple(
        AffineForm(tuple(coeff() for _ in range(n)), coeff())
        for _ in range(rng.randint(1, 4))
    )
    return PolyhedralConvexFunction(n, pieces, domain)


def _face_domain(rng, n, x_bar):
    """Two rows: x_bar on the face of the first, strictly inside the second."""
    rows, rhs = [], []
    for slack in (F(0), F(rng.randint(1, 4), 2)):
        normal = (F(0),) * n
        while not any(normal):
            normal = tuple(F(rng.randint(-9, 9), 7) for _ in range(n))
        rows.append(normal)
        rhs.append(sum(a * x for a, x in zip(normal, x_bar)) + slack)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def adversarial_candidate(rng, face_domain=False):
    """(f, h, x_bar, gap) with rational data (coefficients in [-9, 9] over
    {7, 11, 13}), n in {1, 2}, f on the sampling box, x_bar exactly on
    {h = 0} and gap = f(x_bar) - inf{f : h >= 0} >= 0. With `face_domain`, h
    gets an effective domain with x_bar on one of its faces, so that its
    eps'-subdifferentials grow rays."""
    n = rng.choice([1, 2])
    f = _adversarial_fn(rng, n, domain=box_domain(n))
    h, x_bar = _boundary_point(rng, n, lambda: _adversarial_fn(rng, n))
    if face_domain:
        h = PolyhedralConvexFunction(n, h.pieces, _face_domain(rng, n, x_bar))
    gap = f.value(x_bar) - exact_feasible_inf(f, h)
    return f, h, x_bar, gap


def adversarial_family(count, seed=7):
    """`count` draws of candidates that are not eps-optimal: eps is the exact
    gap times k/10 for k in 0..9. Draws with gap 0 (x_bar optimal) are
    skipped, so fewer than `count` problems come back."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, h, x_bar, gap = adversarial_candidate(rng)
        if gap > 0:
            eps = gap * F(rng.randint(0, 9), 10)
            out.append(ReverseProblem(f.n, f, h, x_bar, eps))
    return out


def face_domain_family(count, seed=8):
    """`count` candidates whose h has a face domain; eps is the exact gap
    times k/10 for k in 0..15, so both verdicts occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, h, x_bar, gap = adversarial_candidate(rng, face_domain=True)
        eps = gap * F(rng.randint(0, 15), 10)
        out.append(ReverseProblem(f.n, f, h, x_bar, eps))
    return out


def wide_modes(seed):
    """`bench/gen.wide_modes(seed)`: the benchmark's rational instances, n in
    {2, 3}, h with a face domain on every other group of eight."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import gen

    return gen.wide_modes(seed)
