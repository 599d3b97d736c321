"""Randomized desk-scale corpus shared by the acceptance criteria.

Instances have integer-coefficient pieces with coefficients in [-3, 3] and a
candidate point constructed exactly on {h = 0} by root isolation along a
sign-changing segment.
"""

import random
from fractions import Fraction

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


def exact_feasible_inf(f, h):
    """Exact inf of f over {h >= 0} (and dom f): the reverse region is the
    union of the per-piece polyhedra {piece_k >= 0}, so one epigraph LP per
    piece of h decides it. Returns a scalar, -inf, or None (empty region)."""
    from revopt.lp import Infeasible, Unbounded, lp_solve

    best = None
    unbounded = False
    for piece in h.pieces:
        out = lp_solve(_epigraph_lp(f, (f, h), [(piece.a, ">=", -piece.b)]))
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
    while True:
        h = random_fn(rng, n, max_pieces=4)
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
            break
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
