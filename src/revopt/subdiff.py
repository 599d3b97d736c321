"""Fenchel epsilon-subdifferential calculus for polyhedral convex functions.

Membership is one epigraph LP; the generator representation comes from the
LP-dual multiplier polytope, enumerated exactly and projected onto the slope
coordinates. Over all eps >= 0 at once the sets stack into a polyhedron with
closed-form generators (`subdiff_epigraph`). The scaling law
d_eps(lam f) = lam * d_(eps/lam) f  is exposed as an operation so both routes
can be compared generator-for-generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lp import LinearProgram, Optimal, Unbounded, lp_solve
from .model import HPolyhedron, InputError, PolyhedralConvexFunction, rat
from .polytope import VPolytope, project

__all__ = [
    "SubdiffQuery",
    "subdiff_member",
    "subdiff_epigraph",
    "subdiff_vrep",
    "scale_subdiff",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SubdiffQuery:
    """The set d_eps fn(point); empty by convention when point is off-domain."""

    fn: PolyhedralConvexFunction
    point: tuple[Fraction, ...]
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(rat(v) for v in self.point))
        object.__setattr__(self, "eps", rat(self.eps))
        if self.eps < 0:
            raise InputError("eps must be >= 0")
        if len(self.point) != self.fn.n:
            raise InputError("query point dimension mismatch")


def subdiff_member(q: SubdiffQuery, s) -> bool:
    """True iff fn(x) >= fn(point) + <s, x - point> - eps for all x in dom fn.

    Decided by minimizing t - <s, x> over the epigraph and comparing the
    optimum with fn(point) - <s, point> - eps.
    """
    s = tuple(rat(v) for v in s)
    if len(s) != q.fn.n:
        raise InputError("slope dimension mismatch")
    if not q.fn.is_finite_at(q.point):
        return False
    n = q.fn.n
    rows = []
    for piece in q.fn.pieces:
        rows.append((piece.a + (-_ONE,), "<=", -piece.b))
    dom = q.fn.domain
    if dom is not None:
        for row, rhs in zip(dom.a, dom.b):
            rows.append((row + (_ZERO,), "<=", rhs))
    lp = LinearProgram(n + 1, tuple(-v for v in s) + (_ONE,), rows=tuple(rows))
    out = lp_solve(lp)
    threshold = q.fn.value(q.point) - _dot(s, q.point) - q.eps
    if isinstance(out, Unbounded):
        return False
    if not isinstance(out, Optimal):
        raise RuntimeError("epigraph LP is infeasible at a point of dom fn")
    return out.value >= threshold


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def subdiff_epigraph(fn: PolyhedralConvexFunction, point) -> tuple[tuple, tuple]:
    """Generators of E = {(eps, s) : eps >= 0, s in d_eps fn(point)}.

    For fn = max_i (<a_i, x> + b_i) on dom fn = {C x <= d}, LP duality gives
    fn*(s) + fn(point) - <s, point> = min sum lam_i delta_i + sum eta_r sigma_r
    over lam in the unit simplex and eta >= 0 with sum lam_i a_i + C^T eta = s,
    where delta_i = fn(point) - piece_i(point) and sigma_r = d_r - C_r . point.
    Hence E = conv{(delta_i, a_i)} + cone{(1, 0), (sigma_r, C_r)}. Returns the
    points (delta_i, a_i) in piece order and the rays (sigma_r, C_r) in row
    order, repeats dropped; the ray (1, 0) is left implicit. `point` must lie
    in dom fn.
    """
    point = tuple(rat(v) for v in point)
    if not fn.is_finite_at(point):
        raise InputError("point is off the domain")
    top = fn.value(point)
    points = [(top - p.value(point), p.a) for p in fn.pieces]
    dom = fn.domain
    rays = []
    if dom is not None:
        rays = [(d - _dot(c, point), c) for c, d in zip(dom.a, dom.b)]
    return tuple(dict.fromkeys(points)), tuple(dict.fromkeys(rays))


def _lifted_multiplier_system(q: SubdiffQuery) -> tuple[HPolyhedron, range]:
    """H-description of {(lam, eta, s)} whose s-projection is d_eps fn(point).

    s = sum lam_i a_i + C^T eta with lam a unit simplex, eta >= 0 on the
    domain rows, and sum lam_i delta_i + sum eta_r sigma_r <= eps with the
    coefficients of `subdiff_epigraph`.
    """
    points, rays = subdiff_epigraph(q.fn, q.point)
    p, m, n = len(points), len(rays), q.fn.n
    dim = p + m + n
    rows, rhs = [], []

    def row(entries, bound):
        vec = [_ZERO] * dim
        for idx, val in entries:
            vec[idx] = val
        rows.append(tuple(vec))
        rhs.append(bound)

    for i in range(p + m):
        row([(i, -_ONE)], _ZERO)
    row([(i, _ONE) for i in range(p)], _ONE)
    row([(i, -_ONE) for i in range(p)], -_ONE)
    gens = points + rays
    for j in range(n):
        entries = [(p + m + j, _ONE)]
        entries += [(i, -slope[j]) for i, (_, slope) in enumerate(gens)]
        row(entries, _ZERO)
        row([(idx, -val) for idx, val in entries], _ZERO)
    row([(i, cost) for i, (cost, _) in enumerate(gens)], q.eps)
    return HPolyhedron(tuple(rows), tuple(rhs), dim), range(p + m, p + m + n)


def subdiff_vrep(q: SubdiffQuery) -> VPolytope:
    """Exact generator representation of the epsilon-subdifferential."""
    if not q.fn.is_finite_at(q.point):
        return VPolytope(q.fn.n, (), ())
    system, keep = _lifted_multiplier_system(q)
    return project(system, keep)


def scale_subdiff(q: SubdiffQuery, lam) -> VPolytope:
    """Generators of d_eps(lam * fn)(point), computed via the scaling law."""
    lam = rat(lam)
    if lam <= 0:
        raise InputError("lambda must be > 0")
    base = subdiff_vrep(SubdiffQuery(q.fn, q.point, q.eps / lam))
    return VPolytope(
        base.n,
        tuple(sorted(tuple(lam * c for c in v) for v in base.vertices)),
        base.rays,  # ray directions are scale-invariant after normalization
    )
