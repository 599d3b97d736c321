"""Fenchel epsilon-subdifferential calculus for polyhedral convex functions.

`epigraph_inf` is the one epigraph LP of the library: the exact infimum of
fn(x) - <slope, x> over dom fn cut by {phi <= 0} for each phi of a region,
with columns (x, t) and rows fn's pieces, the stacked domain rows of fn and
of the region (`joint_domain`), then the region's pieces. Membership and
the essential and Slater gates are each one call to it. Over all eps >= 0 at
once the sets stack into a polyhedron with closed-form generators
(`subdiff_epigraph`), read off the integer images of the function, its
domain and the point (a problem's own image of its point when the caller
hands it in), with repeats dropped by those images before a `Fraction` is
made; and the generator representation of one set is its slice at eps, read
off those generators in closed form (`subdiff_vrep`). The scaling law
d_eps(lam f) = lam * d_(eps/lam) f  is exposed as an operation so both routes
can be compared generator-for-generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .lp import INF, LinearProgram, Optimal, lp_solve, lp_value
from .model import (
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    _dot,
    _over_common_den,
    rat,
)

# project stays bound here because bench/spans.py traces it.
from .polytope import VPolytope, project, prune  # noqa: F401

__all__ = [
    "joint_domain",
    "epigraph_inf",
    "SubdiffQuery",
    "subdiff_member",
    "subdiff_epigraph",
    "subdiff_vrep",
    "scale_subdiff",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def joint_domain(n: int, fns) -> HPolyhedron:
    """The intersection of the domains of `fns`: their rows stacked in order
    (no rows when none of them has a domain)."""
    doms = [fn.domain for fn in fns if fn.domain is not None]
    return HPolyhedron(
        tuple(row for d in doms for row in d.a), tuple(v for d in doms for v in d.b), n
    )


def epigraph_inf(fn: PolyhedralConvexFunction, region=(), slope=None):
    """(value, argmin) of inf fn(x) - <slope, x> over dom fn and {phi <= 0}
    (inside dom phi) for every phi in `region`.

    The value is in the extended reals (`lp_value`): +inf when that set is
    empty, -inf when the LP is unbounded; the argmin is a Bland vertex when
    the value is finite, else None. One LP min t over columns (x, t): rows
    are fn's pieces <a, x> - t <= -b, the domain rows of fn and of each phi,
    then each phi's pieces <a, x> <= -b.
    """
    n = fn.n
    slope = (_ZERO,) * n if slope is None else tuple(rat(v) for v in slope)
    rows = [(p.a + (-_ONE,), "<=", -p.b) for p in fn.pieces]
    dom = joint_domain(n, (fn, *region))
    rows += [(row + (_ZERO,), "<=", rhs) for row, rhs in zip(dom.a, dom.b)]
    rows += [(p.a + (_ZERO,), "<=", -p.b) for phi in region for p in phi.pieces]
    lp = LinearProgram(n + 1, tuple(-v for v in slope) + (_ONE,), rows=tuple(rows))
    out = lp_solve(lp)
    return lp_value(lp, out), (out.x[:n] if isinstance(out, Optimal) else None)


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
    """True iff fn(x) >= fn(point) + <s, x - point> - eps for all x in dom fn,
    i.e. inf fn - <s, .> is at least fn(point) - <s, point> - eps."""
    s = tuple(rat(v) for v in s)
    if len(s) != q.fn.n:
        raise InputError("slope dimension mismatch")
    if not q.fn.is_finite_at(q.point):
        return False
    value, _ = epigraph_inf(q.fn, slope=s)
    if value == INF:
        raise RuntimeError("epigraph LP is infeasible at a point of dom fn")
    return value >= q.fn.value(q.point) - _dot(s, q.point) - q.eps


def subdiff_epigraph(fn: PolyhedralConvexFunction, point, image=None) -> tuple[tuple, tuple]:
    """Generators of E = {(eps, s) : eps >= 0, s in d_eps fn(point)}.

    For fn = max_i (<a_i, x> + b_i) on dom fn = {C x <= d}, LP duality gives
    fn*(s) + fn(point) - <s, point> = min sum lam_i delta_i + sum eta_r sigma_r
    over lam in the unit simplex and eta >= 0 with sum lam_i a_i + C^T eta = s,
    where delta_i = fn(point) - piece_i(point) and sigma_r = d_r - C_r . point.
    Hence E = conv{(delta_i, a_i)} + cone{(1, 0), (sigma_r, C_r)}. Returns the
    points (delta_i, a_i) in piece order and the rays (sigma_r, C_r) in row
    order, repeats dropped; the ray (1, 0) is left implicit. `point` must lie
    in dom fn.

    Everything is read off the integer images of fn and its domain at the
    point over its common denominator: `image`, `(nums, den)`, when the
    caller has it (a problem's `_point_image`), taken unchecked, or else
    made here from `point`. Repeats are dropped by those images, first seen
    first, before any `Fraction` is made: a point repeats exactly when
    (top - v_i, A_i) does, over f's common D, and a ray exactly when its
    domain row's image (A_r, b_r, L_r) does.
    """
    if image is None:
        point = tuple(rat(v) for v in point)
        if len(point) != fn.n:
            raise InputError("point dimension mismatch")
        image = _over_common_den(point)
    nums, den = image
    dom = fn.domain
    if dom is not None and not dom._holds(nums, den):
        raise InputError("point is off the domain")
    values = fn._scaled_pieces(nums, den)
    d_f, pieces = fn._image
    top, scale = max(values), d_f * den
    points = {}
    for v, (a, _), p in zip(values, pieces, fn.pieces):
        if (top - v, a) not in points:
            points[top - v, a] = (Fraction(top - v, scale), p.a)
    rays = {}
    if dom is not None:
        for row, c in zip(dom._rows, dom.a):
            if row not in rays:
                a, b, row_den = row
                rays[row] = (Fraction(b * den - sum(map(mul, a, nums)), row_den * den), c)
    return tuple(points.values()), tuple(rays.values())


def subdiff_vrep(q: SubdiffQuery) -> VPolytope:
    """Exact generator representation of the epsilon-subdifferential.

    d_eps fn(point) is the slice at eps' = eps of the E of `subdiff_epigraph`.
    Its vertices lie among the a_i with delta_i <= eps and the crossings of
    eps' = eps with the edges [(delta_i, a_i), (delta_j, a_j)], delta_i <= eps
    < delta_j, and (delta_i, a_i) + t (sigma_r, C_r), sigma_r > 0, of E; its
    rays are the C_r with sigma_r = 0. `prune` drops the redundant ones.
    """
    if not q.fn.is_finite_at(q.point):
        return VPolytope(q.fn.n, (), ())
    points, rays = subdiff_epigraph(q.fn, q.point)
    eps = q.eps
    inside = [(delta, a) for delta, a in points if delta <= eps]
    vertices = [a for _, a in inside]
    for delta, a in inside:
        for delta_j, a_j in points:
            if delta_j > eps:
                t = (eps - delta) / (delta_j - delta)
                vertices.append(tuple(x + t * (y - x) for x, y in zip(a, a_j)))
        for sigma, c in rays:
            if sigma > 0:
                t = (eps - delta) / sigma
                vertices.append(tuple(x + t * y for x, y in zip(a, c)))
    return prune(q.fn.n, vertices, [c for sigma, c in rays if sigma == 0])


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
