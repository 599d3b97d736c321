"""Brute-force ground truth on rational grids.

Feasibility is exact at every grid point, so the oracle never misclassifies a
point; it only misses off-grid optima, bounded by lipschitz_bound * step.
The boundary-improvement map pi(x) realizes the interior-to-boundary descent
argument exactly: the root of h on a segment has a closed form.

The grid is walked a row at a time in integers. On x = lo + step * k every
affine piece, domain row and constraint is integer-affine in the index vector
k once scaled by a positive integer, so its values along the last axis form an
integer arithmetic progression (a `range`), and a function's row is the
pointwise max of its pieces' ranges. f shares one scale with eps; h, each g
and each domain row have their own, since only their signs are compared.
The grid keeps its own integer image, lo and step over one common
denominator, and the evaluators read it together with the integer images the
model keeps of each function and domain, so building them takes no `Fraction`
arithmetic. Values and coordinates turn back into `Fraction`s only in the
results.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, product, repeat
from math import gcd, lcm, prod
from operator import eq, ge, le, mul

# lp_solve stays bound here because bench/spans.py traces it.
from .lp import lp_solve  # noqa: F401
from .model import (
    INF,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _over_common_den,
    rat,
)
from .subdiff import epigraph_inf

__all__ = [
    "GridSpec",
    "GRID_CAP",
    "BruteResult",
    "brute_eps_argmin",
    "boundary_projection",
    "boundary_equivalence_check",
    "BoundaryReport",
    "ORACLE_MODES",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

ORACLE_MODES = ("reverse", "equality", "constrained-reverse", "convex")

GRID_CAP = 10**6  # the most points a GridSpec may have

#: verify-mode -> oracle feasibility mode
MODE_MAP = {
    "rop": "reverse",
    "equality": "equality",
    "constrained": "constrained-reverse",
    "convex": "convex",
}


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rational grid: box intervals plus a common step."""

    box: tuple[tuple[Fraction, Fraction], ...]
    step: Fraction

    def __post_init__(self):
        box = tuple((rat(lo), rat(hi)) for lo, hi in self.box)
        if not box:
            raise InputError("grid needs at least one axis")
        step = rat(self.step)
        if step <= 0:
            raise InputError("grid step must be > 0")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "step", step)
        _, los, his, step = self._image
        for lo, hi in zip(los, his):
            if lo > hi:
                raise InputError("grid box has lo > hi")
            if (hi - lo) % step:
                raise InputError("grid span must be an integer number of steps")
        count = prod(self.shape)
        if count > GRID_CAP:
            raise InputError(f"grid has {count} points, cap is {GRID_CAP}")

    @cached_property
    def _image(self) -> tuple:
        """The integer image (q, L, H, S): the box's bounds and the step over
        one common denominator q, lo_j = L_j / q, hi_j = H_j / q, step = S / q."""
        nums, q = _over_common_den([*(v for axis in self.box for v in axis), self.step])
        return q, tuple(nums[0:-1:2]), tuple(nums[1:-1:2]), nums[-1]

    @property
    def n(self) -> int:
        return len(self.box)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Points per axis."""
        _, los, his, step = self._image
        return tuple((hi - lo) // step + 1 for lo, hi in zip(los, his))

    def axes(self) -> list[list[Fraction]]:
        q, los, _, step = self._image
        return [[Fraction(lo + k * step, q) for k in range(m)] for lo, m in zip(los, self.shape)]

    def points(self):
        return product(*self.axes())

    def leads(self):
        """Leading indices of the rows, in the order of `points`; a row is
        the run of points along the last axis."""
        return product(*map(range, self.shape[:-1]))


def _integer_forms(rows, grid: GridSpec):
    """Each integer affine form (A, B) on the grid x = (L + S k) / q (the
    grid's `_image`) as integers (c, s) with q * (<A, x> + B) = c + <s, k>."""
    q, los, _, step = grid._image
    return [(sum(map(mul, a, los), b * q), [v * step for v in a]) for a, b in rows]


class _GridEvaluator:
    """Exact scaled values of a polyhedral function on a grid, one row at a time.

    A row is the run of points along the last axis at fixed leading indices.
    Scaled by `scale`, each piece is integer-affine in the index vector, so its
    values along a row are an integer arithmetic progression; each domain row,
    scaled on its own, keeps the points with a nonpositive progression, which
    is one interval of the row. `scale` is the least positive integer that
    clears the pieces' denominators on the grid and those of `extra`.
    """

    def __init__(self, fn: PolyhedralConvexFunction, grid: GridSpec, extra=()):
        den, rows = fn._image
        forms = _integer_forms(rows, grid)
        # The pieces are forms / (D q); their least scale is D q / g.
        big = den * grid._image[0]
        g = gcd(big, *(v for c, s in forms for v in (c, *s)))
        self.scale = lcm(big // g, *(e.denominator for e in extra))
        t = self.scale * g // big
        self.pieces = [(c // g * t, [v // g * t for v in s]) for c, s in forms]
        self.dom_rows = []
        if fn.domain is not None:
            self.dom_rows = _integer_forms(((a, -b) for a, b, _ in fn.domain._rows), grid)
        self.m = grid.shape[-1]

    def row(self, lead) -> list:
        """Scaled values along the row at leading indices `lead`; INF off dom."""
        lo, hi = 0, self.m
        for c, s in self.dom_rows:
            c += sum(map(mul, s, lead))
            t = s[-1]
            # c + t * k <= 0
            if t > 0:
                hi = min(hi, -c // t + 1)
            elif t < 0:
                lo = max(lo, -(c // t))
            elif c > 0:
                hi = 0
        if hi <= lo:
            return [INF] * self.m
        runs = []
        for c, s in self.pieces:
            t = s[-1]
            c += sum(map(mul, s, lead)) + t * lo
            runs.append(range(c, c + t * (hi - lo), t) if t else repeat(c, hi - lo))
        vals = list(runs[0]) if len(runs) == 1 else list(map(max, *runs))
        if lo == 0 and hi == self.m:
            return vals
        return [INF] * lo + vals + [INF] * (self.m - hi)


def _grid_images(f, h, grid: GridSpec, extra=()):
    """(f, -h) at every grid point in the order of `grid.points()`, None off
    dom f or dom h, each criterion scaled to integers by its own positive
    factor (f's also clears the denominators of `extra`); and the factors."""
    f_ev, h_ev = _GridEvaluator(f, grid, extra), _GridEvaluator(h, grid)
    images = []
    for lead in grid.leads():
        for fv, hv in zip(f_ev.row(lead), h_ev.row(lead)):
            images.append(None if fv == INF or hv == INF else (fv, -hv))
    return images, f_ev.scale, h_ev.scale


@dataclass(frozen=True)
class BruteResult:
    """The eps-argmin over the feasible grid points, in grid order."""

    mode: str
    feasible_count: int
    min_value: object  # Fraction, INF, or None when no grid point is feasible
    eps_argmin: tuple
    slack: tuple  # per argmin point: min_value + eps - f(x)
    error_bound: Fraction

    @property
    def empty(self) -> bool:
        return self.feasible_count == 0


#: Grid results still referenced somewhere, under a key derived from each.
_LIVE_RESULTS = weakref.WeakValueDictionary()


def _shared(key, result):
    """`result`, or an equal result made earlier under `key` and still
    referenced: a caller that keeps the results of many passes over the same
    instances holds each distinct result once."""
    live = _LIVE_RESULTS.get(key)
    if live == result:
        return live
    _LIVE_RESULTS[key] = result
    return result


#: oracle mode -> the test h's scaled value must pass at a feasible point
#: (off dom h, h = +inf passes only h >= 0)
_H_TEST = {
    "reverse": ge,
    "equality": eq,
    "constrained-reverse": ge,
    "convex": le,
}


def brute_eps_argmin(problem: ReverseProblem, mode: str, grid: GridSpec) -> BruteResult:
    """Exact eps-argmin over the feasible grid points for the given mode."""
    if mode not in ORACLE_MODES:
        raise InputError(f"unknown oracle mode {mode!r}")
    if grid.n != problem.n:
        raise InputError("grid dimension mismatch")
    f_ev = _GridEvaluator(problem.objective, grid, (problem.epsilon,))
    h_ev = _GridEvaluator(problem.reverse, grid)
    g_evs = []
    if mode == "constrained-reverse":
        g_evs = [_GridEvaluator(g, grid) for g in problem.constraints]
    eps = int(problem.epsilon * f_ev.scale)
    test, zeros, ks_all = _H_TEST[mode], repeat(0), range(grid.shape[-1])

    feasible = 0
    best = None
    # (leading indices, last index, scaled f) of the feasible points within
    # eps of the running best; pruned whenever the best falls.
    near = []
    for lead in grid.leads():
        ks = list(compress(ks_all, map(test, h_ev.row(lead), zeros)))
        for g_ev in g_evs:
            if not ks:
                break
            g_row = g_ev.row(lead)
            ks = [k for k in ks if g_row[k] <= 0]
        if not ks:
            continue
        feasible += len(ks)
        f_row = f_ev.row(lead)
        vals = [f_row[k] for k in ks]
        low = min(vals)
        if low == INF:
            continue
        if best is None or low < best:
            best = low
            near = [item for item in near if item[2] <= best + eps]
        cut = best + eps
        near.extend((lead, k, v) for k, v in zip(ks, vals) if v <= cut)
    bound = problem.objective.lipschitz_bound() * grid.step
    if feasible == 0:
        return BruteResult(mode, 0, None, (), (), bound)
    if best is None:
        return BruteResult(mode, feasible, INF, (), (), bound)

    # Pruned whenever the best fell, `near` holds exactly the eps-argmin.
    threshold = best + eps
    q, los, _, step = grid._image

    # The points share their coordinate objects, and equal slacks one object.
    @cache
    def tick(j, k):
        return Fraction(los[j] + k * step, q)

    @cache
    def slack(v):
        return Fraction(threshold - v, f_ev.scale)

    axes = range(grid.n)
    res = BruteResult(
        mode,
        feasible,
        Fraction(best, f_ev.scale),
        tuple(tuple(map(tick, axes, (*lead, k))) for lead, k, _ in near),
        tuple(slack(v) for _, _, v in near),
        bound,
    )
    key = (grid, mode, feasible, bound, f_ev.scale, best, threshold, hash(tuple(near)))
    return _shared(key, res)


def boundary_projection(f, h, x, y):
    """The point pi on [y, x] with h(pi) = 0 nearest to x.

    Requires h(x) > 0 and h(y) < 0. Along x + t (y - x), piece i of h is
    c_i + t d_i with d_i = piece_i(y) - c_i, and h <= 0 where every piece is.
    A piece with d_i >= 0 is negative on all of [0, 1], as it is at y; one
    with d_i < 0 is <= 0 from t = c_i / -d_i on. So the root is the largest
    c_i / (c_i - piece_i(y)) over the pieces with piece_i(y) < c_i.
    """
    x = tuple(rat(v) for v in x)
    y = tuple(rat(v) for v in y)
    hx, hy = h.value(x), h.value(y)
    if hx == INF or hx <= 0:
        raise InputError("boundary projection requires h(x) > 0")
    if hy == INF or hy >= 0:
        raise InputError("boundary projection requires h(y) < 0")
    nums, den = _projection(h, x, _pieces_at(h, y))
    pi = tuple(Fraction(v, den) for v in nums)
    if h.value(pi) != 0 or not f.value(pi) < f.value(x):
        raise RuntimeError("boundary projection is off {h = 0} or does not descend")
    return pi


def _pieces_at(h, y):
    """(ys, r, vals): y = ys / r and each piece of h at y times D * r, where
    D is the denominator of h's integer image."""
    ys, r = _over_common_den(y)
    return ys, r, h._scaled_pieces(ys, r)


def _projection(h, x, y_image):
    """`boundary_projection`'s pi, unchecked, as integers nums / den; y
    given by `_pieces_at`. With piece_i(x) = c / (D q) and piece_i(y) =
    d / (D r), the root c_i / (c_i - piece_i(y)) is c r / (c r - d q)."""
    ys, r, y_vals = y_image
    xs, q = _over_common_den(x)
    top = bottom = None  # the largest root so far, top / bottom
    for c, d in zip(h._scaled_pieces(xs, q), y_vals):
        num = c * r
        gap = num - d * q
        if gap > 0 and (top is None or num * bottom > top * gap):
            top, bottom = num, gap
    # pi = (1 - root) x + root y over the denominator bottom * q * r
    return [(bottom - top) * u * r + top * v * q for u, v in zip(xs, ys)], bottom * q * r


@dataclass(frozen=True)
class BoundaryReport:
    applicable: bool
    reason: str | None
    equality_side: tuple
    reverse_side: tuple
    difference: tuple

    @property
    def passed(self) -> bool:
        return self.applicable and not self.difference


def boundary_equivalence_check(f, h, grid: GridSpec, eps) -> BoundaryReport:
    """Grid realization of `eps-argmin over {h=0} equals eps-argmin over
    {h>=0} restricted to {h=0}`, with the h>=0 minimum improved by projecting
    every interior feasible grid point to the boundary."""
    eps = rat(eps)
    if f.domain is not None or h.domain is not None:
        return BoundaryReport(False, "functions must be finite-valued", (), (), ())
    # f and eps share one scale; -h is compared only with 0.
    images, f_scale, _ = _grid_images(f, h, grid, (eps,))
    fvals, neg_h = zip(*images)
    eps = int(eps * f_scale)
    pts = list(grid.points())
    feas = [i for i, v in enumerate(neg_h) if v <= 0]
    if not feas:
        return BoundaryReport(False, "no feasible grid point", (), (), ())
    m_all = min(fvals)
    m_feas = min(fvals[i] for i in feas)
    if not m_all < m_feas:
        return BoundaryReport(False, "essential assumption fails on the grid", (), (), ())
    # Interior descent point: exact minimizer of f over the box.
    n = grid.n
    box_rows, box_rhs = [], []
    for j, (lo, hi) in enumerate(grid.box):
        e = tuple(_ONE if k == j else _ZERO for k in range(n))
        box_rows += [e, tuple(-v for v in e)]
        box_rhs += [hi, -lo]
    on_box = PolyhedralConvexFunction(n, f.pieces, HPolyhedron(box_rows, box_rhs, n))
    _, y = epigraph_inf(on_box)
    if y is None:
        raise RuntimeError("a box-constrained epigraph LP has no optimum")
    if h.value(y) >= 0:
        return BoundaryReport(False, "interior point not found (h(y) >= 0)", (), (), ())

    boundary = [i for i in feas if neg_h[i] == 0]
    m_boundary = min((fvals[i] for i in boundary), default=None)
    # h at y, and each piece at y, are the same for every interior point;
    # f(pi) and h(pi) are read through f's and h's integer images.
    y_image = _pieces_at(h, y)
    f_den = f._image[0]
    improved = m_feas
    for i in feas:
        if neg_h[i] < 0:
            nums, den = _projection(h, pts[i], y_image)
            # f(pi) * f_scale, and f(x) * f_scale = fvals[i]
            val = Fraction(max(f._scaled_pieces(nums, den)) * f_scale, f_den * den)
            if max(h._scaled_pieces(nums, den)) != 0 or not val < fvals[i]:
                raise RuntimeError("boundary projection is off {h = 0} or does not descend")
            if val < improved:
                improved = val
    equality_side = tuple(
        pts[i] for i in boundary if m_boundary is not None and fvals[i] <= m_boundary + eps
    )
    reverse_side = tuple(pts[i] for i in boundary if fvals[i] <= improved + eps)
    diff = tuple(sorted(set(equality_side) ^ set(reverse_side)))
    return BoundaryReport(True, None, equality_side, reverse_side, diff)
