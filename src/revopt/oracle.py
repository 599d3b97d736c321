"""Brute-force ground truth on rational grids.

Feasibility is exact at every grid point, so the oracle never misclassifies a
point; it only misses off-grid optima, bounded by lipschitz_bound * step.

The grid is walked one piece at a time over all rows, in integers. A row is
the run of points along the last axis at fixed leading indices. On
x = lo + step * k every affine piece, domain row and constraint is
integer-affine in the index vector k once scaled by a positive integer, so
along row r it is an integer arithmetic progression C[r] + t * k; each form's
constants C on every row are made once per evaluator, by one accumulation
over the leading axes (`_row_tables`). A function is the max of its pieces'
progressions, convex in k, so each domain row, {h < 0}, {h <= 0} and each
{g <= 0} is one index interval of each row, bounded by one floor or ceiling
division per piece; one pass per piece takes that bound on every row at once
(`_rows_at_most`). The oracle loops over the rows only to combine these
intervals: a row's feasible points are at most two intervals, cut to dom f.
It takes f's pieces to a row only where an interval is kept, and reads f's
least value on each in closed form (`_least`); once the best over all rows is
known, one more cut leaves each interval's run within eps of it, and f's
values (the pointwise max of its pieces' `range`s) are made only there, for
the points the result holds. `grid_sample` and `bridge_check` read every
point's values, from the same row tables (`values`). f shares one scale
with eps; h, each g and each domain row have their own, since only their
signs are compared.
The grid keeps its own integer image, lo and step over one common
denominator, and the evaluators read it together with the integer images the
model keeps of each function and domain, so building them takes no `Fraction`
arithmetic. A result keeps the eps-argmin in the same integers: its index
runs (row, a, b), f's scaled values on them, f's scale and the scaled
threshold. Values and coordinates turn back into `Fraction`s only when a
caller reads a result's `eps_argmin` or `slack`; a result is equal to another,
and shared with it, by that integer form alone.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, product, repeat
from math import gcd, lcm, prod
from operator import getitem, mul

# lp_solve stays bound here because bench/spans.py traces it.
from .lp import lp_solve  # noqa: F401
from .model import (
    INF,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _over_common_den,
    _record,
    rat,
)

__all__ = [
    "GridSpec",
    "GRID_CAP",
    "BruteResult",
    "brute_eps_argmin",
    "ORACLE_MODES",
]

ORACLE_MODES = ("reverse", "equality", "constrained-reverse", "convex")

GRID_CAP = 10**6  # the most points a GridSpec may have

#: verify-mode -> oracle feasibility mode
MODE_MAP = {
    "rop": "reverse",
    "equality": "equality",
    "constrained": "constrained-reverse",
    "convex": "convex",
}


class _Axis(dict):
    """k -> the coordinate (lo + k * step) / q of a grid axis, made when first
    read."""

    def __init__(self, lo: int, step: int, q: int):
        self.lo, self.step, self.q = lo, step, q

    def __missing__(self, k):
        tick = self[k] = Fraction(self.lo + k * self.step, self.q)
        return tick


@_record
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

    @cached_property
    def _ticks(self) -> tuple:
        """Each axis's coordinates by index, each made once per grid when
        first read, so that the results on one grid share them."""
        q, los, _, step = self._image
        return tuple(_Axis(lo, step, q) for lo in los)

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


def _row_tables(forms, grid: GridSpec, num=1, den=1):
    """Each integer form (c, s) from `_integer_forms`, times num / den (den
    divides every coefficient), as (C, t): C its constant on every row, in
    the order of `grid.leads()`, and t its step along the row, so that
    (c + <s, (*lead, k)>) * num / den = C[r] + t * k on row r. C is one
    nested accumulation over the leading axes."""
    tables = [([c // den * num], s[-1] // den * num) for c, s in forms]
    for j, m in enumerate(grid.shape[:-1]):
        for (consts, _), (_, s) in zip(tables, forms):
            v = s[j] // den * num
            consts[:] = [a + v * k for a in consts for k in range(m)]
    return tables


def _at_most(pieces, lo, hi, cut):
    """The index interval [lo', hi') of the k in [lo, hi) where
    max_i (c_i + t_i * k) <= cut, for pieces (c_i, t_i): each piece bounds k
    on one side by a floor or a ceiling division. Empty when lo' >= hi'; an
    integer max is < cut where it is <= cut - 1."""
    for c, t in pieces:
        # t * k <= cut - c
        if t > 0:
            hi = min(hi, (cut - c) // t + 1)
        elif t < 0:
            lo = max(lo, -((c - cut) // t))
        elif c > cut:
            return lo, lo
    return lo, hi


def _rows_at_most(pieces, lo, hi, cut):
    """`_at_most` on every row at once: per row r, the index interval
    [lo'[r], hi'[r]) of the k in [lo[r], hi[r]) where
    max_i (C_i[r] + t_i * k) <= cut, for row tables (C_i, t_i). One pass per
    piece over all rows: a rising piece lowers every row's hi, a falling one
    raises every row's lo, and a flat one empties the rows where it is above
    the cut. With every lo >= 0, a row is empty where lo' >= hi'."""
    for consts, t in pieces:
        if t > 0:
            hi = [min(b, (cut - c) // t + 1) for c, b in zip(consts, hi)]
        elif t < 0:
            lo = [max(a, -((c - cut) // t)) for c, a in zip(consts, lo)]
        else:
            hi = [0 if c > cut else b for c, b in zip(consts, hi)]
    return lo, hi


def _values(pieces, lo, hi) -> list:
    """max_i (c_i + t_i * k) for k in [lo, hi), lo < hi, as integers."""
    runs = [range(c + t * lo, c + t * hi, t) if t else [c] * (hi - lo) for c, t in pieces]
    return list(runs[0]) if len(runs) == 1 else list(map(max, *runs))


def _least(pieces, lo, hi) -> int:
    """min over k in [lo, hi), lo < hi, of max_i (c_i + t_i * k).

    Over the reals this is a one-variable LP: the max of the falling pieces
    meets the max of the rising ones at one point, the crossing
    (c - c') / (t' - t) of the falling and rising pair whose crossing value
    (c t' - c' t) / (t' - t) is highest (pairs tied on that value cross at
    the same point), and the flat pieces only raise the value. The function
    is convex, so the integer minimum is at that crossing's floor or the next
    index, clamped to [lo, hi); with no falling piece it is at lo, with no
    rising piece at hi - 1. The pair scan costs (falling x rising) steps, a
    step about five values of one piece at one point: with 2-4 pieces it is
    2-3 times faster than reading a 49-point run's values, with 64 pieces
    about 2 times slower.
    """
    down = [(c, t) for c, t in pieces if t < 0]
    up = [(c, t) for c, t in pieces if t > 0]
    if not down:
        ks = (lo,)
    elif not up:
        ks = (hi - 1,)
    else:
        top = None  # the highest crossing value so far, top / bottom
        for c, t in down:
            for d, u in up:
                num, den = c * u - d * t, u - t
                if top is None or num * bottom > top * den:
                    top, bottom, at = num, den, (c - d) // den
        ks = (min(max(at, lo), hi - 1), min(max(at + 1, lo), hi - 1))
    return min([max([c + t * k for c, t in pieces]) for k in ks])


class _GridEvaluator:
    """Exact scaled values of a polyhedral function on a grid, all rows at once.

    A row is the run of points along the last axis at fixed leading indices,
    numbered in the order of `grid.leads()`. Scaled by `scale`, each piece is
    integer-affine in the index vector, so along row r it is an integer
    arithmetic progression C[r] + t * k; `pieces` holds each piece's table
    (C, t) from `_row_tables`, and `dom_rows` each domain row's, scaled on
    its own. A domain row keeps the points where its progression is <= 0, so
    each row's domain is one index interval: `domain` holds their bounds
    (lo, hi) as two lists, a row empty where lo >= hi. `scale` is the least
    positive integer that clears the pieces' denominators on the grid and
    those of `extra`.
    """

    def __init__(self, fn: PolyhedralConvexFunction, grid: GridSpec, extra=()):
        den, image = fn._image
        forms = _integer_forms(image, grid)
        # The pieces are forms / (D q); their least scale is D q / g.
        big = den * grid._image[0]
        g = gcd(big, *[v for c, s in forms for v in (c, *s)])
        self.scale = lcm(big // g, *(e.denominator for e in extra))
        self.pieces = _row_tables(forms, grid, self.scale * g // big, g)
        self.m = m = grid.shape[-1]
        rows = len(self.pieces[0][0])
        self.dom_rows = []
        if fn.domain is not None:
            self.dom_rows = _row_tables(
                _integer_forms(((a, -b) for a, b, _ in fn.domain._rows), grid), grid
            )
        self.domain = _rows_at_most(self.dom_rows, [0] * rows, [m] * rows, 0)

    def at_most(self, cut, lo=None, hi=None) -> tuple[list, list]:
        """Per row, the index interval [lo', hi') of the domain where the
        scaled function is <= cut, as two lists, a row empty where
        lo' >= hi'; with lists lo and hi, only within each row's [lo, hi)."""
        d_lo, d_hi = self.domain
        if lo is not None:
            d_lo, d_hi = list(map(max, lo, d_lo)), list(map(min, hi, d_hi))
        return _rows_at_most(self.pieces, d_lo, d_hi, cut)

    def along(self, r) -> list:
        """The scaled pieces along row r as progressions (c, t) in k."""
        return [(consts[r], t) for consts, t in self.pieces]

    def values(self) -> list:
        """Scaled values at every grid point, in the order of `grid.points()`;
        INF off dom."""
        m = self.m
        runs = [
            chain.from_iterable([range(c, c + t * m, t) if t else repeat(c, m) for c in consts])
            for consts, t in self.pieces
        ]
        vals = list(runs[0]) if len(runs) == 1 else list(map(max, *runs))
        for start, lo, hi in zip(range(0, len(vals), m), *self.domain):
            if lo > 0 or hi < m:
                lo = min(lo, m)
                hi = max(lo, min(hi, m))
                vals[start : start + lo] = repeat(INF, lo)
                vals[start + hi : start + m] = repeat(INF, m - hi)
        return vals


def _grid_images(f, h, grid: GridSpec, extra=()):
    """(f, -h) at every grid point in the order of `grid.points()`, None off
    dom f or dom h, each criterion scaled to integers by its own positive
    factor (f's also clears the denominators of `extra`); and the factors."""
    f_ev, h_ev = _GridEvaluator(f, grid, extra), _GridEvaluator(h, grid)
    images = [
        None if fv == INF or hv == INF else (fv, -hv)
        for fv, hv in zip(f_ev.values(), h_ev.values())
    ]
    return images, f_ev.scale, h_ev.scale


@_record
class BruteResult:
    """The eps-argmin over the feasible grid points, in grid order, kept in
    the grid's integers: `runs` holds each run of it as (r, a, b), the index
    interval [a, b) of row r in the order of `grid.leads()`, and `values`
    f's values on those runs, one after another, times `scale`; `threshold`
    is (min_value + eps) * scale. The points and the slacks are made as
    `Fraction`s when first read (`eps_argmin`, `slack`). Equality and hashing
    are over the fields, this integer form, so they compare no point."""

    mode: str
    feasible_count: int
    min_value: object  # Fraction, INF, or None when no grid point is feasible
    error_bound: Fraction
    grid: GridSpec
    runs: tuple
    values: tuple
    scale: int
    threshold: int | None  # None when no feasible point is in dom f

    @property
    def empty(self) -> bool:
        return self.feasible_count == 0

    @cached_property
    def eps_argmin(self) -> tuple:
        """The argmin points, each a tuple of `Fraction` coordinates: a run's
        points are its row's leading coordinates and the last axis's ticks."""
        *heads, last = self.grid._ticks
        leads = list(self.grid.leads())
        points = []
        for r, a, b in self.runs:
            cols = [repeat(x, b - a) for x in map(getitem, heads, leads[r])]
            points += zip(*cols, map(last.__getitem__, range(a, b)))
        return tuple(points)

    @cached_property
    def slack(self) -> tuple:
        """Per argmin point, min_value + eps - f(x); equal slacks share one
        object."""
        made = {v: Fraction(self.threshold - v, self.scale) for v in set(self.values)}
        return tuple(map(made.__getitem__, self.values))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(mode={self.mode!r}, "
            f"feasible_count={self.feasible_count!r}, min_value={self.min_value!r}, "
            f"eps_argmin={self.eps_argmin!r}, slack={self.slack!r}, "
            f"error_bound={self.error_bound!r})"
        )


#: Grid results still referenced somewhere, under their class and fields.
_LIVE_RESULTS = weakref.WeakValueDictionary()


def _shared(cls, *fields):
    """cls(*fields), or the result made earlier from equal fields and still
    referenced. A result's fields are its whole content, so an equal key is
    an equal result and nothing is compared: a caller that keeps the results
    of many passes over the same instances holds each distinct result once."""
    key = (cls, fields)
    result = _LIVE_RESULTS.get(key)
    if result is None:
        result = _LIVE_RESULTS[key] = cls(*fields)
    return result


def _feasible_runs(mode, h_ev, g_evs) -> list:
    """The feasible points of every row as (r, a, b) for each nonempty index
    interval [a, b) of row r, at most two per row, in grid order. Along a row
    h and each g are convex, so {h < 0}, {h <= 0} and {g <= 0} are intervals
    of their domains, each read for all rows in one pass per piece."""
    m, rows = h_ev.m, len(h_ev.domain[0])
    # Each row's window: the points where every g <= 0, and h <= 0 in
    # equality and convex mode.
    lo, hi = [0] * rows, [m] * rows
    for g_ev in g_evs:
        lo, hi = g_ev.at_most(0, lo, hi)
    if mode == "equality" or mode == "convex":
        lo, hi = h_ev.at_most(0, lo, hi)
    if mode == "convex":
        return [(r, a, b) for r, a, b in zip(count(), lo, hi) if a < b]
    runs = []
    # h < 0 on [a, b); elsewhere h >= 0, or h = +inf off dom h.
    for r, a, b, start, stop in zip(count(), *h_ev.at_most(-1), lo, hi):
        for a, b in ((start, stop),) if a >= b else ((start, min(a, stop)), (max(b, start), stop)):
            if a < b:
                runs.append((r, a, b))
    return runs


def brute_eps_argmin(problem: ReverseProblem, mode: str, grid: GridSpec) -> BruteResult:
    """Exact eps-argmin over the feasible grid points for the given mode.

    h and each g are read on all rows at once, one pass per piece
    (`_feasible_runs`); the rows are then looped over only where they keep a
    feasible interval. The first loop cuts each interval to dom f, takes f's
    pieces to the row, and takes the best value from `_least` on each, one
    step per pair of a falling and a rising piece of f, not a value per
    point. The second cuts each kept interval to its run {f <= best + eps}
    and makes f's values only there: no other point of the grid gets a value
    of f.

    `feasible_count` counts the grid points that pass the mode's h and g
    test, those where f = +inf included; `min_value` is INF when f = +inf at
    every one of them.
    """
    if mode not in ORACLE_MODES:
        raise InputError(f"unknown oracle mode {mode!r}")
    if grid.n != problem.n:
        raise InputError("grid dimension mismatch")
    f_ev = _GridEvaluator(problem.objective, grid, (problem.epsilon,))
    h_ev = _GridEvaluator(problem.reverse, grid)
    g_evs = []
    if mode == "constrained-reverse":
        g_evs = [_GridEvaluator(g, grid) for g in problem.constraints]
    eps = f_ev.scale // problem.epsilon.denominator * problem.epsilon.numerator

    feasible = 0
    # (row, f's pieces along it, a, b) for each feasible run [a, b) of a row,
    # cut to dom f
    kept = []
    f_lo, f_hi = f_ev.domain
    for r, a, b in _feasible_runs(mode, h_ev, g_evs):
        feasible += b - a
        a, b = max(a, f_lo[r]), min(b, f_hi[r])
        if a < b:
            if not kept or kept[-1][0] != r:
                pieces = f_ev.along(r)
            kept.append((r, pieces, a, b))
    bound = problem.objective.lipschitz_bound() * grid.step
    if feasible == 0:
        return BruteResult(mode, 0, None, bound, grid, (), (), f_ev.scale, None)
    if not kept:
        return BruteResult(mode, feasible, INF, bound, grid, (), (), f_ev.scale, None)

    best = min([_least(pieces, a, b) for _, pieces, a, b in kept])
    threshold = best + eps
    # The eps-argmin as index runs (r, a, b) in grid order and f's scaled
    # values on them: f is convex along a row, so a run's points within eps
    # of the best are one run.
    runs, values = [], []
    for r, pieces, a, b in kept:
        a, b = _at_most(pieces, a, b, threshold)
        if a < b:
            runs.append((r, a, b))
            values += _values(pieces, a, b)
    scale = f_ev.scale
    min_value = Fraction(best, scale)
    runs, values = tuple(runs), tuple(values)
    return _shared(
        BruteResult, mode, feasible, min_value, bound, grid, runs, values, scale, threshold
    )

