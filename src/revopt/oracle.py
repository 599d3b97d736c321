"""Brute-force ground truth on rational grids.

Feasibility is exact at every grid point, so the oracle never misclassifies a
point; it only misses off-grid optima, bounded by lipschitz_bound * step.
The boundary-improvement map pi(x) realizes the interior-to-boundary descent
argument exactly via root isolation on a piecewise-linear section.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lp import LinearProgram, Optimal, lp_solve
from .model import INF, InputError, PolyhedralConvexFunction, ReverseProblem, rat

__all__ = [
    "GridSpec",
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
    cap: int = 10**6

    def __post_init__(self):
        box = tuple((rat(lo), rat(hi)) for lo, hi in self.box)
        step = rat(self.step)
        if step <= 0:
            raise InputError("grid step must be > 0")
        count = 1
        for lo, hi in box:
            if lo > hi:
                raise InputError("grid box has lo > hi")
            span = (hi - lo) / step
            if span.denominator != 1:
                raise InputError("grid span must be an integer number of steps")
            count *= int(span) + 1
        if count > self.cap:
            raise InputError(f"grid has {count} points, cap is {self.cap}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "step", step)

    @property
    def n(self) -> int:
        return len(self.box)

    def axes(self) -> list[list[Fraction]]:
        out = []
        for lo, hi in self.box:
            ticks = int((hi - lo) / self.step) + 1
            out.append([lo + k * self.step for k in range(ticks)])
        return out

    def points(self):
        return itertools.product(*self.axes())


class _GridEvaluator:
    """Per-axis memoized evaluation of a polyhedral function on a grid."""

    def __init__(self, fn: PolyhedralConvexFunction, axes):
        self.offsets = [p.b for p in fn.pieces]
        self.contrib = [
            [[a_j * v for v in axis] for a_j, axis in zip(p.a, axes)]
            for p in fn.pieces
        ]
        self.dom_rows = None
        if fn.domain is not None:
            self.dom_rows = [
                (
                    [[a_j * v for v in axis] for a_j, axis in zip(row, axes)],
                    rhs,
                )
                for row, rhs in zip(fn.domain.a, fn.domain.b)
            ]

    def value(self, idx):
        if self.dom_rows is not None:
            for cols, rhs in self.dom_rows:
                if sum(cols[j][k] for j, k in enumerate(idx)) > rhs:
                    return INF
        return max(
            off + sum(cols[j][k] for j, k in enumerate(idx))
            for off, cols in zip(self.offsets, self.contrib)
        )


@dataclass(frozen=True)
class BruteResult:
    mode: str
    feasible_count: int
    min_value: object  # Fraction, INF, or None when no grid point is feasible
    eps_argmin: tuple
    slack: tuple  # per argmin point: min_value + eps - f(x)
    error_bound: Fraction

    @property
    def empty(self) -> bool:
        return self.feasible_count == 0


def _feasible_fn(mode, h_val, g_vals):
    if mode == "reverse":
        return h_val >= 0
    if mode == "equality":
        return h_val == 0
    if mode == "constrained-reverse":
        return h_val >= 0 and all(g <= 0 for g in g_vals)
    if mode == "convex":
        return h_val <= 0
    raise InputError(f"unknown oracle mode {mode!r}")


def brute_eps_argmin(problem: ReverseProblem, mode: str, grid: GridSpec) -> BruteResult:
    """Exact eps-argmin over the feasible grid points for the given mode."""
    if mode not in ORACLE_MODES:
        raise InputError(f"unknown oracle mode {mode!r}")
    if grid.n != problem.n:
        raise InputError("grid dimension mismatch")
    axes = grid.axes()
    f_ev = _GridEvaluator(problem.objective, axes)
    h_ev = _GridEvaluator(problem.reverse, axes)
    g_evs = [_GridEvaluator(g, axes) for g in problem.constraints]
    ranges = [range(len(a)) for a in axes]
    need_g = mode == "constrained-reverse"

    feasible = 0
    best = None
    for idx in itertools.product(*ranges):
        g_vals = [g.value(idx) for g in g_evs] if need_g else ()
        if not _feasible_fn(mode, h_ev.value(idx), g_vals):
            continue
        feasible += 1
        val = f_ev.value(idx)
        if val != INF and (best is None or val < best):
            best = val
    bound = problem.objective.lipschitz_bound() * grid.step
    if feasible == 0:
        return BruteResult(mode, 0, None, (), (), bound)
    if best is None:
        return BruteResult(mode, feasible, INF, (), (), bound)

    threshold = best + problem.epsilon
    argmin, slack = [], []
    for idx in itertools.product(*ranges):
        g_vals = [g.value(idx) for g in g_evs] if need_g else ()
        if not _feasible_fn(mode, h_ev.value(idx), g_vals):
            continue
        val = f_ev.value(idx)
        if val != INF and val <= threshold:
            argmin.append(tuple(axes[j][k] for j, k in enumerate(idx)))
            slack.append(threshold - val)
    return BruteResult(mode, feasible, best, tuple(argmin), tuple(slack), bound)


def boundary_projection(f, h, x, y):
    """The point pi on [y, x] with h(pi) = 0 nearest to x.

    Requires h(x) > 0 and h(y) < 0; exact root isolation on the
    piecewise-linear section t -> h((1-t) x + t y).
    """
    x = tuple(rat(v) for v in x)
    y = tuple(rat(v) for v in y)
    hx, hy = h.value(x), h.value(y)
    if hx == INF or hx <= 0:
        raise InputError("boundary projection requires h(x) > 0")
    if hy == INF or hy >= 0:
        raise InputError("boundary projection requires h(y) < 0")
    # Piece i along the segment: c_i + t * d_i.
    cs, ds = [], []
    for p in h.pieces:
        cs.append(p.value(x))
        ds.append(sum(a * (yj - xj) for a, yj, xj in zip(p.a, y, x)))
    nodes = {_ZERO, _ONE}
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if ds[i] != ds[j]:
                t = (cs[j] - cs[i]) / (ds[i] - ds[j])
                if 0 < t < 1:
                    nodes.add(t)
    nodes = sorted(nodes)

    def g(t):
        return max(c + t * d for c, d in zip(cs, ds))

    root = None
    prev_t, prev_g = nodes[0], g(nodes[0])
    for t in nodes[1:]:
        gt = g(t)
        if prev_g > 0 >= gt:
            root = prev_t + (t - prev_t) * prev_g / (prev_g - gt)
            break
        prev_t, prev_g = t, gt
    if root is None:
        raise RuntimeError("no sign change of h between the endpoints")
    pi = tuple((1 - root) * xj + root * yj for xj, yj in zip(x, y))
    if h.value(pi) != 0 or not f.value(pi) < f.value(x):
        raise RuntimeError("boundary projection is off {h = 0} or does not descend")
    return pi


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
    axes = grid.axes()
    f_ev = _GridEvaluator(f, axes)
    h_ev = _GridEvaluator(h, axes)
    ranges = [range(len(a)) for a in axes]
    pts, fvals, hvals = [], [], []
    for idx in itertools.product(*ranges):
        pts.append(tuple(axes[j][k] for j, k in enumerate(idx)))
        fvals.append(f_ev.value(idx))
        hvals.append(h_ev.value(idx))
    feas = [i for i, hv in enumerate(hvals) if hv >= 0]
    if not feas:
        return BoundaryReport(False, "no feasible grid point", (), (), ())
    m_all = min(fvals)
    m_feas = min(fvals[i] for i in feas)
    if not m_all < m_feas:
        return BoundaryReport(False, "essential assumption fails on the grid", (), (), ())
    # Interior descent point: exact minimizer of f over the box.
    n = grid.n
    rows = []
    for p in f.pieces:
        rows.append((p.a + (-_ONE,), "<=", -p.b))
    for j, (lo, hi) in enumerate(grid.box):
        e = [_ZERO] * n
        e[j] = _ONE
        row = tuple(e) + (_ZERO,)
        rows.append((row, "<=", hi))
        rows.append((row, ">=", lo))
    lp = LinearProgram(n + 1, (_ZERO,) * n + (_ONE,), rows=tuple(rows))
    out = lp_solve(lp)
    if not isinstance(out, Optimal):
        raise RuntimeError("a box-constrained epigraph LP has no optimum")
    y = out.x[:n]
    if h.value(y) >= 0:
        return BoundaryReport(False, "interior point not found (h(y) >= 0)", (), (), ())

    boundary = [i for i in feas if hvals[i] == 0]
    m_boundary = min((fvals[i] for i in boundary), default=None)
    improved = m_feas
    for i in feas:
        if hvals[i] > 0:
            pi = boundary_projection(f, h, pts[i], y)
            val = f.value(pi)
            if val < improved:
                improved = val
    equality_side = tuple(
        pts[i] for i in boundary if m_boundary is not None and fvals[i] <= m_boundary + eps
    )
    reverse_side = tuple(pts[i] for i in boundary if fvals[i] <= improved + eps)
    diff = tuple(sorted(set(equality_side) ^ set(reverse_side)))
    return BoundaryReport(True, None, equality_side, reverse_side, diff)
