"""Slow reference implementations of the grid layer, for tests only.

They evaluate every grid point separately in `Fraction` arithmetic and decide
efficiency by scanning all pairs, the way the library did before its integer
row evaluator and its sorting sweep. Tests assert that the library's results
equal these exactly.
"""

import itertools
from fractions import Fraction

from revopt.model import INF, HPolyhedron, PolyhedralConvexFunction, rat
from revopt.oracle import BoundaryReport, BruteResult, GridSpec, boundary_projection
from revopt.pareto import BridgeReport, ParetoSample, _sigma_dominates
from revopt.subdiff import epigraph_inf

_ZERO, _ONE = Fraction(0), Fraction(1)


class GridEvaluator:
    """Per-axis memoized Fraction evaluation of a polyhedral function."""

    def __init__(self, fn, axes):
        self.offsets = [p.b for p in fn.pieces]
        self.contrib = [
            [[a_j * v for v in axis] for a_j, axis in zip(p.a, axes)]
            for p in fn.pieces
        ]
        self.dom_rows = None
        if fn.domain is not None:
            self.dom_rows = [
                ([[a_j * v for v in axis] for a_j, axis in zip(row, axes)], rhs)
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


def _feasible(mode, h_val, g_vals):
    if mode == "equality":
        return h_val == 0
    if mode == "convex":
        return h_val <= 0
    return h_val >= 0 and all(g <= 0 for g in g_vals)


def brute_eps_argmin(problem, mode, grid: GridSpec) -> BruteResult:
    axes = grid.axes()
    f_ev = GridEvaluator(problem.objective, axes)
    h_ev = GridEvaluator(problem.reverse, axes)
    g_evs = [GridEvaluator(g, axes) for g in problem.constraints]
    need_g = mode == "constrained-reverse"
    feasible, best, seen = 0, None, []
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        g_vals = [g.value(idx) for g in g_evs] if need_g else ()
        if not _feasible(mode, h_ev.value(idx), g_vals):
            continue
        feasible += 1
        val = f_ev.value(idx)
        if val == INF:
            continue
        best = val if best is None else min(best, val)
        seen.append((idx, val))
    bound = problem.objective.lipschitz_bound() * grid.step
    if feasible == 0:
        return BruteResult(mode, 0, None, (), (), bound)
    if best is None:
        return BruteResult(mode, feasible, INF, (), (), bound)
    threshold = best + problem.epsilon
    kept = [(idx, val) for idx, val in seen if val <= threshold]
    argmin = tuple(tuple(axes[j][k] for j, k in enumerate(idx)) for idx, _ in kept)
    slack = tuple(threshold - val for _, val in kept)
    return BruteResult(mode, feasible, best, argmin, slack, bound)


def boundary_equivalence_check(f, h, grid: GridSpec, eps) -> BoundaryReport:
    eps = rat(eps)
    if f.domain is not None or h.domain is not None:
        return BoundaryReport(False, "functions must be finite-valued", (), (), ())
    axes = grid.axes()
    f_ev, h_ev = GridEvaluator(f, axes), GridEvaluator(h, axes)
    pts, fvals, hvals = [], [], []
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        pts.append(tuple(axes[j][k] for j, k in enumerate(idx)))
        fvals.append(f_ev.value(idx))
        hvals.append(h_ev.value(idx))
    feas = [i for i, hv in enumerate(hvals) if hv >= 0]
    if not feas:
        return BoundaryReport(False, "no feasible grid point", (), (), ())
    m_feas = min(fvals[i] for i in feas)
    if not min(fvals) < m_feas:
        return BoundaryReport(False, "essential assumption fails on the grid", (), (), ())
    n = grid.n
    rows, rhs = [], []
    for j, (lo, hi) in enumerate(grid.box):
        e = tuple(_ONE if k == j else _ZERO for k in range(n))
        rows += [e, tuple(-v for v in e)]
        rhs += [hi, -lo]
    on_box = PolyhedralConvexFunction(n, f.pieces, HPolyhedron(rows, rhs, n))
    _, y = epigraph_inf(on_box)
    if h.value(y) >= 0:
        return BoundaryReport(False, "interior point not found (h(y) >= 0)", (), (), ())
    boundary = [i for i in feas if hvals[i] == 0]
    m_boundary = min((fvals[i] for i in boundary), default=None)
    improved = min(
        [m_feas]
        + [f.value(boundary_projection(f, h, pts[i], y)) for i in feas if hvals[i] > 0]
    )
    equality_side = tuple(
        pts[i] for i in boundary if m_boundary is not None and fvals[i] <= m_boundary + eps
    )
    reverse_side = tuple(pts[i] for i in boundary if fvals[i] <= improved + eps)
    diff = tuple(sorted(set(equality_side) ^ set(reverse_side)))
    return BoundaryReport(True, None, equality_side, reverse_side, diff)


def grid_sample(f, h, box, step):
    grid = GridSpec(tuple(box), step)
    points, images = [], []
    for pt in grid.points():
        points.append(pt)
        fv, hv = f.value(pt), h.value(pt)
        images.append(None if fv == INF or hv == INF else (fv, -hv))
    return ParetoSample(2, tuple(points), tuple(images)), grid


def eff_set(sample: ParetoSample, eps, sigma):
    """Keep point i unless some image is sigma-below its shifted image."""
    eps = tuple(rat(v) for v in eps)
    kept = []
    for i, img in enumerate(sample.images):
        if img is None:
            continue
        shifted = tuple(a - e for a, e in zip(img, eps))
        if not any(
            other is not None and _sigma_dominates(other, shifted, sigma)
            for other in sample.images
        ):
            kept.append(i)
    return tuple(kept)


def bridge_check(f, h, box, step, eps) -> BridgeReport:
    sample, _ = grid_sample(f, h, box, step)
    eps = rat(eps)
    images = sample.images
    finite = [i for i, img in enumerate(images) if img is not None and img[1] <= 0]
    if not finite:
        return BridgeReport(True, (), (), (), (), ())
    best = min(images[i][0] for i in finite)
    argmin = tuple(i for i in finite if images[i][0] <= best + eps)
    weak = eff_set(sample, (eps, _ZERO), "w")
    eff = eff_set(sample, (eps, _ZERO), "e")
    missing_weak = tuple(i for i in argmin if i not in weak)
    missing_arg = tuple(i for i in eff if images[i][1] == 0 and i not in argmin)
    return BridgeReport(False, argmin, weak, eff, missing_weak, missing_arg)
