"""Slow reference implementations for tests only.

The grid layer's references evaluate every grid point separately in `Fraction`
arithmetic and decide efficiency by scanning all pairs, the way the library
did before its integer row evaluator and its sorting sweep. The boundary
projection and the boundary equivalence check live here only: the library has
neither, and the projection isolates the root by walking h's breakpoints on
the segment. The LP reference (`reference_lp_solve`) is the library's earlier
simplex: every variable split x = p - q, every bound an oriented row, and an
artificial on every row. Tests assert that the library's results equal these
exactly (for LPs: the same outcome class and optimal value). The membership
probe's reference (`reference_membership_lp`) is the library's earlier
builder, which kept alpha as a column of its own. The evaluation references
(`reference_value`, `reference_contains`) and the certificate check's
(`reference_check_outcome`) are the library's earlier `Fraction` versions,
before it evaluated and re-validated in integers; `reference_rat` parsed each
literal twice. `reference_oriented_rows` is the library's earlier `Fraction`
form of the oriented layout, which the certificate check's and the LP's
references read; the library builds the same rows in integers.
`reference_integer_forms` is the library's earlier `Fraction` route to the
grid evaluators' integer forms, before they read the integer images of the
grid and of each function. `reference_prune` is the library's earlier `prune`,
which decided every candidate by an LP also in one dimension. The report
references (`reference_verdict_doc`, `reference_cross_check_doc`) are the
command line's earlier report objects, which it gave to `json.dumps`, before
it wrote each decision's report in one pass; replay reads a report as this
object. `reference_problem_to_doc` is the library's earlier problem document,
which it gave to `json.dump` with indent 2 to write a problem file, before it
wrote the file's text in one pass. `fields` and `replace` read a library
record's field names and build a changed copy of it through its constructor;
`probe_template` finds the probe template a problem memoised. `_phis` is the
library's earlier list of the functions whose multiples joined alpha*f in a
mode's probe, which the membership probe's references read: the alpha-column
LP and `reference_phi_columns`, the integer columns of the earlier template,
each phi_j with nu columns of its own.
"""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from revopt import oracle
from revopt.certificates import INAPPLICABLE, MODES, REFUTED, CertificateVerdict
from revopt.lp import (
    CertificateError,
    Infeasible,
    LinearProgram,
    LpOutcome,
    Optimal,
    Unbounded,
)
from revopt.model import (
    INF,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    _dot,
    _lcm_den,
    fmt,
    fmt_vec,
    rat,
)
from revopt.oracle import MODE_MAP, GridSpec
from revopt.pareto import BridgeReport, ParetoSample, _sigma_dominates
from revopt.polytope import VPolytope, _drop_redundant, _normalize_ray
from revopt.subdiff import epigraph_inf, joint_domain


def fields(record) -> tuple:
    """The field names of a library record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """A new record of `record`'s class, built by its constructor from its
    fields with `changes` applied, as `dataclasses.replace` builds one."""
    return type(record)(**{name: getattr(record, name) for name in fields(record)} | changes)


def probe_template(problem, mode):
    """The probe template that `membership_lp` memoised for (problem, mode),
    or None: it lives in the instance dict of the mode's lifted problem,
    which in rop mode is the problem itself and otherwise lives in the
    problem's."""
    lifted = problem if mode == "rop" else vars(problem).get("_lifted", {}).get(mode)
    return None if lifted is None else vars(lifted).get("_probe_template")

_ZERO, _ONE = Fraction(0), Fraction(1)
_MINUS_ONE = Fraction(-1)

#: the two-pass parser's own pattern, which it matched after `strip`
_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


# -- scalars and evaluation in Fraction arithmetic ------------------------------


def reference_rat(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        if not _RAT_RE.match(text.strip()):
            raise InputError(f"not a rational literal: {text!r}")
        return Fraction(text.strip())
    raise InputError(f"not a rational literal: {text!r}")


def reference_contains(poly: HPolyhedron, x) -> bool:
    if len(x) != poly.n:
        raise InputError("membership: dimension mismatch")
    return all(
        sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(poly.a, poly.b)
    )


def reference_value(fn: PolyhedralConvexFunction, x):
    if len(x) != fn.n:
        raise InputError("eval: dimension mismatch")
    if fn.domain is not None and not reference_contains(fn.domain, x):
        return INF
    return max(p.value(x) for p in fn.pieces)


# -- certificate re-validation in Fraction arithmetic ---------------------------


def reference_oriented_rows(lp):
    """The system as `(terms, rhs, is_equality)` rows with inequalities
    oriented `<=`, where `terms` are the row's nonzero `(column,
    coefficient)` pairs: constraint rows first (`>=` rows negated), then
    per variable its lower bound row `-x_j <= -l_j` and its upper bound row
    `x_j <= u_j`, one term each. Certificates index into this list."""
    out = []
    for coeffs, rel, rhs in lp.rows:
        if rel == ">=":
            terms = tuple([(j, -v) for j, v in enumerate(coeffs) if v])
            out.append((terms, -rhs, False))
        else:
            terms = tuple([(j, v) for j, v in enumerate(coeffs) if v])
            out.append((terms, rhs, rel == "="))
    for j, (low, up) in enumerate(zip(lp.lower, lp.upper)):
        if low is not None:
            # -low only when nonzero: negating a Fraction builds a new one
            out.append((((j, _MINUS_ONE),), -low if low else low, False))
        if up is not None:
            out.append((((j, _ONE),), up, False))
    return out


def reference_check_outcome(lp: LinearProgram, outcome: LpOutcome) -> None:
    oriented = reference_oriented_rows(lp)
    sign = 1 if lp.sense == "min" else -1  # min: c + A'^T y = 0; max: c - A'^T y = 0
    if isinstance(outcome, Optimal):
        _length(outcome.x, lp.n, "x")
        if not _within(oriented, outcome.x):
            raise CertificateError("claimed point is infeasible")
        if _dot(lp.objective, outcome.x) != outcome.value:
            raise CertificateError("objective value mismatch")
        combo, total = _combine(lp.n, oriented, outcome.dual, "dual")
        if any(c + sign * v for c, v in zip(lp.objective, combo)):
            raise CertificateError("dual stationarity violated")
        if -sign * total != outcome.value:
            raise CertificateError("strong duality violated")
        for yi, (terms, rhs, _eq) in zip(outcome.dual, oriented):
            if yi and sum(a * outcome.x[j] for j, a in terms) != rhs:
                raise CertificateError("complementary slackness violated")
    elif isinstance(outcome, Infeasible):
        combo, total = _combine(lp.n, oriented, outcome.farkas, "farkas")
        if any(combo):
            raise CertificateError("farkas combination is not 0^T x")
        if total >= 0:
            raise CertificateError("farkas combination fails to contradict")
    elif isinstance(outcome, Unbounded):
        _length(outcome.point, lp.n, "point")
        if not _within(oriented, outcome.point):
            raise CertificateError("claimed point is infeasible")
        _length(outcome.ray, lp.n, "ray")
        if not _within(oriented, outcome.ray, cone=True):
            raise CertificateError("ray is not a recession direction")
        if sign * _dot(lp.objective, outcome.ray) >= 0:
            raise CertificateError("ray does not improve the objective")
    else:
        raise CertificateError(f"unknown outcome {outcome!r}")


def _length(vec, length, name):
    if len(vec) != length:
        raise CertificateError(f"{name} length mismatch")


def _combine(n, oriented, y, name):
    _length(y, len(oriented), name)
    combo = [_ZERO] * n
    total = _ZERO
    for yi, (terms, rhs, eq) in zip(y, oriented):
        if not yi:
            continue
        if yi < 0 and not eq:
            raise CertificateError(f"{name} sign violated on inequality row")
        for j, a in terms:
            combo[j] += yi * a
        total += yi * rhs
    return combo, total


def _within(oriented, x, cone=False):
    for terms, rhs, eq in oriented:
        v = sum(a * x[j] for j, a in terms)
        b = 0 if cone else rhs
        if v > b or (eq and v != b):
            return False
    return True


def reference_integer_forms(forms, grid: GridSpec, extra=()):
    """Each affine form (a, b) on the grid x = lo + step * k as integers
    (c, s) with scale * (<a, x> + b) = c + <s, k>, and that scale: the least
    positive integer that clears every denominator, those of `extra` too."""
    los = [lo for lo, _ in grid.box]
    real = [
        (b + sum(map(mul, a, los)), [a_j * grid.step for a_j in a]) for a, b in forms
    ]
    scale = _lcm_den([*(v for c, s in real for v in (c, *s)), *extra])
    return [(int(c * scale), [int(v * scale) for v in s]) for c, s in real], scale


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


def brute_eps_argmin(problem, mode, grid: GridSpec) -> tuple:
    """The oracle's result as its readers see it: (mode, feasible_count,
    min_value, eps_argmin, slack, error_bound)."""
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
    bound = max(sum(abs(c) for c in p.a) for p in problem.objective.pieces) * grid.step
    if feasible == 0:
        return mode, 0, None, (), (), bound
    if best is None:
        return mode, feasible, INF, (), (), bound
    threshold = best + problem.epsilon
    kept = [(idx, val) for idx, val in seen if val <= threshold]
    argmin = tuple(tuple(axes[j][k] for j, k in enumerate(idx)) for idx, _ in kept)
    slack = tuple(threshold - val for _, val in kept)
    return mode, feasible, best, argmin, slack, bound


def reference_boundary_projection(f, h, x, y):
    """The point pi on [y, x] with h(pi) = 0 nearest to x.

    Requires h(x) > 0 and h(y) < 0; exact root isolation on the
    piecewise-linear section t -> h((1-t) x + t y).
    """
    x = tuple(rat(v) for v in x)
    y = tuple(rat(v) for v in y)
    hx, hy = reference_value(h, x), reference_value(h, y)
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
    if reference_value(h, pi) != 0 or not reference_value(f, pi) < reference_value(f, x):
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
    if reference_value(h, y) >= 0:
        return BoundaryReport(False, "interior point not found (h(y) >= 0)", (), (), ())
    boundary = [i for i in feas if hvals[i] == 0]
    m_boundary = min((fvals[i] for i in boundary), default=None)
    improved = min(
        [m_feas]
        + [
            reference_value(f, reference_boundary_projection(f, h, pts[i], y))
            for i in feas
            if hvals[i] > 0
        ]
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
        fv, hv = reference_value(f, pt), reference_value(h, pt)
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


# -- the split-variable simplex ----------------------------------------------


def _reduce_row(den: int, cells: list[int]) -> tuple[int, list[int]]:
    """Normalize a (denominator, cells) row: den > 0 and gcd 1."""
    if den < 0:
        den = -den
        cells = [-v for v in cells]
    g = den
    for v in cells:
        g = gcd(g, v)
        if g == 1:
            return den, cells
    if g > 1:
        den //= g
        cells = [v // g for v in cells]
    return den, cells


class _Simplex:
    """Dense exact tableau on the equality standard form.

    Free variables are split x = p - q; every oriented inequality row gets a
    slack; every row gets an artificial whose columns double as B^-1
    bookkeeping for dual extraction. Rows are integer vectors sharing one
    positive denominator each, so the hot loops stay in machine integers.
    """

    MAX_PIVOTS = 200_000

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n
        self.oriented = [  # the sparse oriented rows made dense
            ([dict(terms).get(j, _ZERO) for j in range(n)], rhs, eq)
            for terms, rhs, eq in reference_oriented_rows(lp)
        ]
        self.m = len(self.oriented)
        ineq_idx = [i for i, (_, _, eq) in enumerate(self.oriented) if not eq]
        self.slack_of_row = {row: n * 2 + k for k, row in enumerate(ineq_idx)}
        self.nreal = n * 2 + len(ineq_idx)
        self.width = self.nreal + self.m + 1  # + artificials + rhs
        self.sigma = []
        self.tab = []  # rows as (den, int cells)
        for i, (coeffs, rhs, _eq) in enumerate(self.oriented):
            sigma = 1 if rhs >= 0 else -1
            self.sigma.append(sigma)
            den = 1
            for v in coeffs:
                den = den // gcd(den, v.denominator) * v.denominator
            den = den // gcd(den, rhs.denominator) * rhs.denominator
            row = [0] * self.width
            for j, v in enumerate(coeffs):
                cell = sigma * int(v * den)
                row[j] = cell
                row[n + j] = -cell
            if i in self.slack_of_row:
                row[self.slack_of_row[i]] = sigma * den
            row[self.nreal + i] = den
            row[-1] = sigma * int(rhs * den)
            self.tab.append(_reduce_row(den, row))
        self.basis = [self.nreal + i for i in range(self.m)]
        self.live = list(range(self.m))  # rows not deleted as redundant

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, j: int, cost) -> tuple[int, list[int]]:
        den_r, row = self.tab[r]
        piv = row[j]
        self.tab[r] = (den_r, row) = _reduce_row(piv, row)
        for i in self.live:
            if i == r:
                continue
            den_i, other = self.tab[i]
            fac = other[j]
            if fac:
                merged = [a * den_r - fac * b for a, b in zip(other, row)]
                self.tab[i] = _reduce_row(den_i * den_r, merged)
        den_c, cc = cost
        fac = cc[j]
        if fac:
            merged = [a * den_r - fac * b for a, b in zip(cc, row)]
            cost = _reduce_row(den_c * den_r, merged)
        self.basis[r] = j
        return cost

    def _run(self, cost, allowed: int):
        """Bland iterations; returns (cost, entering column) where the column
        is None at optimality and set when the objective is unbounded."""
        pivots = 0
        while True:
            cells = cost[1]
            enter = None
            for j in range(allowed):
                if cells[j] < 0:
                    enter = j
                    break
            if enter is None:
                return cost, None
            leave = None
            bn = bd = None  # best ratio as a positive-denominator int pair
            for r in self.live:
                den_r, row = self.tab[r]
                coef = row[enter]
                if coef > 0:
                    num = row[-1]
                    if (
                        leave is None
                        or num * bd < bn * coef
                        or (num * bd == bn * coef and self.basis[r] < self.basis[leave])
                    ):
                        bn, bd = num, coef
                        leave = r
            if leave is None:
                return cost, enter
            cost = self._pivot(leave, enter, cost)
            pivots += 1
            if pivots > self.MAX_PIVOTS:  # Bland terminates; guard bugs only
                raise RuntimeError("simplex pivot budget exceeded")

    def _cost_row(self, costs: dict):
        """Reduced-cost row (den, cells) for column costs {col: Fraction}."""
        den = 1
        for v in costs.values():
            den = den // gcd(den, v.denominator) * v.denominator
        cells = [0] * self.width
        for j, v in costs.items():
            cells[j] = int(v * den)
        cost = (den, cells)
        for r in self.live:
            cb = costs.get(self.basis[r], _ZERO)
            if cb:
                den_c, cc = cost
                den_r, row = self.tab[r]
                num = int(cb * den)  # cb scaled into the cost denominator
                merged = [a * den * den_r - num * den_c * b for a, b in zip(cc, row)]
                cost = _reduce_row(den_c * den * den_r, merged)
        return cost

    # -- solution extraction ----------------------------------------------

    def _values(self) -> dict:
        return {
            self.basis[r]: Fraction(self.tab[r][1][-1], self.tab[r][0])
            for r in self.live
        }

    def _point(self) -> tuple:
        vals = self._values()
        n = self.lp.n
        return tuple(
            vals.get(j, _ZERO) - vals.get(n + j, _ZERO) for j in range(n)
        )

    def _dual_from(self, cost, art_cost: Fraction) -> tuple:
        """Oriented-row multipliers from the artificial-column reduced costs.

        Reduced cost of artificial i equals art_cost - y_i, and the oriented
        multiplier is -sigma_i * y_i.
        """
        den, cells = cost
        out = []
        for i in range(self.m):
            y_i = art_cost - Fraction(cells[self.nreal + i], den)
            out.append(-self.sigma[i] * y_i)
        return tuple(out)

    # -- phases ------------------------------------------------------------

    def solve(self) -> LpOutcome:
        minimize = self.lp.sense == "min"
        n = self.lp.n
        cvec = self.lp.objective if minimize else tuple(-v for v in self.lp.objective)

        # Phase 1: minimize the artificial sum.
        cost1 = self._cost_row({self.nreal + i: _ONE for i in range(self.m)})
        cost1, enter = self._run(cost1, self.nreal)
        if enter is not None:
            raise RuntimeError("phase 1 unbounded although its objective is >= 0")
        if cost1[1][-1] < 0:  # cells[-1]/den tracks -objective
            return Infeasible(farkas=self._dual_from(cost1, _ONE))
        # Drive remaining artificials out of the basis (or drop their rows).
        for r in list(self.live):
            if self.basis[r] >= self.nreal:
                enter_col = next(
                    (j for j in range(self.nreal) if self.tab[r][1][j] != 0), None
                )
                if enter_col is None:
                    self.live.remove(r)  # redundant row
                else:
                    cost1 = self._pivot(r, enter_col, cost1)

        # Phase 2: the real objective on split variables.
        costs2 = {}
        for j in range(n):
            if cvec[j]:
                costs2[j] = cvec[j]
                costs2[n + j] = -cvec[j]
        cost2 = self._cost_row(costs2)
        cost2, enter = self._run(cost2, self.nreal)
        if enter is not None:
            ray_int = {enter: _ONE}
            for r in self.live:
                den_r, row = self.tab[r]
                coef = row[enter]
                if coef:
                    ray_int[self.basis[r]] = Fraction(-coef, den_r)
            ray = tuple(
                ray_int.get(j, _ZERO) - ray_int.get(n + j, _ZERO) for j in range(n)
            )
            return Unbounded(ray=ray, point=self._point())

        x = self._point()
        value = sum(c * v for c, v in zip(self.lp.objective, x))
        # The extracted multipliers already satisfy the max-sense convention
        # (c = A'^T y) when cvec was negated, so no sign flip is needed.
        dual = self._dual_from(cost2, _ZERO)
        return Optimal(x=x, value=value, dual=dual)


def reference_lp_solve(lp: LinearProgram) -> LpOutcome:
    return _Simplex(lp).solve()


def reference_prune(n: int, vertices, rays) -> VPolytope:
    """`prune` by one feasibility LP per candidate in every dimension: rays,
    then vertices, dropped one at a time in lex order when the generators
    still kept without them already give them."""
    origin = ((_ZERO,) * n,)
    kept_rays = _drop_redundant(
        sorted({_normalize_ray(r) for r in rays if any(r)}),
        lambda others: VPolytope(n, origin, others),
    )
    kept_verts = _drop_redundant(
        sorted(set(vertices)),
        lambda others: VPolytope(n, others, kept_rays),
    )
    return VPolytope(n, kept_verts, kept_rays)


def _phis(mode, problem) -> tuple:
    """The functions phi_j whose multiples join alpha*f in `mode`'s union, as
    the library's earlier probe gave each its own nu columns: () for rop, G
    for constrained, (h,) for equality and convex. The library lifts them
    into the domain of f instead."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    h = problem.reverse
    return {
        "rop": (),
        "constrained": problem.constraints,
        "equality": (h,),
        "convex": (h,),
    }[mode]


def reference_phi_columns(problem, mode) -> tuple:
    """The integer columns of `mode`'s probe template as the library built
    them before it lifted phi into the domain of f, off the images: lam on
    the pieces of f, nu on the pieces of each phi_j and eta on the domain
    rows of f and then of each phi_j, each as (slopes, den, budget,
    budget_den); lam's budget takes in eps - f(x_bar)."""
    f, phis = problem.objective, _phis(mode, problem)
    xs, x_den = problem._point_image
    d_f, f_image = f._image
    eps = problem.epsilon
    q = d_f * x_den * eps.denominator
    shift = eps.numerator * d_f * x_den - max(f._scaled_pieces(xs, x_den)) * eps.denominator
    columns = [(a, d_f, b * (q // d_f) + shift, q) for a, b in f_image]
    for phi in phis:
        d, image = phi._image
        columns += [(a, d, b, d) for a, b in image]
    for fn in (f, *phis):
        if fn.domain is not None:
            columns += [(a, d, -b, d) for a, b, d in fn.domain._rows]
    return tuple(columns)


def reference_membership_lp(problem, mode, eps_prime, xstar, ray=None):
    """The membership probe with alpha as a column: lam on the pieces of f,
    nu on the pieces of each phi_j, eta on the joint domain rows, alpha, and
    t for a ray. Rows: the slopes, alpha = sum lam and the budget; the
    objective maximizes the last column, alpha or t."""
    f, phis, x_bar = problem.objective, _phis(mode, problem), problem.point
    dom = joint_domain(f.n, (f, *phis))
    # (slope, coefficient in alpha = sum lam, budget coefficient) per column
    cols = [(p.a, -_ONE, p.b) for p in f.pieces]
    cols += [(p.a, _ZERO, p.b) for phi in phis for p in phi.pieces]
    cols += [(row, _ZERO, -rhs) for row, rhs in zip(dom.a, dom.b)]
    cols.append(((_ZERO,) * f.n, _ONE, problem.epsilon - reference_value(f, x_bar)))
    if ray is not None:
        d_eps, d_x = ray
        cols.append((tuple(-v for v in d_x), _ZERO, _dot(d_x, x_bar) + d_eps))
    slopes, alpha_row, budget = zip(*cols)
    rows = [([s[j] for s in slopes], "=", xstar[j]) for j in range(f.n)]
    rows.append((alpha_row, "=", _ZERO))
    rows.append((budget, ">=", -_dot(xstar, x_bar) - eps_prime))
    n = len(cols)
    return LinearProgram(n, (_ZERO,) * (n - 1) + (_ONE,), "max", rows, (_ZERO,) * n)


# -- reports as objects ---------------------------------------------------------


def reference_outcome_doc(outcome) -> dict:
    if isinstance(outcome, Optimal):
        return {
            "tag": "optimal",
            "x": fmt_vec(outcome.x),
            "value": fmt(outcome.value),
            "dual": fmt_vec(outcome.dual),
        }
    if isinstance(outcome, Infeasible):
        return {"tag": "infeasible", "farkas": fmt_vec(outcome.farkas)}
    if isinstance(outcome, Unbounded):
        return {
            "tag": "unbounded",
            "ray": fmt_vec(outcome.ray),
            "point": fmt_vec(outcome.point),
        }
    raise InputError(f"unknown outcome {outcome!r}")


def reference_verdict_doc(verdict: CertificateVerdict) -> dict:
    """A decision's report object but for its `command`. A passed
    `essential` gate carries its point z, read off the rejected probe's dual,
    as a third element."""
    gates = [[name, ok] for name, ok in verdict.gates]
    for gate in gates:
        if gate[0] == "essential" and verdict.essential is not None:
            gate.append(fmt_vec(verdict.essential))
    doc = {
        "verdict": verdict.tag,
        "mode": verdict.mode,
        "reason": verdict.reason,
        "gates": gates,
        "checks": [
            {
                "eps_prime": fmt(rec.eps_prime),
                "generator": fmt_vec(rec.generator),
                "kind": rec.kind,
                "accepted": rec.evidence.member,
                "sup": fmt(rec.evidence.sup),
                "outcome": reference_outcome_doc(rec.evidence.outcome),
            }
            for rec in verdict.log
        ],
        "witness": None,
    }
    if verdict.witness is not None:
        eps_prime, xstar = verdict.witness
        doc["witness"] = {"eps_prime": fmt(eps_prime), "x_star": fmt_vec(xstar)}
    return doc


def reference_cross_check_doc(problem, mode, grid: GridSpec, verdict) -> dict:
    """The `oracle_cross_check` object of a `verify --cross-check-grid`
    report, from the library's grid oracle."""
    res = oracle.brute_eps_argmin(problem, MODE_MAP[mode], grid)
    doc = {
        "mode": res.mode,
        "feasible_count": res.feasible_count,
        "min_value": None if res.min_value is None else fmt(res.min_value),
        "error_bound": fmt(res.error_bound),
        "consistent": True,
    }
    if verdict.tag == INAPPLICABLE or res.min_value is None or res.min_value == INF:
        return doc
    threshold = problem.objective.value(problem.point) - problem.epsilon
    if verdict.tag == REFUTED:
        doc["consistent"] = res.min_value - threshold <= res.error_bound
    else:
        doc["consistent"] = threshold - res.min_value <= res.error_bound
    return doc


# -- problem files as objects ----------------------------------------------------


def _reference_function_doc(fn: PolyhedralConvexFunction) -> dict:
    doc = {"pieces": [{"a": fmt_vec(p.a), "b": fmt(p.b)} for p in fn.pieces]}
    if fn.domain is not None:
        doc["domain"] = {"A": [fmt_vec(row) for row in fn.domain.a], "b": fmt_vec(fn.domain.b)}
    return doc


def reference_problem_to_doc(problem) -> dict:
    """A problem's document as the library built it before it wrote a
    problem file's text in one pass; the file was
    `json.dumps(doc, indent=2)` of it and a newline."""
    doc = {
        "n": problem.n,
        "objective": _reference_function_doc(problem.objective),
        "reverse": _reference_function_doc(problem.reverse),
        "point": fmt_vec(problem.point),
        "epsilon": fmt(problem.epsilon),
    }
    if problem.constraints:
        doc["constraints"] = [_reference_function_doc(g) for g in problem.constraints]
    return doc
