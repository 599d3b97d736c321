"""Exact rational linear programming with machine-checkable certificates.

Two-phase primal simplex in exact integer arithmetic with Bland's rule, and
its dual form for warm starts, so every solve terminates and identical inputs
give identical outcomes. Each outcome carries its own evidence: an optimal
basis yields a dual vector (strong duality and complementary slackness hold
exactly), infeasibility yields a Farkas vector, unboundedness yields an
improving recession ray.

The tableau is a lean standard form (`_Simplex`): a lower-bounded variable is
one native nonnegative column, shifted by its bound, and only a free variable
is split in two; lower bounds never become rows, upper bounds do; and an
inequality row starts from its slack whenever its right-hand side allows, so
only the other rows carry an artificial and phase 1 runs only if one does.
When every right-hand side of the tableau is 0 the artificial sum is 0 at the
start, so phase 1 skips its iterations and its cost row and only drives the
artificials out. Phase 2 then starts from the objective, which is its cost
row at the starting basis of slacks and artificials, carried through those
pivots rather than made afresh for the basis they leave.

Certificates are stated against the *oriented* system: every constraint row
and every variable bound rewritten in `a . x <= b` form (equalities kept with
free multipliers), each row as its nonzero terms. `_oriented` lays it out, at
most once per LP (`LinearProgram._system`), from the LP's data in integers
over their least common denominator, and the generic tableau layout and
`check_outcome` read it. A lower bound's multiplier is the reduced cost of
its variable's column.

An LP that `LinearProgram._cone` builds, max of a sum of nonnegative columns
over rows whose right-hand sides are all 0 (the membership probes' template),
is given only its columns in integers, and its tableau is laid out from them
in closed form (`_Simplex.from_columns`), the generic layout's start without
the oriented system; that system, and the LP's `Fraction` `rows`, are built
from the columns only when something reads them.

`with_rhs` derives the LP that differs from a template only in its
right-hand sides, taking them in integers over one denominator; its `rows`
too are built only on first read, from the template's and those integers.
When the template's right-hand sides are all zero, the derived LP's system
is the template's rescaled to the integer right-hand sides, so a family of
checks on one matrix builds and validates that matrix once and no check
makes rows of its own. It is solved once too: `lp_solve` caches an LP's
solved tableau on the LP, and a derived LP whose template's solve ended
`Optimal` starts from that final basis, which stays dual feasible when only
right-hand sides change (`_Simplex.resolved`). It computes its right-hand
column B^-1 b' in integers (`LinearProgram._rhs`) and takes the first step
of a dual simplex under the dual form of Bland's rule on the template's
shared rows: the outcome is read off that column, or off a blocking or
redundant row as a Farkas vector, and the rows are copied and the dual
simplex run only when a pivot is due. The template is solved first if it was
not, so an outcome is fixed by the template and the right-hand sides,
whatever was solved before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .model import INF, NEG_INF, InputError, _built, _over_common_den, rat

__all__ = [
    "LinearProgram",
    "Optimal",
    "Unbounded",
    "Infeasible",
    "LpOutcome",
    "lp_solve",
    "lp_value",
    "lp_max_component",
    "max_component_lp",
    "check_outcome",
    "CertificateError",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RELS = ("<=", "=", ">=")


class CertificateError(AssertionError):
    """An LP certificate failed exact re-validation."""


@dataclass(frozen=True)
class LinearProgram:
    """min/max <c, x> subject to rows `a . x rel b` and optional var bounds.

    All variables are free unless a bound is given; dual multipliers carry
    their sign constraints explicitly through the oriented system.
    """

    n: int
    objective: tuple[Fraction, ...]
    sense: str = "min"
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...] = ()
    lower: tuple = None
    upper: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("lp: need at least one variable")
        if self.sense not in ("min", "max"):
            raise InputError(f"lp: bad sense {self.sense!r}")
        obj = tuple(rat(v) for v in self.objective)
        if len(obj) != self.n:
            raise InputError("lp: objective length mismatch")
        rows = []
        for coeffs, rel, rhs in self.rows:
            coeffs = tuple(rat(v) for v in coeffs)
            if len(coeffs) != self.n:
                raise InputError("lp: row width mismatch")
            if rel not in _RELS:
                raise InputError(f"lp: bad relation {rel!r}")
            rows.append((coeffs, rel, rat(rhs)))
        low = self._bound_tuple(self.lower)
        upp = self._bound_tuple(self.upper)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", upp)

    def _bound_tuple(self, bounds):
        if bounds is None:
            return (None,) * self.n
        vals = tuple(None if v is None else rat(v) for v in bounds)
        if len(vals) != self.n:
            raise InputError("lp: bound vector length mismatch")
        return vals

    @classmethod
    def _cone(cls, costed: int, columns) -> "LinearProgram":
        """max x_0 + ... + x_{costed-1} over x >= 0 subject to equality rows,
        then one `>=` row, every right-hand side 0, given by its integer
        columns, one per variable, `(slopes, den, budget, budget_den)`: its
        entries in the equality rows over den and in the last row over
        budget_den, all ints. Nothing is checked or converted. Its solve lays
        its starting tableau out from them (`_Simplex.from_columns`); its
        `Fraction` rows (`_built_rows`) and its oriented system (`_system`)
        are built only when something reads them."""
        n = len(columns)
        zeros = (_ZERO,) * n
        return _built(
            cls,
            n=n,
            objective=(_ONE,) * costed + zeros[costed:],
            sense="max",
            lower=zeros,
            upper=(None,) * n,
            _costs=([1] * costed + [0] * (n - costed), 1),
            _rhs=([0] * (len(columns[0][0]) + 1), 1),
            _columns=columns,
        )

    def _built_rows(self) -> tuple:
        """`rows` of an LP built past its constructor without them, made on
        first read: a `_cone` LP's from its integer columns, and the rows of
        an LP that `with_rhs` derived as its template's with the image's
        right-hand sides. They equal the rows the constructor makes of the
        same values."""
        columns = vars(self).get("_columns")
        if columns is not None:
            slopes, dens, budgets, budget_dens = zip(*columns)
            rows = [(tuple(map(Fraction, row, dens)), "=", _ZERO) for row in zip(*slopes)]
            rows.append((tuple(map(Fraction, budgets, budget_dens)), ">=", _ZERO))
            return tuple(rows)
        nums, den = self._rhs
        return tuple(
            (coeffs, rel, Fraction(b, den))
            for (coeffs, rel, _), b in zip(self._template.rows, nums)
        )

    @cached_property
    def _system(self) -> tuple[int, list]:
        """The oriented system in integers, built on first use: by
        `_oriented`, or, for an LP that `with_rhs` derived from a template
        whose right-hand sides are all zero, as the template's rescaled to
        the derived LP's right-hand sides, read off its `_rhs` (`_rescaled`),
        so its own `rows` are not made."""
        template = vars(self).get("_template")
        if template is None or any(template._rhs[0]):
            return _oriented(self)
        return _rescaled(template._system, template.rows, self._rhs)

    @cached_property
    def _costs(self) -> tuple[list[int], int]:
        """The objective over its least common denominator
        (`_over_common_den`), which the simplex and `check_outcome` read;
        `with_rhs` hands it on to the LPs it derives, which share the
        objective."""
        return _over_common_den(self.objective)

    @cached_property
    def _rhs(self) -> tuple[list[int], int]:
        """The rows' right-hand sides over one positive common denominator,
        `(nums, den)`, the least (`_over_common_den`); `with_rhs` is handed
        it for the LP it derives. A tableau keeps its LP's (`_Simplex.rhs`),
        and a re-solve reads both (`_Simplex.resolved`)."""
        return _over_common_den([b for *_, b in self.rows])

    @cached_property
    def _solved(self) -> "_Simplex":
        """This LP's tableau, solved: `lp_solve` reads its outcome. An LP
        that `with_rhs` derived from a template starts from the template's
        final basis when the template's solve ends `Optimal` (solving the
        template first if need be), and from scratch otherwise; so the outcome
        is fixed by the template and the right-hand sides alone."""
        template = vars(self).get("_template")
        if template is not None and isinstance(template._solved.outcome, Optimal):
            return template._solved.resolved(self)
        columns = vars(self).get("_columns")
        tableau = _Simplex(self) if columns is None else _Simplex.from_columns(self, columns)
        tableau.outcome = tableau.solve()
        return tableau

    def with_rhs(self, image) -> "LinearProgram":
        """This LP with its rows' right-hand sides replaced by `image`, one
        per row in integers over one denominator, `(nums, den)` with den > 0.
        The image is taken unchecked but for its length, and the derived
        LP's `rows` are built only when read (`_built_rows`). The
        coefficients and bounds are this LP's, validated already, and are
        shared, not copied, and so is the objective's integer form
        (`_costs`), made once here for every LP derived. The derived LP keeps
        this one as its template: its solve starts from this LP's
        (`_solved`). It carries no other cached value of this LP's; its
        `_rhs` is `image`. When this LP's right-hand sides are all zero, its
        oriented system is over the least common denominator of the
        coefficients and bounds alone, so the derived LP's, when it is asked
        for, is that system rescaled to take in the denominators of the new
        right-hand sides (`_system`)."""
        if len(image[0]) != len(self._rhs[0]):
            raise InputError("lp: right-hand side length mismatch")
        return _built(
            type(self),
            n=self.n,
            objective=self.objective,
            sense=self.sense,
            lower=self.lower,
            upper=self.upper,
            _costs=self._costs,
            _rhs=image,
            _template=self,
        )


# An LP built past its constructor (`_cone` or `with_rhs`) has no `rows` in
# its instance dict: they are made on first read. The constructor sets them,
# so a constructed LP never reads this.
LinearProgram.rows = cached_property(LinearProgram._built_rows)
LinearProgram.rows.__set_name__(LinearProgram, "rows")


def _oriented(lp: LinearProgram) -> tuple[int, list]:
    """The oriented system in integers: `(den, rows)`, where den is the least
    common denominator of the rows' and bounds' data and each row is `(terms,
    rhs, is_equality)` times den, with inequalities oriented `<=` and `terms`
    the row's nonzero `(column, coefficient)` pairs. Constraint rows come
    first (`>=` rows negated), then per variable its lower bound row `-x_j <=
    -l_j` and its upper bound row `x_j <= u_j`, one term each. Certificates
    index into `rows`."""
    dens = {v.denominator for coeffs, _, rhs in lp.rows for v in (*coeffs, rhs)}
    dens.update(v.denominator for v in (*lp.lower, *lp.upper) if v is not None)
    den = lcm(*dens)
    rows = []
    for coeffs, rel, rhs in lp.rows:
        scale = -den if rel == ">=" else den
        terms = [(j, v.numerator * (scale // v.denominator)) for j, v in enumerate(coeffs) if v]
        rows.append((terms, rhs.numerator * (scale // rhs.denominator), rel == "="))
    for j, (low, up) in enumerate(zip(lp.lower, lp.upper)):
        if low is not None:
            rows.append(([(j, -den)], -low.numerator * (den // low.denominator), False))
        if up is not None:
            rows.append(([(j, den)], up.numerator * (den // up.denominator), False))
    return den, rows


def _rescaled(system, rows, image) -> tuple[int, list]:
    """The oriented `system` of an LP whose constraint `rows` have zero
    right-hand sides, with those right-hand sides set to `image`, `(nums,
    den)`: what `_oriented` makes of the derived LP. Each right-hand side is
    taken in lowest terms, as `_oriented` reads it off its `Fraction`, and
    the denominator is lcm(den, their denominators); while that is den, the
    rows' terms and the bound rows are `system`'s own, shared since no reader
    mutates them."""
    den, oriented = system
    nums, rhs_den = image
    rhs = []
    for v in nums:
        g = gcd(v, rhs_den)
        rhs.append((v // g, rhs_den // g))
    new_den = lcm(den, *(d for _, d in rhs))
    k = new_den // den
    out = []
    for (terms, _zero, eq), (_coeffs, rel, _b), (num, d) in zip(oriented, rows, rhs):
        if k != 1:
            terms = [(j, a * k) for j, a in terms]
        scale = -new_den if rel == ">=" else new_den
        out.append((terms, num * (scale // d), eq))
    bounds = oriented[len(rhs) :]
    if k != 1:
        bounds = [([(j, a * k) for j, a in terms], v * k, eq) for terms, v, eq in bounds]
    return new_den, out + bounds


@dataclass(frozen=True)
class Optimal:
    x: tuple[Fraction, ...]
    value: Fraction
    dual: tuple[Fraction, ...]  # one multiplier per oriented row


@dataclass(frozen=True)
class Unbounded:
    ray: tuple[Fraction, ...]
    point: tuple[Fraction, ...]  # feasible point the ray improves from


@dataclass(frozen=True)
class Infeasible:
    farkas: tuple[Fraction, ...]  # one multiplier per oriented row


LpOutcome = Optimal | Unbounded | Infeasible


def _reduce_row(den: int, cells: list[int]) -> tuple[int, list[int]]:
    """Normalize a (denominator, cells) row: den > 0 and gcd 1."""
    if den < 0:
        den = -den
        cells = [-v for v in cells]
    g = gcd(den, *cells)
    if g > 1:
        den //= g
        cells = [v // g for v in cells]
    return den, cells


class _Simplex:
    """Dense exact tableau on the lean standard form of an LP.

    Columns: a variable with a lower bound l is one native column y = x - l
    >= 0; only a variable without one is split x = p - q. Then one slack per
    inequality row, then the artificials.

    Rows: the constraint and upper-bound rows of the oriented system
    (`_oriented`), each with the lower bounds shifted into its right-hand
    side, rhs - sum_j a_j * l_j; lower-bound rows are not in the tableau (the
    native column carries them). An inequality row whose shifted right-hand
    side is >= 0 starts with its slack basic; every other row is negated if
    needed so its right-hand side is >= 0 and gets an artificial. Phase 1 runs
    only when some row has an artificial, and its Bland iterations only when
    some right-hand side is nonzero: otherwise the artificial sum is 0 at the
    start, and only driving the artificials out is left.

    Multipliers in the oriented layout: a tableau row's come from the reduced
    cost of its starting basic column, the slack or the artificial, whose
    column keeps B^-1 bookkeeping; a lower bound's is the reduced cost of its
    native column, in phase 2 for `Optimal.dual` and in phase 1 for
    `Infeasible.farkas`.

    Rows are integer vectors sharing one positive denominator each, reduced,
    so the hot loops stay in machine integers. The generic layout
    (`__init__`) takes them from the integer oriented system over den^2 (the
    shift multiplies two values over den); `from_columns` lays the same rows
    out for an LP of `LinearProgram._cone` from its integer columns.

    Each layout records once which variables have a nonzero lower bound, with
    it (`shifted`), and c . l (`offset`, None when there is none), which a
    point and a value add back; and per constraint row the starting column
    and the sign a change of its right-hand side takes (`moving`), with the
    right-hand sides that the last column is B^-1 of (`rhs`), which a
    re-solve reads.

    The tableau holds no reference to its LP, only the LP's shared tuples, so
    an LP can cache its solved tableau (`LinearProgram._solved`) and an LP
    derived from it by `with_rhs` re-solves from it (`resolved`).
    """

    MAX_PIVOTS = 200_000

    @classmethod
    def from_columns(cls, lp: LinearProgram, columns) -> "_Simplex":
        """The tableau `_Simplex(lp)` lays out, for an LP of
        `LinearProgram._cone`, laid out in closed form from its integer
        `columns`, with no oriented system. Every column is native. The
        equality rows come first, each started from its own artificial, then
        the `>=` row, negated to `<=` and started from its slack; with every
        right-hand side 0 no row is negated to make it >= 0. Each row is over
        the least common denominator of its columns' denominators, reduced,
        so it is the generic layout's row."""
        self = object.__new__(cls)
        self.sense, self.costs, self.rhs = lp.sense, lp._costs, lp._rhs
        self.shifted, self.offset = [], None
        size, n = len(columns), len(lp._rhs[0]) - 1  # n equality rows
        self.m = n + 1
        self.norient = self.m + size
        self.cols = [(j, None) for j in range(size)]
        self.lower_row = {j: self.m + j for j in range(size)}
        slack = size  # the `>=` row's; the artificials follow it
        self.nreal = size + 1
        self.nart = n
        self.width = size + n + 2
        slopes, dens, budgets, budget_dens = zip(*columns)
        den = lcm(*dens)
        scales = [den // d for d in dens]
        tail = [0] * (n + 2)
        self.tab = []
        for i, row in enumerate(zip(*slopes)):
            cells = [a * k for a, k in zip(row, scales)] + tail
            cells[size + 1 + i] = den
            self.tab.append(_reduce_row(den, cells))
        den = lcm(*budget_dens)
        cells = [-b * (den // d) for b, d in zip(budgets, budget_dens)] + tail
        cells[slack] = den
        self.tab.append(_reduce_row(den, cells))
        arts = range(size + 1, size + 1 + n)
        self.basis = [*arts, slack]
        self.origin = [(i, 1, art, True) for i, art in enumerate(arts)]
        self.origin.append((n, 1, slack, False))
        self.moving = [(art, 1) for art in arts] + [(slack, -1)]
        self.live = list(range(self.m))
        return self

    def __init__(self, lp: LinearProgram):
        self.sense, self.costs = lp.sense, lp._costs
        # per variable: its column, and its negative part's (None if native)
        self.cols = []
        ncol = 0
        for low in lp.lower:
            self.cols.append((ncol, None if low is not None else ncol + 1))
            ncol += 1 if low is not None else 2
        den, oriented = lp._system
        self.norient = len(oriented)
        nrows = len(lp.rows)
        self.lower_row = {}  # variable -> oriented index of its lower bound
        lower = {}  # variable -> its nonzero lower bound times den
        for k in range(nrows, self.norient):
            ((j, a),), rhs, _eq = oriented[k]
            if a < 0:
                self.lower_row[j] = k
                if rhs:
                    lower[j] = -rhs
        # the variables whose lower bound is not 0, with it, and c . l
        self.shifted = [(j, lp.lower[j]) for j in lower]
        offset = [lp.objective[j] * low for j, low in self.shifted if lp.objective[j]]
        self.offset = sum(offset) if offset else None
        # tableau rows as (oriented index, terms, shifted rhs times den^2, eq)
        spec = [
            (k, terms, rhs * den - sum(a * lower[j] for j, a in terms if j in lower), eq)
            for k, (terms, rhs, eq) in enumerate(oriented)
            if k < nrows or terms[0][1] > 0
        ]
        self.m = len(spec)
        slack_start = [not eq and rhs >= 0 for _, _, rhs, eq in spec]
        self.nreal = ncol + sum(1 for *_, eq in spec if not eq)
        self.nart = slack_start.count(False)
        self.width = self.nreal + self.nart + 1  # + rhs
        self.tab = []  # rows as (den, int cells)
        self.basis = []
        # per row: (oriented index, sign, starting basic column, artificial?);
        # the constraint rows come first, in order
        self.origin = []
        slack, art = ncol, self.nreal
        den2 = den * den
        for (k, terms, rhs, eq), by_slack in zip(spec, slack_start):
            sign = 1 if rhs >= 0 else -1  # makes the tableau row's rhs >= 0
            row = [0] * self.width
            for j, a in terms:
                p, q = self.cols[j]
                row[p] = cell = sign * a * den
                if q is not None:
                    row[q] = -cell
            row[-1] = sign * rhs
            if not eq:
                row[slack] = sign * den2
                start = slack
                slack += 1
            if not by_slack:
                row[art] = den2
                start = art
                art += 1
            self.tab.append(_reduce_row(den2, row))
            self.basis.append(start)
            self.origin.append((k, sign, start, not by_slack))
        # per constraint row: its starting column, and the sign a change of
        # its right-hand side takes in the tableau
        self.moving = [
            (col, -sign if rel == ">=" else sign)
            for (_k, sign, col, _art), (_, rel, _) in zip(self.origin, lp.rows)
        ]
        self.rhs = lp._rhs  # the right-hand sides the last column is B^-1 of
        self.live = list(range(self.m))  # rows not deleted as redundant

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, j: int, cost):
        """Pivot on row r, column j; returns `cost` updated (None stays None)."""
        tab = self.tab
        den_r, row = tab[r]
        tab[r] = (den_r, row) = _reduce_row(row[j], row)
        for i in self.live:
            if i == r:
                continue
            den_i, other = tab[i]
            fac = other[j]
            if fac:
                merged = [a * den_r - fac * b for a, b in zip(other, row)]
                tab[i] = _reduce_row(den_i * den_r, merged)
        self.basis[r] = j
        if cost is None:
            return None
        den_c, cc = cost
        fac = cc[j]
        if fac:
            merged = [a * den_r - fac * b for a, b in zip(cc, row)]
            cost = _reduce_row(den_c * den_r, merged)
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

    def _dual_run(self, cost):
        """Dual simplex iterations under the dual form of Bland's rule, from
        a dual feasible basis (no negative reduced cost on a real column);
        returns (cost, blocking row) where the row is None at optimality and
        set when the LP is infeasible. The leaving row is the one with the
        smallest basic column among negative right-hand sides; the entering
        column has the least ratio reduced cost / -entry over the row's
        negative real entries, ties to the smallest column."""
        pivots = 0
        while True:
            leave = None
            for r in self.live:
                if self.tab[r][1][-1] < 0 and (leave is None or self.basis[r] < self.basis[leave]):
                    leave = r
            if leave is None:
                return cost, None
            row = self.tab[leave][1]
            cc = cost[1]
            enter = None
            for j in range(self.nreal):
                a = row[j]
                # cc[j] / -a < cc[enter] / -row[enter], both denominators > 0
                if a < 0 and (enter is None or cc[j] * row[enter] > cc[enter] * a):
                    enter = j
            if enter is None:
                return cost, leave
            cost = self._pivot(leave, enter, cost)
            pivots += 1
            if pivots > self.MAX_PIVOTS:  # dual Bland terminates; guard bugs only
                raise RuntimeError("simplex pivot budget exceeded")

    def _objective_row(self):
        """Phase 2's cost row (den, cells) at a basis that costs nothing: the
        objective on the structural columns, negated for max, over its
        least common denominator, so reduced."""
        cvec, c_den = self.costs
        if self.sense == "max":
            cvec = [-c for c in cvec]
        cells = [0] * self.width
        for (p, q), c in zip(self.cols, cvec):
            if c:
                cells[p] = c
                if q is not None:
                    cells[q] = -c
        return c_den, cells

    def _cost_row(self, start):
        """The reduced-cost row (den, cells) at the current basis of `start`,
        the column costs (den, cells) at a basis that costs nothing."""
        den, costs = cost = start
        for r in self.live:
            cb = costs[self.basis[r]]
            if cb:
                den_c, cc = cost
                den_r, row = self.tab[r]
                merged = [a * den * den_r - cb * den_c * b for a, b in zip(cc, row)]
                cost = _reduce_row(den_c * den * den_r, merged)
        return cost

    # -- solution extraction ----------------------------------------------

    def _x(self, column_values: dict, shift: bool) -> tuple:
        """A point (shift=True) or a direction in x from column values."""
        out = []
        for p, q in self.cols:
            v = column_values.get(p, _ZERO)
            if q in column_values:
                v -= column_values[q]
            out.append(v)
        if shift:
            for j, low in self.shifted:
                out[j] += low
        return tuple(out)

    def _point(self) -> tuple:
        """The basic solution; column values hold only its nonzero entries."""
        values = {}
        for r in self.live:
            den, row = self.tab[r]
            if row[-1]:
                values[self.basis[r]] = Fraction(row[-1], den)
        return self._x(values, shift=True)

    def _multipliers(self, cost, art_cost: int) -> tuple:
        """Oriented-row multipliers from the reduced costs of `cost`.

        A tableau row's simplex multiplier y_i is art_cost minus its
        artificial's reduced cost, or minus its slack's (cost 0, coefficient
        +1); the oriented multiplier is -sign_i * y_i. A lower bound's is its
        native column's reduced cost.
        """
        den, cells = cost
        out = [_ZERO] * self.norient
        for k, sign, col, artificial in self.origin:
            v = sign * (cells[col] - art_cost * den) if artificial else cells[col]
            if v:
                out[k] = Fraction(v, den)
        for j, k in self.lower_row.items():
            v = cells[self.cols[j][0]]
            if v:
                out[k] = Fraction(v, den)
        return tuple(out)

    def _row_farkas(self, row, rhs: int) -> tuple:
        """The Farkas vector of a tableau row (den, cells) whose real entries
        are all >= 0 and whose right-hand side, of the sign of `rhs`, is < 0,
        or whose real entries are all 0 and whose right-hand side is not. The
        row's own last cell is not read: a re-solve hands in the sign of its
        new right-hand side (`resolved`).

        The row combines the starting rows with weights w_i, its entries in
        their starting columns (a starting row holds its column's only 1). So
        sign_i * w_i on the oriented rows, and the row's entries in the native
        columns on the lower bounds -x_j <= -l_j, sum to 0 . x <= the row's
        right-hand side: `_multipliers` with art_cost 0 reads just these. A
        slack's entry is sign_i * w_i, so no inequality row's multiplier is
        negative; with every real entry 0 only equality rows carry one, and
        the vector is negated for a positive right-hand side.
        """
        den, cells = row
        return self._multipliers((-den if rhs > 0 else den, cells), 0)

    def _value(self, last: int, den: int) -> Fraction:
        """The objective value at the basic solution whose cost row ends in
        last / den: that is -(cvec / c_den) . y for y = x - l, and cvec is c
        negated for max; c . x adds c . l, where some lower bound is not 0.
        A zero value with nothing to add is the shared zero."""
        if not last and self.offset is None:
            return _ZERO
        value = Fraction(last if self.sense == "max" else -last, den)
        if self.offset is not None:
            value += self.offset
        return value

    def _optimal(self, cost) -> Optimal:
        den, cells = cost
        value = self._value(cells[-1], den)
        # The extracted multipliers already satisfy the max-sense convention
        # (c = A'^T y) when cvec was negated, so no sign flip is needed.
        return Optimal(x=self._point(), value=value, dual=self._multipliers(cost, 0))

    # -- phases ------------------------------------------------------------

    def solve(self) -> LpOutcome:
        """Solve from the starting basis; at an optimum the final cost row is
        kept as `cost`, for `resolved`.

        The starting basis is slacks and artificials, which cost nothing in
        phase 2, so phase 2's reduced-cost row there is the objective itself
        (`_objective_row`). When phase 1 skips its iterations, that row is
        carried through the drive-out's pivots to the basis phase 2 starts
        from; only after phase-1 iterations is it made afresh for that basis
        (`_cost_row`). Rows are reduced, so both give the same row."""
        cost = self._objective_row()
        if self.nart:
            phase_one = any(row[-1] for _den, row in self.tab)
            if phase_one:
                # Phase 1: minimize the artificial sum.
                cells = [0] * self.width
                cells[self.nreal : self.nreal + self.nart] = [1] * self.nart
                cost1, enter = self._run(self._cost_row((1, cells)), self.nreal)
                if enter is not None:
                    raise RuntimeError("phase 1 unbounded although its objective is >= 0")
                if cost1[1][-1] < 0:  # cells[-1]/den tracks -objective
                    return Infeasible(farkas=self._multipliers(cost1, 1))
            # Drive remaining artificials out of the basis (or drop their rows).
            carried = None if phase_one else cost
            for r in list(self.live):
                if self.basis[r] >= self.nreal:
                    enter_col = next(
                        (j for j in range(self.nreal) if self.tab[r][1][j] != 0), None
                    )
                    if enter_col is None:
                        self.live.remove(r)  # redundant row
                    else:
                        carried = self._pivot(r, enter_col, carried)
            cost = self._cost_row(cost) if phase_one else carried

        # Phase 2: the real objective on the structural columns.
        cost, enter = self._run(cost, self.nreal)
        if enter is not None:
            ray = {enter: _ONE}
            for r in self.live:
                den_r, row = self.tab[r]
                coef = row[enter]
                if coef:
                    ray[self.basis[r]] = Fraction(-coef, den_r)
            return Unbounded(ray=self._x(ray, shift=False), point=self._point())
        self.cost = cost
        return self._optimal(cost)

    def resolved(self, lp: LinearProgram) -> "_Simplex":
        """This tableau, whose solve ended `Optimal`, re-solved for `lp`: this
        tableau's LP with other constraint right-hand sides.

        The final basis stays dual feasible, since only the right-hand sides
        change. The new right-hand column is the old one plus B^-1 times the
        change of the starting rows' right-hand sides, B^-1 read off the
        starting columns; the change is taken in integers, from `lp._rhs` and
        this tableau's `rhs`. A row dropped as redundant whose new right-hand
        side is not 0 proves `lp` infeasible; otherwise the dual simplex
        (`_dual_run`) restores primal feasibility, or stops at a row that
        proves infeasibility. It cannot end unbounded.

        Its first step is taken on this tableau's rows, computing only the new
        column. With no negative entry there the basis is optimal as it
        stands: x and the value are read off the new column and the cost
        row's last cell, moved by the starting columns' reduced costs times
        the change, and the dual is this tableau's, since no reduced cost
        moved. A leaving row with no negative real entry blocks: its Farkas
        vector is read off this tableau's row, signed by its new right-hand
        side. Only when a pivot is due are the rows and the cost row copied
        with the new column, and the dual simplex run on the copies. A result
        that took no pivot shares this tableau's rows, cost row and `rhs`
        (the right-hand sides its last column is B^-1 of), so it can be
        re-solved from in turn.
        """
        nums, den = lp._rhs
        old, old_den = self.rhs
        if any(old):
            common = lcm(den, old_den)
            nums = [a * (common // den) - b * (common // old_den) for a, b in zip(nums, old)]
            den = common
        moves = [(col, sign * d) for (col, sign), d in zip(self.moving, nums) if d]

        def moved(cells) -> int:
            """The row's new right-hand side, over its denominator times den."""
            return cells[-1] * den + sum(cells[col] * d for col, d in moves)

        warm = object.__new__(_Simplex)
        vars(warm).update(vars(self))  # `live` is not changed after a solve: shared
        tab = self.tab
        if len(self.live) < self.m:
            # A dropped row is a fixed combination of the starting rows with a
            # zero real part (pivots no longer touch it): its right-hand side
            # is 0 in every feasible LP of the family, so it is kept as it is.
            for r in range(self.m):
                if r not in self.live and (rhs := moved(tab[r][1])):
                    warm.outcome = Infeasible(farkas=self._row_farkas(tab[r], rhs))
                    return warm
        column = {r: moved(tab[r][1]) for r in self.live}
        leave = None
        for r, rhs in column.items():
            if rhs < 0 and (leave is None or self.basis[r] < self.basis[leave]):
                leave = r
        if leave is None:
            values = {self.basis[r]: Fraction(v, tab[r][0] * den) for r, v in column.items() if v}
            cost_den, cost = self.cost
            value = self._value(moved(cost), cost_den * den)
            warm.outcome = Optimal(self._x(values, shift=True), value, self.outcome.dual)
            return warm
        if min(tab[leave][1][: self.nreal]) >= 0:
            warm.outcome = Infeasible(farkas=self._row_farkas(tab[leave], column[leave]))
            return warm

        def copied(row, rhs):
            row_den, cells = row
            cells = [v * den for v in cells] if den > 1 else cells[:]
            cells[-1] = rhs
            return _reduce_row(row_den * den, cells)

        warm.tab = list(tab)
        for r, rhs in column.items():
            warm.tab[r] = copied(tab[r], rhs)
        warm.basis = list(self.basis)
        warm.rhs = lp._rhs
        cost, blocking = warm._dual_run(copied(self.cost, moved(self.cost[1])))
        if blocking is not None:
            row = warm.tab[blocking]
            warm.outcome = Infeasible(farkas=warm._row_farkas(row, row[1][-1]))
        else:
            warm.cost = cost
            warm.outcome = warm._optimal(cost)
        return warm


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Exact outcome with certificate, deterministic under Bland's rule (and
    its dual form when the LP re-solves from its template's basis). The
    solved tableau is cached on the LP (`LinearProgram._solved`)."""
    return lp._solved.outcome


def lp_value(lp: LinearProgram, outcome: LpOutcome):
    """The extended-real value an outcome certifies: the optimum; when
    unbounded, -inf for min and +inf for max; when infeasible, +inf for min
    and -inf for max (inf of the empty set is +inf, its sup -inf). It reads
    the outcome and never solves."""
    if isinstance(outcome, Optimal):
        return outcome.value
    empty = INF if lp.sense == "min" else NEG_INF
    return -empty if isinstance(outcome, Unbounded) else empty


def max_component_lp(lp: LinearProgram, index: int) -> LinearProgram:
    """lp with its objective replaced by: maximize variable `index`."""
    if not 0 <= index < lp.n:
        raise InputError(f"component index {index} out of range")
    obj = tuple(_ONE if j == index else _ZERO for j in range(lp.n))
    return LinearProgram(lp.n, obj, "max", lp.rows, lp.lower, lp.upper)


def lp_max_component(lp: LinearProgram, index: int):
    """sup of variable `index` over lp's feasible set, in the extended reals:
    a Fraction, INF (unbounded) or NEG_INF (infeasible)."""
    probe = max_component_lp(lp, index)
    return lp_value(probe, lp_solve(probe))


# -- exact certificate re-validation ---------------------------------------


def check_outcome(lp: LinearProgram, outcome: LpOutcome) -> None:
    """Re-validate an outcome's certificate exactly; raises CertificateError.

    This is pure linear algebra on the sparse oriented system (`_oriented`,
    read through `LinearProgram._system`): no re-solving. It runs in
    integers: the rows share one common denominator, the objective has its
    own, and so do the entries of each vector of the outcome; each vector
    must have one entry per variable, or per oriented row for a multiplier
    vector.

    An optimal certificate needs no complementary-slackness test: it follows
    from the three that are made. Write the oriented rows as A'x <= b' and
    let s = b' - A'x. Feasibility gives s_i >= 0 on every inequality row and
    s_i = 0 on every equality row, and the sign test gives y_i >= 0 on every
    inequality row, so each term y_i * s_i of y . s is >= 0. Stationarity
    gives A'^T y = -sign * c, and strong duality -sign * (b' . y) = value =
    c . x, so y . s = b' . y - (A'^T y) . x = -sign * (value - c . x) = 0. A
    sum of terms >= 0 that is 0 has every term 0: y_i > 0 only where s_i = 0.
    """
    den, rows = lp._system
    cost, c_den = lp._costs
    sign = 1 if lp.sense == "min" else -1  # min: c + A'^T y = 0; max: c - A'^T y = 0
    if isinstance(outcome, Optimal):
        x, x_den = _vector(outcome.x, lp.n, "x")
        if not _within(rows, x, x_den):
            raise CertificateError("claimed point is infeasible")
        value = outcome.value
        # Each test is its rational identity multiplied through by the
        # denominators of the rows, the objective, the vector and value.
        if sum(map(mul, cost, x)) * value.denominator != value.numerator * c_den * x_den:
            raise CertificateError("objective value mismatch")
        combo, total, y_den = _combine(lp.n, rows, outcome.dual, "dual")
        if any(c * den * y_den + sign * v * c_den for c, v in zip(cost, combo)):
            raise CertificateError("dual stationarity violated")
        if -sign * total * value.denominator != value.numerator * den * y_den:
            raise CertificateError("strong duality violated")
    elif isinstance(outcome, Infeasible):
        combo, total, _y_den = _combine(lp.n, rows, outcome.farkas, "farkas")
        if any(combo):
            raise CertificateError("farkas combination is not 0^T x")
        if total >= 0:
            raise CertificateError("farkas combination fails to contradict")
    elif isinstance(outcome, Unbounded):
        if not _within(rows, *_vector(outcome.point, lp.n, "point")):
            raise CertificateError("claimed point is infeasible")
        ray, _ray_den = _vector(outcome.ray, lp.n, "ray")
        if not _within(rows, ray, 0):
            raise CertificateError("ray is not a recession direction")
        if sign * sum(map(mul, cost, ray)) >= 0:
            raise CertificateError("ray does not improve the objective")
    else:
        raise CertificateError(f"unknown outcome {outcome!r}")


def _vector(values, length, name):
    """values over their common denominator, as `_over_common_den`, after
    checking that there are `length` of them."""
    if len(values) != length:
        raise CertificateError(f"{name} length mismatch")
    return _over_common_den(values)


def _combine(n, rows, y, name):
    """(A'^T y, b'^T y) times y_den over y's nonzero entries, and y_den, the
    common denominator of y; after checking that y has one multiplier per
    oriented row and none negative on an inequality row."""
    y, y_den = _vector(y, len(rows), name)
    combo = [0] * n
    total = 0
    for yi, (terms, rhs, eq) in zip(y, rows):
        if not yi:
            continue
        if yi < 0 and not eq:
            raise CertificateError(f"{name} sign violated on inequality row")
        for j, a in terms:
            combo[j] += yi * a
        total += yi * rhs
    return combo, total, y_den


def _within(rows, x, x_den):
    """Does the point x / x_den satisfy every row? With x_den = 0 the
    right-hand sides are 0: is x a recession direction?"""
    for terms, rhs, eq in rows:
        v = sum(a * x[j] for j, a in terms)
        b = rhs * x_den
        if v > b or (eq and v != b):
            return False
    return True
