"""Exact rational linear programming with machine-checkable certificates.

Two-phase primal simplex in exact integer arithmetic with Bland's rule, so
every solve terminates and identical inputs give identical outcomes. Each
outcome carries its own evidence: an optimal basis yields a dual vector
(strong duality and complementary slackness hold exactly), infeasibility
yields a Farkas vector, unboundedness yields an improving recession ray.

The tableau is a lean standard form (`_Simplex`): a lower-bounded variable is
one native nonnegative column, shifted by its bound, and only a free variable
is split in two; lower bounds never become rows, upper bounds do; and an
inequality row starts from its slack whenever its right-hand side allows, so
only the other rows carry an artificial and phase 1 runs only if one does.

Certificates are stated against the *oriented* system: every constraint row
and every variable bound rewritten in `a . x <= b` form (equalities kept with
free multipliers); see `LinearProgram.oriented_rows`. A lower bound's
multiplier is the reduced cost of its variable's column.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import INF, NEG_INF, InputError, _dot, rat

__all__ = [
    "LinearProgram",
    "Optimal",
    "Unbounded",
    "Infeasible",
    "LpOutcome",
    "lp_solve",
    "lp_max_component",
    "max_component_lp",
    "ComponentMax",
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

    def oriented_rows(self):
        """The system as `(coeffs, rhs, is_equality)` rows with inequalities
        oriented `<=`: constraint rows first, then per-variable lower and
        upper bound rows. Certificates index into this list."""
        out = []
        for coeffs, rel, rhs in self.rows:
            if rel == ">=":
                out.append((tuple(-v for v in coeffs), -rhs, False))
            else:
                out.append((coeffs, rhs, rel == "="))
        for j in range(self.n):
            if self.lower[j] is not None:
                coeffs = tuple(-_ONE if k == j else _ZERO for k in range(self.n))
                out.append((coeffs, -self.lower[j], False))
            if self.upper[j] is not None:
                coeffs = tuple(_ONE if k == j else _ZERO for k in range(self.n))
                out.append((coeffs, self.upper[j], False))
        return out


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
    g = den
    for v in cells:
        g = gcd(g, v)
        if g == 1:
            return den, cells
    if g > 1:
        den //= g
        cells = [v // g for v in cells]
    return den, cells


def _lcm_den(values) -> int:
    """The least common denominator of some Fractions."""
    den = 1
    for v in values:
        d = v.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return den


class _Simplex:
    """Dense exact tableau on the lean standard form of an LP.

    Columns: a variable with a lower bound l is one native column y = x - l
    >= 0; only a variable without one is split x = p - q. Then one slack per
    inequality row, then the artificials.

    Rows: the constraint rows and the upper bounds, oriented `<=` and with
    the lower bounds shifted into the right-hand side; lower-bound rows are
    not in the tableau (the native column carries them). An inequality row
    whose shifted right-hand side is >= 0 starts with its slack basic; every
    other row is negated if needed so its right-hand side is >= 0 and gets an
    artificial. Phase 1 runs only when some row has an artificial.

    Multipliers in the oriented layout of `LinearProgram.oriented_rows`: a
    tableau row's come from the reduced cost of its starting basic column,
    the slack or the artificial, whose column keeps B^-1 bookkeeping; a lower
    bound's is the reduced cost of its native column, in phase 2 for
    `Optimal.dual` and in phase 1 for `Infeasible.farkas`.

    Rows are integer vectors sharing one positive denominator each, built
    from the numerators directly, so the hot loops stay in machine integers.
    """

    MAX_PIVOTS = 200_000

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n
        lower, upper = lp.lower, lp.upper
        # per variable: its column, and its negative part's (None if native)
        self.cols = []
        ncol = 0
        for low in lower:
            self.cols.append((ncol, None if low is not None else ncol + 1))
            ncol += 1 if low is not None else 2
        # tableau rows as (oriented index, orientation, coeffs, shifted rhs, eq)
        spec = []
        for k, (coeffs, rel, rhs) in enumerate(lp.rows):
            shift = sum(a * low for a, low in zip(coeffs, lower) if a and low)
            if shift:
                rhs -= shift
            spec.append((k, -1 if rel == ">=" else 1, coeffs, rhs, rel == "="))
        self.lower_row = {}  # variable -> oriented index of its lower bound
        k = len(lp.rows)
        for j, (low, up) in enumerate(zip(lower, upper)):
            if low is not None:
                self.lower_row[j] = k
                k += 1
            if up is not None:
                unit = tuple(_ONE if i == j else _ZERO for i in range(n))
                spec.append((k, 1, unit, up if low is None else up - low, False))
                k += 1
        self.norient = k
        self.m = len(spec)
        slack_start = [not eq and o * rhs >= 0 for _, o, _, rhs, eq in spec]
        self.nreal = ncol + sum(1 for *_, eq in spec if not eq)
        self.nart = slack_start.count(False)
        self.width = self.nreal + self.nart + 1  # + rhs
        self.tab = []  # rows as (den, int cells)
        self.basis = []
        # per row: (oriented index, sign, starting basic column, artificial?)
        self.origin = []
        slack, art = ncol, self.nreal
        for (k, o, coeffs, rhs, eq), by_slack in zip(spec, slack_start):
            sign = 1 if o * rhs >= 0 else -1  # makes the oriented rhs >= 0
            scale = sign * o  # from the row as given to the tableau row
            den = _lcm_den((*coeffs, rhs))
            row = [0] * self.width
            for (p, q), v in zip(self.cols, coeffs):
                if v:
                    cell = scale * v.numerator * (den // v.denominator)
                    row[p] = cell
                    if q is not None:
                        row[q] = -cell
            row[-1] = scale * rhs.numerator * (den // rhs.denominator)
            if not eq:
                row[slack] = sign * den
                start = slack
                slack += 1
            if not by_slack:
                row[art] = den
                start = art
                art += 1
            self.tab.append(_reduce_row(den, row))
            self.basis.append(start)
            self.origin.append((k, sign, start, not by_slack))
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
        den = _lcm_den(costs.values())
        cells = [0] * self.width
        for j, v in costs.items():
            cells[j] = v.numerator * (den // v.denominator)
        cost = (den, cells)
        for r in self.live:
            cb = costs.get(self.basis[r], _ZERO)
            if cb:
                den_c, cc = cost
                den_r, row = self.tab[r]
                num = cb.numerator * (den // cb.denominator)  # cb in cost units
                merged = [a * den * den_r - num * den_c * b for a, b in zip(cc, row)]
                cost = _reduce_row(den_c * den * den_r, merged)
        return cost

    # -- solution extraction ----------------------------------------------

    def _x(self, column_values: dict, shift: bool) -> tuple:
        """A point (shift=True) or a direction in x from column values."""
        out = []
        for (p, q), low in zip(self.cols, self.lp.lower):
            v = column_values.get(p, _ZERO)
            if q is not None:
                v -= column_values.get(q, _ZERO)
            elif shift:
                v += low
            out.append(v)
        return tuple(out)

    def _point(self) -> tuple:
        values = {
            self.basis[r]: Fraction(self.tab[r][1][-1], self.tab[r][0])
            for r in self.live
        }
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
            if artificial:
                out[k] = Fraction(sign * (cells[col] - art_cost * den), den)
            else:
                out[k] = Fraction(cells[col], den)
        for j, k in self.lower_row.items():
            out[k] = Fraction(cells[self.cols[j][0]], den)
        return tuple(out)

    # -- phases ------------------------------------------------------------

    def solve(self) -> LpOutcome:
        minimize = self.lp.sense == "min"
        cvec = self.lp.objective if minimize else tuple(-v for v in self.lp.objective)

        if self.nart:
            # Phase 1: minimize the artificial sum.
            arts = range(self.nreal, self.nreal + self.nart)
            cost1 = self._cost_row({j: _ONE for j in arts})
            cost1, enter = self._run(cost1, self.nreal)
            if enter is not None:
                raise RuntimeError("phase 1 unbounded although its objective is >= 0")
            if cost1[1][-1] < 0:  # cells[-1]/den tracks -objective
                return Infeasible(farkas=self._multipliers(cost1, 1))
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

        # Phase 2: the real objective on the structural columns.
        costs2 = {}
        for (p, q), c in zip(self.cols, cvec):
            if c:
                costs2[p] = c
                if q is not None:
                    costs2[q] = -c
        cost2 = self._cost_row(costs2)
        cost2, enter = self._run(cost2, self.nreal)
        if enter is not None:
            ray = {enter: _ONE}
            for r in self.live:
                den_r, row = self.tab[r]
                coef = row[enter]
                if coef:
                    ray[self.basis[r]] = Fraction(-coef, den_r)
            return Unbounded(ray=self._x(ray, shift=False), point=self._point())

        x = self._point()
        value = sum(c * v for c, v in zip(self.lp.objective, x))
        # The extracted multipliers already satisfy the max-sense convention
        # (c = A'^T y) when cvec was negated, so no sign flip is needed.
        return Optimal(x=x, value=value, dual=self._multipliers(cost2, 0))


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Exact outcome with certificate, deterministic under Bland's rule."""
    return _Simplex(lp).solve()


@dataclass(frozen=True)
class ComponentMax:
    """Supremum of one variable over an LP's feasible set; `outcome` is
    stated against `max_component_lp` of that LP."""

    value: object  # Fraction, INF (unbounded) or NEG_INF (infeasible)
    outcome: LpOutcome


def max_component_lp(lp: LinearProgram, index: int) -> LinearProgram:
    """lp with its objective replaced by: maximize variable `index`."""
    if not 0 <= index < lp.n:
        raise InputError(f"component index {index} out of range")
    obj = tuple(_ONE if j == index else _ZERO for j in range(lp.n))
    # lp's rows and bounds are validated already: copy them, do not rebuild
    probe = copy.copy(lp)
    object.__setattr__(probe, "objective", obj)
    object.__setattr__(probe, "sense", "max")
    return probe


def lp_max_component(lp: LinearProgram, index: int) -> ComponentMax:
    """Maximize variable `index` subject to lp's constraints and bounds."""
    outcome = lp_solve(max_component_lp(lp, index))
    if isinstance(outcome, Optimal):
        return ComponentMax(outcome.value, outcome)
    if isinstance(outcome, Unbounded):
        return ComponentMax(INF, outcome)
    return ComponentMax(NEG_INF, outcome)


# -- exact certificate re-validation ---------------------------------------


def check_outcome(lp: LinearProgram, outcome: LpOutcome) -> None:
    """Re-validate an outcome's certificate exactly; raises CertificateError.

    This is pure linear algebra on the oriented system: no re-solving.
    """
    oriented = lp.oriented_rows()
    if isinstance(outcome, Optimal):
        _check_feasible(oriented, outcome.x)
        if _dot(lp.objective, outcome.x) != outcome.value:
            raise CertificateError("objective value mismatch")
        y = outcome.dual
        if len(y) != len(oriented):
            raise CertificateError("dual length mismatch")
        sign = _ONE if lp.sense == "min" else -_ONE
        for (_, _, eq), yi in zip(oriented, y):
            if not eq and yi < 0:
                raise CertificateError("dual sign violated on inequality row")
        for j in range(lp.n):
            # min: c + A'^T y = 0; max: c - A'^T y = 0.
            resid = lp.objective[j] + sign * sum(
                yi * row[0][j] for yi, row in zip(y, oriented)
            )
            if resid != 0:
                raise CertificateError("dual stationarity violated")
        dual_value = -sign * sum(yi * row[1] for yi, row in zip(y, oriented))
        if dual_value != outcome.value:
            raise CertificateError("strong duality violated")
        for yi, (coeffs, rhs, _eq) in zip(y, oriented):
            if yi * (_dot(coeffs, outcome.x) - rhs) != 0:
                raise CertificateError("complementary slackness violated")
    elif isinstance(outcome, Infeasible):
        y = outcome.farkas
        if len(y) != len(oriented):
            raise CertificateError("farkas length mismatch")
        for (_, _, eq), yi in zip(oriented, y):
            if not eq and yi < 0:
                raise CertificateError("farkas sign violated")
        for j in range(lp.n):
            if sum(yi * row[0][j] for yi, row in zip(y, oriented)) != 0:
                raise CertificateError("farkas combination is not 0^T x")
        if sum(yi * row[1] for yi, row in zip(y, oriented)) >= 0:
            raise CertificateError("farkas combination fails to contradict")
    elif isinstance(outcome, Unbounded):
        _check_feasible(oriented, outcome.point)
        r = outcome.ray
        for coeffs, _rhs, eq in oriented:
            v = _dot(coeffs, r)
            if (eq and v != 0) or (not eq and v > 0):
                raise CertificateError("ray is not a recession direction")
        drift = _dot(lp.objective, r)
        if lp.sense == "min" and drift >= 0:
            raise CertificateError("ray does not improve the minimum")
        if lp.sense == "max" and drift <= 0:
            raise CertificateError("ray does not improve the maximum")
    else:
        raise CertificateError(f"unknown outcome {outcome!r}")


def _check_feasible(oriented, x):
    for coeffs, rhs, eq in oriented:
        v = _dot(coeffs, x)
        if (eq and v != rhs) or (not eq and v > rhs):
            raise CertificateError("claimed point is infeasible")
