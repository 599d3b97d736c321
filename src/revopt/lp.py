"""Exact rational linear programming with machine-checkable certificates.

Two-phase primal simplex over `Fraction` with Bland's rule, so every solve
terminates and identical inputs give identical outcomes. Each outcome carries
its own evidence: an optimal basis yields a dual vector (strong duality and
complementary slackness hold exactly), infeasibility yields a Farkas vector,
unboundedness yields an improving recession ray.

Certificates are stated against the *oriented* system: every constraint row
and every variable bound rewritten in `a . x <= b` form (equalities kept with
free multipliers); see `LinearProgram.oriented_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import INF, NEG_INF, InputError, rat

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
        self.oriented = lp.oriented_rows()
        n = lp.n
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


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Exact outcome with certificate, deterministic under Bland's rule."""
    return _Simplex(lp).solve()


@dataclass(frozen=True)
class ComponentMax:
    """Supremum of one variable over an LP's feasible set."""

    value: object  # Fraction, INF (unbounded) or NEG_INF (infeasible)
    outcome: LpOutcome


def max_component_lp(lp: LinearProgram, index: int) -> LinearProgram:
    """lp with its objective replaced by: maximize variable `index`."""
    if not 0 <= index < lp.n:
        raise InputError(f"component index {index} out of range")
    obj = tuple(_ONE if j == index else _ZERO for j in range(lp.n))
    return LinearProgram(lp.n, obj, "max", lp.rows, lp.lower, lp.upper)


def lp_max_component(lp: LinearProgram, index: int) -> ComponentMax:
    """Maximize variable `index` subject to lp's constraints and bounds."""
    outcome = lp_solve(max_component_lp(lp, index))
    if isinstance(outcome, Optimal):
        return ComponentMax(outcome.value, outcome)
    if isinstance(outcome, Unbounded):
        return ComponentMax(INF, outcome)
    return ComponentMax(NEG_INF, outcome)


# -- exact certificate re-validation ---------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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
