"""Theorem engines deciding the epsilon-optimality characterizations.

Every mode checks one inclusion, for each eps' >= 0,

    d_eps' h(x_bar)  in  U_{alpha > 0, mu >= 0}
                         d_{alpha*eps + eps'}(alpha f + sum_j mu_j phi_j)(x_bar),

and only the list phi changes: () for rop, (h,) for equality and convex, G for
constrained. One homogenized membership LP (`_union_lp`) decides every test:
multipliers on the pieces of f sum to alpha, those on the pieces of phi_j to
mu_j >= 0, and "alpha > 0" is decided by maximizing alpha and requiring a
positive supremum. Its budget row measures alpha f + sum mu_j phi_j against
alpha (f(x_bar) - eps) - eps' with no mu_j phi_j(x_bar) term:

- equality: the gate puts x_bar on {h = 0}, so the term is zero;
- constrained: the paper's split alpha*eps + eps' = eps1 + eps2 with
  -eps2 <= <mu, G(x_bar)> <= 0 cancels the term once eps1 and eps2 are
  eliminated; the leftover alpha*eps + eps' + <mu, G(x_bar)> >= 0 follows from
  the budget row by weak duality, since the gates put x_bar in dom f and dom G;
- convex: the test at (eps', x*) = (0, 0) asks for some beta >= 0 with
  f + beta h >= f(x_bar) - eps everywhere, which by LP duality is exact
  eps-optimality over {h <= 0}; a -beta h(x_bar) term would loosen it
  whenever h(x_bar) < 0.

Refutations are exact; in the three boundary modes the universally
quantified eps' is discharged on a finite sweep only, which is why the
positive verdict is named CERTIFIED_ON_GRID.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .lp import (
    INF,
    NEG_INF,
    Infeasible,
    LinearProgram,
    Unbounded,
    lp_max_component,
    lp_solve,
)
from .model import (
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    rat,
)
from .subdiff import SubdiffQuery, subdiff_member, subdiff_vrep

__all__ = [
    "EpsPrimeSweep",
    "MembershipEvidence",
    "CheckRecord",
    "CertificateVerdict",
    "default_sweep",
    "dense_sweep",
    "essential_check",
    "slater_check",
    "union_member_rop",
    "union_member_constrained",
    "union_member_equality",
    "convex_case_member",
    "verify",
    "falsify",
    "MODES",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

MODES = ("rop", "constrained", "equality", "convex")

CERTIFIED = "CERTIFIED_ON_GRID"
REFUTED = "REFUTED"
INAPPLICABLE = "INAPPLICABLE"


# -- eps' sweeps -------------------------------------------------------------


@dataclass(frozen=True)
class EpsPrimeSweep:
    """Finite stand-in for the universally quantified eps' >= 0.

    `values` always contains 0; `randomized_extra` seeded draws are spread
    uniformly (in steps of bound/64) over [0, random_bound].
    """

    values: tuple[Fraction, ...]
    randomized_extra: int = 0
    seed: int = 0
    random_bound: Fraction = Fraction(4)

    def __post_init__(self):
        vals = {rat(v) for v in self.values}
        vals.add(_ZERO)
        if any(v < 0 for v in vals):
            raise InputError("sweep values must be >= 0")
        object.__setattr__(self, "values", tuple(sorted(vals)))
        object.__setattr__(self, "random_bound", rat(self.random_bound))

    def materialize(self) -> tuple[Fraction, ...]:
        vals = set(self.values)
        if self.randomized_extra:
            rng = random.Random(self.seed)
            for _ in range(self.randomized_extra):
                vals.add(Fraction(rng.randint(0, 64), 64) * self.random_bound)
        return tuple(sorted(vals))


def default_sweep(epsilon, seed: int = 0) -> EpsPrimeSweep:
    """Two regimes around eps_hat = max(eps, 1) plus seeded random draws."""
    e = max(rat(epsilon), _ONE)
    values = (_ZERO, e / 8, e / 4, e / 2, e, 2 * e, 4 * e)
    return EpsPrimeSweep(values, randomized_extra=8, seed=seed, random_bound=4 * e)


def dense_sweep(epsilon, slack, seed: int = 0) -> EpsPrimeSweep:
    """Breakpoint candidates k*eps_hat/16 for k = 0..64, eps_hat scaled by the
    optimality slack f(x) - inf f when that is finite."""
    e = max(rat(epsilon), _ONE)
    if slack is not None and slack != INF and slack > e:
        e = rat(slack)
    values = tuple(Fraction(k) * e / 16 for k in range(65))
    return EpsPrimeSweep(values, randomized_extra=8, seed=seed, random_bound=4 * e)


# -- small LP assembly helper ------------------------------------------------


class _LpBuilder:
    def __init__(self):
        self.lower: list = []
        self.rows: list = []

    def var(self, lower=None) -> int:
        self.lower.append(lower)
        return len(self.lower) - 1

    def vars(self, count: int, lower=None) -> list[int]:
        return [self.var(lower) for _ in range(count)]

    def row(self, coeffs: dict, rel: str, rhs):
        self.rows.append((dict(coeffs), rel, rat(rhs)))

    def lp(self, objective: dict | None = None, sense: str = "min") -> LinearProgram:
        n = len(self.lower)
        rows = tuple(
            (
                tuple(coeffs.get(j, _ZERO) for j in range(n)),
                rel,
                rhs,
            )
            for coeffs, rel, rhs in self.rows
        )
        obj = tuple((objective or {}).get(j, _ZERO) for j in range(n))
        return LinearProgram(n, obj, sense, rows=rows, lower=tuple(self.lower))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- membership evidence ------------------------------------------------------


@dataclass(frozen=True)
class MembershipEvidence:
    """Outcome of one homogenized membership test.

    `sup` is the supremum of alpha (or of the ray parameter t); `outcome` is
    the certified LP outcome backing it, stated against `lp`. On acceptance,
    `witness` is a feasible multiplier vector realizing alpha > 0.
    """

    member: bool
    sup: object
    lp: LinearProgram
    outcome: object
    witness: tuple | None = None


def _sup_evidence(lp: LinearProgram, comp_index: int) -> MembershipEvidence:
    res = lp_max_component(lp, comp_index)
    if res.value == NEG_INF:
        return MembershipEvidence(False, NEG_INF, lp, res.outcome)
    if res.value == INF:
        out = res.outcome
        point = out.point
        step = out.ray[comp_index]
        if point[comp_index] > 0:
            witness = point
        else:
            k = (1 - point[comp_index]) / step
            witness = tuple(p + k * r for p, r in zip(point, out.ray))
        return MembershipEvidence(True, INF, lp, out, witness)
    member = res.value > 0
    witness = res.outcome.x if member else None
    return MembershipEvidence(member, res.value, lp, res.outcome, witness)


# -- the membership LP --------------------------------------------------------


def _union_lp(f, phis, x_bar, eps, eps_prime, xstar, ray=None, max_mu=None):
    """Homogenized LP for x* in the union over alpha > 0 and mu >= 0 of
    d_{alpha*eps+eps'}(alpha f + sum_j mu_j phi_j)(x_bar).

    Columns: lam on the pieces of f (summing to alpha), nu on the pieces of
    each phi_j (summing to mu_j), eta on the domain rows of f and of each
    phi_j, alpha, and the ray parameter t when `ray` is given (x* then moves
    to x* + t*ray). Rows: the slopes, alpha = sum lam, the budget and, with
    `max_mu`, sum nu <= max_mu. Returns (lp, alpha column, t column or None).
    """
    b = _LpBuilder()
    lam = b.vars(len(f.pieces), lower=_ZERO)
    nus = [b.vars(len(phi.pieces), lower=_ZERO) for phi in phis]
    domains = [fn.domain for fn in (f, *phis) if fn.domain is not None]
    etas = [b.vars(len(dom.b), lower=_ZERO) for dom in domains]
    alpha = b.var(lower=_ZERO)
    t = b.var(lower=_ZERO) if ray is not None else None

    # (column, slope, budget coefficient) of every multiplier on an affine row
    terms = [(v, p.a, p.b) for v, p in zip(lam, f.pieces)]
    for phi, nu in zip(phis, nus):
        terms += [(v, p.a, p.b) for v, p in zip(nu, phi.pieces)]
    for dom, eta in zip(domains, etas):
        terms += [(v, row, -rhs) for v, row, rhs in zip(eta, dom.a, dom.b)]
    for j in range(f.n):
        coeffs = {v: a[j] for v, a, _ in terms}
        if ray is not None:
            coeffs[t] = -ray[j]
        b.row(coeffs, "=", xstar[j])
    b.row({alpha: _ONE, **{v: -_ONE for v in lam}}, "=", _ZERO)
    budget = {v: off for v, _, off in terms}
    budget[alpha] = -(f.value(x_bar) - eps)
    if ray is not None:
        budget[t] = _dot(ray, x_bar)
    b.row(budget, ">=", -_dot(xstar, x_bar) - eps_prime)
    if max_mu is not None:
        b.row({v: _ONE for nu in nus for v in nu}, "<=", max_mu)
    return b.lp(), alpha, t


def _member(f, phis, x_bar, eps, eps_prime, xstar, max_mu=None) -> MembershipEvidence:
    lp, alpha, _ = _union_lp(
        f, phis, x_bar, rat(eps), rat(eps_prime), xstar, max_mu=max_mu
    )
    return _sup_evidence(lp, alpha)


def union_member_rop(f, x_bar, eps, eps_prime, xstar) -> MembershipEvidence:
    """Is x* in the union over alpha > 0 of d_{alpha*eps+eps'}(alpha f)(x_bar)?"""
    if not f.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    return _member(f, (), x_bar, eps, eps_prime, xstar)


def union_member_constrained(f, G, x_bar, eps, eps_prime, xstar) -> MembershipEvidence:
    """Constrained membership: alpha > 0 and mu >= 0 with phi = G."""
    if not f.is_finite_at(x_bar) or any(g.value(x_bar) > 0 for g in G):
        raise Inapplicable("point-off-domain")
    return _member(f, tuple(G), x_bar, eps, eps_prime, xstar)


def union_member_equality(
    f, h, x_bar, eps, eps_prime, xstar, max_beta=None
) -> MembershipEvidence:
    """Equality-constraint membership: alpha > 0, beta >= 0 with x* in
    d_{alpha*eps+eps'}(alpha f + beta h)(x_bar); `max_beta` caps beta."""
    if not f.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    if h.value(x_bar) != 0:
        raise Inapplicable("point-not-on-boundary")
    return _member(f, (h,), x_bar, eps, eps_prime, xstar, max_mu=max_beta)


def convex_case_member(f, h, x_bar, eps) -> MembershipEvidence:
    """The convex characterization: some beta >= 0 with f + beta h >= f(x_bar) - eps
    everywhere, i.e. the membership test at (eps', x*) = (0, 0) with phi = (h,)."""
    if not f.is_finite_at(x_bar) or not h.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    return _member(f, (h,), x_bar, eps, _ZERO, (_ZERO,) * f.n)


# -- applicability gates -------------------------------------------------------


def _inf_over_region(f: PolyhedralConvexFunction, region):
    """inf of f over {x : phi(x) <= 0 for phi in region} as an extended value;
    None when the region (intersected with dom f) is empty."""
    n = f.n
    b = _LpBuilder()
    x = b.vars(n)
    t = b.var()
    for piece in f.pieces:
        b.row({**{x[j]: piece.a[j] for j in range(n)}, t: -_ONE}, "<=", -piece.b)
    fns = [f] + list(region or [])
    for fn in fns:
        if fn.domain is not None:
            for row, rhs in zip(fn.domain.a, fn.domain.b):
                b.row({x[j]: row[j] for j in range(n)}, "<=", rhs)
    for phi in region or []:
        for piece in phi.pieces:
            b.row({x[j]: piece.a[j] for j in range(n)}, "<=", -piece.b)
    out = lp_solve(b.lp(objective={t: _ONE}))
    if isinstance(out, Infeasible):
        return None
    if isinstance(out, Unbounded):
        return NEG_INF
    return out.value


def essential_check(f, region, x_bar, eps) -> bool:
    """inf of f over the region is strictly below f(x_bar) - eps.

    `region` is None for the whole space, or a list of polyhedral functions
    phi constraining phi(x) <= 0. An infeasible region yields False.
    """
    if not f.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    inf_val = _inf_over_region(f, region)
    if inf_val is None:
        return False
    if inf_val == NEG_INF:
        return True
    return inf_val < f.value(x_bar) - rat(eps)


def slater_check(G, f) -> bool:
    """Is there x0 in dom f and dom G with every g_j(x0) < 0?

    Decided by maximizing a common slack tau with every piece of every g_j
    bounded by -tau; strict feasibility means a positive supremum.
    """
    G = tuple(G)
    if not G:
        return True
    n = f.n
    b = _LpBuilder()
    x = b.vars(n)
    tau = b.var()
    for fn in (f, *G):
        if fn.domain is not None:
            for row, rhs in zip(fn.domain.a, fn.domain.b):
                b.row({x[j]: row[j] for j in range(n)}, "<=", rhs)
    for g in G:
        for piece in g.pieces:
            b.row(
                {**{x[j]: piece.a[j] for j in range(n)}, tau: _ONE},
                "<=",
                -piece.b,
            )
    res = lp_max_component(b.lp(), tau)
    return res.value == INF or (res.value != NEG_INF and res.value > 0)


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    eps_prime: Fraction
    generator: tuple
    kind: str  # "vertex" or "ray"
    accepted: bool
    evidence: MembershipEvidence


@dataclass(frozen=True)
class CertificateVerdict:
    tag: str
    mode: str
    reason: str | None = None
    witness_eps_prime: Fraction | None = None
    witness_xstar: tuple | None = None
    witness_evidence: MembershipEvidence | None = None
    gates: tuple = ()
    log: tuple = ()
    info: tuple = ()

    @property
    def witness(self):
        if self.tag != REFUTED:
            return None
        return (self.witness_eps_prime, self.witness_xstar)


def _phis(mode, problem: ReverseProblem) -> tuple:
    """The functions phi_j whose multiples join alpha*f in `mode`'s union; for
    rop, constrained and equality also the region of the essential gate."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    h = problem.reverse
    return {
        "rop": (),
        "constrained": problem.constraints,
        "equality": (h,),
        "convex": (h,),
    }[mode]


def _membership_lp(mode, problem: ReverseProblem, eps_prime, xstar, ray=None):
    """Deterministic LP rebuild for a logged check (used for replay)."""
    phis = _phis(mode, problem)
    return _union_lp(
        problem.objective, phis, problem.point, problem.epsilon, eps_prime, xstar, ray
    )


def _mode_member(mode, problem, eps_prime, xstar) -> MembershipEvidence:
    lp, alpha, _ = _membership_lp(mode, problem, eps_prime, xstar)
    return _sup_evidence(lp, alpha)


def _mode_ray_check(mode, problem, eps_prime, base, ray) -> MembershipEvidence:
    lp, _alpha, t = _membership_lp(mode, problem, eps_prime, base, ray=ray)
    res = lp_max_component(lp, t)
    accepted = res.value == INF
    witness = res.outcome.point if accepted else None
    return MembershipEvidence(accepted, res.value, lp, res.outcome, witness)


def verify(problem: ReverseProblem, mode: str, sweep: EpsPrimeSweep | None = None):
    """Run the applicability gates and the per-(eps', generator) inclusion
    checks; first failure refutes with an exact witness."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    f, h = problem.objective, problem.reverse
    x_bar, eps = problem.point, problem.epsilon
    gates = []
    log = []

    def verdict(tag, **kw):
        return CertificateVerdict(tag, mode, gates=tuple(gates), log=tuple(log), **kw)

    def gate(name, ok, reason):
        gates.append((name, ok))
        return None if ok else verdict(INAPPLICABLE, reason=reason)

    def check(eps_prime, xstar, ev):
        log.append(CheckRecord(eps_prime, xstar, "vertex", ev.member, ev))
        if ev.member:
            return None
        return verdict(
            REFUTED,
            witness_eps_prime=eps_prime,
            witness_xstar=xstar,
            witness_evidence=ev,
        )

    if out := gate("dom-f", f.is_finite_at(x_bar), "point-off-domain"):
        return out

    if mode == "convex":
        if out := gate("h<=0", h.value(x_bar) <= 0, "point-off-domain"):
            return out
        zero = (_ZERO,) * problem.n
        ev = _mode_member(mode, problem, _ZERO, zero)
        return check(_ZERO, zero, ev) or verdict(CERTIFIED)

    if out := gate("h=0", h.value(x_bar) == 0, "point-not-on-boundary"):
        return out
    if mode == "constrained":
        feasible = all(g.value(x_bar) <= 0 for g in problem.constraints)
        if out := gate("G<=0", feasible, "point-off-domain"):
            return out

    if not essential_check(f, _phis(mode, problem), x_bar, eps):
        # The point is then an unconstrained eps-minimizer candidate; report
        # the trivial characterization informationally.
        zero = (_ZERO,) * problem.n
        trivial = subdiff_member(SubdiffQuery(f, x_bar, eps), zero)
        gates.append(("essential", False))
        return verdict(
            INAPPLICABLE,
            reason="essential-assumption-fails",
            info=(("zero-in-subdiff-f", trivial),),
        )
    gates.append(("essential", True))

    if mode == "constrained":
        slater = slater_check(problem.constraints, f)
        if out := gate("slater", slater, "slater-fails"):
            return out

    if sweep is None:
        sweep = default_sweep(eps)
    for eps_prime in sweep.materialize():
        vrep = subdiff_vrep(SubdiffQuery(h, x_bar, eps_prime))
        if vrep.is_empty():
            raise RuntimeError("empty d_eps' h(x_bar) at a point of dom h")
        for vert in vrep.vertices:
            ev = _mode_member(mode, problem, eps_prime, vert)
            if out := check(eps_prime, vert, ev):
                return out
        base = vrep.vertices[0]
        for ray in vrep.rays:
            ev = _mode_ray_check(mode, problem, eps_prime, base, ray)
            log.append(CheckRecord(eps_prime, ray, "ray", ev.member, ev))
            if not ev.member:
                # The ray leaves the union at t = sup; exhibit a concrete
                # subgradient beyond it and refute on that point.
                t_out = (ev.sup if ev.sup != NEG_INF else _ZERO) + 1
                xstar = tuple(b + t_out * r for b, r in zip(base, ray))
                ev = _mode_member(mode, problem, eps_prime, xstar)
                if ev.member:
                    raise RuntimeError("a subgradient beyond the ray's sup was accepted")
                return check(eps_prime, xstar, ev)
    return verdict(CERTIFIED)


def falsify(
    problem: ReverseProblem, mode: str, sweep: EpsPrimeSweep | None = None, seed: int = 0
) -> CertificateVerdict:
    """verify() on a dense breakpoint sweep; the verdict's `witness` property
    carries the first (eps', x*) refutation pair, if any."""
    if sweep is None:
        f, x_bar = problem.objective, problem.point
        slack = None
        if f.is_finite_at(x_bar):
            inf_val = _inf_over_region(f, _phis(mode, problem))
            if inf_val is not None and inf_val != NEG_INF:
                slack = f.value(x_bar) - inf_val
        sweep = dense_sweep(problem.epsilon, slack, seed=seed)
    return verify(problem, mode, sweep)
