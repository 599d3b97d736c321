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

In the three boundary modes (rop, constrained, equality) the quantifier over
eps' is discharged exactly. Let E = {(eps', s) : eps' >= 0, s in
d_eps' h(x_bar)} and W = {(eps', x*) : x* in the union at eps'}. By
`subdiff_epigraph`, E = conv{(delta_i, a_i)} + cone{(1, 0), (sigma_r, C_r)}
over the pieces i and the domain rows r of h. W is the projection onto
(eps', x*) of the polyhedron of `_union_lp` (eps' and x* read as variables)
cut by alpha > 0, so W is convex, and E is inside W exactly when:

- every point (delta_i, a_i) lies in W: one max-alpha probe each;
- the ray (1, 0) recedes in W: nothing to check, since raising eps' only
  relaxes the budget row;
- every ray (sigma_r, C_r) recedes in W: one max-t probe that starts at
  (delta_0, a_0) and moves eps' and x* together, so the t column's budget
  coefficient is <C_r, x_bar> + sigma_r. The probe allows alpha = 0, which is
  sound: an unbounded t gives a recession direction of the closed polyhedron
  (alpha >= 0) that projects onto a positive multiple of the ray, and its
  alpha component is >= 0, so adding it to any point with alpha > 0 keeps
  alpha > 0. A finite supremum t* puts the ray's point at any t > t* outside
  even the closed polyhedron's projection.

Every failure therefore exhibits an exact point of E outside W: a
(delta_i, a_i), or the ray's point at t* + 1, which is logged as the last
(vertex) check. Refutations are exact by the necessity direction of the
characterization and positive verdicts by its sufficiency; the positive tag
keeps its historical name CERTIFIED_ON_GRID, which reports and tools match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# lp_solve stays bound here because bench/spans.py traces it.
from .lp import INF, NEG_INF, LinearProgram, lp_max_component, lp_solve  # noqa: F401
from .model import (
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    rat,
)
# subdiff_vrep stays bound here because bench/spans.py traces it.
from .subdiff import (  # noqa: F401
    SubdiffQuery,
    epigraph_inf,
    joint_domain,
    subdiff_epigraph,
    subdiff_member,
    subdiff_vrep,
)

__all__ = [
    "MembershipEvidence",
    "CheckRecord",
    "CertificateVerdict",
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


# -- small LP assembly helper ------------------------------------------------


class _LpBuilder:
    """Nonnegative columns and sparse rows of one feasibility LP."""

    def __init__(self):
        self.n = 0
        self.rows: list = []

    def vars(self, count: int) -> list[int]:
        self.n += count
        return list(range(self.n - count, self.n))

    def row(self, coeffs: dict, rel: str, rhs):
        self.rows.append((dict(coeffs), rel, rat(rhs)))

    def lp(self) -> LinearProgram:
        rows = tuple(
            (tuple(coeffs.get(j, _ZERO) for j in range(self.n)), rel, rhs)
            for coeffs, rel, rhs in self.rows
        )
        zero = (_ZERO,) * self.n
        return LinearProgram(self.n, zero, rows=rows, lower=zero)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- membership evidence ------------------------------------------------------


@dataclass(frozen=True)
class MembershipEvidence:
    """Outcome of one homogenized membership test.

    `sup` is the supremum of alpha (or of the ray parameter t); `outcome` is
    the certified LP outcome backing it, stated against `lp`, the probe LP
    that maximizes alpha (or t). On acceptance, `witness` is a feasible point
    of that LP realizing alpha > 0 (or, for a ray, any feasible point).
    """

    member: bool
    sup: object
    lp: LinearProgram
    outcome: object
    witness: tuple | None = None


def _sup_evidence(lp: LinearProgram, comp_index: int) -> MembershipEvidence:
    res = lp_max_component(lp, comp_index)
    if res.value == NEG_INF:
        return MembershipEvidence(False, NEG_INF, res.lp, res.outcome)
    if res.value == INF:
        out = res.outcome
        point = out.point
        step = out.ray[comp_index]
        if point[comp_index] > 0:
            witness = point
        else:
            k = (1 - point[comp_index]) / step
            witness = tuple(p + k * r for p, r in zip(point, out.ray))
        return MembershipEvidence(True, INF, res.lp, out, witness)
    member = res.value > 0
    witness = res.outcome.x if member else None
    return MembershipEvidence(member, res.value, res.lp, res.outcome, witness)


# -- the membership LP --------------------------------------------------------


def _union_lp(f, phis, x_bar, eps, eps_prime, xstar, ray=None, max_mu=None):
    """Homogenized LP for x* in the union over alpha > 0 and mu >= 0 of
    d_{alpha*eps+eps'}(alpha f + sum_j mu_j phi_j)(x_bar).

    Columns: lam on the pieces of f (summing to alpha), nu on the pieces of
    each phi_j (summing to mu_j), eta on the rows of the `joint_domain` of f
    and the phi_j, alpha, and the ray parameter t when `ray` = (d_eps', d_x*)
    is given ((eps', x*) then moves to (eps' + t*d_eps', x* + t*d_x*)). Rows: the
    slopes, alpha = sum lam, the budget and, with `max_mu`, sum nu <= max_mu.
    Returns (lp, alpha column, t column or None).
    """
    b = _LpBuilder()
    lam = b.vars(len(f.pieces))
    nus = [b.vars(len(phi.pieces)) for phi in phis]
    dom = joint_domain(f.n, (f, *phis))
    eta = b.vars(dom.m)
    alpha = b.vars(1)[0]
    t = b.vars(1)[0] if ray is not None else None

    # (column, slope, budget coefficient) of every multiplier on an affine row
    terms = [(v, p.a, p.b) for v, p in zip(lam, f.pieces)]
    for phi, nu in zip(phis, nus):
        terms += [(v, p.a, p.b) for v, p in zip(nu, phi.pieces)]
    terms += [(v, row, -rhs) for v, row, rhs in zip(eta, dom.a, dom.b)]
    for j in range(f.n):
        coeffs = {v: a[j] for v, a, _ in terms}
        if ray is not None:
            coeffs[t] = -ray[1][j]
        b.row(coeffs, "=", xstar[j])
    b.row({alpha: _ONE, **{v: -_ONE for v in lam}}, "=", _ZERO)
    budget = {v: off for v, _, off in terms}
    budget[alpha] = -(f.value(x_bar) - eps)
    if ray is not None:
        budget[t] = _dot(ray[1], x_bar) + ray[0]
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


def essential_check(f, region, x_bar, eps) -> bool:
    """inf of f over the region is strictly below f(x_bar) - eps.

    `region` is None for the whole space, or a list of polyhedral functions
    phi constraining phi(x) <= 0. An infeasible region yields False.
    """
    if not f.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    inf_val, _ = epigraph_inf(f, region or ())
    if inf_val is None:
        return False
    if inf_val == NEG_INF:
        return True
    return inf_val < f.value(x_bar) - rat(eps)


def slater_check(G, f) -> bool:
    """Is there x0 in dom f and dom G with every g_j(x0) < 0?

    Decided by the infimum of max_j g_j over dom f and dom G: strict
    feasibility means it is negative (or -inf).
    """
    G = tuple(G)
    if not G:
        return True
    max_g = PolyhedralConvexFunction(
        f.n, tuple(p for g in G for p in g.pieces), joint_domain(f.n, (f, *G))
    )
    inf_val, _ = epigraph_inf(max_g)
    return inf_val is not None and inf_val < 0


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One logged membership probe. A vertex check tests the point
    (eps_prime, generator); a ray check tests the ray with direction
    (eps_prime, generator) = (sigma_r, C_r) from h's first generator."""

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


def _mode_ray_check(mode, problem, base, ray) -> MembershipEvidence:
    lp, _alpha, t = _membership_lp(mode, problem, *base, ray=ray)
    res = lp_max_component(lp, t)
    accepted = res.value == INF
    witness = res.outcome.point if accepted else None
    return MembershipEvidence(accepted, res.value, res.lp, res.outcome, witness)


def verify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """Run the applicability gates, then one inclusion check per generator of
    d_eps' h(x_bar) over all eps' >= 0; the first failure refutes with an
    exact witness."""
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

    points, rays = subdiff_epigraph(h, x_bar)
    for eps_prime, slope in points:
        ev = _mode_member(mode, problem, eps_prime, slope)
        if out := check(eps_prime, slope, ev):
            return out
    base = points[0]
    for ray in rays:
        ev = _mode_ray_check(mode, problem, base, ray)
        log.append(CheckRecord(*ray, "ray", ev.member, ev))
        if not ev.member:
            # The ray leaves the union at t = sup; refute on the point of E
            # one step beyond it.
            if ev.sup == NEG_INF:
                raise RuntimeError("the ray's base point left the union")
            t_out = ev.sup + 1
            eps_prime = base[0] + t_out * ray[0]
            xstar = tuple(b + t_out * r for b, r in zip(base[1], ray[1]))
            ev = _mode_member(mode, problem, eps_prime, xstar)
            if ev.member:
                raise RuntimeError("a subgradient beyond the ray's sup was accepted")
            return check(eps_prime, xstar, ev)
    return verdict(CERTIFIED)


def falsify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """The same exact decision as verify(); the verdict's `witness` property
    carries the refuting (eps', x*) pair, if any."""
    return verify(problem, mode)
