"""Theorem engines deciding the epsilon-optimality characterizations.

Every mode checks one inclusion, for each eps' >= 0,

    d_eps' h(x_bar)  in  U_{alpha > 0, mu >= 0}
                         d_{alpha*eps + eps'}(alpha f + sum_j mu_j phi_j)(x_bar),

and only the list phi changes: () for rop, (h,) for equality and convex, G for
constrained. One homogenized membership LP (`membership_lp`) decides every
test: multipliers on the pieces of f sum to alpha, those on the pieces of
phi_j to mu_j >= 0, and "alpha > 0" is decided by maximizing alpha and
requiring a positive supremum. Its budget row measures alpha f + sum mu_j phi_j against
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
(eps', x*) of the polyhedron of `membership_lp` (eps' and x* read as variables)
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

from .lp import INF, NEG_INF, LinearProgram, Optimal, Unbounded, lp_solve
from .model import (
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _dot,
    rat,
)
from .subdiff import (
    SubdiffQuery,
    epigraph_inf,
    joint_domain,
    subdiff_epigraph,
    subdiff_member,
)

# Unused here; they stay bound because bench/spans.py traces them at this module.
from .lp import lp_max_component  # noqa: F401
from .subdiff import subdiff_vrep  # noqa: F401

__all__ = [
    "MembershipEvidence",
    "CheckRecord",
    "CertificateVerdict",
    "essential_check",
    "slater_check",
    "membership_lp",
    "union_member",
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


# -- the membership probe -----------------------------------------------------


@dataclass(frozen=True)
class MembershipEvidence:
    """Outcome of one homogenized membership probe.

    `sup` is the supremum of alpha (or of the ray parameter t): the optimal
    value, INF when unbounded, NEG_INF when infeasible. `outcome` is the
    certified LP outcome backing it, stated against `lp`, the probe solved.
    """

    member: bool
    sup: object
    lp: LinearProgram
    outcome: object


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


def membership_lp(problem: ReverseProblem, mode, eps_prime, xstar, ray=None):
    """The probe LP for x* in the union over alpha > 0 and mu >= 0 of
    d_{alpha*eps+eps'}(alpha f + sum_j mu_j phi_j)(x_bar), with `mode`'s phi.

    Nonnegative columns: lam on the pieces of f (summing to alpha), nu on the
    pieces of each phi_j (summing to mu_j), eta on the rows of the
    `joint_domain` of f and the phi_j, alpha, and the ray parameter t when
    `ray` = (d_eps', d_x*) is given ((eps', x*) then moves to
    (eps' + t*d_eps', x* + t*d_x*)). Rows: the slopes, alpha = sum lam and the
    budget. The objective maximizes the last column: alpha, or t.
    """
    f, phis, x_bar = problem.objective, _phis(mode, problem), problem.point
    dom = joint_domain(f.n, (f, *phis))
    # (slope, coefficient in alpha = sum lam, budget coefficient) per column
    cols = [(p.a, -_ONE, p.b) for p in f.pieces]
    cols += [(p.a, _ZERO, p.b) for phi in phis for p in phi.pieces]
    cols += [(row, _ZERO, -rhs) for row, rhs in zip(dom.a, dom.b)]
    cols.append(((_ZERO,) * f.n, _ONE, problem.epsilon - f.value(x_bar)))
    if ray is not None:
        d_eps, d_x = ray
        cols.append((tuple(-v for v in d_x), _ZERO, _dot(d_x, x_bar) + d_eps))
    slopes, alpha_row, budget = zip(*cols)
    rows = [([s[j] for s in slopes], "=", xstar[j]) for j in range(f.n)]
    rows.append((alpha_row, "=", _ZERO))
    rows.append((budget, ">=", -_dot(xstar, x_bar) - eps_prime))
    n = len(cols)
    return LinearProgram(n, (_ZERO,) * (n - 1) + (_ONE,), "max", rows, (_ZERO,) * n)


def _probe(lp: LinearProgram, ray=False) -> MembershipEvidence:
    """Solve a probe: a point is a member when sup alpha > 0, a ray when t is
    unbounded."""
    outcome = lp_solve(lp)
    if isinstance(outcome, Optimal):
        sup = outcome.value
    else:
        sup = INF if isinstance(outcome, Unbounded) else NEG_INF
    return MembershipEvidence(sup == INF if ray else sup > 0, sup, lp, outcome)


def _point_gates(problem: ReverseProblem, mode):
    """The gates on x_bar itself, in order, as (name, passed, reason); lazy,
    so a caller that stops at the first failure evaluates no further gate."""
    f, h, x_bar = problem.objective, problem.reverse, problem.point
    yield "dom-f", f.is_finite_at(x_bar), "point-off-domain"
    if mode == "convex":
        yield "h<=0", h.value(x_bar) <= 0, "point-off-domain"
        return
    yield "h=0", h.value(x_bar) == 0, "point-not-on-boundary"
    if mode == "constrained":
        feasible = all(g.value(x_bar) <= 0 for g in problem.constraints)
        yield "G<=0", feasible, "point-off-domain"


def union_member(problem: ReverseProblem, mode, eps_prime, xstar) -> MembershipEvidence:
    """Is x* in `mode`'s union at eps'? Raises Inapplicable, with the reason
    `verify` reports, when a gate on x_bar fails."""
    _phis(mode, problem)  # rejects an unknown mode before any gate
    for _name, ok, reason in _point_gates(problem, mode):
        if not ok:
            raise Inapplicable(reason)
    return _probe(membership_lp(problem, mode, eps_prime, xstar))


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


def verify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """Run the applicability gates, then one inclusion check per generator of
    d_eps' h(x_bar) over all eps' >= 0; the first failure refutes with an
    exact witness."""
    phis = _phis(mode, problem)
    f, h = problem.objective, problem.reverse
    x_bar, eps = problem.point, problem.epsilon
    gates = []
    log = []

    def verdict(tag, **kw):
        return CertificateVerdict(tag, mode, gates=tuple(gates), log=tuple(log), **kw)

    def gate(name, ok, reason):
        gates.append((name, ok))
        return None if ok else verdict(INAPPLICABLE, reason=reason)

    def check(eps_prime, xstar):
        ev = _probe(membership_lp(problem, mode, eps_prime, xstar))
        log.append(CheckRecord(eps_prime, xstar, "vertex", ev.member, ev))
        if ev.member:
            return None
        return verdict(
            REFUTED,
            witness_eps_prime=eps_prime,
            witness_xstar=xstar,
            witness_evidence=ev,
        )

    for name, ok, reason in _point_gates(problem, mode):
        if out := gate(name, ok, reason):
            return out

    if mode == "convex":
        zero = (_ZERO,) * problem.n
        return check(_ZERO, zero) or verdict(CERTIFIED)

    if not essential_check(f, phis, x_bar, eps):
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
        if out := check(eps_prime, slope):
            return out
    base = points[0]
    for ray in rays:
        ev = _probe(membership_lp(problem, mode, *base, ray=ray), ray=True)
        log.append(CheckRecord(*ray, "ray", ev.member, ev))
        if not ev.member:
            # The ray leaves the union at t = sup; refute on the point of E
            # one step beyond it.
            if ev.sup == NEG_INF:
                raise RuntimeError("the ray's base point left the union")
            t_out = ev.sup + 1
            eps_prime = base[0] + t_out * ray[0]
            xstar = tuple(b + t_out * r for b, r in zip(base[1], ray[1]))
            out = check(eps_prime, xstar)
            if out is None:
                raise RuntimeError("a subgradient beyond the ray's sup was accepted")
            return out
    return verdict(CERTIFIED)


def falsify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """The same exact decision as verify(); the verdict's `witness` property
    carries the refuting (eps', x*) pair, if any."""
    return verify(problem, mode)
