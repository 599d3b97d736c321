"""Theorem engines deciding the epsilon-optimality characterizations.

Every mode checks one inclusion, for each eps' >= 0,

    d_eps' h(x_bar)  in  U_{alpha > 0, mu >= 0}
                         d_{alpha*eps + eps'}(alpha f + sum_j mu_j phi_j)(x_bar),

and only the list phi changes: () for rop, (h,) for equality and convex, G for
constrained. One homogenized membership LP (`membership_lp`) decides every
test: multipliers lam on the pieces of f sum to alpha, those on the pieces of
phi_j to mu_j >= 0, and "alpha > 0" is decided by maximizing alpha = sum lam
and requiring a positive supremum; alpha has no column of its own. Its budget
row measures alpha f + sum mu_j phi_j against alpha (f(x_bar) - eps) - eps'
with no mu_j phi_j(x_bar) term:

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

Necessity needs the essential assumption: inf f over R = dom f and
{phi <= 0} is below f(x_bar) - eps. R holds the mode's feasible set (f is +inf
off dom f; {h >= 0, G <= 0} lies in {G <= 0} and {h = 0} in {h <= 0}) and the
point gates put x_bar in it. By LP duality the probe at (eps', x*) = (0, 0)
accepts exactly when inf f over R >= f(x_bar) - eps, so that one probe is the
`essential` gate: accepted, it proves eps-optimality and certifies as the
decision's single vertex check, as it decides convex mode with its own phi;
rejected, the gate passes and the probe is not logged. `essential_check`
computes the same gate from the primal side and is kept as its reference.

A decision builds only what it reads. The template is built from its
integer columns and every point probe from its right-hand sides in integers,
so no probe's `Fraction` rows are made unless a ray probe, a certificate
check or a tracer reads them. The gates on x_bar compare each function's
largest scaled piece with 0 in integers, and E's generators are read off the
problem's integer image of x_bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .lp import INF, NEG_INF, LinearProgram, lp_solve, lp_value
from .model import (
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _dot,
    _over_common_den,
    rat,
)
from .subdiff import epigraph_inf, joint_domain, subdiff_epigraph

# Unused here; they stay bound because bench/spans.py traces them at this
# module. Binding subdiff_vrep loads no polytope code: subdiff binds the double
# description on first use.
from .lp import lp_max_component  # noqa: F401
from .subdiff import subdiff_member, subdiff_vrep  # noqa: F401

__all__ = [
    "MembershipEvidence",
    "CheckRecord",
    "CertificateVerdict",
    "essential_check",
    "slater_check",
    "membership_lp",
    "probe_evidence",
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

    `sup` is the supremum of alpha = sum lam (or of the ray parameter t): the
    optimal value, INF when unbounded, NEG_INF when infeasible. `outcome` is the
    certified LP outcome backing it, stated against `lp`, the probe solved.
    """

    member: bool
    sup: object
    lp: LinearProgram
    outcome: object


def _phis(mode, problem: ReverseProblem) -> tuple:
    """The functions phi_j whose multiples join alpha*f in `mode`'s union. The
    probe at (eps', x*) = (0, 0) with them decides eps-optimality over dom f
    and {phi <= 0}: convex mode's verdict, and in the other modes the
    essential gate, whose region this also is."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    h = problem.reverse
    return {
        "rop": (),
        "constrained": problem.constraints,
        "equality": (h,),
        "convex": (h,),
    }[mode]


def _probe_template(problem: ReverseProblem, mode) -> LinearProgram:
    """`mode`'s probe (`membership_lp`) with every right-hand side zero.

    Its columns lam, nu and eta, in that order, each have a slope (their n
    rows) and a budget coefficient, the pieces' and domain rows' own values;
    each lam's budget coefficient also takes in alpha's, eps - f(x_bar),
    computed in integers off the image of f. The LP is built from its
    columns in integers alone, read off the images of f, of each phi and of
    the domain rows (`LinearProgram._cone`): its solve starts from them, and
    its `Fraction` rows are made only if something reads them."""
    f, phis = problem.objective, _phis(mode, problem)
    xs, x_den = problem._point_image
    if f.domain is not None and not f.domain._holds(xs, x_den):
        raise InputError("probe: the point is off the domain of f")
    d_f, f_image = f._image
    eps = problem.epsilon
    # b_i + eps - f(x_bar) = (B_i * q / D + shift) / q
    q = d_f * x_den * eps.denominator
    shift = eps.numerator * d_f * x_den - max(f._scaled_pieces(xs, x_den)) * eps.denominator
    # per column: its slopes, their denominator, its budget coefficient and
    # that one's denominator, all ints
    columns = [(a, d_f, b * (q // d_f) + shift, q) for a, b in f_image]
    for phi in phis:
        d, image = phi._image
        columns += [(a, d, b, d) for a, b in image]
    for fn in (f, *phis):
        if fn.domain is not None:
            columns += [(a, d, -b, d) for a, b, d in fn.domain._rows]
    return LinearProgram._cone(len(f.pieces), tuple(columns))


def _probe_rhs(problem: ReverseProblem, eps_prime, xstar) -> tuple[list[int], int]:
    """The point probe's right-hand sides, x* and the budget row's
    -<x*, x_bar> - eps', in integers over one denominator, `(nums, den)`,
    computed off the images of x_bar and x*."""
    xb, xb_den = problem._point_image
    xs, xs_den = _over_common_den(xstar)
    eps_den = eps_prime.denominator
    budget = -sum(map(mul, xs, xb)) * eps_den - eps_prime.numerator * xb_den * xs_den
    scale = xb_den * eps_den
    nums = [v * scale for v in xs] if scale != 1 else xs
    nums.append(budget)
    return nums, xb_den * xs_den * eps_den


def membership_lp(problem: ReverseProblem, mode, eps_prime, xstar, ray=None):
    """The probe LP for x* in the union over alpha > 0 and mu >= 0 of
    d_{alpha*eps+eps'}(alpha f + sum_j mu_j phi_j)(x_bar), with `mode`'s phi.

    Nonnegative columns: lam on the pieces of f, nu on the pieces of each
    phi_j (summing to mu_j), eta on the rows of the `joint_domain` of f and
    the phi_j, and the ray parameter t when `ray` = (d_eps', d_x*) is given
    ((eps', x*) then moves to (eps' + t*d_eps', x* + t*d_x*)). alpha = sum lam
    is not a column: its budget coefficient eps - f(x_bar) joins each lam's.
    Rows: the n slopes (= x*) and the budget (>= -<x*, x_bar> - eps'). The
    objective maximizes sum lam, or t.

    Only the right-hand sides and the t column depend on the check. The
    template, the point probe with every right-hand side zero, is built once
    per problem and mode from the integer images (`_probe_template`), and
    memoised in the problem's own instance dict, so it lives and dies with
    the problem; `verify`, `union_member` and `replay` all reuse it. The probe
    at (eps', x*) = (0, 0) is the template itself, so `verify`'s gate solves
    it, starting from the template's integer columns; its oriented system is
    built once, and only if `replay`'s certificate check reads it. Any other
    point probe is the template with its right-hand sides swapped in by
    `LinearProgram.with_rhs`, handed them in integers over one denominator,
    computed off the images of x_bar and x* (`_probe_rhs`); its solve
    re-solves from the template's optimal tableau in those integers
    (`lp_solve`), and its `Fraction` rows, and its oriented system, the
    template's rescaled, are made only if something reads them. A ray probe
    adds the t column to the template's rows and is built with its
    right-hand sides as an LP of its own, solved from scratch: its zero
    right-hand side form would be solved only to start it.
    """
    memo = vars(problem).setdefault("_probe_templates", {})
    if mode not in memo:
        memo[mode] = _probe_template(problem, mode)
    template = memo[mode]
    if ray is None and not eps_prime and not any(xstar):
        return template  # the probe at (0, 0) is the template itself
    image = _probe_rhs(problem, eps_prime, xstar)
    if ray is None:
        return template.with_rhs(image=image)
    nums, den = image
    rhs = (*xstar, Fraction(nums[-1], den))
    d_eps, d_x = ray
    t_col = [-v for v in d_x] + [_dot(d_x, problem.point) + d_eps]
    rows = [((*a, t), rel, b) for (a, rel, _), t, b in zip(template.rows, t_col, rhs)]
    n = template.n + 1
    return LinearProgram(n, (_ZERO,) * template.n + (_ONE,), "max", rows, (_ZERO,) * n)


def probe_evidence(lp: LinearProgram, outcome, ray=False) -> MembershipEvidence:
    """Read a probe's outcome: a point is a member when sup alpha > 0, a ray
    when t is unbounded. Solves nothing, so `replay` re-reads logged checks."""
    sup = lp_value(lp, outcome)
    return MembershipEvidence(sup == INF if ray else sup > 0, sup, lp, outcome)


def _probe(lp: LinearProgram, ray=False) -> MembershipEvidence:
    return probe_evidence(lp, lp_solve(lp), ray)


def _sign(fn: PolyhedralConvexFunction, x_bar) -> int | None:
    """The sign of fn at x_bar = (nums, den), -1, 0 or 1, read off its
    largest scaled piece in integers; None off dom fn."""
    top = fn._scaled_max(*x_bar)
    return None if top is None else (top > 0) - (top < 0)


def _point_gates(problem: ReverseProblem, mode):
    """The gates on x_bar itself, in order, as (name, passed, reason); lazy,
    so a caller that stops at the first failure evaluates no further gate.
    Each sign is compared in integers (`_sign`), and off a domain a gate
    fails."""
    f, h, x_bar = problem.objective, problem.reverse, problem._point_image
    yield "dom-f", f.domain is None or f.domain._holds(*x_bar), "point-off-domain"
    if mode == "convex":
        yield "h<=0", _sign(h, x_bar) in (-1, 0), "point-off-domain"
        return
    yield "h=0", _sign(h, x_bar) == 0, "point-not-on-boundary"
    if mode == "constrained":
        feasible = all(_sign(g, x_bar) in (-1, 0) for g in problem.constraints)
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
    phi constraining phi(x) <= 0. An infeasible region yields False (its
    infimum is +inf). The primal side of the `essential` gate, one epigraph
    LP: `verify` decides the gate by its dual, the probe at (0, 0).
    """
    if not f.is_finite_at(x_bar):
        raise Inapplicable("point-off-domain")
    inf_val, _ = epigraph_inf(f, region or ())
    return inf_val < f.value(x_bar) - rat(eps)


def slater_check(G, f) -> bool:
    """Is there x0 in dom f and dom G with every g_j(x0) < 0?

    Decided by the infimum of max_j g_j over dom f and dom G: strict
    feasibility means it is negative (or -inf; +inf when they are disjoint).
    """
    G = tuple(G)
    if not G:
        return True
    max_g = PolyhedralConvexFunction(
        f.n, tuple(p for g in G for p in g.pieces), joint_domain(f.n, (f, *G))
    )
    inf_val, _ = epigraph_inf(max_g)
    return inf_val < 0


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One logged membership probe. A vertex check tests the point
    (eps_prime, generator); a ray check tests the ray with direction
    (eps_prime, generator) = (sigma_r, C_r) from h's first generator."""

    eps_prime: Fraction
    generator: tuple
    kind: str  # "vertex" or "ray"
    evidence: MembershipEvidence  # the check passed iff evidence.member


@dataclass(frozen=True)
class CertificateVerdict:
    tag: str
    mode: str
    reason: str | None = None
    gates: tuple = ()
    log: tuple = ()

    @property
    def witness(self):
        """A refutation's (eps', x*): the point of its last, failed check."""
        if self.tag != REFUTED:
            return None
        return (self.log[-1].eps_prime, self.log[-1].generator)


def verify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """Run the applicability gates, then one inclusion check per generator of
    d_eps' h(x_bar) over all eps' >= 0; the first failure refutes with an
    exact witness. The check at (0, 0) decides convex mode and, in the other
    modes, the essential gate: accepted, it certifies on its own."""
    _phis(mode, problem)  # rejects an unknown mode before any gate
    f, h = problem.objective, problem.reverse
    gates = []
    log = []

    def verdict(tag, **kw):
        return CertificateVerdict(tag, mode, gates=tuple(gates), log=tuple(log), **kw)

    def gate(name, ok, reason):
        gates.append((name, ok))
        return None if ok else verdict(INAPPLICABLE, reason=reason)

    def check(eps_prime, xstar):
        ev = _probe(membership_lp(problem, mode, eps_prime, xstar))
        log.append(CheckRecord(eps_prime, xstar, "vertex", ev))
        return None if ev.member else verdict(REFUTED)

    for name, ok, reason in _point_gates(problem, mode):
        if out := gate(name, ok, reason):
            return out

    # Accepted, the probe at (0, 0) proves x_bar eps-optimal over dom f and
    # {phi <= 0}, which holds the feasible set; rejected, it proves the
    # essential assumption (LP duality), which only a refutation needs.
    zero = (_ZERO,) * problem.n
    ev = _probe(membership_lp(problem, mode, _ZERO, zero))
    if mode != "convex":
        gates.append(("essential", not ev.member))
    if ev.member or mode == "convex":
        log.append(CheckRecord(_ZERO, zero, "vertex", ev))
        return verdict(CERTIFIED if ev.member else REFUTED)

    if mode == "constrained":
        slater = slater_check(problem.constraints, f)
        if out := gate("slater", slater, "slater-fails"):
            return out

    points, rays = subdiff_epigraph(h, problem.point, problem._point_image)
    for eps_prime, slope in points:
        if out := check(eps_prime, slope):
            return out
    base = points[0]
    for ray in rays:
        ev = _probe(membership_lp(problem, mode, *base, ray=ray), ray=True)
        log.append(CheckRecord(*ray, "ray", ev))
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
