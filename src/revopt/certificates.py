"""Theorem engines deciding the epsilon-optimality characterizations.

Every mode is decided as rop. Rop checks one inclusion, for each eps' >= 0,

    d_eps' h(x_bar)  in  U_{alpha > 0} d_{alpha*eps + eps'}(alpha f)(x_bar),

and every other mode is rop on its lifted problem (`_lifted`), with f
replaced by f~ = f + delta{phi <= 0}: each piece (a, b) of each phi_j becomes
a domain row a.x <= -b. Constrained mode is rop on f + delta{G <= 0};
equality mode is rop on f + delta{h <= 0}, where h >= 0 leaves {h = 0}; convex
mode is the single test at (eps', x*) = (0, 0) on f + delta{h <= 0}. Rop's
characterization holds for any polyhedral f with a domain and needs no
constraint qualification (Rockafellar, Convex Analysis, Thm. 23.8, the
polyhedral sum rule), so no mode asks for a Slater point, and the gates on
x_bar put it in the mode's feasible set, which lies in dom f~.

One homogenized membership LP (`membership_lp`) decides every test: lam on
the pieces of f sum to alpha, eta >= 0 sit on the domain rows, and
"alpha > 0" is decided by maximizing alpha = sum lam and requiring a positive
supremum; alpha has no column of its own. Its budget row measures alpha f
against alpha (f(x_bar) - eps) - eps'.

The quantifier over eps' is discharged exactly. Let E = {(eps', s) :
eps' >= 0, s in d_eps' h(x_bar)} and W = {(eps', x*) : x* in the union at
eps'}. By `subdiff_epigraph`, E = conv{(delta_i, a_i)} + cone{(1, 0),
(sigma_r, C_r)} over the pieces i and the domain rows r of h. Every row of
`membership_lp`'s polyhedron P is homogeneous in (eps', x*, lam, eta), so
W, its projection onto (eps', x*) cut by alpha > 0, is a convex cone, and its
closure K is the projection with alpha >= 0: the (eps', x*) whose probe is
feasible. A closed convex cone is its own recession cone (Rockafellar,
Convex Analysis, section 8), so a direction recedes in W exactly when it
lies in K, and E is inside W exactly when:

- every point (delta_i, a_i) lies in W: its probe's sup alpha is > 0;
- the ray (1, 0) recedes in W: nothing to check, since raising eps' only
  relaxes the budget row;
- every ray (sigma_r, C_r) lies in K: its probe is feasible. Rejected, the
  probe's Farkas vector gives a linear form L (`_farkas_form`) that is >= 0
  on K, so at the accepted (delta_0, a_0), and < 0 at the ray, so the ray's
  point from (delta_0, a_0) at t = L(delta_0, a_0) / -L(ray) + 1 is outside K.

Every failure therefore exhibits an exact point of E outside W, logged as the
last (vertex) check. Refutations are exact by the necessity direction of the
characterization and positive verdicts by its sufficiency; the positive tag
keeps its historical name CERTIFIED_ON_GRID, which reports and tools match.

Necessity needs the essential assumption: inf f~ is below f(x_bar) - eps. By
LP duality the probe at (eps', x*) = (0, 0) accepts exactly when it is not,
so that one probe is the `essential` gate: accepted, it proves
eps-optimality and certifies as the decision's single vertex check, as it
decides convex mode; rejected, the gate passes and carries the point z of
dom f~ with f(z) < f(x_bar) - eps that the probe's dual names
(`CertificateVerdict.essential`). `essential_check` computes the same gate
from the primal side and is kept as its reference.

A decision builds only what it reads. The lift's domain image is read off
phi's, the template is built from its integer columns and every point probe
from its right-hand sides in integers, so no probe's `Fraction` rows are made
unless a certificate check or a tracer reads them. The gates on x_bar compare
each function's largest scaled piece with 0 in integers, and E's generators
are read off the problem's integer image of x_bar.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .lp import NEG_INF, LinearProgram, lp_solve, lp_value
from .model import (
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _over_common_den,
    _record,
    _restricted,
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

MODES = ("rop", "constrained", "equality", "convex")

CERTIFIED = "CERTIFIED_ON_GRID"
REFUTED = "REFUTED"
INAPPLICABLE = "INAPPLICABLE"


# -- the membership probe -----------------------------------------------------


@_record
class MembershipEvidence:
    """Outcome of one homogenized membership probe.

    `sup` is the supremum of alpha = sum lam: the optimal value, INF when
    unbounded, NEG_INF when infeasible. `outcome` is the certified LP
    outcome backing it, stated against `lp`, the probe solved.
    """

    member: bool
    sup: object
    lp: LinearProgram
    outcome: object


def _lifted(problem: ReverseProblem, mode) -> ReverseProblem:
    """`mode`'s problem P~ = (f~, h, x_bar, eps) to decide as rop: the problem
    itself in rop mode, else f~ = f + delta{phi <= 0} (`_restricted`) with
    phi = G in constrained mode and (h,) in equality and convex mode.
    Memoised in the problem's instance dict: it lives and dies with it."""
    if mode == "rop":
        return problem
    memo = vars(problem).setdefault("_lifted", {})
    if mode not in memo:
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}")
        phis = problem.constraints if mode == "constrained" else (problem.reverse,)
        memo[mode] = _restricted(problem, phis)
    return memo[mode]


def _probe_template(problem: ReverseProblem) -> LinearProgram:
    """The rop probe (`membership_lp`) with every right-hand side zero. Its
    columns lam and eta, in that order, each have a slope (their n rows) and
    a budget coefficient, the pieces' and domain rows' own values; each lam's
    also takes in alpha's, eps - f(x_bar). The LP is built from its columns in
    integers alone, read off the images of f, of its domain rows and of x_bar
    (`LinearProgram._cone`): its solve starts from them, and its `Fraction`
    rows are made only if something reads them."""
    f = problem.objective
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
    if f.domain is not None:
        columns += [(a, d, -b, d) for a, b, d in f.domain._rows]
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


def membership_lp(problem: ReverseProblem, mode, eps_prime, xstar) -> LinearProgram:
    """The probe LP for x* in the union over alpha > 0 of
    d_{alpha*eps+eps'}(alpha f~)(x_bar), f~ the objective of `mode`'s lifted
    problem (`_lifted`). Nonnegative columns: lam on the pieces of f~ and eta
    on the rows of its domain. alpha = sum lam is not a column: its budget
    coefficient eps - f(x_bar) joins each lam's. Rows: the n slopes (= x*) and
    the budget (>= -<x*, x_bar> - eps'). The objective maximizes sum lam; read
    by feasibility, the probe decides a ray's direction (`probe_evidence`).

    Only the right-hand sides depend on the check. The template, the probe
    with every right-hand side zero and so the probe at (0, 0), is built once
    per lifted problem from the integer images (`_probe_template`) and
    memoised in its instance dict, so it lives and dies with the problem.
    Any other probe is the template with its right-hand sides, computed in
    integers off the images of x_bar and x* (`_probe_rhs`), swapped in by
    `LinearProgram.with_rhs`: its solve re-solves from the template's optimal
    tableau (`lp_solve`), and its `Fraction` rows and its oriented system,
    the template's rescaled, are made only if read."""
    lifted = _lifted(problem, mode)
    template = vars(lifted).get("_probe_template")
    if template is None:
        template = vars(lifted)["_probe_template"] = _probe_template(lifted)
    if not eps_prime and not any(xstar):
        return template  # the probe at (0, 0) is the template itself
    return template.with_rhs(image=_probe_rhs(lifted, eps_prime, xstar))


def probe_evidence(lp: LinearProgram, outcome, ray=False) -> MembershipEvidence:
    """Read a probe's outcome: a point is a member when sup alpha > 0, a ray
    direction when the probe is feasible (sup alpha > -inf). Solves nothing,
    so `replay` re-reads logged checks."""
    sup = lp_value(lp, outcome)
    return MembershipEvidence(sup != NEG_INF if ray else sup > 0, sup, lp, outcome)


def _probe(lp: LinearProgram, ray=False) -> MembershipEvidence:
    return probe_evidence(lp, lp_solve(lp), ray)


def _farkas_form(y, x_bar, eps_prime, xstar):
    """L(eps', x*) = y . b' for the oriented right-hand sides b' of the probe
    at (eps', x*): x*, the budget row's <x*, x_bar> + eps', then 0 on the
    bounds. A Farkas vector y of one probe makes L < 0 at its point, >= 0 on K."""
    n = len(xstar)
    return sum(map(mul, y, xstar)) + y[n] * (sum(map(mul, xstar, x_bar)) + eps_prime)


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
    lifted = _lifted(problem, mode)  # rejects an unknown mode before any gate
    for _name, ok, reason in _point_gates(problem, mode):
        if not ok:
            raise Inapplicable(reason)
    return _probe(membership_lp(lifted, "rop", eps_prime, xstar))


# -- gate references -----------------------------------------------------------


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


# No decision runs it: every mode is decided on its lifted problem, which
# needs no Slater point. It stays as a reference because bench/spans.py
# traces it at this module.
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


@_record
class CheckRecord:
    """One logged membership probe at (eps_prime, generator). A vertex check
    tests that point; a ray check tests the direction (sigma_r, C_r) of a
    ray of E, which passes when its probe is feasible."""

    eps_prime: Fraction
    generator: tuple
    kind: str  # "vertex" or "ray"
    evidence: MembershipEvidence  # the check passed iff evidence.member


@_record
class CertificateVerdict:
    tag: str
    mode: str
    reason: str | None = None
    gates: tuple = ()
    log: tuple = ()
    essential: tuple | None = None  # a passed essential gate's point z

    @property
    def witness(self):
        """A refutation's (eps', x*): the point of its last, failed check."""
        if self.tag != REFUTED:
            return None
        return (self.log[-1].eps_prime, self.log[-1].generator)


def verify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """Run the gates on x_bar, then decide `mode` as rop on its lifted
    problem (`_lifted`): one inclusion check per generator of d_eps' h(x_bar)
    over all eps' >= 0, the first failure refuting with an exact witness.
    The check at (0, 0) decides convex mode and, in the other modes, the
    essential gate: accepted, it certifies on its own."""
    lifted = _lifted(problem, mode)  # rejects an unknown mode before any gate
    gates, log, essential = [], [], None

    def verdict(tag, reason=None):
        return CertificateVerdict(tag, mode, reason, tuple(gates), tuple(log), essential)

    for name, ok, reason in _point_gates(problem, mode):
        gates.append((name, ok))
        if not ok:
            return verdict(INAPPLICABLE, reason=reason)

    def check(eps_prime, xstar):
        ev = _probe(membership_lp(lifted, "rop", eps_prime, xstar))
        log.append(CheckRecord(eps_prime, xstar, "vertex", ev))
        return None if ev.member else verdict(REFUTED)

    # Accepted, the probe at (0, 0) proves x_bar eps-optimal over dom f~,
    # which holds the feasible set; rejected, it proves the essential
    # assumption, which only a refutation needs, and the passed gate carries
    # the point z that its dual names.
    zero = (_ZERO,) * problem.n
    ev = _probe(membership_lp(lifted, "rop", _ZERO, zero))
    if mode != "convex":
        gates.append(("essential", not ev.member))
    if ev.member or mode == "convex":
        log.append(CheckRecord(_ZERO, zero, "vertex", ev))
        return verdict(CERTIFIED if ev.member else REFUTED)
    # Its dual's slope entries y and budget entry u >= 0 put z = -y/u in dom f~
    # with each piece of f at most f(x_bar) - eps - 1/u there; with u = 0, -y
    # recedes in dom f~ and lowers each piece by >= 1 per unit step.
    y, u, step = ev.outcome.dual[: problem.n], ev.outcome.dual[problem.n], problem.epsilon + 1
    essential = tuple(-v / u if u else x - step * v for x, v in zip(problem.point, y))

    points, rays = subdiff_epigraph(problem.reverse, problem.point, problem._point_image)
    for eps_prime, slope in points:
        if out := check(eps_prime, slope):
            return out
    base = points[0]
    for ray in rays:
        ev = _probe(membership_lp(lifted, "rop", *ray), ray=True)
        log.append(CheckRecord(*ray, "ray", ev))
        if not ev.member:
            # L (`_farkas_form`) is >= 0 on the closed cone, so at the accepted
            # base, and < 0 at the ray: past t = L(base) / -L(ray) the ray's
            # point from the base is outside the cone.
            y, x_bar = ev.outcome.farkas, problem.point
            t_out = _farkas_form(y, x_bar, *base) / -_farkas_form(y, x_bar, *ray) + 1
            eps_prime = base[0] + t_out * ray[0]
            xstar = tuple(b + t_out * r for b, r in zip(base[1], ray[1]))
            out = check(eps_prime, xstar)
            if out is None:
                raise RuntimeError("a point of E outside the closed cone was accepted")
            return out
    return verdict(CERTIFIED)


def falsify(problem: ReverseProblem, mode: str) -> CertificateVerdict:
    """The same exact decision as verify(); the verdict's `witness` property
    carries the refuting (eps', x*) pair, if any."""
    return verify(problem, mode)
