"""Finite-sample bicriteria machinery: preorders, eps-sigma-efficient sets,
the bridge between the reverse program and its bicriteria counterpart, the
intersection identity for efficient sets, the strong-subdifferential product
formula, and the r = 2 scalarization check.

Proper efficiency (sigma = p) is excluded from set scans: it is a union over
an infinite cone family, and only its scalarization-side sufficient test is
needed here (strictly positive weights in `scalarization_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lp import INF, NEG_INF, LinearProgram, Unbounded, lp_max_component, lp_solve
from .model import InputError, PolyhedralConvexFunction, rat
from .oracle import GridSpec
from .subdiff import SubdiffQuery, subdiff_member

__all__ = [
    "ParetoSample",
    "SIGMA_KINDS",
    "vdom",
    "eff_set",
    "grid_sample",
    "bridge_check",
    "BridgeReport",
    "reee_check",
    "ReeeReport",
    "product_rule_check",
    "scalarization_check",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

SIGMA_KINDS = ("s", "e", "w")


@dataclass(frozen=True)
class ParetoSample:
    """A discretized feasible set with exact criterion images.

    `images[i]` is a tuple of scalars, or None for the distinguished +infinity
    (point outside dom F). The ordering cone is the nonnegative orthant R^r_+.
    """

    r: int
    points: tuple
    images: tuple

    def __post_init__(self):
        if self.r < 1:
            raise InputError("criteria count must be >= 1")
        if len(self.points) != len(self.images):
            raise InputError("points/images length mismatch")
        imgs = []
        for img in self.images:
            if img is None:
                imgs.append(None)
                continue
            img = tuple(rat(v) for v in img)
            if len(img) != self.r:
                raise InputError("image length mismatch")
            imgs.append(img)
        object.__setattr__(self, "images", tuple(imgs))


def vdom(y, yp, rel: str) -> bool:
    """Orthant preorder comparisons: 'le' (<=), 'lt' (<), 'lneq' (<= and !=)."""
    if len(y) != len(yp):
        raise InputError("vector length mismatch")
    if rel == "le":
        return all(a <= b for a, b in zip(y, yp))
    if rel == "lt":
        return all(a < b for a, b in zip(y, yp))
    if rel == "lneq":
        return all(a <= b for a, b in zip(y, yp)) and tuple(y) != tuple(yp)
    raise InputError(f"unknown relation {rel!r}")


def _sigma_dominates(y, yp, sigma: str) -> bool:
    """y <^sigma yp for the orthant cone."""
    if sigma == "s":
        return not vdom(yp, y, "le")  # not (y >= yp)
    if sigma == "w":
        return vdom(y, yp, "lt")
    if sigma == "e":
        return vdom(y, yp, "lneq")
    raise InputError(f"unknown sigma {sigma!r}")


def eff_set(sample: ParetoSample, eps, sigma: str) -> tuple[int, ...]:
    """Indices of the eps-sigma-efficient sample points (exact scan)."""
    if sigma not in SIGMA_KINDS:
        raise InputError(f"unknown sigma {sigma!r}")
    eps = tuple(rat(v) for v in eps)
    if len(eps) != sample.r:
        raise InputError("eps length mismatch")
    kept = []
    for i, img in enumerate(sample.images):
        if img is None:
            continue
        shifted = tuple(a - e for a, e in zip(img, eps))
        if any(
            other is not None and _sigma_dominates(other, shifted, sigma)
            for other in sample.images
        ):
            continue
        kept.append(i)
    return tuple(kept)


# -- the (ROP) <-> (BOP) bridge -----------------------------------------------


def grid_sample(f, h, box, step) -> tuple[ParetoSample, GridSpec]:
    """Sample of the bicriteria map x -> (f(x), -h(x)) over a rational grid."""
    grid = GridSpec(tuple(box), step)
    points, images = [], []
    for pt in grid.points():
        points.append(pt)
        fv, hv = f.value(pt), h.value(pt)
        if fv == INF or hv == INF:
            images.append(None)
        else:
            images.append((fv, -hv))
    return ParetoSample(2, tuple(points), tuple(images)), grid


@dataclass(frozen=True)
class BridgeReport:
    vacuous: bool
    eps_argmin: tuple[int, ...]
    weak_set: tuple[int, ...]
    eff_set: tuple[int, ...]
    missing_from_weak: tuple[int, ...]  # eps-argmin not weakly efficient
    missing_from_argmin: tuple[int, ...]  # efficient boundary point not eps-argmin

    @property
    def passed(self) -> bool:
        return not self.missing_from_weak and not self.missing_from_argmin


def bridge_check(f, h, box, step, eps) -> BridgeReport:
    """Both implications of the reverse-to-bicriteria bridge on one grid:
    the eps-argmin over {h >= 0} lands in the weak set, and efficient points
    on the boundary {h = 0} land back in the eps-argmin."""
    eps = rat(eps)
    sample, _grid = grid_sample(f, h, box, step)
    feasible = [
        i
        for i, pt in enumerate(sample.points)
        if h.value(pt) != INF and h.value(pt) >= 0
    ]
    finite = [i for i in feasible if f.value(sample.points[i]) != INF]
    if not finite:
        return BridgeReport(True, (), (), (), (), ())
    best = min(f.value(sample.points[i]) for i in finite)
    argmin = tuple(
        i for i in finite if f.value(sample.points[i]) <= best + eps
    )
    weak = eff_set(sample, (eps, _ZERO), "w")
    eff = eff_set(sample, (eps, _ZERO), "e")
    boundary_eff = [i for i in eff if h.value(sample.points[i]) == 0]
    missing_weak = tuple(i for i in argmin if i not in set(weak))
    missing_arg = tuple(i for i in boundary_eff if i not in set(argmin))
    return BridgeReport(False, argmin, weak, eff, missing_weak, missing_arg)


# -- the efficient-set intersection identity -----------------------------------


@dataclass(frozen=True)
class ReeeReport:
    inclusions: tuple  # (eps', holds) per listed eps'
    witnesses: tuple  # (excluded index, witness eps', excluded at witness)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.inclusions) and all(
            ok for _, _, ok in self.witnesses
        )


def reee_check(sample: ParetoSample, eps, eps_prime_list) -> ReeeReport:
    """E^e_eps equals the intersection of E^e_{eps+eps'} over eps' >= 0, != 0:
    the listed eps' check the easy inclusion, and every excluded point is
    re-excluded at the constructive halved witness shift."""
    eps = tuple(rat(v) for v in eps)
    base = set(eff_set(sample, eps, "e"))
    inclusions = []
    for ep in eps_prime_list:
        ep = tuple(rat(v) for v in ep)
        if not (all(v >= 0 for v in ep) and any(v > 0 for v in ep)):
            raise InputError("eps' entries must be >= 0 and not all zero")
        bigger = set(eff_set(sample, tuple(a + b for a, b in zip(eps, ep)), "e"))
        inclusions.append((ep, base <= bigger))
    witnesses = []
    for i, img in enumerate(sample.images):
        if img is None or i in base:
            continue
        dominator = next(
            other
            for other in sample.images
            if other is not None
            and vdom(other, tuple(a - e for a, e in zip(img, eps)), "lneq")
        )
        witness = tuple((a - b - e) / 2 for a, b, e in zip(img, dominator, eps))
        still_out = i not in set(
            eff_set(sample, tuple(a + w for a, w in zip(eps, witness)), "e")
        )
        witnesses.append((i, witness, still_out))
    return ReeeReport(tuple(inclusions), tuple(witnesses))


# -- strong-subdifferential product formula ------------------------------------


def product_rule_check(components, x_bar, eps, a_matrix) -> bool:
    """A is in the strong eps-subdifferential of F = (f_1, ..., f_r) iff each
    row lies in the scalar eps_i-subdifferential; decided on the exact LP
    route and checked against the componentwise membership conjunction."""
    components = tuple(components)
    x_bar = tuple(rat(v) for v in x_bar)
    eps = tuple(rat(v) for v in eps)
    rows = tuple(tuple(rat(v) for v in row) for row in a_matrix)
    if not (len(components) == len(eps) == len(rows)):
        raise InputError("component/eps/matrix row counts differ")
    n = components[0].n
    for fn, row in zip(components, rows):
        if fn.n != n or len(row) != n:
            raise InputError("dimension mismatch")
        if not fn.is_finite_at(x_bar):
            raise InputError("x_bar must lie in every component domain")

    # Vector route: the defining inequality quantified over the joint domain.
    vector_ok = True
    for fn, row, eps_i in zip(components, rows, eps):
        b = []
        for piece in fn.pieces:
            b.append((piece.a + (-_ONE,), "<=", -piece.b))
        for other in components:
            if other.domain is not None:
                for drow, rhs in zip(other.domain.a, other.domain.b):
                    b.append((drow + (_ZERO,), "<=", rhs))
        lp = LinearProgram(
            n + 1,
            tuple(-v for v in row) + (_ONE,),
            rows=tuple(b),
        )
        out = lp_solve(lp)
        bound = fn.value(x_bar) - sum(r * x for r, x in zip(row, x_bar)) - eps_i
        if isinstance(out, Unbounded) or out.value < bound:
            vector_ok = False
            break

    product_ok = all(
        subdiff_member(SubdiffQuery(fn, x_bar, eps_i), row)
        for fn, row, eps_i in zip(components, rows, eps)
    )
    if vector_ok != product_ok:
        raise RuntimeError("product formula disagrees with the vector route")
    return vector_ok


# -- r = 2 scalarization -------------------------------------------------------


def scalarization_check(f, x_bar, eps, a_matrix, lam) -> bool:
    """Sufficient direction of the scalarization theorem for F = (f, 0):
    if the lam-combined row is a <lam, eps>-subgradient of lam o F, then no x
    strictly violates the weak-subdifferential inequality. Returns the truth
    of that implication (checked by exact refutation search)."""
    x_bar = tuple(rat(v) for v in x_bar)
    eps = tuple(rat(v) for v in eps)
    lam = tuple(rat(v) for v in lam)
    rows = tuple(tuple(rat(v) for v in row) for row in a_matrix)
    if len(eps) != 2 or len(lam) != 2 or len(rows) != 2:
        raise InputError("the bridge scalarization is bicriteria (r = 2)")
    if any(v < 0 for v in lam) or all(v == 0 for v in lam):
        raise InputError("lambda must be >= 0 and nonzero")
    n = f.n
    if not f.is_finite_at(x_bar):
        raise InputError("x_bar must lie in dom f")

    lam1, lam2 = lam
    if lam1 > 0:
        scalar_fn = f.scaled(lam1)
    else:
        # lam o F collapses to the zero function on dom f.
        scalar_fn = PolyhedralConvexFunction(n, (((_ZERO,) * n, _ZERO),), f.domain)
    combined = tuple(lam1 * a + lam2 * b for a, b in zip(rows[0], rows[1]))
    budget = lam1 * eps[0] + lam2 * eps[1]
    scalar_side = subdiff_member(SubdiffQuery(scalar_fn, x_bar, budget), combined)
    if not scalar_side:
        return True  # vacuous implication

    # Refutation search: x with F(x) strictly below F(x_bar) + A(x-x_bar) - eps
    # in both criteria, via a maximized common slack.
    b = []
    a1, a2 = rows
    f_bar = f.value(x_bar)
    for piece in f.pieces:
        coeffs = tuple(pa - r for pa, r in zip(piece.a, a1)) + (_ONE,)
        rhs = f_bar - sum(r * x for r, x in zip(a1, x_bar)) - eps[0] - piece.b
        b.append((coeffs, "<=", rhs))
    coeffs = tuple(-r for r in a2) + (_ONE,)
    rhs = -sum(r * x for r, x in zip(a2, x_bar)) - eps[1]
    b.append((coeffs, "<=", rhs))
    if f.domain is not None:
        for drow, drhs in zip(f.domain.a, f.domain.b):
            b.append((drow + (_ZERO,), "<=", drhs))
    lp = LinearProgram(n + 1, (_ZERO,) * (n + 1), rows=tuple(b))
    res = lp_max_component(lp, n)
    violated = res.value == INF or (res.value != NEG_INF and res.value > 0)
    return not violated
