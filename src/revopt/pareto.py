"""Finite-sample bicriteria machinery: preorders, eps-sigma-efficient sets
(one sort for two criteria), the bridge between the reverse program and its
bicriteria counterpart (on the oracle's integer grid values), and the
intersection identity for efficient sets.

Proper efficiency (sigma = p) is excluded from set scans: it is a union over
an infinite cone family.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import and_, itemgetter, le, lt

# lp_solve and lp_max_component stay bound here because bench/spans.py traces them.
from .lp import lp_max_component, lp_solve  # noqa: F401
from .model import INF, SIGMA_KINDS, InputError, _record, rat
from .oracle import GridSpec, _grid_images, _shared

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
]


@_record
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
    """Indices of the eps-sigma-efficient sample points, exactly."""
    if sigma not in SIGMA_KINDS:
        raise InputError(f"unknown sigma {sigma!r}")
    eps = tuple(rat(v) for v in eps)
    if len(eps) != sample.r:
        raise InputError("eps length mismatch")
    return _efficient(sample.images, sample.r, eps, (sigma,))[0]


def _efficient(images, r: int, eps, sigmas) -> tuple[tuple[int, ...], ...]:
    """`eff_set` on images of any exactly ordered numbers, one index tuple per
    kind in `sigmas`.

    Point i is kept unless some image o satisfies o <^sigma y_i - eps. For
    sigma = s that asks for one coordinate of o below the shifted image, so the
    per-coordinate minima decide it; for r = 1 the three kinds coincide with it.
    For r = 2 one sort by the first criterion and the prefix minima of the
    second decide w and e together (the r = 2 maxima sweep of Kung, Luccio and
    Preparata, JACM 1975); r >= 3 scans all pairs.
    """
    index = [i for i, img in enumerate(images) if img is not None]
    if not index:
        return ((),) * len(sigmas)
    present = [images[i] for i in index]
    # the shifted images y_i - eps, one column per criterion
    cols = [[v - e for v in col] for col, e in zip(zip(*present), eps)]
    keep = {}
    if r == 1 or "s" in sigmas:
        lows = [min(col) for col in zip(*present)]
        keep["s"] = [not any(map(lt, lows, t)) for t in zip(*cols)]
        if r == 1:
            keep["w"] = keep["e"] = keep["s"]
    if r == 2 and ("w" in sigmas or "e" in sigmas):
        t1s, t2s = cols
        ordered = sorted(present, key=itemgetter(0))
        firsts = list(map(itemgetter(0), ordered))
        # below[c]: the least second coordinate among the c least first ones
        below = [INF, *accumulate(map(itemgetter(1), ordered), min)]
        # w: some o < t, that is o1 < t1 and o2 < t2. e: some o <= t with
        # o != t, that is o1 < t1 and o2 <= t2, or o1 <= t1 and o2 < t2.
        left = list(map(below.__getitem__, map(bisect_left, repeat(firsts), t1s)))
        keep["w"] = list(map(le, t2s, left))
        if "e" in sigmas:
            right = map(below.__getitem__, map(bisect_right, repeat(firsts), t1s))
            keep["e"] = list(map(and_, map(lt, t2s, left), map(le, t2s, right)))
    if r > 2:
        shifted = list(zip(*cols))
        for sigma in set(sigmas) - {"s"}:
            keep[sigma] = [
                not any(_sigma_dominates(o, t, sigma) for o in present) for t in shifted
            ]
    return tuple(tuple(compress(index, keep[sigma])) for sigma in sigmas)


# -- the (ROP) <-> (BOP) bridge -----------------------------------------------


def grid_sample(f, h, box, step) -> tuple[ParetoSample, GridSpec]:
    """Sample of the bicriteria map x -> (f(x), -h(x)) over a rational grid."""
    grid = GridSpec(tuple(box), step)
    images, f_scale, h_scale = _grid_images(f, h, grid)
    images = tuple(
        None if img is None else (Fraction(img[0], f_scale), Fraction(img[1], h_scale))
        for img in images
    )
    return ParetoSample(2, tuple(grid.points()), images), grid


@_record
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
    # Scaling each criterion by a positive factor, and eps with f, keeps
    # every set below.
    images, f_scale, _ = _grid_images(f, h, GridSpec(tuple(box), step), (eps,))
    return _bridge(images, f_scale // eps.denominator * eps.numerator)


def _bridge(images, eps) -> BridgeReport:
    """`bridge_check` on grid images already taken: images[i] is (f, -h) at
    point i, or None off dom f or dom h."""
    finite = [i for i, img in enumerate(images) if img is not None and img[1] <= 0]
    if not finite:
        return BridgeReport(True, (), (), (), (), ())
    best = min(images[i][0] for i in finite)
    argmin = tuple(i for i in finite if images[i][0] <= best + eps)
    weak, eff = _efficient(images, 2, (eps, 0), ("w", "e"))
    weak_set, argmin_set = set(weak), set(argmin)
    missing_weak = tuple(i for i in argmin if i not in weak_set)
    missing_arg = tuple(i for i in eff if images[i][1] == 0 and i not in argmin_set)
    return _shared(BridgeReport, False, argmin, weak, eff, missing_weak, missing_arg)


# -- the efficient-set intersection identity -----------------------------------


@_record
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

