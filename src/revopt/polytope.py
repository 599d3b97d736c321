"""Exact polyhedral geometry: H-to-V conversion, projection, pruning, membership.

`prune` reduces a generator list to its extreme generators; it is the part
the production paths use. Double description is the reference enumerator
that the tests cross-check closed forms against: `vertex_enumerate` runs it
on the homogenization cone {(x,t) : Ax - bt <= 0, t >= 0}, with rows inserted
in lexicographic order and an explicit lineality basis so unbounded and
degenerate inputs are handled exactly, and `project` prunes its projected
generators. Rays are kept as primitive integer vectors internally, which
keeps the arithmetic in machine integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .lp import INF, LinearProgram, lp_solve, lp_value
from .model import HPolyhedron, InputError, _dot, _over_common_den

__all__ = [
    "VPolytope",
    "vertex_enumerate",
    "project",
    "prune",
    "vpoly_member",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class VPolytope:
    """conv(vertices) + cone(rays); empty iff both lists are empty."""

    n: int
    vertices: tuple[tuple[Fraction, ...], ...]
    rays: tuple[tuple[Fraction, ...], ...]

    def is_empty(self) -> bool:
        return not self.vertices and not self.rays


def _primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    nums, _den = _over_common_den(vec)
    return _primitive_int(tuple(nums))


def _normalize_ray(vec) -> tuple[Fraction, ...]:
    """First nonzero coordinate scaled to absolute value 1."""
    lead = next((v for v in vec if v != 0), None)
    if lead is None:
        raise InputError("zero vector is not a ray")
    scale = _ONE / abs(Fraction(lead))
    return tuple(scale * Fraction(v) for v in vec)


class _DoubleDescription:
    """Incremental generators of {y : m . y <= 0 for inserted rows m}."""

    def __init__(self, dim: int):
        self.dim = dim
        self.lin = [
            tuple(1 if k == j else 0 for k in range(dim)) for j in range(dim)
        ]
        self.rays = []  # (primitive int vector, frozenset of tight row ids)
        self.count = 0

    def insert(self, m: tuple[int, ...]):
        k = self.count
        self.count += 1
        hit = next((i for i, l in enumerate(self.lin) if _dot(m, l) != 0), None)
        if hit is not None:
            l0 = self.lin.pop(hit)
            v0 = _dot(m, l0)
            if v0 > 0:
                l0 = tuple(-c for c in l0)
                v0 = -v0
            self.lin = [
                _primitive_int(tuple(-v0 * a + _dot(m, l) * b for a, b in zip(l, l0)))
                for l in self.lin
            ]
            new_rays = []
            for vec, zset in self.rays:
                val = _dot(m, vec)
                adj = tuple(-v0 * a + val * b for a, b in zip(vec, l0))
                new_rays.append((_primitive_int(adj), zset | {k}))
            new_rays.append((_primitive_int(l0), frozenset(range(k))))
            self.rays = new_rays
            return
        vals = [_dot(m, vec) for vec, _ in self.rays]
        keep = []
        pos, neg = [], []
        for (vec, zset), v in zip(self.rays, vals):
            if v == 0:
                keep.append((vec, zset | {k}))
            elif v < 0:
                keep.append((vec, zset))
                neg.append((vec, zset, v))
            else:
                pos.append((vec, zset, v))
        for pvec, pz, pv in pos:
            for nvec, nz, nv in neg:
                common = pz & nz
                if not self._adjacent(pvec, nvec, common):
                    continue
                combo = tuple(pv * a - nv * b for a, b in zip(nvec, pvec))
                # pv > 0 > nv, so this is a positive combination of the pair.
                if any(combo):
                    keep.append((_primitive_int(combo), common | {k}))
        self.rays = keep

    def _adjacent(self, pvec, nvec, common) -> bool:
        for vec, zset in self.rays:
            if vec is pvec or vec is nvec:
                continue
            if common <= zset:
                return False
        return True


def _primitive_int(ints: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        return tuple(v // g for v in ints)
    return tuple(ints)


def vertex_enumerate(poly: HPolyhedron) -> VPolytope:
    """Exact generator representation; empty lists iff the polyhedron is empty.

    Emptiness falls out of the homogenization: the polyhedron is empty exactly
    when no generator of the cone has a positive homogenizing coordinate.
    """
    n = poly.n
    rows = [
        _primitive(tuple(row) + (-rhs,)) for row, rhs in zip(poly.a, poly.b)
    ]
    rows.append(tuple([0] * n + [-1]))  # homogenization: t >= 0
    rows.sort()
    dd = _DoubleDescription(n + 1)
    for m in rows:
        dd.insert(m)
    gens = [vec for vec, _ in dd.rays]
    for l in dd.lin:
        gens.append(l)
        gens.append(tuple(-c for c in l))
    vertices = set()
    rays = set()
    for g in gens:
        t = g[n]
        if t > 0:
            vertices.add(tuple(Fraction(c, t) for c in g[:n]))
        elif any(g[:n]):
            rays.add(_normalize_ray(g[:n]))
    if not vertices:
        return VPolytope(n, (), ())
    return VPolytope(n, tuple(sorted(vertices)), tuple(sorted(rays)))


def vpoly_member(vp: VPolytope, x) -> bool:
    """Is x in conv(vertices) + cone(rays)? Decided by one feasibility LP."""
    if len(x) != vp.n:
        raise InputError("membership: dimension mismatch")
    if not vp.vertices:
        return False
    nv, nr = len(vp.vertices), len(vp.rays)
    nvar = nv + nr
    rows = []
    for j in range(vp.n):
        coeffs = tuple(v[j] for v in vp.vertices) + tuple(r[j] for r in vp.rays)
        rows.append((coeffs, "=", x[j]))
    rows.append((tuple([_ONE] * nv + [_ZERO] * nr), "=", _ONE))
    lp = LinearProgram(
        nvar, (_ZERO,) * nvar, rows=tuple(rows), lower=(_ZERO,) * nvar
    )
    return lp_value(lp, lp_solve(lp)) < INF


def prune(n: int, vertices, rays) -> VPolytope:
    """conv(vertices) + cone(rays) with every redundant generator dropped.

    The candidates are deduplicated (rays normalized, zero rays dropped) and
    sorted; then rays, and after them vertices, are dropped one at a time in
    lex order when the generators still kept without them already give them.
    In one dimension that pass needs no LP (`_prune_line`).
    """
    rays = sorted({_normalize_ray(r) for r in rays if any(r)})
    vertices = sorted(set(vertices))
    if n == 1:
        return VPolytope(1, _prune_line(vertices, rays), tuple(rays))
    origin = ((_ZERO,) * n,)
    kept_rays = _drop_redundant(rays, lambda others: VPolytope(n, origin, others))
    kept_verts = _drop_redundant(vertices, lambda others: VPolytope(n, others, kept_rays))
    return VPolytope(n, kept_verts, kept_rays)


def _prune_line(vertices, rays) -> tuple:
    """The vertices the lex-order pass keeps on a line, from the sorted
    distinct `vertices` and normalized `rays` (each of which it keeps): the
    minimum and the maximum with no ray, the minimum with the ray +1 alone,
    the maximum with -1 alone, and the last with both, whose cone is the line."""
    if not vertices:
        return ()
    up, down = (_ONE,) in rays, (-_ONE,) in rays
    if up and not down:
        return (vertices[0],)
    if up or down or len(vertices) == 1:
        return (vertices[-1],)
    return (vertices[0], vertices[-1])


def _drop_redundant(candidates, body) -> tuple:
    kept = list(candidates)
    i = 0
    while i < len(kept):
        if vpoly_member(body(tuple(kept[:i] + kept[i + 1 :])), kept[i]):
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


def project(poly: HPolyhedron, keep) -> VPolytope:
    """Generator form of the coordinate projection onto the `keep` indices:
    the lifted generators, projected, then `prune`d."""
    keep = tuple(keep)
    for j in keep:
        if not 0 <= j < poly.n:
            raise InputError(f"projection index {j} out of range")
    lifted = vertex_enumerate(poly)
    return prune(
        len(keep),
        [tuple(v[j] for j in keep) for v in lifted.vertices],
        [tuple(r[j] for j in keep) for r in lifted.rays],
    )
