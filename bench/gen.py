"""Seeded instance generators for the benchmark workloads.

The generators live here, not in `tests/`, so that editing a test cannot move
the benchmark. Each workload turns `--seed` into a list of `Instance`s; the
same seed always gives the same instances, and the program under test sees
only the problem files written from them.

- `corpus_rop` draws from the distribution of the acceptance corpus
  (`tests/corpus.py`): n in {1, 2}, integer coefficients in [-3, 3], at most
  4 pieces, a box domain on f, and every third epsilon tuned into the
  certification window. Each block fills the acceptance corpus's counts per
  exact stratum (`CORPUS_QUOTAS`), so every seed has the same mix of easy and
  hard decisions, and seed 0's first block is exactly
  `corpus(120, 80, seed_base=1000)`.
- `wide_modes` draws n in {2, 3}, rational coefficients with denominators in
  {1, 2, 3, 5, 7} and 2-5 pieces; modes cycle through rop, constrained,
  equality and convex; every other group of eight instances gives h an
  effective domain with the candidate on one of its faces; epsilon is the
  exact gap times a factor in [7/10, 13/10].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from revopt.model import (
    AffineForm,
    HPolyhedron,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from truth import exact_inf

F = Fraction
BOX_LO, BOX_HI = F(-3), F(3)
MODES = ("rop", "constrained", "equality", "convex")

#: corpus instances per block: 120 one-dimensional, then 80 two-dimensional
CORPUS_1D, CORPUS_2D = 120, 80
CORPUS_BLOCK = CORPUS_1D + CORPUS_2D
CORPUS_SEED_BASE = 1000
#: corpus blocks generated per seed, and the seed distance between blocks
BLOCKS = 2
BLOCK_SEED_SPACING = 100_000
WIDE_COUNT = 200
WIDE_SEED_BASE = 500_000
WIDE_DENOMINATORS = (1, 2, 3, 5, 7)


@dataclass(frozen=True)
class Instance:
    """One problem with the mode it is decided in.

    `index` is the instance's position in its workload; it doubles as the
    `--seed` of the verify and falsify commands, as in the acceptance suite.
    """

    index: int
    problem: ReverseProblem
    mode: str


# -- shared construction --------------------------------------------------------


def box_domain(n: int) -> HPolyhedron:
    rows, rhs = [], []
    for j in range(n):
        for sign, bound in ((1, BOX_HI), (-1, -BOX_LO)):
            e = [F(0)] * n
            e[j] = F(sign)
            rows.append(tuple(e))
            rhs.append(bound)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def _random_point(rng, n):
    return tuple(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(n))


def _segment_root(h, pos, neg):
    """First zero of h on [pos, neg], walking from the h > 0 endpoint."""
    cs = [p.value(pos) for p in h.pieces]
    ds = [sum(a * (y - x) for a, y, x in zip(p.a, neg, pos)) for p in h.pieces]
    nodes = {F(0), F(1)}
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if ds[i] != ds[j]:
                t = (cs[j] - cs[i]) / (ds[i] - ds[j])
                if 0 < t < 1:
                    nodes.add(t)
    prev_t, prev_g = F(0), max(cs)
    for t in sorted(nodes)[1:]:
        gt = max(c + t * d for c, d in zip(cs, ds))
        if prev_g > 0 >= gt:
            root = prev_t + (t - prev_t) * prev_g / (prev_g - gt)
            return tuple((1 - root) * p + root * q for p, q in zip(pos, neg))
        prev_t, prev_g = t, gt
    raise RuntimeError("sign change lost")


def _boundary_point(rng, n, draw_h):
    """Draw h until a sign-changing segment gives a root inside the box."""
    while True:
        h = draw_h()
        pos = neg = None
        for _ in range(60):
            pt = _random_point(rng, n)
            val = h.value(pt)
            if val > 0 and pos is None:
                pos = pt
            elif val < 0 and neg is None:
                neg = pt
            if pos is not None and neg is not None:
                break
        if pos is None or neg is None:
            continue
        x_bar = _segment_root(h, pos, neg)
        if all(BOX_LO <= c <= BOX_HI for c in x_bar):
            return h, x_bar


# -- corpus-rop -------------------------------------------------------------------


def _int_fn(rng, n, max_pieces=4, domain=None):
    pieces = tuple(
        AffineForm(
            tuple(F(rng.randint(-3, 3)) for _ in range(n)), F(rng.randint(-3, 3))
        )
        for _ in range(rng.randint(1, max_pieces))
    )
    return PolyhedralConvexFunction(n, pieces, domain)


def corpus_instance(seed: int, n: int) -> ReverseProblem:
    """The acceptance corpus's instance for this seed, draw for draw."""
    rng = random.Random(seed)
    f = _int_fn(rng, n, domain=box_domain(n))
    h, x_bar = _boundary_point(rng, n, lambda: _int_fn(rng, n))
    eps = rng.choice([F(0), F(0), F(1, 4), F(1), F(2)])
    if seed % 3 == 0:
        fx = f.value(x_bar)
        feas_inf = exact_inf(ReverseProblem(n, f, h, x_bar, 0), "rop")
        everywhere = PolyhedralConvexFunction(n, ((tuple([F(0)] * n), F(0)),))
        box_inf = exact_inf(ReverseProblem(n, f, everywhere, x_bar, 0), "rop")
        if feas_inf is not None and box_inf is not None and box_inf < feas_inf:
            eps = fx - feas_inf + (feas_inf - box_inf) / 4
    return ReverseProblem(n, f, h, x_bar, eps)


def _stratum(problem: ReverseProblem) -> tuple:
    """(n, x_bar is eps-optimal, essential assumption holds, h has > 2 pieces),
    all decided exactly: the properties that set how much work a decision
    takes, and none of them depends on the program under test."""
    n, f = problem.n, problem.objective
    threshold = f.value(problem.point) - problem.epsilon
    everywhere = PolyhedralConvexFunction(n, ((tuple([F(0)] * n), F(0)),))
    free_inf = exact_inf(ReverseProblem(n, f, everywhere, problem.point, 0), "rop")
    return (
        n,
        exact_inf(problem, "rop") >= threshold,
        free_inf < threshold,
        len(problem.reverse.pieces) > 2,
    )


#: instances per stratum in one corpus block: the acceptance corpus's counts
CORPUS_QUOTAS = {
    (1, False, True, False): 25,
    (1, False, True, True): 20,
    (1, True, False, False): 26,
    (1, True, False, True): 7,
    (1, True, True, False): 34,
    (1, True, True, True): 8,
    (2, False, True, False): 40,
    (2, False, True, True): 31,
    (2, True, False, False): 1,
    (2, True, True, False): 7,
    (2, True, True, True): 1,
}


def corpus_block(seed_base: int) -> list[tuple[tuple, ReverseProblem]]:
    """One block of (stratum, instance): candidates from the seed stream fill
    CORPUS_QUOTAS in order. At seed base 1000 the first 120 one-dimensional
    and 80 two-dimensional candidates fill the quotas exactly, which makes
    the block the acceptance corpus."""
    out = []
    for n, start in ((1, 0), (2, CORPUS_1D)):
        quota = {k: v for k, v in CORPUS_QUOTAS.items() if k[0] == n}
        k = 0
        while any(quota.values()):
            problem = corpus_instance(seed_base + start + k, n)
            k += 1
            key = _stratum(problem)
            if quota.get(key, 0) > 0:
                quota[key] -= 1
                out.append((key, problem))
    return out


def interleave(groups: list[list]) -> list:
    """Merge the groups so that every prefix of the result holds about each
    group's overall share: the next item comes from the group that is
    furthest behind its share."""
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for _ in range(total):
        best = min(
            (j for j, g in enumerate(groups) if taken[j] < len(g)),
            key=lambda j: ((taken[j] + 1) / len(groups[j]), j),
        )
        out.append(groups[best][taken[best]])
        taken[best] += 1
    return out


def corpus_rop(seed: int, blocks: int = BLOCKS) -> list[Instance]:
    """`blocks` corpus blocks, each ordered by `interleave` over its strata.

    Indices count within the workload, so block 0 carries the acceptance
    suite's per-instance sweep seeds 0..199.
    """
    out = []
    for b in range(blocks):
        base = CORPUS_SEED_BASE + BLOCK_SEED_SPACING * (seed * BLOCKS + b)
        by_stratum = {}
        for i, (key, problem) in enumerate(corpus_block(base)):
            inst = Instance(CORPUS_BLOCK * b + i, problem, "rop")
            by_stratum.setdefault(key, []).append(inst)
        out += interleave([by_stratum[k] for k in sorted(by_stratum)])
    return out


# -- wide-modes -------------------------------------------------------------------


def _rational(rng, bound=3):
    den = rng.choice(WIDE_DENOMINATORS)
    return F(rng.randint(-bound * den, bound * den), den)


def _rational_fn(rng, n, lo, hi, domain=None):
    pieces = tuple(
        AffineForm(tuple(_rational(rng) for _ in range(n)), _rational(rng))
        for _ in range(rng.randint(lo, hi))
    )
    return PolyhedralConvexFunction(n, pieces, domain)


def _face_domain(rng, n, x_bar) -> HPolyhedron:
    """A polyhedron with x_bar on the face of its first row and strictly
    inside its second row."""
    rows, rhs = [], []
    for slack in (F(0), F(rng.randint(1, 4), 2)):
        normal = tuple(_rational(rng) for _ in range(n))
        while not any(normal):
            normal = tuple(_rational(rng) for _ in range(n))
        rows.append(normal)
        rhs.append(sum(a * x for a, x in zip(normal, x_bar)) + slack)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def _constraint_fns(rng, n, x_bar):
    """1-2 convex G with G(x_bar) <= 0: the pieces are shifted so that the
    largest one sits at -margin there."""
    out = []
    for _ in range(rng.randint(1, 2)):
        g = _rational_fn(rng, n, 1, 3)
        shift = g.value(x_bar) + F(rng.randint(0, 2), 2)
        pieces = tuple(AffineForm(p.a, p.b - shift) for p in g.pieces)
        out.append(PolyhedralConvexFunction(n, pieces))
    return tuple(out)


def wide_instance(index: int, seed: int) -> Instance:
    rng = random.Random(seed)
    mode = MODES[index % 4]
    n = 2 + (index // 4) % 2
    with_domain = (index // 8) % 2 == 1
    f = _rational_fn(rng, n, 2, 5, domain=box_domain(n))
    h, x_bar = _boundary_point(rng, n, lambda: _rational_fn(rng, n, 2, 5))
    if with_domain:
        h = PolyhedralConvexFunction(n, h.pieces, _face_domain(rng, n, x_bar))
    constraints = _constraint_fns(rng, n, x_bar) if mode == "constrained" else ()
    problem = ReverseProblem(n, f, h, x_bar, 0, constraints)
    inf = exact_inf(problem, mode)
    gap = f.value(x_bar) - inf
    eps = gap * F(rng.randint(7, 13), 10) if gap > 0 else F(0)
    return Instance(index, ReverseProblem(n, f, h, x_bar, eps, constraints), mode)


def wide_modes(seed: int, count: int = WIDE_COUNT) -> list[Instance]:
    base = WIDE_SEED_BASE + 1000 * seed
    return [wide_instance(i, base + i) for i in range(count)]
