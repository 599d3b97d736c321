"""The integer grid layer against the Fraction reference in `reference.py`."""

import random
from fractions import Fraction
from itertools import groupby, product
from math import gcd
from operator import mul

import pytest

import reference
from revopt.model import INF, AffineForm, HPolyhedron, PolyhedralConvexFunction, ReverseProblem
from revopt.oracle import (
    ORACLE_MODES,
    GridSpec,
    _GridEvaluator,
    brute_eps_argmin,
)
from revopt.pareto import (
    SIGMA_KINDS,
    ParetoSample,
    _efficient,
    bridge_check,
    eff_set,
    grid_sample,
)

F = Fraction
DENOMINATORS = (1, 2, 3, 5, 7)


def _rational(rng, bound=3):
    d = rng.choice(DENOMINATORS)
    return F(rng.randint(-bound * d, bound * d), d)


def _domain(rng, n):
    rows = tuple(tuple(_rational(rng) for _ in range(n)) for _ in range(rng.randint(1, 2)))
    return HPolyhedron(rows, tuple(_rational(rng, 2) for _ in rows), n)


def _fn(rng, n, through=None, domain=False):
    """Rational pieces; with `through`, the max is 0 at that point."""
    pieces = []
    for i in range(rng.randint(1, 4)):
        a = tuple(_rational(rng) for _ in range(n))
        if through is None:
            b = _rational(rng)
        else:
            drop = F(0) if i == 0 else F(rng.randint(0, 4), rng.choice(DENOMINATORS))
            b = -sum(x * y for x, y in zip(a, through)) - drop
        pieces.append(AffineForm(a, b))
    return PolyhedralConvexFunction(n, tuple(pieces), _domain(rng, n) if domain else None)


def _grid(rng, n):
    step = rng.choice((F(1, 7), F(1, 3), F(2, 5), F(1, 2)))
    ticks = {1: 30, 2: 9, 3: 4}[n]
    box = []
    for _ in range(n):
        lo = F(rng.randint(-20, 0), 7)
        box.append((lo, lo + step * rng.randint(2, ticks)))
    return GridSpec(tuple(box), step)


def _bowl(rng, grid):
    """h with a falling and a rising piece along the last axis, 0 at two grid
    points of one row and < 0 between them; half the time also a piece flat at
    0, so that h >= 0 and {h = 0} is a run of the row."""
    n, step, m = grid.n, grid.step, grid.shape[-1]
    k1 = rng.randrange(m - 2)
    lead = [rng.randrange(size) for size in grid.shape[:-1]]
    k2 = rng.randrange(k1 + 2, m)
    pieces = []
    for sign, k in ((-1, k1), (1, k2)):
        at = tuple(lo + i * step for (lo, _), i in zip(grid.box, (*lead, k)))
        a = [_rational(rng) for _ in range(n - 1)]
        a.append(sign * F(rng.randint(1, 9), rng.choice(DENOMINATORS)))
        pieces.append(AffineForm(tuple(a), -sum(x * y for x, y in zip(a, at))))
    if rng.random() < 0.5:
        pieces.append(AffineForm((F(0),) * n, F(0)))
    domain = _domain(rng, n) if rng.random() < 0.3 else None
    return PolyhedralConvexFunction(n, tuple(pieces), domain)


def _valley(rng, n):
    """f with a falling and a rising piece along the last axis that read no
    other axis, so that every row has the same values of f."""
    pieces = []
    for sign in (-1, 1):
        slope = sign * F(rng.randint(1, 9), rng.choice(DENOMINATORS))
        pieces.append(AffineForm((F(0),) * (n - 1) + (slope,), _rational(rng)))
    return PolyhedralConvexFunction(n, tuple(pieces))


def _lead_point(rng, grid):
    """A point strictly inside the grid's box on its leading axes, off the
    grid's ticks, and 0 on the last axis."""
    point = []
    for (lo, hi), m in zip(grid.box[:-1], grid.shape[:-1]):
        k = rng.randrange(m - 1)
        point.append(lo + grid.step * (k + F(rng.randint(1, 4), 5)))
    return (*point, F(0))


def _flat_piece(rng, grid):
    """A piece flat along the last axis that crosses 0 between two rows, so
    that it is > 0 on some rows and < 0 on the others."""
    n = grid.n
    a = [_rational(rng) for _ in range(n - 1)] + [F(0)]
    a[rng.randrange(n - 1)] = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))
    return AffineForm(tuple(a), -sum(x * y for x, y in zip(a, _lead_point(rng, grid))))


def _row_domain(rng, grid):
    """A domain flat along the last axis that leaves out whole rows on one
    side of a point between two rows."""
    piece = _flat_piece(rng, grid)
    return HPolyhedron((piece.a,), (-piece.b,), grid.n)


def _with_flat_rows(rng, grid, fn, domain=False):
    """fn with one more piece flat along the last axis, and with `domain`, a
    domain that leaves out whole rows."""
    pieces = (*fn.pieces, _flat_piece(rng, grid))
    domain = _row_domain(rng, grid) if domain else fn.domain
    return PolyhedralConvexFunction(grid.n, pieces, domain)


def _case(seed, n):
    rng = random.Random(seed)
    grid = _grid(rng, n)
    # h vanishes at a grid point half the time, so equality mode is not empty.
    idx = [rng.randrange(m) for m in grid.shape] if rng.random() < 0.5 else None
    f = _fn(rng, n, domain=rng.random() < 0.4)
    zero = None if idx is None else tuple(lo + k * grid.step for (lo, _), k in zip(grid.box, idx))
    h = _fn(rng, n, through=zero, domain=rng.random() < 0.4)
    if seed >= BOWL_SEEDS:
        h = _bowl(rng, grid)
    gs = tuple(_fn(rng, n, domain=rng.random() < 0.4) for _ in range(rng.randint(0, 2)))
    eps = F(rng.randint(0, 6), rng.choice(DENOMINATORS))
    if VALLEY_SEEDS <= seed < ROWS_SEEDS:
        f, eps = _valley(rng, n), F(rng.randint(0, 40), rng.choice((1, 2)))
    if seed >= ROWS_SEEDS:
        # Flat pieces and domain rows that take out whole rows of h, of a g
        # and of f, different rows for each.
        h = _with_flat_rows(rng, grid, h, domain=rng.random() < 0.5)
        gs = (_with_flat_rows(rng, grid, _fn(rng, n), domain=True),)
        f = PolyhedralConvexFunction(n, f.pieces, _row_domain(rng, grid))
    return ReverseProblem(n, f, h, (F(0),) * n, eps, gs), grid


#: cases from this seed on take h from `_bowl`; from the next one on also f
#: from `_valley` and an eps up to 40; from the last one on, instead of f from
#: `_valley`, h, one g and f each lose whole rows to a piece or a domain row
#: flat along the last axis
BOWL_SEEDS, VALLEY_SEEDS, ROWS_SEEDS = 100, 200, 300
CASES = (
    [(seed, n) for n in (1, 2, 3) for seed in range(12 * n, 12 * n + 12)]
    + [
        (seed, n)
        for base in (BOWL_SEEDS, VALLEY_SEEDS)
        for n in (1, 2, 3)
        for seed in range(base + 4 * n, base + 4 * n + 4)
    ]
    + [(seed, n) for n in (2, 3) for seed in range(ROWS_SEEDS + 4 * n, ROWS_SEEDS + 4 * n + 4)]
)


def _view(res) -> tuple:
    """A grid result as its readers see it, in the reference's order."""
    return res.mode, res.feasible_count, res.min_value, res.eps_argmin, res.slack, res.error_bound


@pytest.mark.parametrize("seed,n", CASES)
def test_brute_eps_argmin_matches_the_fraction_reference(seed, n):
    problem, grid = _case(seed, n)
    for mode in ORACLE_MODES:
        got = _view(brute_eps_argmin(problem, mode, grid))
        assert got == reference.brute_eps_argmin(problem, mode, grid), mode


def _reference_rows(problem, grid):
    """The reference's values of f, h and each g along each row, in order."""
    axes, m = grid.axes(), grid.shape[-1]
    fns = (problem.objective, problem.reverse, *problem.constraints)
    evs = [reference.GridEvaluator(fn, axes) for fn in fns]
    return [[[ev.value((*lead, k)) for k in range(m)] for ev in evs] for lead in grid.leads()]


def _row_branches(problem, grid):
    """The shapes that the grid's rows give the oracle's feasible intervals,
    read off the reference's values at every point."""
    m = grid.shape[-1]
    hit = set()
    for f, h, *gs in _reference_rows(problem, grid):
        neg = [k for k, v in enumerate(h) if v < 0]
        zeros = [k for k, v in enumerate(h) if v == 0]
        if not neg:
            hit.add("no h < 0")
        elif len(neg) == m:
            hit.add("h < 0 on the whole row")
        elif (neg[0] == 0) != (neg[-1] == m - 1):
            hit.add("h < 0 at one end only")
        else:
            hit.add("two reverse runs")
            if zeros and zeros[0] < neg[0] < neg[-1] < zeros[-1]:
                hit.add("two equality runs")
        if any(b - a == 1 for a, b in zip(zeros, zeros[1:])):
            hit.add("h flat at 0")
        # {h < 0} starts where a falling piece crosses 0: at a grid point or
        # between two.
        if neg and neg[0] > 0 and h[neg[0] - 1] != INF:
            on_grid = h[neg[0] - 1] == 0
            hit.add("falling root on the grid" if on_grid else "falling root off it")
        for mode in ORACLE_MODES:
            g_rows = gs if mode == "constrained-reverse" else []
            ok = [k for k in range(m) if reference._feasible(mode, h[k], [g[k] for g in g_rows])]
            if ok and all(f[k] == INF for k in ok):
                hit.add("f = +inf at every feasible point of a row")
        passing = [k for k in range(m) if h[k] >= 0]
        for fn, g in zip(problem.constraints, gs):
            if fn.domain is not None and len({g[k] == INF for k in passing}) == 2:
                hit.add("dom g cuts the points that pass h")
    return hit


def _argmin_branches(problem, grid):
    """The shapes that f takes on the feasible runs and the eps-argmin takes
    across rows, read off the reference's values at every point."""
    m, rows = grid.shape[-1], _reference_rows(problem, grid)
    slopes = [piece.a[-1] for piece in problem.objective.pieces]
    hit = set()
    for mode in ORACLE_MODES:
        g_mode = mode == "constrained-reverse"
        lows, runs = [], []  # per row: least f at its feasible points, and its runs in dom f
        for f, h, *gs in rows:
            g_vals = [[g[k] for g in gs] if g_mode else () for k in range(m)]
            ok = [reference._feasible(mode, h[k], g_vals[k]) for k in range(m)]
            row = []
            for feasible, ks in groupby(range(m), ok.__getitem__):
                ks = list(ks)
                finite = [k for k in ks if f[k] != INF]
                if not feasible or not finite:
                    continue
                row.append(finite)
                if len(finite) < len(ks):
                    hit.add("dom f cuts a feasible run")
                if min(slopes) >= 0 < max(slopes):
                    hit.add("f rising only")
                if max(slopes) <= 0 > min(slopes):
                    hit.add("f falling only")
                # The run's least value at one end, where f goes on falling
                # past it.
                a, b, low = finite[0], finite[-1], min(f[k] for k in finite)
                if f[a] == low and 0 < a and f[a - 1] < low:
                    hit.add("f least at a run's end")
                if f[b] == low and b + 1 < m and f[b + 1] < low:
                    hit.add("f least at a run's end")
            lows.append(min((f[k] for finite in row for k in finite), default=None))
            runs.append((f, row))
        found = [low for low in lows if low is not None]
        if not found:
            continue
        best = min(found)
        if problem.epsilon == 0:
            hit.add("eps = 0")
        if found.count(best) > 1:
            hit.add("equal least values on several rows")
        if found[0] > best:
            hit.add("the best falls on a later row")
        cut = best + problem.epsilon
        if mode == "reverse" and any(
            len(row) == 2 and all(any(f[k] <= cut for k in finite) for finite in row)
            for f, row in runs
        ):
            hit.add("both reverse runs of a row hold near points")
    return hit


def _pass_branches(problem, grid):
    """The shapes that one pass over all rows meets, read off the pieces and
    the reference's values at every point: a piece of h or a g flat along
    the last axis (t = 0) that is > 0 on some rows, all of which it empties,
    while another row keeps a point <= 0; a domain row that empties whole
    rows but not all; and n = 3 with both leading axes longer than one."""
    hit = set()
    axes, rows = grid.axes(), _reference_rows(problem, grid)
    leads = list(grid.leads())
    for i, fn in enumerate((problem.objective, problem.reverse, *problem.constraints)):
        vals = [row[i] for row in rows]
        kept = any(v <= 0 for row in vals for v in row)
        for piece in fn.pieces if i else ():
            if piece.a[-1] == 0 and kept:
                at = [
                    piece.b + sum(a * axis[k] for a, axis, k in zip(piece.a, axes, lead))
                    for lead in leads
                ]
                if any(v > 0 for v in at):
                    hit.add("a flat piece empties some rows but not others")
        empty = [all(v == INF for v in row) for row in vals]
        if fn.domain is not None and any(empty) and not all(empty):
            hit.add("a domain row empties whole rows")
    if grid.n == 3 and min(grid.shape[:-1]) > 1:
        hit.add("n = 3 with both leading axes longer than one")
    return hit


#: the shapes of `_pass_branches`, which some case meets all on one grid
PASS_BRANCHES = {
    "a flat piece empties some rows but not others",
    "a domain row empties whole rows",
    "n = 3 with both leading axes longer than one",
}


def test_reference_cases_reach_every_branch():
    # The comparisons above mean something only if the cases hit feasible
    # points in every mode, off-domain points, argmin sets of several points,
    # every shape of a row's feasible intervals, and every shape of f on them
    # and of the eps-argmin across rows.
    feasible, off_domain, several, together, rows = set(), 0, 0, 0, set()
    for seed, n in CASES:
        problem, grid = _case(seed, n)
        for mode in ORACLE_MODES:
            _, feasible_count, min_value, argmin, _, _ = reference.brute_eps_argmin(
                problem, mode, grid
            )
            if feasible_count:
                feasible.add(mode)
            off_domain += min_value == float("inf")
            several += len(argmin) > 1
        passes = _pass_branches(problem, grid)
        together += passes == PASS_BRANCHES
        rows |= _row_branches(problem, grid) | _argmin_branches(problem, grid) | passes
    assert feasible == set(ORACLE_MODES)
    assert off_domain and several and together
    assert rows == {
        "no h < 0",
        "h < 0 on the whole row",
        "h < 0 at one end only",
        "two reverse runs",
        "two equality runs",
        "h flat at 0",
        "falling root on the grid",
        "falling root off it",
        "f = +inf at every feasible point of a row",
        "dom g cuts the points that pass h",
        "f rising only",
        "f falling only",
        "f least at a run's end",
        "both reverse runs of a row hold near points",
        "equal least values on several rows",
        "the best falls on a later row",
        "eps = 0",
        "dom f cuts a feasible run",
        *PASS_BRANCHES,
    }


@pytest.mark.parametrize("seed,n", CASES)
def test_grid_sample_and_bridge_match_the_fraction_reference(seed, n):
    problem, grid = _case(seed, n)
    f, h = problem.objective, problem.reverse
    assert grid_sample(f, h, grid.box, grid.step) == reference.grid_sample(
        f, h, grid.box, grid.step
    )
    assert bridge_check(f, h, grid.box, grid.step, problem.epsilon) == (
        reference.bridge_check(f, h, grid.box, grid.step, problem.epsilon)
    )


def _primitive(w):
    """The integer vector w over the gcd of its entries: equal for any two
    positive multiples of one vector."""
    g = gcd(*w)
    return tuple(x // g for x in w) if g else tuple(w)


def _row_table(forms, grid):
    """Each integer form (c, s) as (C, t): C[r] = c + <s, (*lead, 0)> at the
    r-th leading indices of `grid.leads()`, and t = s[-1]."""
    leads = list(grid.leads())
    return [([c + sum(map(mul, s, lead)) for lead in leads], s[-1]) for c, s in forms]


def test_grid_evaluators_match_the_fraction_forms():
    # Pieces and domains take denominators in {1, 2, 3, 5, 7}; lo and step in
    # {11, 13}, eps in {17, 19}: every scale mixes denominators of all three.
    rng = random.Random(23)
    for trial in range(60):
        n = 1 + trial % 3
        step = F(rng.randint(1, 4), rng.choice((11, 13)))
        box = []
        for _ in range(n):
            lo = F(rng.randint(-40, 0), rng.choice((11, 13)))
            box.append((lo, lo + step * rng.randint(0, {1: 30, 2: 9, 3: 4}[n])))
        grid = GridSpec(tuple(box), step)
        assert grid.shape == tuple(int((hi - lo) / step) + 1 for lo, hi in box)
        ticks = [[lo + k * step for k in range(m)] for (lo, _), m in zip(box, grid.shape)]
        assert grid.axes() == ticks
        fn = _fn(rng, n, domain=trial % 2 == 0)
        extra = (F(rng.randint(1, 9), rng.choice((17, 19))),) if trial % 3 else ()
        ev = _GridEvaluator(fn, grid, extra)
        forms = ((p.a, p.b) for p in fn.pieces)
        ref_forms, scale = reference.reference_integer_forms(forms, grid, extra)
        assert (ev.pieces, ev.scale) == (_row_table(ref_forms, grid), scale)
        # A domain row may keep any positive scale: only its sign is read.
        if fn.domain is None:
            assert ev.dom_rows == []
            continue
        assert len(ev.dom_rows) == fn.domain.m
        for (consts, t), row, rhs in zip(ev.dom_rows, fn.domain.a, fn.domain.b):
            ref_row, _ = reference.reference_integer_forms([(row, -rhs)], grid)
            ((consts0, t0),) = _row_table(ref_row, grid)
            assert _primitive((*consts, t)) == _primitive((*consts0, t0))


def test_grid_evaluators_walk_their_rows_without_fraction_arithmetic(monkeypatch):
    fn = _fn(random.Random(52), 2, domain=True)  # 3 pieces; 2 domain rows cut the grid
    step = F(3, 13)
    grid = GridSpec(((F(-17, 11), F(-17, 11) + 9 * step), (F(2, 13), F(2, 13) + 8 * step)), step)
    # The model's and the grid's integer images are built once per object.
    fn._image, fn.domain._rows, grid._image, grid.shape

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic on the grid")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
            patch.setattr(F, name, no_arithmetic)
        ev = _GridEvaluator(fn, grid, (F(1, 19),))
        scaled = ev.values()
        ev.at_most(0)
    values = [v if v == INF else F(v, ev.scale) for v in scaled]
    ref = reference.GridEvaluator(fn, grid.axes())
    assert values == [ref.value(idx) for idx in product(*map(range, grid.shape))]
    assert INF in values and len(set(values)) > 2  # the domain cuts the grid


def test_eff_set_matches_the_pairwise_scan_with_ties_and_duplicates():
    rng = random.Random(5)
    for trial in range(200):
        r = (1, 2, 2, 3)[trial % 4]
        # Few distinct values, so ties and duplicate images are common.
        images = [
            None if rng.random() < 0.1 else tuple(F(rng.randint(-3, 3), 2) for _ in range(r))
            for _ in range(rng.randint(0, 25))
        ]
        sample = ParetoSample(r, tuple((F(i),) for i in range(len(images))), tuple(images))
        for _ in range(3):
            eps = tuple(F(rng.randint(-2, 3), 2) for _ in range(r))
            for sigma in SIGMA_KINDS:
                assert eff_set(sample, eps, sigma) == reference.eff_set(sample, eps, sigma)
            if r == 2:
                # The bridge's call: w and e from one sort, at the shift (eps, 0).
                shift = (eps[0], F(0))
                assert _efficient(sample.images, 2, shift, ("w", "e")) == tuple(
                    reference.eff_set(sample, shift, sigma) for sigma in "we"
                )
