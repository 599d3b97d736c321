"""Instance families and an independent exact truth for the tests.

The generator is the benchmark's: `bench/gen.py` draws the acceptance corpus
(`corpus`, via `gen.corpus_instance`) and the rational `wide_modes` instances,
and its `box_domain`, `_boundary_point` and integer f (`random_fn`) build the
test-only families here. `bench/truth.py` (`truth`) gives the exact infimum
in convex mode. What stays here is test-only: the adversarial and
face-domain families, which draw rational data of their own,
`beta_capped_member`, and `exact_feasible_inf` with its epigraph LP. That
one stays as a second exact truth, written apart from `truth.exact_inf`: the
bench tests check the one against the other, and the acceptance criteria
read it.

Each family is generated once per argument tuple per session, and every call
hands out fresh problems (`_fresh`), so that no test sees the probe templates
or solved tableaux that a decision memoised in an earlier test's copy.
"""

import dataclasses
import functools
import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

from revopt.model import AffineForm, HPolyhedron, PolyhedralConvexFunction, ReverseProblem

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import gen  # noqa: E402
import truth  # noqa: E402,F401
from gen import _boundary_point, box_domain  # noqa: E402
from gen import _int_fn as random_fn  # noqa: E402,F401

F = Fraction


def _fresh(item):
    """A new problem (or `gen.Instance` around one) with the same fields, and
    none of the state that a decision memoised in the original."""
    if isinstance(item, gen.Instance):
        return dataclasses.replace(item, problem=dataclasses.replace(item.problem))
    return dataclasses.replace(item)


def _generated_once(build):
    """`build` with each argument tuple generated once per session; every
    call returns a new list of fresh copies of that generation."""
    signature = inspect.signature(build)
    cached = functools.cache(lambda *args: tuple(build(*args)))

    @functools.wraps(build)
    def family(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return [_fresh(item) for item in cached(*bound.args)]

    return family


def _epigraph_lp(f, fns, extra_rows):
    """min t over the epigraph of f, the domains of `fns` and `extra_rows`
    (rows in x, lifted here by a zero t column)."""
    from revopt.lp import LinearProgram

    n = f.n
    rows = [(p.a + (-F(1),), "<=", -p.b) for p in f.pieces]
    for fn in fns:
        if fn.domain is not None:
            for row, rhs in zip(fn.domain.a, fn.domain.b):
                rows.append((row + (F(0),), "<=", rhs))
    rows += [(a + (F(0),), rel, rhs) for a, rel, rhs in extra_rows]
    return LinearProgram(n + 1, (F(0),) * n + (F(1),), rows=tuple(rows))


def _open_side_meets_dom(f, normal, rhs):
    """Does the open half-space {normal . x > rhs} meet dom f?"""
    from revopt.lp import Infeasible, LinearProgram, Unbounded, lp_solve

    rows = ()
    if f.domain is not None:
        rows = tuple((row, "<=", b) for row, b in zip(f.domain.a, f.domain.b))
    out = lp_solve(LinearProgram(f.n, normal, "max", rows=rows))
    if isinstance(out, Infeasible):
        return False
    return isinstance(out, Unbounded) or out.value > rhs


def beta_capped_member(problem, eps_prime, xstar):
    """Equality-mode membership with beta = 0 forced: `membership_lp` plus the
    row sum(nu) <= 0 over the multipliers on h's pieces. True when the
    supremum of alpha is positive."""
    from revopt.certificates import membership_lp
    from revopt.lp import LinearProgram, Optimal, Unbounded, lp_solve

    lp = membership_lp(problem, "equality", eps_prime, xstar)
    lam = len(problem.objective.pieces)
    nu = range(lam, lam + len(problem.reverse.pieces))
    cap = tuple(F(int(j in nu)) for j in range(lp.n))
    capped = LinearProgram(
        lp.n, lp.objective, lp.sense, lp.rows + ((cap, "<=", F(0)),), lp.lower
    )
    out = lp_solve(capped)
    return isinstance(out, Unbounded) or (isinstance(out, Optimal) and out.value > 0)


def exact_feasible_inf(f, h):
    """Exact inf of f over {h >= 0} (and dom f). h = +inf outside dom h, so
    the reverse region is the union of the per-piece polyhedra
    {piece_k >= 0} inside dom h and the open half-spaces {C_r x > d_r} of
    h's domain rows. One epigraph LP per polyhedron decides it; an open side
    has the infimum of its closed side {C_r x >= d_r} whenever it meets
    dom f. Returns a scalar, -inf, or None (empty region)."""
    from revopt.lp import Infeasible, Unbounded, lp_solve

    lps = [_epigraph_lp(f, (f, h), [(p.a, ">=", -p.b)]) for p in h.pieces]
    if h.domain is not None:
        for normal, rhs in zip(h.domain.a, h.domain.b):
            if _open_side_meets_dom(f, normal, rhs):
                lps.append(_epigraph_lp(f, (f,), [(normal, ">=", rhs)]))
    best = None
    unbounded = False
    for lp in lps:
        out = lp_solve(lp)
        if isinstance(out, Infeasible):
            continue
        if isinstance(out, Unbounded):
            unbounded = True
            continue
        if best is None or out.value < best:
            best = out.value
    if unbounded:
        return float("-inf")
    return best


@_generated_once
def corpus(count_1d=120, count_2d=80, seed_base=1000):
    """The acceptance corpus: `gen.corpus_instance` at seeds seed_base + i,
    `count_1d` one-dimensional instances and then `count_2d` two-dimensional
    ones. Each candidate lies exactly on {h = 0}, f carries the sampling box
    as its domain, and every third seed tunes epsilon into the certification
    window."""
    out = [gen.corpus_instance(seed_base + i, 1) for i in range(count_1d)]
    return out + [gen.corpus_instance(seed_base + count_1d + i, 2) for i in range(count_2d)]


# -- adversarial families ------------------------------------------------------

ADVERSARIAL_DENOMINATORS = (7, 11, 13)


def _adversarial_fn(rng, n, domain=None):
    def coeff():
        return F(rng.randint(-9, 9), rng.choice(ADVERSARIAL_DENOMINATORS))

    pieces = tuple(
        AffineForm(tuple(coeff() for _ in range(n)), coeff())
        for _ in range(rng.randint(1, 4))
    )
    return PolyhedralConvexFunction(n, pieces, domain)


def _face_domain(rng, n, x_bar):
    """Two rows: x_bar on the face of the first, strictly inside the second."""
    rows, rhs = [], []
    for slack in (F(0), F(rng.randint(1, 4), 2)):
        normal = (F(0),) * n
        while not any(normal):
            normal = tuple(F(rng.randint(-9, 9), 7) for _ in range(n))
        rows.append(normal)
        rhs.append(sum(a * x for a, x in zip(normal, x_bar)) + slack)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def adversarial_candidate(rng, face_domain=False):
    """(f, h, x_bar, gap) with rational data (coefficients in [-9, 9] over
    {7, 11, 13}), n in {1, 2}, f on the sampling box, x_bar exactly on
    {h = 0} and gap = f(x_bar) - inf{f : h >= 0} >= 0. With `face_domain`, h
    gets an effective domain with x_bar on one of its faces, so that its
    eps'-subdifferentials grow rays."""
    n = rng.choice([1, 2])
    f = _adversarial_fn(rng, n, domain=box_domain(n))
    h, x_bar = _boundary_point(rng, n, lambda: _adversarial_fn(rng, n))
    if face_domain:
        h = PolyhedralConvexFunction(n, h.pieces, _face_domain(rng, n, x_bar))
    gap = f.value(x_bar) - exact_feasible_inf(f, h)
    return f, h, x_bar, gap


@_generated_once
def adversarial_family(count, seed=7):
    """`count` draws of candidates that are not eps-optimal: eps is the exact
    gap times k/10 for k in 0..9. Draws with gap 0 (x_bar optimal) are
    skipped, so fewer than `count` problems come back."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, h, x_bar, gap = adversarial_candidate(rng)
        if gap > 0:
            eps = gap * F(rng.randint(0, 9), 10)
            out.append(ReverseProblem(f.n, f, h, x_bar, eps))
    return out


@_generated_once
def face_domain_family(count, seed=8):
    """`count` candidates whose h has a face domain; eps is the exact gap
    times k/10 for k in 0..15, so both verdicts occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, h, x_bar, gap = adversarial_candidate(rng, face_domain=True)
        eps = gap * F(rng.randint(0, 15), 10)
        out.append(ReverseProblem(f.n, f, h, x_bar, eps))
    return out


@_generated_once
def wide_modes(seed):
    """`gen.wide_modes(seed)`: the benchmark's rational instances, n in
    {2, 3}, h with a face domain on every other group of eight."""
    return gen.wide_modes(seed)
