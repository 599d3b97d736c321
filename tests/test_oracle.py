from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from revopt.model import (
    INF,
    AffineForm,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from revopt import oracle
from revopt.oracle import GridSpec, brute_eps_argmin
from revopt.pareto import BridgeReport, bridge_check

F = Fraction


def fn(n, *pieces, domain=None):
    return PolyhedralConvexFunction(n, tuple(AffineForm(a, b) for a, b in pieces), domain)


def absf():
    return fn(1, ((1,), 0), ((-1,), 0))


def abs_minus_one():
    return fn(1, ((1,), -1), ((-1,), -1))


def steep():
    return fn(1, ((2,), 0), ((-1,), 0))


def grid_1d(step=F(1, 4)):
    return GridSpec(((F(-3), F(3)),), step)


def test_grid_validation():
    with pytest.raises(InputError):
        GridSpec(((F(0), F(1)),), F(0))
    with pytest.raises(InputError, match="step must be > 0"):
        GridSpec(((F(0), F(1)),), F(-1, 2))
    with pytest.raises(InputError, match="lo > hi"):
        GridSpec(((F(0), F(1)), (F(1, 3), F(1, 5))), F(1, 15))
    with pytest.raises(InputError):
        GridSpec(((F(0), F(1)),), F(3, 7))
    with pytest.raises(InputError, match="integer number of steps"):
        GridSpec(((F(-2, 11), F(1, 2)),), F(1, 13))  # a span of 195/22 steps
    assert GridSpec(((F(-2, 11), F(1, 2)),), F(1, 22)).shape == (16,)
    with pytest.raises(InputError, match="grid has 1002001 points"):
        GridSpec(((F(0), F(1)),) * 2, F(1, 1000))  # 1001 x 1001 points
    with pytest.raises(InputError):
        GridSpec((), F(1))


def test_brute_reverse_abs():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(0))
    res = brute_eps_argmin(p, "reverse", grid_1d())
    assert res.min_value == 1
    assert res.eps_argmin == ((F(-1),), (F(1),))


def test_brute_reverse_abs_relaxed():
    # eps-argmin is every feasible grid point with f(x) <= min + eps, so the
    # saturating pair +-3/2 belongs to it alongside +-5/4 and +-1.
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2))
    res = brute_eps_argmin(p, "reverse", grid_1d())
    assert res.eps_argmin == (
        (F(-3, 2),), (F(-5, 4),), (F(-1),), (F(1),), (F(5, 4),), (F(3, 2),)
    )
    assert all(s >= 0 for s in res.slack)


def test_brute_reverse_steep():
    p = ReverseProblem(1, steep(), abs_minus_one(), (F(1),), F(0))
    res = brute_eps_argmin(p, "reverse", grid_1d())
    assert res.min_value == 1
    assert res.eps_argmin == ((F(-1),),)


def test_brute_equality_subset_of_reverse():
    p = ReverseProblem(1, steep(), abs_minus_one(), (F(1),), F(1))
    eq = brute_eps_argmin(p, "equality", grid_1d())
    rev = brute_eps_argmin(p, "reverse", grid_1d())
    boundary = {pt for pt in rev.eps_argmin if abs_minus_one().value(pt) == 0}
    assert set(eq.eps_argmin) <= boundary


def test_brute_empty_flag():
    # Constant h = -1 is always negative: no reverse-feasible point.
    h = fn(1, ((0,), -1))
    p = ReverseProblem(1, absf(), h, (F(0),), F(0))
    res = brute_eps_argmin(p, "reverse", grid_1d())
    assert res.empty
    assert res.min_value is None
    assert res.eps_argmin == () and res.slack == ()
    # Feasible points, |x| >= 1, all off dom f = [-1/2, 1/2].
    dom = HPolyhedron(((F(1),), (F(-1),)), (F(1, 2), F(1, 2)), 1)
    off = ReverseProblem(1, fn(1, ((1,), 0), domain=dom), abs_minus_one(), (F(0),), F(0))
    res = brute_eps_argmin(off, "reverse", grid_1d())
    assert not res.empty and res.min_value == INF
    assert res.eps_argmin == () and res.slack == ()


def test_brute_error_bound():
    p = ReverseProblem(1, steep(), abs_minus_one(), (F(1),), F(0))
    res = brute_eps_argmin(p, "reverse", grid_1d(F(1, 4)))
    assert res.error_bound == F(1, 2)  # L = 2, step = 1/4


def test_boundary_projection_examples():
    project = reference.reference_boundary_projection
    f, h = absf(), abs_minus_one()
    assert project(f, h, (F(2),), (F(0),)) == (F(1),)
    assert project(f, h, (F(-3),), (F(0),)) == (F(-1),)
    with pytest.raises(InputError):
        project(f, h, (F(1),), (F(0),))  # h(x) = 0 is not > 0


def test_boundary_projection_2d():
    # h(x) = max(x1, x2) - 1 crosses zero on the segment from (2,2) to (0,0).
    h = fn(2, ((1, 0), -1), ((0, 1), -1))
    f = fn(2, ((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0))
    pi = reference.reference_boundary_projection(f, h, (F(2), F(2)), (F(0), F(0)))
    assert pi == (F(1), F(1))
    assert h.value(pi) == 0


def test_boundary_equivalence_abs():
    rep = reference.boundary_equivalence_check(absf(), abs_minus_one(), grid_1d(), F(0))
    assert rep.applicable
    assert rep.equality_side == ((F(-1),), (F(1),))
    assert rep.reverse_side == ((F(-1),), (F(1),))
    assert rep.passed


def test_boundary_equivalence_steep():
    rep = reference.boundary_equivalence_check(steep(), abs_minus_one(), grid_1d(), F(0))
    assert rep.applicable
    assert rep.equality_side == ((F(-1),),)
    assert rep.passed


def test_boundary_equivalence_steep_relaxed():
    rep = reference.boundary_equivalence_check(steep(), abs_minus_one(), grid_1d(), F(1))
    assert rep.equality_side == ((F(-1),), (F(1),))
    assert rep.reverse_side == ((F(-1),), (F(1),))
    assert rep.passed


def test_boundary_equivalence_inapplicable_when_essential_fails():
    # f constant: the grid minimum over all points equals the feasible one.
    f = fn(1, ((0,), 5))
    rep = reference.boundary_equivalence_check(f, abs_minus_one(), grid_1d(), F(0))
    assert not rep.applicable


def _record_rows(monkeypatch):
    """Patch the grid layer to record, per call, (function, number of forms)
    for each evaluator made, the forms being its pieces and domain rows each
    turned into one row table; (function, row) for each row a function's
    pieces are taken to; (function, row, lo, hi) for each run of values made
    from them and for each run whose least value is taken from them; and
    each evaluator asked for its values at every grid point."""
    calls = {"tables": [], "along": [], "values": [], "least": [], "grid values": []}
    init, along = oracle._GridEvaluator.__init__, oracle._GridEvaluator.along
    tables = oracle._row_tables
    values, least = oracle._values, oracle._least
    made = {}  # id of a piece list taken to a row -> (its list, function, row)
    forms = []  # forms turned into tables since the last evaluator was made

    def recording_tables(forms_, grid, *scale):
        forms.extend(forms_)
        return tables(forms_, grid, *scale)

    def recording_init(self, fn, grid, extra=()):
        forms.clear()
        init(self, fn, grid, extra)
        self.fn = fn
        calls["tables"].append((fn, len(forms)))

    def recording_along(self, r):
        pieces = along(self, r)
        calls["along"].append((self.fn, r))
        made[id(pieces)] = (pieces, self.fn, r)
        return pieces

    def recording_values(pieces, lo, hi):
        _, fn, r = made[id(pieces)]
        calls["values"].append((fn, r, lo, hi))
        return values(pieces, lo, hi)

    def recording_least(pieces, lo, hi):
        _, fn, r = made[id(pieces)]
        calls["least"].append((fn, r, lo, hi))
        return least(pieces, lo, hi)

    def recording_grid_values(self):
        calls["grid values"].append(self.fn)

    monkeypatch.setattr(oracle, "_row_tables", recording_tables)
    monkeypatch.setattr(oracle._GridEvaluator, "__init__", recording_init)
    monkeypatch.setattr(oracle._GridEvaluator, "along", recording_along)
    monkeypatch.setattr(oracle._GridEvaluator, "values", recording_grid_values)
    monkeypatch.setattr(oracle, "_values", recording_values)
    monkeypatch.setattr(oracle, "_least", recording_least)
    return calls


def test_brute_reads_h_and_g_as_intervals_and_makes_f_only_where_feasible(monkeypatch):
    # Rows run along x2 at fixed x1 in {-1, -1/2, 0, 1/2, 1}, rows 0-4. h = x1
    # passes h >= 0 on the rows x1 >= 0, g = 1/2 - x1 <= 0 holds on x1 >= 1/2
    # only. Each function's pieces become one row table per call, g's only in
    # constrained mode, and h and g are read from their tables for all rows
    # at once, without a value. f's pieces are taken only to the rows with a
    # feasible point, once each; f's least value is read once per feasible
    # interval (here the whole row) in closed form, and f's values are made
    # only on each feasible row's eps-near run.
    calls = _record_rows(monkeypatch)
    f = fn(2, ((0, 1), 0), ((0, -1), 0))
    h = fn(2, ((1, 0), 0))
    g = fn(2, ((-1, 0), F(1, 2)))
    p = ReverseProblem(2, f, h, (F(0), F(0)), F(1, 2), (g,))
    grid = GridSpec(((F(-1), F(1)),) * 2, F(1, 2))
    rows = {x1: r for r, x1 in enumerate((F(-1), F(-1, 2), F(0), F(1, 2), F(1)))}
    expect = {
        # mode: rows with a feasible point
        "reverse": {0, F(1, 2), 1},
        "equality": {0},
        "constrained-reverse": {F(1, 2), 1},
        "convex": {-1, F(-1, 2), 0},
    }
    for mode, feasible_rows in expect.items():
        for log in calls.values():
            log.clear()
        res = brute_eps_argmin(p, mode, grid)
        assert res.feasible_count == 5 * len(feasible_rows)
        # f = |x2| and eps = 1/2: x2 in {-1/2, 0, 1/2} on every feasible row.
        assert res.min_value == 0
        assert res.eps_argmin == tuple(
            (x1, x2) for x1 in sorted(feasible_rows) for x2 in (F(-1, 2), F(0), F(1, 2))
        )
        # One table per form: f's two pieces, h's and g's one piece each.
        tabled = [(f, 2), (h, 1)] + ([(g, 1)] if mode == "constrained-reverse" else [])
        assert calls["tables"] == tabled and calls["grid values"] == []
        feasible = [rows[x1] for x1 in sorted(feasible_rows)]
        assert calls["along"] == [(f, r) for r in feasible]
        assert calls["least"] == [(f, r, 0, 5) for r in feasible]
        # x2 in {-1/2, 0, 1/2} is the index run [1, 4).
        assert calls["values"] == [(f, r, 1, 4) for r in feasible]


_SLOPES = st.integers(-40, 40)
_OFFSETS = st.one_of(st.integers(-2000, 2000), st.integers(-(10**30), 10**30))


@st.composite
def _row_pieces(draw):
    """(pieces, lo, hi, eps): 1-64 progressions (c, t) with slopes of both
    signs and 0, or of one sign and 0, some of them through one integer point
    (k0, v) so that crossings fall on an integer, at or outside [lo, hi), and
    their crossing values tie; the rest cross anywhere."""
    lo = draw(st.integers(-50, 50))
    hi = lo + draw(st.one_of(st.just(1), st.integers(1, 400)))
    count = draw(st.integers(1, 64))
    shared = draw(st.integers(0, count))
    sign = draw(st.sampled_from((None, None, 1, -1)))
    slopes = _SLOPES if sign is None else _SLOPES.map(lambda t: sign * abs(t))
    size = count - shared
    free = draw(st.lists(st.tuples(_OFFSETS, slopes), min_size=size, max_size=size))
    k0, v = draw(st.integers(lo - 20, hi + 20)), draw(_OFFSETS)
    through = draw(st.lists(slopes, min_size=shared, max_size=shared))
    pieces = draw(st.permutations(free + [(v - t * k0, t) for t in through]))
    eps = draw(st.one_of(st.just(0), st.integers(0, 300), st.integers(0, 10**31)))
    return pieces, lo, hi, eps


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_row_pieces())
def test_least_and_the_near_run_match_the_row_values(case):
    # `_least` against the minimum of the row's values, and `_at_most` at the
    # eps cut against filtering those values one by one.
    pieces, lo, hi, eps = case
    values = oracle._values(pieces, lo, hi)
    best = oracle._least(pieces, lo, hi)
    assert best == min(values)
    for cut in (best - 1, best, best + eps):
        a, b = oracle._at_most(pieces, lo, hi, cut)
        assert list(range(a, b)) == list(compress(range(lo, hi), map(cut.__ge__, values)))


def test_equal_live_results_share_one_object():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2))
    first = brute_eps_argmin(p, "reverse", grid_1d())
    again = brute_eps_argmin(p, "reverse", grid_1d())
    assert again is first
    relaxed = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1))
    assert brute_eps_argmin(relaxed, "reverse", grid_1d()) != first
    # The key is the result's whole integer form: equal fields hand back the
    # live result, and a key that differs in one field, here the threshold,
    # makes a result of its own.
    fields = [getattr(first, name) for name in reference.fields(first)]
    assert oracle._shared(oracle.BruteResult, *fields) is first
    other = oracle._shared(oracle.BruteResult, *fields[:-1], fields[-1] + 1)
    assert other is not first and other.eps_argmin == first.eps_argmin
    assert other.slack == tuple(s + F(1, fields[-2]) for s in first.slack)


def _raise(*args):
    raise AssertionError("results compared")


def test_no_fraction_per_argmin_point_until_read(monkeypatch):
    # The oracle keeps the eps-argmin as index runs: a call makes min_value
    # and no tick or slack, and equal results are shared without comparing
    # them.
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2))
    grid = grid_1d()
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(oracle, "Fraction", counting)
    res = brute_eps_argmin(p, "reverse", grid)
    assert "_ticks" not in vars(grid)
    assert len(made) == 1 and res.min_value == 1
    want = reference.brute_eps_argmin(p, "reverse", grid)
    assert (res.eps_argmin, res.slack) == want[3:5] and len(res.eps_argmin) == 6
    monkeypatch.setattr(oracle.BruteResult, "__eq__", _raise)
    monkeypatch.setattr(BridgeReport, "__eq__", _raise)
    assert brute_eps_argmin(p, "reverse", grid_1d()) is res
    box = ((F(-3), F(3)),)
    report = bridge_check(absf(), abs_minus_one(), box, F(1, 4), F(1, 2))
    assert not report.vacuous
    assert bridge_check(absf(), abs_minus_one(), box, F(1, 4), F(1, 2)) is report


def test_a_result_shared_by_equal_grids_reads_the_same_points():
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2))
    grids = grid_1d(), grid_1d()
    first, second = (brute_eps_argmin(p, "reverse", grid) for grid in grids)
    assert second is first and first.grid is grids[0]
    for grid in grids:
        assert first.eps_argmin == reference.brute_eps_argmin(p, "reverse", grid)[3]


#: the repr of a 1-D, a 2-D and a 3-D result, which must not change: the bench
#: report digests hash it
PINNED_REPRS = {
    1: (
        "BruteResult(mode='reverse', feasible_count=18, min_value=Fraction(1, 1), "
        "eps_argmin=((Fraction(-3, 2),), (Fraction(-5, 4),), (Fraction(-1, 1),), "
        "(Fraction(1, 1),), (Fraction(5, 4),), (Fraction(3, 2),)), "
        "slack=(Fraction(0, 1), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), "
        "Fraction(1, 4), Fraction(0, 1)), error_bound=Fraction(1, 4))"
    ),
    2: (
        "BruteResult(mode='constrained-reverse', feasible_count=10, "
        "min_value=Fraction(13, 42), eps_argmin=((Fraction(1, 2), Fraction(-1, 2)), "
        "(Fraction(1, 2), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 2)), "
        "(Fraction(1, 1), Fraction(0, 1))), slack=(Fraction(0, 1), Fraction(1, 2), "
        "Fraction(0, 1), Fraction(1, 3)), error_bound=Fraction(2, 3))"
    ),
    3: (
        "BruteResult(mode='reverse', feasible_count=18, min_value=Fraction(1, 2), "
        "eps_argmin=((Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(0, 1), Fraction(1, 2), Fraction(1, 2)), "
        "(Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1))), "
        "slack=(Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), "
        "Fraction(1, 6)), error_bound=Fraction(3, 2))"
    ),
}


def test_repr_is_pinned():
    one = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2))
    f2 = fn(2, ((F(1, 3), 1), F(1, 7)), ((F(1, 3), -1), F(1, 7)))
    g2 = fn(2, ((-1, 0), F(1, 2)))
    two = ReverseProblem(2, f2, fn(2, ((1, 0), 0)), (F(0), F(0)), F(1, 2), (g2,))
    f3 = fn(3, ((1, 1, 1), 0), ((-1, -1, -1), 0), ((1, -1, 0), F(1, 3)))
    h3 = fn(3, ((1, 0, -1), F(-1, 2)), ((-1, 0, 1), F(-1, 2)))
    three = ReverseProblem(3, f3, h3, (F(1), F(0), F(0)), F(2, 3))
    runs = {
        1: (one, "reverse", grid_1d()),
        2: (two, "constrained-reverse", GridSpec(((F(-1), F(1)),) * 2, F(1, 2))),
        3: (three, "reverse", GridSpec(((F(0), F(1)),) * 3, F(1, 2))),
    }
    for n, (p, mode, grid) in runs.items():
        assert repr(brute_eps_argmin(p, mode, grid)) == PINNED_REPRS[n], n
