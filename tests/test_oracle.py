from collections import Counter
from fractions import Fraction

import pytest

from revopt.model import AffineForm, InputError, PolyhedralConvexFunction, ReverseProblem
from revopt import oracle
from revopt.oracle import (
    GridSpec,
    boundary_equivalence_check,
    boundary_projection,
    brute_eps_argmin,
)

F = Fraction


def fn(n, *pieces):
    return PolyhedralConvexFunction(n, tuple(AffineForm(a, b) for a, b in pieces))


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
    with pytest.raises(InputError):
        GridSpec(((F(0), F(1)),), F(3, 7))
    with pytest.raises(InputError):
        GridSpec(((F(0), F(1)),), F(1, 100), cap=50)


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


def test_brute_error_bound():
    p = ReverseProblem(1, steep(), abs_minus_one(), (F(1),), F(0))
    res = brute_eps_argmin(p, "reverse", grid_1d(F(1, 4)))
    assert res.error_bound == F(1, 2)  # L = 2, step = 1/4


def test_boundary_projection_examples():
    f, h = absf(), abs_minus_one()
    pi = boundary_projection(f, h, (F(2),), (F(0),))
    assert pi == (F(1),)
    pi = boundary_projection(f, h, (F(-3),), (F(0),))
    assert pi == (F(-1),)
    with pytest.raises(InputError):
        boundary_projection(f, h, (F(1),), (F(0),))  # h(x) = 0 is not > 0


def test_boundary_projection_2d():
    # h(x) = max(x1, x2) - 1 crosses zero on the segment from (2,2) to (0,0).
    h = fn(2, ((1, 0), -1), ((0, 1), -1))
    f = fn(2, ((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0))
    pi = boundary_projection(f, h, (F(2), F(2)), (F(0), F(0)))
    assert pi == (F(1), F(1))
    assert h.value(pi) == 0


def test_boundary_equivalence_abs():
    rep = boundary_equivalence_check(absf(), abs_minus_one(), grid_1d(), F(0))
    assert rep.applicable
    assert rep.equality_side == ((F(-1),), (F(1),))
    assert rep.reverse_side == ((F(-1),), (F(1),))
    assert rep.passed


def test_boundary_equivalence_steep():
    rep = boundary_equivalence_check(steep(), abs_minus_one(), grid_1d(), F(0))
    assert rep.applicable
    assert rep.equality_side == ((F(-1),),)
    assert rep.passed


def test_boundary_equivalence_steep_relaxed():
    rep = boundary_equivalence_check(steep(), abs_minus_one(), grid_1d(), F(1))
    assert rep.equality_side == ((F(-1),), (F(1),))
    assert rep.reverse_side == ((F(-1),), (F(1),))
    assert rep.passed


def test_boundary_equivalence_inapplicable_when_essential_fails():
    # f constant: the grid minimum over all points equals the feasible one.
    f = fn(1, ((0,), 5))
    rep = boundary_equivalence_check(f, abs_minus_one(), grid_1d(), F(0))
    assert not rep.applicable


def test_brute_evaluates_each_grid_function_once_per_point(monkeypatch):
    # f is evaluated at the feasible points only, h and G at every point.
    calls = []
    original = oracle._GridEvaluator.value

    def counted(self, idx):
        calls.append((id(self), idx))
        return original(self, idx)

    monkeypatch.setattr(oracle._GridEvaluator, "value", counted)
    g = fn(1, ((1,), -2))
    p = ReverseProblem(1, absf(), abs_minus_one(), (F(1),), F(1, 2), (g,))
    grid = grid_1d()
    for mode in ("reverse", "equality", "constrained-reverse", "convex"):
        calls.clear()
        res = brute_eps_argmin(p, mode, grid)
        assert res.eps_argmin and len(set(calls)) == len(calls)
        counts = sorted(Counter(key for key, _ in calls).values())
        assert counts[-1] == 25 and counts[0] == res.feasible_count
