"""The lean simplex against the split-variable reference in `reference.py`."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from corpus import corpus
from revopt import certificates, lp, oracle, pareto, polytope, subdiff
from revopt.certificates import MODES, membership_lp, verify
from revopt.lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    _Simplex,
    check_outcome,
    lp_solve,
)
from revopt.problemfile import load_problem

F = Fraction
DENOMINATORS = (1, 2, 3, 5)
PROBLEMS = sorted(Path(__file__).resolve().parent.parent.glob("problems/*.json"))


def _rational(rng, bound):
    d = rng.choice(DENOMINATORS)
    return F(rng.randint(-bound * d, bound * d), d)


def _random_lp(rng):
    """Free, lower-bounded (l != 0 too) and upper-bounded variables; rows of
    all three relations with rational data."""
    n = rng.randint(1, 4)
    rows = tuple(
        (
            tuple(_rational(rng, 3) if rng.random() < 0.8 else F(0) for _ in range(n)),
            rng.choice(("<=", "=", ">=")),
            _rational(rng, 5),
        )
        for _ in range(rng.randint(0, 5))
    )
    lower = []
    upper = []
    for _ in range(n):
        low = rng.choice((None, F(0), _rational(rng, 3)))
        lower.append(low)
        up = None
        if rng.random() < 0.35:
            up = _rational(rng, 4)
            if low is not None and rng.random() < 0.9:
                up = max(up, low)
        upper.append(up)
    obj = tuple(_rational(rng, 3) for _ in range(n))
    sense = rng.choice(("min", "max"))
    return LinearProgram(n, obj, sense, rows, tuple(lower), tuple(upper))


def _assert_same(problem_lp):
    new = lp_solve(problem_lp)
    old = reference.reference_lp_solve(problem_lp)
    assert type(new) is type(old)
    if isinstance(new, Optimal):
        assert new.value == old.value
    check_outcome(problem_lp, new)
    return new


def test_random_lps_match_the_reference():
    rng = random.Random(71)
    kinds = {Optimal: 0, Unbounded: 0, Infeasible: 0}
    for _ in range(400):
        out = _assert_same(_random_lp(rng))
        kinds[type(out)] += 1
    assert min(kinds.values()) >= 20, kinds


def _captured_lps(monkeypatch, run):
    """Every LP that `run()` solves, at each module that binds lp_solve."""
    seen = []

    def record(problem_lp):
        seen.append(problem_lp)
        return lp._Simplex(problem_lp).solve()

    for module in (lp, certificates, subdiff, polytope, oracle, pareto):
        monkeypatch.setattr(module, "lp_solve", record)
    run()
    monkeypatch.undo()
    return seen


def test_every_lp_of_verify_on_the_problem_files_matches(monkeypatch):
    problems = [load_problem(str(path)) for path in PROBLEMS]
    assert len(problems) >= 2

    def run():
        for problem in problems:
            for mode in MODES:
                verify(problem, mode)

    lps = _captured_lps(monkeypatch, run)
    assert len(lps) >= 10
    for problem_lp in lps:
        _assert_same(problem_lp)


def test_every_lp_of_verify_on_the_corpus_head_matches(monkeypatch):
    instances = corpus(120, 80, seed_base=1000)[:50]

    def run():
        for problem in instances:
            for mode in MODES:
                verify(problem, mode)

    lps = _captured_lps(monkeypatch, run)
    assert len(lps) >= 200
    kinds = {type(_assert_same(problem_lp)) for problem_lp in lps}
    assert kinds == {Optimal, Unbounded, Infeasible}


# -- the shape of the tableau --------------------------------------------------


def test_nonnegative_columns_are_native_and_their_bounds_leave_the_tableau():
    problem = load_problem(str(PROBLEMS[0]))
    membership = membership_lp(problem, "rop", F(0), (F(1),))
    assert all(low == 0 for low in membership.lower)
    simplex = _Simplex(membership)
    assert len(simplex.tab) == len(membership.rows)
    assert all(q is None for _p, q in simplex.cols)
    assert simplex.nreal == membership.n + sum(
        1 for _a, rel, _b in membership.rows if rel != "="
    )


def test_shifted_lower_bounds_and_upper_bounds():
    # min x on x + y >= 1 with 2 <= x <= 5 and y free: one native column for
    # x, two for y, and only the row and the upper bound in the tableau.
    problem_lp = LinearProgram(
        2, (1, 0), rows=(((1, 1), ">=", 1),), lower=(2, None), upper=(5, None)
    )
    simplex = _Simplex(problem_lp)
    assert simplex.cols == [(0, None), (1, 2)]
    assert len(simplex.tab) == 2
    out = lp_solve(problem_lp)
    assert isinstance(out, Optimal) and out.value == 2
    # Oriented rows: -x - y <= -1, then -x <= -2 and x <= 5; the lower
    # bound's multiplier is x's reduced cost.
    assert out.dual == (0, 1, 0)
    check_outcome(problem_lp, out)


def test_slack_started_lps_run_no_phase_one(monkeypatch):
    runs = []
    original = _Simplex._run

    def counting(self, cost, allowed):
        runs.append(allowed)
        return original(self, cost, allowed)

    monkeypatch.setattr(_Simplex, "_run", counting)
    # max x + 2y on x + y <= 4, x - y <= 1, 0 <= x, 0 <= y <= 3.
    problem_lp = LinearProgram(
        2,
        (1, 2),
        "max",
        rows=(((1, 1), "<=", 4), ((1, -1), "<=", 1)),
        lower=(0, 0),
        upper=(None, 3),
    )
    simplex = _Simplex(problem_lp)
    assert simplex.nart == 0
    out = simplex.solve()
    assert len(runs) == 1
    assert isinstance(out, Optimal) and out.value == 7
    check_outcome(problem_lp, out)


@pytest.mark.parametrize("rel,rhs", [("<=", -1), (">=", 1), ("=", 0)])
def test_rows_that_cannot_start_from_their_slack_get_an_artificial(rel, rhs):
    problem_lp = LinearProgram(1, (1,), rows=(((1,), rel, rhs),), lower=(0,))
    simplex = _Simplex(problem_lp)
    assert simplex.nart == 1
    _assert_same(problem_lp)
