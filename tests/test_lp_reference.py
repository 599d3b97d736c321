"""The lean simplex, and the integer certificate check, against the
references in `reference.py`."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from corpus import corpus, face_domain_family, wide_modes
from revopt import certificates, lp, oracle, pareto, polytope, subdiff
from revopt.certificates import MODES, membership_lp, verify
from revopt.lp import (
    CertificateError,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    _Simplex,
    check_outcome,
    lp_solve,
)
from revopt.model import InputError, _over_common_den
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
    # The reference reads the oriented rows densely: both encodings agree.
    check_outcome(problem_lp, old)
    return new


def test_random_lps_match_the_reference():
    rng = random.Random(71)
    kinds = {Optimal: 0, Unbounded: 0, Infeasible: 0}
    for _ in range(400):
        out = _assert_same(_random_lp(rng))
        kinds[type(out)] += 1
    assert min(kinds.values()) >= 20, kinds


def _check_result(check, problem_lp, outcome):
    """What `check` makes of an outcome: None, or the CertificateError's
    text."""
    try:
        check(problem_lp, outcome)
    except CertificateError as exc:
        return str(exc)
    return None


def _forgeries(outcome):
    """The outcome and its one-entry forgeries: each entry of each vector
    shifted by 1/7 and by -1/7, each nonzero multiplier negated, each entry
    dropped, a zero entry appended; an optimum's value shifted by 1/7 too."""
    yield outcome
    for name in reference.fields(outcome):
        vec = getattr(outcome, name)
        if not isinstance(vec, tuple):
            yield reference.replace(outcome, **{name: vec + F(1, 7)})
            continue
        yield reference.replace(outcome, **{name: vec + (F(0),)})
        for k, v in enumerate(vec):
            forged = [vec[:k] + (v + d,) + vec[k + 1 :] for d in (F(1, 7), F(-1, 7))]
            forged.append(vec[:k] + vec[k + 1 :])
            if name in ("dual", "farkas") and v:
                forged.append(vec[:k] + (-v,) + vec[k + 1 :])
            for new in forged:
                yield reference.replace(outcome, **{name: new})


def _random_and_probe_lps(monkeypatch):
    """The 400 random LPs, then every LP that `verify` solves on the problem
    files in each mode."""

    def run():
        for path in PROBLEMS:
            for mode in MODES:
                verify(load_problem(str(path)), mode)

    rng = random.Random(71)
    return [_random_lp(rng) for _ in range(400)] + _captured_lps(monkeypatch, run)


def test_the_integer_system_is_the_reference_layout_over_its_denominator(monkeypatch):
    # One builder makes the oriented system in integers for the tableau and
    # the certificate check: it is the Fraction layout, row for row, times
    # the least common denominator of its entries.
    for problem_lp in _random_and_probe_lps(monkeypatch):
        den, rows = lp._oriented(problem_lp)
        oriented = reference.reference_oriented_rows(problem_lp)
        assert den == math.lcm(
            *(v.denominator for terms, rhs, _eq in oriented for _j, v in (*terms, (0, rhs)))
        )
        assert rows == [
            ([(j, a * den) for j, a in terms], rhs * den, eq) for terms, rhs, eq in oriented
        ]
        assert all(type(v) is int for terms, rhs, _eq in rows for _j, v in (*terms, (0, rhs)))


def test_check_outcome_matches_the_fraction_reference_on_forgeries(monkeypatch):
    # The integer check gives the reference's verdict and error message on
    # every outcome, and each one-entry forgery of it, of the random LPs and
    # of the probes that `verify` solves on the problem files.
    rejected = set()
    compared = 0
    for problem_lp in _random_and_probe_lps(monkeypatch):
        for outcome in _forgeries(lp_solve(problem_lp)):
            got = _check_result(check_outcome, problem_lp, outcome)
            assert got == _check_result(reference.reference_check_outcome, problem_lp, outcome)
            compared += 1
            rejected.add(got)
    assert compared > 5000
    # Every rejection is reached but complementary slackness: a feasible x,
    # stationarity and strong duality already give y . (b - A x) = 0 with both
    # factors >= 0 termwise. A vector of the wrong length is rejected by its
    # length, before any entry is read.
    assert rejected == {
        None,
        "x length mismatch",
        "point length mismatch",
        "ray length mismatch",
        "claimed point is infeasible",
        "objective value mismatch",
        "dual length mismatch",
        "dual sign violated on inequality row",
        "dual stationarity violated",
        "strong duality violated",
        "farkas length mismatch",
        "farkas sign violated on inequality row",
        "farkas combination is not 0^T x",
        "farkas combination fails to contradict",
        "ray is not a recession direction",
        "ray does not improve the objective",
    }


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


def test_every_probe_of_verify_carries_the_system_its_constructor_builds(monkeypatch):
    # A probe is derived from its (problem, mode)'s zero right-hand side
    # template by `with_rhs`, and its integer system is the template's
    # rescaled, not built anew: on the problem files, the acceptance corpus
    # and h with a face domain (ray checks), in every mode, each probe's
    # system is the one that `_oriented` builds from the same LP assembled by
    # the constructor. A ray check's probe is one of them, at its direction.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000) + face_domain_family(24)
    probes = []
    original = certificates.membership_lp

    def record(*args):
        probes.append(original(*args))
        return probes[-1]

    monkeypatch.setattr(certificates, "membership_lp", record)
    ray_probes = []
    for problem in problems:
        for mode in MODES:
            log = verify(problem, mode).log
            ray_probes += [rec.evidence.lp for rec in log if rec.kind == "ray"]
    monkeypatch.undo()
    assert len(probes) > 1000
    assert any(b.denominator > 1 for probe in probes for *_, b in probe.rows)
    # every probe maximizes alpha = sum lam, the first of its lam columns
    assert all(probe.objective[0] == 1 for probe in probes)
    assert ray_probes and all("_template" in vars(probe) for probe in ray_probes)
    assert {id(probe) for probe in ray_probes} <= {id(probe) for probe in probes}
    for probe in probes:
        built = LinearProgram(
            probe.n, probe.objective, probe.sense, probe.rows, probe.lower, probe.upper
        )
        assert built == probe
        assert probe._system == lp._oriented(built)


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


def test_the_probe_template_starts_from_its_columns_as_the_generic_layout_starts_it():
    # A probe template's tableau is laid out in closed form from its integer
    # columns (`_Simplex.from_columns`), without its oriented system. The
    # generic layout `_Simplex(template)` is the reference: on every template
    # of the problem files, the corpus, h with a face domain and the rational
    # wide instances, in every mode, the two starts agree field by field and
    # solve to equal outcomes and final tableaux.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000) + face_domain_family(30)
    problems += [instance.problem for instance in wide_modes(0)]
    kinds = set()
    laid_out = 0
    for problem in problems:
        zero = (F(0),) * problem.n
        for mode in MODES:
            try:
                template = membership_lp(problem, mode, F(0), zero)
            except InputError:  # x_bar is off dom f: there is no probe
                continue
            closed = _Simplex.from_columns(template, vars(template)["_columns"])
            assert "_system" not in vars(template)
            generic = _Simplex(template)
            assert vars(closed) == vars(generic)
            outcome = closed.solve()
            assert outcome == generic.solve() and vars(closed) == vars(generic)
            kinds.add(type(outcome))
            laid_out += 1
    assert laid_out > 1000 and kinds == {Optimal, Unbounded}


# -- warm starts -----------------------------------------------------------------


def _assert_warm_matches(problem_lp, outcome, solved=None):
    """`outcome`, which `lp_solve` gave `problem_lp`, against the reference
    simplex: same kind and value, and a certificate that re-validates. The
    reference's outcomes are kept in `solved`, by LP, when it is given."""
    if solved is None:
        solved = {}
    if problem_lp not in solved:
        solved[problem_lp] = reference.reference_lp_solve(problem_lp)
    old = solved[problem_lp]
    assert type(outcome) is type(old)
    if isinstance(outcome, Optimal):
        assert outcome.value == old.value
    check_outcome(problem_lp, outcome)


def test_lps_re_solved_from_their_template_match_the_reference(monkeypatch):
    # Any LP solved to an optimum is a template: the LPs `with_rhs` derives
    # from it re-solve from its final basis, with every bound kind, free
    # columns, and rows that start from an artificial.
    resolved = []
    original = _Simplex.resolved
    monkeypatch.setattr(
        _Simplex, "resolved", lambda self, lp: resolved.append(lp) or original(self, lp)
    )
    rng = random.Random(73)
    kinds = {Optimal: 0, Infeasible: 0}
    pivoted = 0
    for _ in range(400):
        template = _random_lp(rng)
        lp_solve(template)
        for _ in range(3):
            values = [_rational(rng, 5) for _ in template.rows]
            derived = template.with_rhs(_over_common_den(values))
            out = lp_solve(derived)
            _assert_warm_matches(derived, out)
            if resolved and resolved[-1] is derived:
                kinds[type(out)] += 1
                pivoted += derived._solved.basis != template._solved.basis
    assert min(kinds.values()) >= 40 and pivoted >= 40, (kinds, pivoted)


def _redundant_lp(rng):
    """x + y = b1, y - z = b2 and their sum x + 2y - z = b3 over x, y, z >= 0,
    under a random objective that keeps the minimum bounded: phase 1 drops
    the third row as redundant, and it stays so for every right-hand side."""
    rows = (((1, 1, 0), "=", rng.randint(0, 3)), ((0, 1, -1), "=", rng.randint(-2, 2)))
    rows += (((1, 2, -1), "=", rows[0][2] + rows[1][2]),)
    objective = tuple(_rational(rng, 3) + 4 for _ in range(3))
    return LinearProgram(3, objective, "min", rows, (0, 0, 0))


def test_warm_re_solves_take_each_path_and_match_the_reference(monkeypatch):
    # A re-solve takes the dual simplex's first step on its template's shared
    # rows. Each of its paths, on templates whose right-hand sides are not
    # zero, matches the reference simplex and re-validates:
    # - optimal with no pivot: the rows are shared and the dual is the
    #   template's own;
    # - blocked with no pivot: the Farkas vector is read off the template's
    #   row, signed by the row's new right-hand side, not by its own, which
    #   is >= 0 and often > 0;
    # - a pivot: only then are the rows copied;
    # - a row dropped as redundant whose new right-hand side is not 0;
    # - a derived LP used as a template in turn, whether it pivoted or not.
    read = []  # (row, rhs) of each Farkas vector read off a tableau row
    original = _Simplex._row_farkas
    monkeypatch.setattr(
        _Simplex, "_row_farkas", lambda self, row, rhs: read.append((row, rhs)) or original(self, row, rhs)
    )
    rng = random.Random(79)
    paths = dict.fromkeys(
        (
            "optimal",
            "blocked",
            "blocked where the template's is > 0",
            "pivot",
            "dropped",
            "optimal, then a template",
            "pivot, then a template",
        ),
        0,
    )

    def re_solve(template, depth):
        out = lp_solve(template)
        if not isinstance(out, Optimal):
            return
        solved = template._solved
        for _ in range(3):
            read.clear()
            values = [_rational(rng, 5) for _ in template.rows]
            derived = template.with_rhs(_over_common_den(values))
            got = lp_solve(derived)
            _assert_warm_matches(derived, got)
            warm = derived._solved
            if warm.tab is not solved.tab:
                assert warm.basis != solved.basis
                path = "pivot"
            elif isinstance(got, Optimal):
                assert got.dual is out.dual and warm.basis == solved.basis
                path = "optimal"
            else:
                ((row, rhs),) = read
                assert got.farkas == original(solved, row, rhs)
                r = next(r for r, other in enumerate(solved.tab) if other is row)
                if r in solved.live:
                    # an optimal tableau's right-hand sides are >= 0
                    assert rhs < 0 <= row[1][-1]
                    path = "blocked"
                    paths["blocked where the template's is > 0"] += row[1][-1] > 0
                else:
                    assert rhs != 0
                    path = "dropped"
            paths[path] += 1
            if depth == 0 and isinstance(got, Optimal):
                paths[f"{path}, then a template"] += 1
                re_solve(derived, 1)

    for _ in range(150):
        re_solve(_random_lp(rng), 0)
    for _ in range(30):
        re_solve(_redundant_lp(rng), 0)
    assert len(paths) == 7 and min(paths.values()) >= 20, paths


def test_every_probe_of_verify_matches_the_reference_through_the_real_solver(monkeypatch):
    # Each probe as `verify` solves it, warm from the gate probe's basis or
    # not, on the problem files, the corpus head, h with a face domain and
    # the rational wide instances, in every mode.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000)[:50] + face_domain_family(24)
    problems += [instance.problem for instance in wide_modes(0)]
    seen = []

    def record(problem_lp):
        outcome = lp.lp_solve(problem_lp)
        seen.append((problem_lp, outcome))
        return outcome

    monkeypatch.setattr(certificates, "lp_solve", record)
    for problem in problems:
        for mode in MODES:
            verify(problem, mode)
    monkeypatch.undo()
    warm = [out for probe, out in seen if "_template" in vars(probe)]
    assert len(warm) > 500
    assert {type(out) for out in warm} == {Optimal, Infeasible}
    solved = {}  # an LP that two modes share is solved by the reference once
    for problem_lp, outcome in seen:
        _assert_warm_matches(problem_lp, outcome, solved)
    assert len(solved) < len(seen)


def test_a_probe_can_take_dual_pivots():
    # min x + 2y over x, y >= 0 and x + y >= 0 ends on its slack's basis; at
    # x + y >= 1 that row's right-hand side turns negative, and the dual
    # ratio test brings in x, the column of least reduced cost.
    template = LinearProgram(2, (1, 2), rows=(((1, 1), ">=", 0),), lower=(0, 0))
    assert lp_solve(template) == Optimal((0, 0), 0, (0, 1, 2))
    derived = template.with_rhs(([1], 1))
    out = lp_solve(derived)
    assert out == Optimal((1, 0), 1, (1, 0, 1))
    assert derived._solved.basis != template._solved.basis
    _assert_warm_matches(derived, out)
    # at x + y >= -1 the basis stays optimal: no pivot
    relaxed = template.with_rhs(([-1], 1))
    assert lp_solve(relaxed) == Optimal((0, 0), 0, (0, 1, 2))
    assert relaxed._solved.basis == template._solved.basis


def test_a_row_dropped_as_redundant_proves_a_probe_infeasible(monkeypatch):
    # x + y = 0 and 2x + 2y = 0: phase 1 drops the second row as redundant.
    # A probe whose right-hand sides break 2 * (row 1) = (row 2) is
    # infeasible by that combination alone, without a dual simplex step.
    template = LinearProgram(
        2, (1, 0), rows=(((1, 1), "=", 0), ((2, 2), "=", 0)), lower=(0, 0)
    )
    assert isinstance(lp_solve(template), Optimal)
    assert len(template._solved.live) == 1

    def refuse(self, cost):
        raise AssertionError("the dual simplex ran")

    monkeypatch.setattr(_Simplex, "_dual_run", refuse)
    for rhs in ((1, 3), (1, 1), (F(1, 2), 0)):
        derived = template.with_rhs(_over_common_den(rhs))
        out = lp_solve(derived)
        assert isinstance(out, Infeasible)
        assert out.farkas[2:] == (0, 0)  # no lower bound takes part
        _assert_warm_matches(derived, out)
    monkeypatch.undo()
    consistent = template.with_rhs(([1, 2], 1))
    assert lp_solve(consistent) == reference.reference_lp_solve(consistent)


def test_a_zero_right_hand_side_lp_with_equality_rows_skips_phase_one(monkeypatch):
    # Every artificial is 0 at the start: no phase-1 cost row and no Bland
    # iterations, only the artificials driven out and phase 2. Phase 2's cost
    # row is the objective carried through the drive-out's pivots, never
    # made afresh: at phase 2's start it is the row `_cost_row` makes for the
    # basis the drive-out left, on this LP and on every probe template of
    # the problem files, the corpus head and the rational wide instances.
    runs, cost_rows, carried = [], [], []
    original_run, original_cost_row = _Simplex._run, _Simplex._cost_row

    def run(self, cost, allowed):
        if not runs and not any(self.rhs[0]):  # phase 2's run: phase 1 skipped
            fresh = original_cost_row(self, self._objective_row())
            assert cost == fresh
            carried.append(cost != self._objective_row())
        runs.append(1)
        return original_run(self, cost, allowed)

    monkeypatch.setattr(_Simplex, "_run", run)
    monkeypatch.setattr(
        _Simplex, "_cost_row", lambda self, start: cost_rows.append(1) or original_cost_row(self, start)
    )
    # max x + y over x - y = 0, x + 2y - z = 0, x <= 2y and x, y, z >= 0
    problem_lp = LinearProgram(
        3,
        (1, 1, 0),
        "max",
        rows=(((1, -1, 0), "=", 0), ((1, 2, -1), "=", 0), ((1, -2, 0), "<=", 0)),
        lower=(0, 0, 0),
    )
    simplex = _Simplex(problem_lp)
    assert simplex.nart == 2
    out = simplex.solve()
    assert len(runs) == 1 and cost_rows == [] and carried == [True]
    assert isinstance(out, Unbounded)
    _assert_warm_matches(problem_lp, out)
    # the same LP with a nonzero right-hand side runs phase 1, and phase 2's
    # cost row is made for the basis phase 1 left
    runs.clear()
    _Simplex(problem_lp.with_rhs(([0, 1, 0], 1))).solve()
    assert len(runs) == 2 and len(cost_rows) == 2
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000)[:50]
    problems += [instance.problem for instance in wide_modes(0)]
    carried.clear()
    cost_rows.clear()
    for problem in problems:
        zero = (F(0),) * problem.n
        for mode in MODES:
            try:
                template = membership_lp(problem, mode, F(0), zero)
            except InputError:  # x_bar is off dom f: there is no probe
                continue
            runs.clear()
            _Simplex.from_columns(template, vars(template)["_columns"]).solve()
            assert len(runs) == 1
    assert cost_rows == [] and len(carried) > 1000 and carried.count(True) > 900


def test_a_probe_solved_in_a_fresh_problem_matches_the_one_verify_logged():
    # A probe's outcome is fixed by its template and right-hand sides: solved
    # in a fresh problem, where no gate probe was solved before, each logged
    # vertex check comes out as `verify` logged it.
    problems = [load_problem(str(path)) for path in PROBLEMS]
    problems += corpus(120, 80, seed_base=1000)[:50]
    compared = 0
    for problem in problems:
        for mode in MODES:
            for rec in verify(problem, mode).log:
                if rec.kind != "vertex" or not any((rec.eps_prime, *rec.generator)):
                    continue
                fresh = reference.replace(problem)
                ev = certificates.union_member(fresh, mode, rec.eps_prime, rec.generator)
                assert vars(fresh)["_probe_templates"][mode] is vars(ev.lp)["_template"]
                assert ev.outcome == rec.evidence.outcome
                compared += 1
    assert compared >= 50
