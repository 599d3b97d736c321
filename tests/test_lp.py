import random
from fractions import Fraction

import pytest

from revopt.lp import (
    INF,
    NEG_INF,
    CertificateError,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    _oriented,
    check_outcome,
    lp_max_component,
    lp_solve,
    lp_value,
    max_component_lp,
)
from revopt.model import InputError


def test_min_with_lower_bound():
    lp = LinearProgram(1, (1,), "min", rows=(((1,), ">=", 3),))
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.x == (3,)
    assert out.value == 3
    check_outcome(lp, out)


def test_infeasible_with_farkas():
    lp = LinearProgram(1, (1,), "min", rows=(((1,), "<=", 0), ((1,), ">=", 1)))
    out = lp_solve(lp)
    assert isinstance(out, Infeasible)
    # Oriented rows are x <= 0 and -x <= -1; the combination (1,1) gives 0 <= -1.
    assert out.farkas == (1, 1)
    check_outcome(lp, out)


def test_unbounded_with_ray():
    lp = LinearProgram(1, (1,), "max", rows=(((1,), ">=", 0),))
    out = lp_solve(lp)
    assert isinstance(out, Unbounded)
    assert out.ray == (1,)
    check_outcome(lp, out)


_EMPTY = (((1,), "<=", 0), ((1,), ">=", 1))


@pytest.mark.parametrize(
    "sense, rows, kind, value",
    [
        pytest.param("min", (((1,), ">=", 3),), Optimal, 3, id="min-optimal"),
        pytest.param("max", (((1,), "<=", 3),), Optimal, 3, id="max-optimal"),
        pytest.param("min", (((1,), "<=", 3),), Unbounded, NEG_INF, id="min-unbounded"),
        pytest.param("max", (((1,), ">=", 3),), Unbounded, INF, id="max-unbounded"),
        pytest.param("min", _EMPTY, Infeasible, INF, id="min-infeasible"),
        pytest.param("max", _EMPTY, Infeasible, NEG_INF, id="max-infeasible"),
    ],
)
def test_lp_value_reads_every_outcome_in_the_extended_reals(sense, rows, kind, value):
    # inf of the empty set is +inf and its sup -inf (Rockafellar, section 4).
    lp = LinearProgram(1, (1,), sense, rows=rows)
    out = lp_solve(lp)
    assert isinstance(out, kind)
    assert lp_value(lp, out) == value


def test_max_component_box():
    lp = LinearProgram(1, (0,), rows=(((1,), ">=", 0), ((1,), "<=", 2)))
    assert lp_max_component(lp, 0) == 2


def test_max_component_degenerate_point():
    lp = LinearProgram(1, (0,), rows=(((1,), "=", 0),))
    assert lp_max_component(lp, 0) == 0


def test_max_component_unbounded():
    lp = LinearProgram(1, (0,), rows=(((1,), ">=", 0),))
    assert lp_max_component(lp, 0) == INF


def test_max_component_infeasible():
    lp = LinearProgram(1, (0,), rows=(((1,), "<=", -1), ((1,), ">=", 1)))
    assert lp_max_component(lp, 0) == NEG_INF


def test_max_component_index_error():
    lp = LinearProgram(1, (0,))
    with pytest.raises(InputError):
        lp_max_component(lp, 3)


def test_two_dim_vertex_optimum_with_duals():
    # min x + y on the triangle x >= 0, y >= 0, x + y >= 2.
    lp = LinearProgram(
        2,
        (1, 1),
        "min",
        rows=(((1, 1), ">=", 2),),
        lower=(0, 0),
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.value == 2
    check_outcome(lp, out)


def test_equalities_and_bounds_mix():
    # max 3x + 2y s.t. x + y = 4, x - y <= 2, 0 <= x <= 3, y >= 0.
    lp = LinearProgram(
        2,
        (3, 2),
        "max",
        rows=(((1, 1), "=", 4), ((1, -1), "<=", 2)),
        lower=(0, 0),
        upper=(3, None),
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.x == (3, 1)
    assert out.value == 11
    check_outcome(lp, out)


def _random_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    rows = tuple(
        (
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)),
            rng.choice(["<=", "=", ">="]),
            Fraction(rng.randint(-6, 6)),
        )
        for _ in range(m)
    )
    lower = tuple(
        Fraction(rng.randint(-5, 0)) if rng.random() < 0.4 else None for _ in range(n)
    )
    upper = tuple(
        Fraction(rng.randint(1, 6)) if rng.random() < 0.4 else None for _ in range(n)
    )
    obj = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    return LinearProgram(
        n, obj, rng.choice(["min", "max"]), rows=rows, lower=lower, upper=upper
    )


def test_random_certificates_all_validate():
    rng = random.Random(13)
    tags = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    for _ in range(300):
        lp = _random_lp(rng)
        out = lp_solve(lp)
        check_outcome(lp, out)
        tags[type(out).__name__.lower()] += 1
    # The sweep must exercise every outcome kind.
    assert all(v > 0 for v in tags.values()), tags


def test_determinism_repeated_solves():
    rng = random.Random(29)
    for _ in range(40):
        lp = _random_lp(rng)
        assert lp_solve(lp) == lp_solve(lp)


def test_max_component_lp_maximizes_one_variable_and_carries_no_cache():
    lp = LinearProgram(2, (1, 1), rows=(((1, 2), "<=", 3),), lower=(0, None))
    probe = max_component_lp(lp, 1)
    assert (probe.objective, probe.sense) == ((0, 1), "max")
    assert (probe.rows, probe.lower, probe.upper) == (lp.rows, lp.lower, lp.upper)
    assert lp.objective == (1, 1) and lp.sense == "min"
    # What lp cached for its own objective, its solve among it, is not carried
    # over, and neither is a template of lp's: the probe is solved afresh.
    derived = lp.with_rhs(([2], 1))
    assert isinstance(lp_solve(derived), Unbounded)  # min x + y with y free
    for source in (lp, derived):
        probe = max_component_lp(source, 1)
        assert not {"_costs", "_solved", "_template"} & set(vars(probe))
        fresh = LinearProgram(2, (0, 1), "max", source.rows, source.lower)
        assert lp_solve(probe) == lp_solve(fresh) and lp_value(probe, lp_solve(probe)) > 0


def test_derived_lps_carry_only_their_fields_and_named_caches():
    # `with_rhs` and `max_component_lp` build an LP from its fields, so
    # nothing else that sits in the source LP's instance dict reaches it.
    lp = LinearProgram(2, (1, 1), rows=(((1, 2), "<=", 0),), lower=(0, None))
    lp_solve(lp)
    planted = object()
    vars(lp)["_planted"] = planted
    fields = {"n", "objective", "sense", "rows", "lower", "upper"}
    derived = lp.with_rhs(([2], 1))
    # a derived LP's rows are made when first read
    assert set(vars(derived)) == fields - {"rows"} | {"_costs", "_rhs", "_template"}
    assert vars(derived)["_template"] is lp
    probe = max_component_lp(lp, 0)
    assert set(vars(probe)) == fields
    assert not any(value is planted for value in (*vars(derived).values(), *vars(probe).values()))


def test_with_rhs_validates_only_the_new_right_hand_sides(monkeypatch):
    # The right-hand sides come in integers over one denominator, so only
    # their count is checked, and nothing is parsed.
    template = LinearProgram(
        2, (1, 1), rows=(((1, 2), "<=", 0), ((Fraction(1, 3), -1), ">=", 0)), lower=(0, None)
    )
    derived = template.with_rhs(([1, 6], 2))
    assert derived == LinearProgram(
        2, (1, 1), rows=(((1, 2), "<=", "1/2"), (("1/3", -1), ">=", 3)), lower=(0, None)
    )
    assert derived.rows[0][0] is template.rows[0][0]
    # The derived LP's system, once asked for, is the template's rescaled to
    # the new common denominator 6: it is the one `_oriented` builds, and
    # only the template's is built.
    oriented = []
    monkeypatch.setattr("revopt.lp._oriented", lambda lp: oriented.append(lp) or _oriented(lp))
    assert vars(derived)["_template"] is template and "_system" not in vars(derived)
    assert derived._system == _oriented(derived) and derived._system[0] == 6
    assert oriented == [template]
    # From an LP whose right-hand sides are not zero, `_oriented` builds it.
    again = derived.with_rhs(([1, 2], 1))
    assert "_system" not in vars(again) and again._system == _oriented(again)
    assert oriented == [template, again]
    for bad in (([1], 1), ([1, 2, 3], 1)):
        with pytest.raises(InputError):
            template.with_rhs(bad)
    calls = []
    monkeypatch.setattr("revopt.lp.rat", lambda v: calls.append(v) or Fraction(v))
    template.with_rhs(([4, 5], 1))
    assert calls == []


def test_an_lp_derived_from_an_integer_image_builds_its_rows_when_read():
    # `with_rhs` handed the right-hand sides in integers, not in lowest terms
    # here, takes them unchecked but for their length: the derived LP
    # re-solves from its template and is checked without rows of its own,
    # its system the template's rescaled, and its rows, built on first read,
    # are those the values make.
    template = LinearProgram(
        2, (1, 1), rows=(((1, 2), "<=", 0), ((Fraction(1, 3), -1), ">=", 0)), lower=(0, 0)
    )
    by_values = LinearProgram(
        2, (1, 1), rows=(((1, 2), "<=", "1/2"), (("1/3", -1), ">=", 3)), lower=(0, 0)
    )
    derived = template.with_rhs(image=([6, 36], 12))
    check_outcome(derived, lp_solve(derived))
    assert derived._system == _oriented(by_values) and derived._system[0] == 6
    assert "rows" not in vars(derived)
    assert derived.rows == by_values.rows and derived == by_values
    assert derived.rows[0][0] is template.rows[0][0] and "rows" in vars(derived)
    for image in (([1], 1), ([1, 2, 3], 1)):
        with pytest.raises(InputError):
            template.with_rhs(image=image)


def test_the_objective_is_brought_to_its_common_denominator_once_per_template(monkeypatch):
    # The LPs `with_rhs` derives share their template's objective, and its
    # integer form: the simplex and `check_outcome` of each read the one
    # made for the template.
    import revopt.lp

    template = LinearProgram(
        2, (Fraction(1, 2), Fraction(1, 3)), rows=(((1, 1), ">=", 0),), lower=(0, 0)
    )
    scaled = []
    original = revopt.lp._over_common_den
    monkeypatch.setattr(
        revopt.lp, "_over_common_den", lambda values: scaled.append(values) or original(values)
    )
    check_outcome(template, lp_solve(template))
    for image in (([1], 1), ([-2], 1), ([1], 2)):
        derived = template.with_rhs(image)
        assert derived._costs is template._costs
        check_outcome(derived, lp_solve(derived))
    assert [values for values in scaled if values is template.objective] == [template.objective]


def _bounded_lp(objective=(-1, 1, 0), sense="min", rhs=1):
    """x + y - z >= rhs and y - z = 0 with 0 <= x <= 2, y >= 0 and z free.

    Oriented rows: -x - y + z <= -rhs, y - z = 0, -x <= 0, x <= 2, -y <= 0.
    """
    rows = (((1, 1, -1), ">=", rhs), ((0, 1, -1), "=", 0))
    return LinearProgram(3, objective, sense, rows, (0, 0, None), (2, None, None))


# min y - x is -2 at (2, 0, 0), with multipliers on x <= 2 and -y <= 0; max y
# is unbounded along (0, 1, 1); rhs = 3 is infeasible since x <= 2. Where the
# algebra allows, a forgery breaks one condition only: slackness cannot be,
# since feasibility, stationarity and strong duality imply it.
X, DUAL = (2, 0, 0), (0, 0, 0, 1, 1)
FORGED_LPS = {
    Optimal: _bounded_lp(),
    Unbounded: _bounded_lp((0, 1, 0), "max"),
    Infeasible: _bounded_lp(rhs=3),
}


@pytest.mark.parametrize(
    "forged",
    [
        pytest.param(Optimal(X, -2, (0, 0, -1, 0, 1)), id="negative-lower-bound-dual"),
        pytest.param(Optimal(X, -2, (0, 0, 0, 2, 1)), id="shifted-upper-bound-dual"),
        pytest.param(Optimal(X, -2, (0, 0, 0, 1, 2)), id="only-stationarity-broken"),
        pytest.param(Optimal((3, 0, 0), -3, DUAL), id="x-above-upper-bound"),
        pytest.param(Optimal((2, 0, 1), -2, DUAL), id="only-x-off-equality-row"),
        pytest.param(Optimal(X, -2, DUAL[:-1]), id="dual-one-short"),
        pytest.param(Optimal((1, 0, 0), -1, DUAL), id="no-strong-duality"),
        pytest.param(Optimal(X, -2, (0, 0, 1, 2, 1)), id="bound-row-not-complementary"),
        # x <= 0 read off -x <= 0: only the sign is wrong
        pytest.param(Infeasible((1, 1, -1, 0, 0)), id="farkas-sign-flip-on-bound-row"),
        pytest.param(Infeasible((1, 1, 0, 1, 1)), id="farkas-combination-nonzero"),
        pytest.param(Unbounded((0, -1, -1), (1, 0, 0)), id="ray-leaves-lower-bound"),
        pytest.param(Unbounded((0, 0, 0), (1, 0, 0)), id="ray-without-drift"),
    ],
)
def test_forged_certificates_are_rejected(forged):
    lp = FORGED_LPS[type(forged)]
    genuine = lp_solve(lp)
    assert type(genuine) is type(forged) and genuine != forged
    check_outcome(lp, genuine)
    with pytest.raises(CertificateError):
        check_outcome(lp, forged)
