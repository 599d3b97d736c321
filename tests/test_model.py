import json
import random
from fractions import Fraction
from pathlib import Path

F = Fraction

import pytest

import reference
from corpus import corpus, face_domain_family, wide_modes
from revopt import model, problemfile
from revopt.problemfile import dump_problem, load_problem, parse_problem, problem_to_doc
from revopt.model import (
    INF,
    NEG_INF,
    AffineForm,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    fmt,
    fmt_array,
    fmt_vec,
    rat,
)


def absf():
    return PolyhedralConvexFunction(1, (AffineForm((1,), 0), AffineForm((-1,), 0)))


def test_eval_abs():
    f = absf()
    assert f.value((Fraction(2),)) == 2
    assert f.value((Fraction(0),)) == 0


def test_eval_off_domain_is_inf():
    dom = HPolyhedron(((Fraction(1),),), (Fraction(1),), 1)
    f = PolyhedralConvexFunction(1, (AffineForm((1,), 0),), dom)
    assert f.value((Fraction(2),)) == INF
    assert f.value((Fraction(1),)) == 1


def test_eval_dimension_mismatch():
    with pytest.raises(InputError):
        absf().value((Fraction(1), Fraction(2)))


def test_lipschitz_bound():
    assert absf().lipschitz_bound() == 1
    f = PolyhedralConvexFunction(1, (AffineForm((2,), 0), AffineForm((-1,), 0)))
    assert f.lipschitz_bound() == 2
    g = PolyhedralConvexFunction(2, (AffineForm((3, -1), 1),))
    assert g.lipschitz_bound() == 4


def test_rat_parse_and_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    for _ in range(200):
        num = random.randint(-10**6, 10**6)
        den = random.randint(1, 10**6)
        s = Fraction(num, den)
        assert rat(fmt(s)) == s


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1/ 2", "1/0", "", "x"])
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        rat(bad)


@pytest.mark.parametrize(
    "text,value",
    [(" 3 ", F(3)), ("+3", F(3)), ("-0", F(0)), ("3/6", F(1, 2))]
    + [(bad, None) for bad in ("1.5", "1e3", "1/0", "1/-2", "1_000", "", True, 1.0, None)],
)
def test_rat_reads_exactly_the_wire_literals(text, value):
    if value is None:
        with pytest.raises(InputError):
            rat(text)
    else:
        assert _parsed(rat, text) == (F, value)


def _parsed(parse, text):
    """The exact value `parse` reads from `text`, or "rejected"."""
    try:
        value = parse(text)
    except InputError:
        return "rejected"
    return type(value), value


def test_rat_accepts_and_rejects_what_the_two_pass_parser_did():
    literals = [" 3/4 ", "+5", "-0/3", "1/0", "1.5", "1e3", "1_0", True, 2.0]
    literals += ["007/010", "-12/8", "3/-4", "+-1", "1/", "/2", " 9\n", 6, F(2, 6)]
    rng = random.Random(3)
    literals += ["".join(rng.choices("0123456789/+- ._", k=rng.randint(1, 6))) for _ in range(3000)]
    accepted = 0
    for text in literals:
        got = _parsed(rat, text)
        assert got == _parsed(reference.reference_rat, text), text
        accepted += got != "rejected"
    assert _parsed(rat, " 3/4 ") == (F, F(3, 4))
    assert _parsed(rat, "-0/3") == (F, F(0))
    assert 100 < accepted < len(literals) - 100


def _error(parse, text):
    try:
        parse(text)
    except InputError as exc:
        return str(exc)
    return None


def test_a_literal_is_read_as_rat_reads_it_with_its_integers_in_lowest_terms():
    # A problem file's literals are read once by `_literal`: the value the
    # reference parser reads, with its numerator and denominator in lowest
    # terms taken from the text, and rat's error text for what it rejects.
    literals = ["-", "-1", "-007", "--1", "-+1", "- 1", "-1/", "-007/014", "0/9", "-0"]
    literals += ["١٢", "-١٢", "١٢/٢٤", " -6/4\t", "2/4", 6, -9, True, 2.0, None]
    literals += [_Str("-6/4"), _Str("0.5"), _Int(-4)]
    rng = random.Random(5)
    literals += ["".join(rng.choices("0123456789/+- ._", k=rng.randint(1, 6))) for _ in range(3000)]
    read = 0
    for text in literals:
        expected = _parsed(reference.reference_rat, text)
        if expected == "rejected":
            assert _error(model._literal, text) == _error(rat, text) is not None, text
            continue
        value, num, den = model._literal(text)
        assert (type(value), value) == expected, text
        assert (num, den) == (value.numerator, value.denominator), text
        read += den > 1
    assert read > 40


class _Str(str):
    pass


class _Int(int):
    pass


class _Fraction(F):
    pass


def test_rat_reads_subclasses_and_rejects_bool():
    # The exact-class fast paths leave subclasses to the isinstance branches.
    assert _parsed(rat, _Str(" 3/6 ")) == (F, F(1, 2))
    assert _parsed(rat, _Str("0.5")) == "rejected"
    assert _parsed(rat, _Int(-4)) == (F, F(-4))
    own = _Fraction(3, 4)
    assert rat(own) is own
    assert _parsed(rat, True) == _parsed(rat, False) == "rejected"
    for text in (_Str(" 3/6 "), _Str("0.5"), _Int(-4), own, True, False, 7, F(2, 6), "-0/3"):
        assert _parsed(rat, text) == _parsed(reference.reference_rat, text), text


@pytest.mark.parametrize(
    "value,text",
    [(F(3, 4), "3/4"), (F(-6, 2), "-3"), (F(0), "0"), (7, "7"), (-2, "-2"), (INF, "inf"), (NEG_INF, "-inf")],
)
def test_fmt_formats_fractions_ints_and_the_infinite_tags(value, text):
    assert fmt(value) == text
    # a vector's JSON text, written directly, is json's of `fmt_vec`
    for vec in ((), (value,), (value, F(-1, 3), value)):
        assert fmt_array(vec) == json.dumps(fmt_vec(vec), separators=(",", ":"))


def _random_function(rng, n):
    pieces = tuple(
        AffineForm(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)),
                   Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 4))
    )
    return PolyhedralConvexFunction(n, pieces)


def test_eval_convex_along_segments():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([1, 2])
        f = _random_function(rng, n)
        x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        y = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            mid = tuple(t * xi + (1 - t) * yi for xi, yi in zip(x, y))
            assert f.value(mid) <= t * f.value(x) + (1 - t) * f.value(y)


def test_eval_positively_homogeneous_under_piece_scaling():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([1, 2])
        f = _random_function(rng, n)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        assert f.scaled(lam).value(x) == lam * f.value(x)


def _rational_point(rng, n):
    return tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 7))) for _ in range(n))


def test_value_and_contains_match_the_fraction_reference():
    # Seeded rational functions and domains; points inside, off and on a
    # domain (each row made tight at a drawn point in turn), some given as ints.
    rng = random.Random(29)
    where = {"inside": 0, "off": 0, "on": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        pieces = tuple(
            AffineForm(_rational_point(rng, n), F(rng.randint(-9, 9), rng.choice((1, 4, 5))))
            for _ in range(rng.randint(1, 4))
        )
        centre = _rational_point(rng, n)
        rows = [_rational_point(rng, n) for _ in range(rng.randint(1, 3))]
        slack = [F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in rows]
        rhs = [sum(a * x for a, x in zip(row, centre)) + s for row, s in zip(rows, slack)]
        dom = HPolyhedron(tuple(rows), tuple(rhs), n)
        f = PolyhedralConvexFunction(n, pieces, dom)
        points = [centre, tuple(int(v) for v in centre)]
        points += [_rational_point(rng, n) for _ in range(4)]
        for row, b in zip(rows, rhs):
            k = next((j for j, a in enumerate(row) if a), None)
            if k is not None:  # move the centre along axis k onto the row
                shift = (b - sum(a * x for a, x in zip(row, centre))) / row[k]
                points.append(centre[:k] + (centre[k] + shift,) + centre[k + 1 :])
        for x in points:
            inside = reference.reference_contains(dom, x)
            assert dom.contains(x) is inside
            assert f.is_finite_at(x) is inside
            value = f.value(x)
            assert value == reference.reference_value(f, x)
            assert type(value) is (float if value == INF else F)
            tight = any(sum(a * v for a, v in zip(r, x)) == b for r, b in zip(rows, rhs))
            where["on" if inside and tight else "inside" if inside else "off"] += 1
            unbounded = PolyhedralConvexFunction(n, pieces)
            assert unbounded.value(x) == reference.reference_value(unbounded, x)
    assert min(where.values()) >= 100, where


def test_problem_validation():
    f = absf()
    h = PolyhedralConvexFunction(
        1, (AffineForm((1,), -1), AffineForm((-1,), -1))
    )
    p = ReverseProblem(1, f, h, (Fraction(1),), Fraction(0))
    assert p.epsilon == 0
    with pytest.raises(InputError):
        ReverseProblem(1, f, h, (Fraction(1),), Fraction(-1))
    with pytest.raises(InputError):
        ReverseProblem(2, f, h, (Fraction(1), Fraction(0)), Fraction(0))


def _rational_problem(rng, n, constraints):
    """A problem whose every function has rational pieces and a rational
    domain with room around its centre."""

    def fn():
        pieces = tuple(
            AffineForm(_rational_point(rng, n), F(rng.randint(-9, 9), rng.choice((1, 4, 5))))
            for _ in range(rng.randint(1, 3))
        )
        centre = _rational_point(rng, n)
        rows = [_rational_point(rng, n) for _ in range(rng.randint(1, 3))]
        rhs = [sum(a * x for a, x in zip(row, centre)) + F(1, 3) for row in rows]
        return PolyhedralConvexFunction(n, pieces, HPolyhedron(tuple(rows), tuple(rhs), n))

    eps = F(rng.randint(0, 9), rng.choice((1, 2, 7)))
    return ReverseProblem(n, fn(), fn(), _rational_point(rng, n), eps, [fn() for _ in range(constraints)])


def _python_problems():
    rng = random.Random(41)
    problems = corpus(6, 4) + face_domain_family(6)
    return problems + [_rational_problem(rng, n, n - 1) for n in (1, 2, 3) for _ in range(4)]


def _literal_count(doc) -> int:
    """The rational literals of a problem document: every scalar but n."""
    if isinstance(doc, dict):
        return sum(_literal_count(v) for k, v in doc.items() if k != "n")
    if isinstance(doc, list):
        return sum(map(_literal_count, doc))
    return doc is not None


def test_a_problem_file_reads_each_literal_once(monkeypatch, tmp_path):
    paths = [str(p) for p in sorted(Path(__file__).resolve().parents[1].glob("problems/*.json"))]
    for k, problem in enumerate(_python_problems()):
        paths.append(str(tmp_path / f"p{k}.json"))
        dump_problem(problem, paths[-1])
    calls, parsed, read_back, made = [], [], [], []
    original = model._literal

    def counting(text):
        calls.append(text)
        return original(text)

    def making(*args):
        made.append(args)
        return Fraction(*args)

    def watched(name):
        prop = getattr(Fraction, name)
        return property(lambda value: read_back.append(name) or prop.fget(value))

    # Each literal is read once, into its Fraction and its integers; no
    # Fraction is parsed again by `rat` or read back for an image, and an
    # integer from -256 to 256 shares the Fraction made for it at import.
    monkeypatch.setattr(problemfile, "_literal", counting)
    monkeypatch.setattr(model, "rat", lambda text: parsed.append(text) or rat(text))
    total = shared = 0
    for path in paths:
        calls.clear()
        made.clear()
        with open(path, encoding="utf-8") as fh:
            literals = _literal_count(json.load(fh))
        with monkeypatch.context() as m:
            m.setattr(Fraction, "numerator", watched("numerator"))
            m.setattr(Fraction, "denominator", watched("denominator"))
            m.setattr(model, "Fraction", making)
            load_problem(path)
        assert len(calls) == literals, path
        small = [t for t in calls if t.lstrip("-").isdigit() and int(t) in range(-256, 257)]
        assert len(made) == literals - len(small), path
        total += literals
        shared += len(small)
    assert parsed == [] and read_back == []
    assert len(paths) >= 30 and total > 800 and total - 100 > shared > 400


def _respell(doc):
    """Write each literal of a problem document as another spelling of its
    value: times 2/2, with a "+" sign or padded with blanks, in turn."""
    spellings = (
        lambda v: f"{v.numerator * 2}/{v.denominator * 2}",
        lambda v: f"+{v}" if v >= 0 else str(v),
        lambda v: f" {v}\t",
    )
    count = 0

    def respell(node):
        nonlocal count
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(items):
            if isinstance(value, str):
                count += 1
                node[key] = spellings[count % 3](F(value))
            elif isinstance(value, (dict, list)):
                respell(value)

    respell(doc)


def test_a_parsed_problem_has_the_images_of_the_problem_built_in_python():
    # The parse builds the integer images from its integers at once, the
    # point's too; they are the images the constructors' lazy ones give for
    # the same problem, whatever spelling of a literal the file uses.
    checked = 0
    for k, problem in enumerate(_python_problems()):
        doc = problem_to_doc(problem)
        if k % 2:  # unreduced, signed and padded spellings of the same values
            _respell(doc)
        parsed = parse_problem(doc)
        assert parsed == problem
        assert "_point_image" in vars(parsed) and parsed._point_image == problem._point_image
        for fn, again in zip(
            (problem.objective, problem.reverse, *problem.constraints),
            (parsed.objective, parsed.reverse, *parsed.constraints),
        ):
            assert "_image" in vars(again) and again._image == fn._image
            if fn.domain is not None:
                assert "_rows" in vars(again.domain)
                assert again.domain._rows == fn.domain._rows
                checked += any(den > 1 for *_, den in fn.domain._rows)
            checked += fn._image[0] > 1
    assert checked > 40


def _hand_written_problems():
    """Problems in 3 dimensions with negative and many-digit literals: a
    domain with no rows, domains on the constraints too, and without any."""
    empty = HPolyhedron((), (), 3)
    box = HPolyhedron(((1, 0, 0), (F(-12, 7), 0, 1)), (F(-333, 10), 5), 3)
    f = PolyhedralConvexFunction(3, (AffineForm((F(-1234, 567), 0, 89), F(-10, 3)),), empty)
    h = PolyhedralConvexFunction(
        3, (AffineForm((1, 2, 3), -1), AffineForm((0, 0, -1), F(1, 2))), box
    )
    g = PolyhedralConvexFunction(3, (AffineForm((1, 0, 0), -100),), empty)
    free = PolyhedralConvexFunction(3, (AffineForm((-7, F(22, 7), 0), F(987654321, 1000)),))
    point = (F(-5, 123456789), 0, 77)
    return [
        ReverseProblem(3, f, h, point, F(1000001, 3), (g, h.scaled(F(2, 3)))),
        ReverseProblem(3, h, f, (0, 0, 0), 0, (g,)),
        ReverseProblem(3, free, f, point, F(1, 10**30)),
        ReverseProblem(3, f, free, (0, -1, 0), 0, (free,)),
    ]


def test_a_problem_file_is_the_indent_2_text_of_its_document(tmp_path):
    # The file's text is written in one pass from the records; it is byte
    # for byte the text json's indent-2 encoder gave of the document the
    # library built before, the empty lists of a domain with no rows too.
    root = Path(__file__).resolve().parent.parent
    problems = [load_problem(str(path)) for path in sorted(root.glob("problems/*.json"))]
    problems += corpus(120, 80, 1000) + [inst.problem for inst in wide_modes(0)]
    problems += face_domain_family(24) + _hand_written_problems()
    path = tmp_path / "p.json"
    for problem in problems:
        doc = reference.reference_problem_to_doc(problem)
        dump_problem(problem, str(path))
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
        loaded = load_problem(str(path))
        for name in reference.fields(problem):
            assert getattr(loaded, name) == getattr(problem, name), name
        assert problem_to_doc(problem) == doc
    assert sum(bool(p.constraints) for p in problems) >= 3
    domains = [fn.domain for p in problems for fn in (p.objective, p.reverse, *p.constraints)]
    assert sum(d is not None and d.m == 0 for d in domains) >= 3


def test_a_problem_that_cannot_be_printed_leaves_its_file_as_it_was(tmp_path):
    path = tmp_path / "p.json"
    problem = ReverseProblem(1, absf(), absf(), (1,), 0)
    dump_problem(problem, str(path))
    before = path.read_bytes()
    with pytest.raises(InputError, match="too long to print"):
        dump_problem(reference.replace(problem, epsilon=F(10**5000)), str(path))
    assert path.read_bytes() == before


# -- the records ----------------------------------------------------------------


def _record_samples() -> dict:
    """Instances of every record class of the library, by class: the
    problems, functions, forms and domains of the shipped problems, part of
    the acceptance corpus and face-domain problems; the verdicts, checks,
    probes, LPs and outcomes of deciding them; and the grid, subdifferential
    and Pareto objects of the grid tests."""
    from revopt import oracle, pareto, subdiff
    from revopt.certificates import MODES, verify

    root = Path(__file__).resolve().parent.parent
    problems = [load_problem(str(path)) for path in sorted(root.glob("problems/*.json"))]
    problems += corpus(120, 80, seed_base=1000)[::20] + face_domain_family(6)
    out = []
    for problem in problems:
        fns = (problem.objective, problem.reverse, *problem.constraints)
        out += [problem, *fns, *(p for fn in fns for p in fn.pieces)]
        out += [fn.domain for fn in fns if fn.domain is not None]
        for mode in MODES:
            verdict = verify(problem, mode)
            out += [verdict, *verdict.log]
            out += [r.evidence for r in verdict.log] + [r.evidence.lp for r in verdict.log]
            out += [r.evidence.outcome for r in verdict.log]
        query = subdiff.SubdiffQuery(problem.reverse, problem.point, problem.epsilon)
        out += [query, subdiff.subdiff_vrep(query)]
        box = ((F(-2), F(2)),) * problem.n
        grid = oracle.GridSpec(box, F(1, 2))
        out += [grid] + [oracle.brute_eps_argmin(problem, mode, grid) for mode in oracle.MODE_MAP.values()]
        sample, _ = pareto.grid_sample(problem.objective, problem.reverse, box, F(1, 2))
        out += [sample, pareto.reee_check(sample, (F(0), F(0)), [(F(1), F(1)), (F(0), F(1, 2))])]
        out.append(pareto.bridge_check(problem.objective, problem.reverse, box, F(1, 2), F(1)))
    by_class = {}
    for obj in out:
        by_class.setdefault(type(obj), []).append(obj)
    return by_class


def _twin(cls):
    """The frozen dataclass with `cls`'s name, module, fields, defaults and
    `__post_init__`."""
    import dataclasses

    names = reference.fields(cls)
    defaults = cls.__init__.__defaults__ or ()
    first_default = len(names) - len(defaults)
    spec = [(k, object) for k in names[:first_default]]
    spec += [(k, object, dataclasses.field(default=v)) for k, v in zip(names[first_default:], defaults)]
    namespace = {"__module__": cls.__module__}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)


def _raised(make):
    """What `make()` raises, as (its class, or AttributeError for any of its
    subclasses, and its text); None when it raises nothing."""
    try:
        make()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (AttributeError if isinstance(exc, AttributeError) else type(exc)), str(exc)
    return None


def test_records_behave_as_the_frozen_dataclasses_they_were():
    # Every record reprs, compares and hashes as a frozen dataclass twin of
    # its class does on the same field values, and a construction or
    # mutation that the twin rejects is rejected with the same error text.
    from revopt import certificates, lp, oracle, pareto, polytope, subdiff

    records = [
        model.AffineForm, model.HPolyhedron, model.PolyhedralConvexFunction,
        model.ReverseProblem, lp.LinearProgram, lp.Optimal, lp.Unbounded, lp.Infeasible,
        certificates.MembershipEvidence, certificates.CheckRecord,
        certificates.CertificateVerdict, subdiff.SubdiffQuery, oracle.GridSpec,
        oracle.BruteResult, pareto.ParetoSample, pareto.BridgeReport, pareto.ReeeReport,
        polytope.VPolytope,
    ]
    samples = _record_samples()
    assert set(samples) == set(records)
    for cls in records:
        twin = _twin(cls)
        names = reference.fields(cls)
        pairs = []
        for obj in samples[cls]:
            values = [getattr(obj, k) for k in names]
            twin_obj = object.__new__(twin)  # the same values, not converted again
            vars(twin_obj).update(zip(names, values))
            pairs.append((obj, twin_obj))
            if cls is oracle.BruteResult:  # its own repr, of the points it reads
                assert repr(obj).startswith("BruteResult(mode=") and "eps_argmin=" in repr(obj)
            else:
                assert repr(obj) == repr(twin_obj)
            assert hash(obj) == hash(twin_obj)
            assert obj == reference.replace(obj) and not obj != reference.replace(obj)
            for make in (
                lambda c: c(**dict(zip(names[1:], values[1:]))),  # a missing argument
                lambda c: c(*values, None),  # an extra argument
                lambda c: c(*values, bogus=None),  # an unknown keyword
                lambda c: c(*values, **{names[0]: values[0]}),  # a repeated keyword
            ):
                assert _raised(lambda: make(cls)) == _raised(lambda: make(twin)) is not None
        for (a, ta), (b, tb) in zip(pairs, pairs[1:] + pairs[:1]):
            assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
        obj, twin_obj = pairs[0]
        for name in (*names, "bogus"):
            for mutate in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
                assert _raised(lambda: mutate(obj)) == _raised(lambda: mutate(twin_obj))
                assert _raised(lambda: mutate(obj))[0] is AttributeError
    # instances of two classes never compare equal, even on equal fields
    first = [samples[cls][0] for cls in records]
    for a in first:
        assert [b for b in first if a == b] == [a]

    @model._record
    class Twin:
        farkas: tuple

    same = (lp.Infeasible((F(1),)), Twin((F(1),)))
    assert same[0] != same[1] and not same[0] == same[1] and len(set(map(hash, same))) == 1


def test_a_record_runs_post_init_on_construction_only(monkeypatch):
    # `__post_init__` runs once per construction, positional or keyword,
    # and never for an instance that `_built` makes; a class without one
    # gets none.
    assert type(AffineForm((1,), 2).b) is Fraction
    assert type(model._built(AffineForm, a=(1,), b=2).b) is int
    samples = _record_samples()
    checked = 0
    for cls, objs in samples.items():
        names = reference.fields(cls)
        values = {k: getattr(objs[0], k) for k in names}
        if not hasattr(cls, "__post_init__"):
            assert "__post_init__" not in vars(cls)
            continue
        calls = []
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self))
        made = [cls(*values.values()), cls(**values)]
        assert calls == made
        built = model._built(cls, **values)
        assert calls == made and built == made[0]
        checked += 1
    assert checked == 8


def test_the_rng_families_are_prefixes_of_one_stream_per_seed(monkeypatch):
    # A face-domain or adversarial family of fewer draws is the prefix of one
    # stream per seed: the counts the tests ask for shorter than the longest
    # hand out what a direct draw from the seed makes, as does the start of
    # the longest, and a fresh stream extended on demand draws the same.
    import corpus as families

    def direct(seed, count, face_domain):
        rng, out = random.Random(seed), []
        for _ in range(count):
            f, h, x_bar, gap = families.adversarial_candidate(rng, face_domain=face_domain)
            if face_domain or gap > 0:
                eps = gap * F(rng.randint(0, 15 if face_domain else 9), 10)
                out.append(problem_to_doc(ReverseProblem(f.n, f, h, x_bar, eps)))
            else:
                out.append(None)
        return out

    for family, seed, counts, longest, face_domain in (
        (families.face_domain_family, 8, (6, 12, 24, 30, 60), 300, True),
        (families.adversarial_family, 7, (60,), 748, False),
    ):
        drawn = direct(seed, max(counts), face_domain)
        for count in counts:
            assert [problem_to_doc(p) for p in family(count, seed)] == [
                doc for doc in drawn[:count] if doc is not None
            ]
        start = [doc for doc in drawn if doc is not None]
        assert [problem_to_doc(p) for p in family(longest, seed)[: len(start)]] == start
        assert len(family(longest, seed)) > len(start)

    monkeypatch.setattr(families, "_STREAMS", {})
    drawn = direct(8, 24, True)
    for count in (6, 24, 12):
        made = families._drawn(families._face_domain_draw, 8, count)
        assert [problem_to_doc(p) for p in made] == drawn[:count]
    assert len(families._STREAMS[families._face_domain_draw, 8][1]) == 24
