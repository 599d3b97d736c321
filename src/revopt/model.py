"""Exact scalar arithmetic and the shared problem data model.

All quantities are `fractions.Fraction` values ("scalars" below); nothing in
this package ever rounds. Extended values use the distinguished tag `INF`,
never a large number, so indicator semantics stay exact.

Each function and polyhedron also keeps an integer image of its rows: a
function's pieces share one common denominator, and each domain row has its
own. A constructor called from Python parses its values with `rat` and builds
the images on first use. A problem file's parser reads every literal once
(`_literal`), into its `Fraction` and its numerator and denominator in lowest
terms (a small integer's shared, `_SMALL_LITERALS`), and hands both to
`_parsed_function` and `_parsed_problem`: they check
shapes only, build the objects from the Fractions and the images at once from
the integers, so no Fraction is read back.
Evaluation brings the point to one common denominator, compares integers, and
builds at most one `Fraction`, for the value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

__all__ = [
    "INF",
    "NEG_INF",
    "InputError",
    "Inapplicable",
    "Scalar",
    "rat",
    "fmt",
    "fmt_vec",
    "fmt_array",
    "AffineForm",
    "HPolyhedron",
    "PolyhedralConvexFunction",
    "ReverseProblem",
]

Scalar = Fraction

#: Distinguished +infinity tag for extended values (indicator semantics).
#: Comparisons against Fraction are exact; arithmetic with it is never done.
INF = float("inf")
NEG_INF = float("-inf")

#: a rational wire literal, as (numerator, denominator or None), with any
#: surrounding whitespace
_RAT_RE = re.compile(r"\s*([+-]?\d+)(?:/([1-9]\d*))?\s*")

#: the integer literals from -256 to 256 as `fmt` writes them, read once for
#: every file: `_literal`'s (Fraction, numerator, denominator) of each, so a
#: small integer, the common literal, makes no Fraction of its own
_SMALL_LITERALS = {str(k): (Fraction(k), k, 1) for k in range(-256, 257)}


class InputError(ValueError):
    """Malformed input: dimension mismatch, bad literal, invalid field."""


class Inapplicable(Exception):
    """A theorem engine's applicability gate failed."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def rat(text) -> Fraction:
    """Parse an exact rational from an int or a "p/q" / integer string.

    Decimal or float literals and booleans (an `int` subtype) are rejected:
    the wire format is rationals only. A `str` and a `Fraction` are told by
    their exact class first, since `isinstance(text, Fraction)` is an ABC
    check; subclasses take the `isinstance` branches and read the same. A
    string is read by `_literal`.
    """
    if text.__class__ is not str:
        if text.__class__ is Fraction or isinstance(text, Fraction):
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
    return _literal(text)[0]


def _literal(text) -> tuple[Fraction, int, int]:
    """A wire literal, an int or a "p/q" / integer string, read once: the
    `Fraction` that `rat` makes of it, and its numerator and denominator in
    lowest terms, taken from the text rather than read back from the
    Fraction; an integer string from -256 to 256 as `fmt` writes it is looked
    up (`_SMALL_LITERALS`). InputError as `rat` gives it."""
    if text.__class__ is str:
        known = _SMALL_LITERALS.get(text)
        if known is not None:
            return known
    elif isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text), text, 1
    elif not isinstance(text, str):
        raise InputError(f"not a rational literal: {text!r}")
    # digits alone, or after a minus: what `_RAT_RE` reads as (text, None)
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        num, den = text, None
    else:
        match = _RAT_RE.fullmatch(text)
        if match is None:
            raise InputError(f"not a rational literal: {text!r}")
        num, den = match.groups()
    try:
        num = int(num)
        if den is None:
            return Fraction(num), num, 1
        den = int(den)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise InputError(f"rational literal too long: {len(text)} characters") from None
    g = gcd(num, den)
    return Fraction(num, den), num // g, den // g


def fmt(value) -> str:
    """Canonical string for a scalar: "p/q", plain integer, or "inf" and
    "-inf" for the float tags, which is what `str` writes of each.

    InputError when a numerator or denominator has more digits than `str`
    converts (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        raise InputError("a rational is too long to print") from None


def fmt_vec(vec) -> list[str]:
    return [fmt(v) for v in vec]


def fmt_array(vec) -> str:
    """The compact JSON text of `fmt_vec(vec)`, written directly: no string
    `fmt` makes needs escaping. InputError as `fmt` gives it."""
    if not vec:
        return "[]"
    try:
        return '["' + '","'.join(map(str, vec)) + '"]'
    except ValueError:
        raise InputError("a rational is too long to print") from None


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _lcm_den(values) -> int:
    """The least common denominator of some rationals (ints included)."""
    return lcm(*[v.denominator for v in values])


def _over_common_den(values) -> tuple[list[int], int]:
    """Integers `nums` and one denominator `den` > 0 with values = nums / den."""
    den = _lcm_den(values)
    return [v.numerator * (den // v.denominator) for v in values], den


def _built(cls, **fields):
    """An instance of the frozen dataclass `cls` whose fields, and any cached
    images, are `fields` as given: its `__post_init__` does not run, so
    nothing is parsed or checked. For values `rat` returned and shapes the
    caller has checked."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _function_image(pieces) -> tuple:
    """A function's integer image (D, rows), from its pieces (a_i, b_i) with
    their integers, `((a, nums, dens), (b, num, den))` as `_literal` reads a
    problem file's (`_read`): each piece times D, the least common
    denominator of all of them, as (A_i, B_i)."""
    den = lcm(*[lcm(b_den, *dens) for (_, _, dens), (_, _, b_den) in pieces])
    return den, tuple(
        [
            (_times(nums, dens, den), b_num * (den // b_den))
            for (_, nums, dens), (_, b_num, b_den) in pieces
        ]
    )


def _polyhedron_image(rows, rhs) -> tuple:
    """A polyhedron's integer image, from its rows A_r and right-hand sides
    b_r with their integers, each vector `(values, nums, dens)` (`_read`):
    each row times its own least common denominator L_r, as
    (A_r * L_r, b_r * L_r, L_r)."""
    out = []
    for (_, nums, dens), num, d in zip(rows, rhs[1], rhs[2]):
        den = lcm(d, *dens)
        out.append((_times(nums, dens, den), num * (den // d), den))
    return tuple(out)


def _times(nums, dens, den: int) -> tuple:
    """Each of the rationals nums / dens times `den`, a multiple of dens."""
    if den == 1:
        return tuple(nums)
    return tuple([v * (den // d) for v, d in zip(nums, dens)])


def _read(values) -> tuple:
    """Some rationals with their integers, `(values, nums, dens)`, as a
    problem file's vector is read."""
    return values, [v.numerator for v in values], [v.denominator for v in values]


def _check_polyhedron(a, b, n: int) -> None:
    if len(a) != len(b):
        raise InputError("polyhedron: row/rhs count mismatch")
    for row in a:
        if len(row) != n:
            raise InputError(f"polyhedron: row width {len(row)} != dimension {n}")


def _check_function(n: int, pieces, domain) -> None:
    if not pieces:
        raise InputError("function needs at least one affine piece")
    for p in pieces:
        if p.n != n:
            raise InputError(f"piece dimension {p.n} != function dimension {n}")
    if domain is not None and domain.n != n:
        raise InputError("domain dimension mismatch")


def _check_problem(n: int, point, epsilon, fns) -> None:
    if len(point) != n:
        raise InputError(f"point: expected length {n}, got {len(point)}")
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    for fn in fns:
        if fn.n != n:
            raise InputError("problem functions must share the dimension")


@dataclass(frozen=True)
class AffineForm:
    """One affine piece x |-> <a, x> + b."""

    a: tuple[Fraction, ...]
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(rat, self.a)))
        object.__setattr__(self, "b", rat(self.b))

    @property
    def n(self) -> int:
        return len(self.a)

    def value(self, x) -> Fraction:
        if len(x) != len(self.a):
            raise InputError("affine form: dimension mismatch")
        return sum((ai * xi for ai, xi in zip(self.a, x)), self.b)


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality description {x : A x <= b}; rows may be empty (whole space)."""

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    n: int

    def __post_init__(self):
        rows = tuple(tuple(map(rat, row)) for row in self.a)
        rhs = tuple(map(rat, self.b))
        _check_polyhedron(rows, rhs, self.n)
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "b", rhs)

    @property
    def m(self) -> int:
        return len(self.a)

    @cached_property
    def _rows(self) -> tuple:
        """The integer image (`_polyhedron_image`)."""
        return _polyhedron_image([_read(row) for row in self.a], _read(self.b))

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise InputError("membership: dimension mismatch")
        return self._holds(*_over_common_den(x))

    def _holds(self, nums, den) -> bool:
        """Does the point nums / den satisfy every row?"""
        return all(sum(map(mul, a, nums)) <= b * den for a, b, _ in self._rows)


@dataclass(frozen=True)
class PolyhedralConvexFunction:
    """Max of finitely many affine pieces plus an optional polyhedral domain.

    value(x) is the max of the pieces on the domain and INF off it; convexity
    and lower semicontinuity hold by construction.
    """

    n: int
    pieces: tuple[AffineForm, ...]
    domain: HPolyhedron | None = None

    def __post_init__(self):
        pieces = tuple(
            p if isinstance(p, AffineForm) else AffineForm(*p) for p in self.pieces
        )
        _check_function(self.n, pieces, self.domain)
        object.__setattr__(self, "pieces", pieces)

    @cached_property
    def _image(self) -> tuple:
        """The integer image (D, rows) of the pieces (`_function_image`)."""
        pieces = [(_read(p.a), (p.b, p.b.numerator, p.b.denominator)) for p in self.pieces]
        return _function_image(pieces)

    def value(self, x):
        """Exact value: max over pieces on the domain, INF outside it."""
        if len(x) != self.n:
            raise InputError("eval: dimension mismatch")
        return self._value_at(*_over_common_den(x))

    def _value_at(self, nums, den):
        """The value at the point nums / den."""
        top = self._scaled_max(nums, den)
        return INF if top is None else Fraction(top, self._image[0] * den)

    def _scaled_max(self, nums, den) -> int | None:
        """The value at the point nums / den times D * den, an int (D of
        `_image`), read off the largest scaled piece; None off the domain."""
        if self.domain is not None and not self.domain._holds(nums, den):
            return None
        return max(self._scaled_pieces(nums, den))

    def _scaled_pieces(self, nums, den) -> list[int]:
        """Each piece at the point nums / den, times D * den (D of `_image`)."""
        return [sum(map(mul, a, nums), b * den) for a, b in self._image[1]]

    def is_finite_at(self, x) -> bool:
        return self.domain is None or self.domain.contains(x)

    def lipschitz_bound(self) -> Fraction:
        """max_i ||a_i||_1, so |f(x)-f(y)| <= L * ||x-y||_inf on the domain;
        read off the integer image, whose rows are the a_i times D."""
        den, rows = self._image
        return Fraction(max([sum(map(abs, a)) for a, _ in rows]), den)

    def scaled(self, lam: Fraction) -> "PolyhedralConvexFunction":
        """lam * f for lam > 0 (pieces scale, the domain does not)."""
        lam = rat(lam)
        if lam <= 0:
            raise InputError("scaling factor must be positive")
        return PolyhedralConvexFunction(
            self.n,
            tuple(AffineForm(tuple(lam * c for c in p.a), lam * p.b) for p in self.pieces),
            self.domain,
        )


@dataclass(frozen=True)
class ReverseProblem:
    """min f(x) subject to h(x) >= 0 (and optionally G(x) <= 0), candidate
    point and tolerance included."""

    n: int
    objective: PolyhedralConvexFunction
    reverse: PolyhedralConvexFunction
    point: tuple[Fraction, ...]
    epsilon: Fraction
    constraints: tuple[PolyhedralConvexFunction, ...] = ()

    def __post_init__(self):
        point, epsilon = tuple(map(rat, self.point)), rat(self.epsilon)
        constraints = tuple(self.constraints)
        _check_problem(
            self.n, point, epsilon, (self.objective, self.reverse, *constraints)
        )
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "constraints", constraints)

    @cached_property
    def _point_image(self) -> tuple:
        """The point over its least common denominator: (nums, den)."""
        nums, den = _over_common_den(self.point)
        return tuple(nums), den


# -- construction from a parse -------------------------------------------------


def _parsed_function(n: int, pieces, domain) -> PolyhedralConvexFunction:
    """The function of a problem file. Each vector of it comes as `(values,
    nums, dens)` and each scalar as `(value, num, den)`, as `_literal` read
    them: `pieces` are its (a_i, b_i) and `domain` is None or its (A, b). The
    constructors' shape checks run, in their order, and nothing is parsed
    again; the objects are built from the values and their integer images,
    at once, from the integers."""
    if domain is not None:
        rows, rhs = domain
        a = tuple([values for values, _, _ in rows])
        _check_polyhedron(a, rhs[0], n)
        image = _polyhedron_image(rows, rhs)
        domain = _built(HPolyhedron, a=a, b=rhs[0], n=n, _rows=image)
    forms = tuple([_built(AffineForm, a=a, b=b) for (a, _, _), (b, _, _) in pieces])
    _check_function(n, forms, domain)
    return _built(
        PolyhedralConvexFunction,
        n=n,
        pieces=forms,
        domain=domain,
        _image=_function_image(pieces),
    )


def _parsed_problem(n: int, objective, reverse, constraints, point, epsilon) -> ReverseProblem:
    """The problem of a problem file, from functions of `_parsed_function`,
    a point `(values, nums, dens)` and an epsilon that `_literal` read;
    checked as the constructor checks, with nothing parsed again. The point's
    image is built from its integers."""
    constraints = tuple(constraints)
    values, nums, dens = point
    _check_problem(n, values, epsilon, (objective, reverse, *constraints))
    den = lcm(*dens)
    return _built(
        ReverseProblem,
        n=n,
        objective=objective,
        reverse=reverse,
        point=values,
        epsilon=epsilon,
        constraints=constraints,
        _point_image=(_times(nums, dens, den), den),
    )
