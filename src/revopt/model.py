"""Exact scalar arithmetic and the shared problem data model.

All quantities are `fractions.Fraction` values ("scalars" below); nothing in
this package ever rounds. Extended values use the distinguished tag `INF`,
never a large number, so indicator semantics stay exact.

Each function and polyhedron also keeps an integer image of its rows: a
function's pieces share one common denominator, and each domain row has its
own. A constructor called from Python parses its values with `rat` and builds
the images on first use; a problem file's parser, which has read every
literal with `rat` once already, hands its values to `_parsed_function` and
`_parsed_problem`, which check shapes only and build the images at once.
Evaluation brings the point to one common denominator, compares integers, and
builds at most one `Fraction`, for the value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    check; subclasses take the `isinstance` branches and read the same.
    """
    if text.__class__ is not str:
        if text.__class__ is Fraction or isinstance(text, Fraction):
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
        if not isinstance(text, str):
            raise InputError(f"not a rational literal: {text!r}")
    if text.isdecimal():  # digits alone: what `_RAT_RE` reads as (text, None)
        num, den = text, None
    else:
        match = _RAT_RE.fullmatch(text)
        if match is None:
            raise InputError(f"not a rational literal: {text!r}")
        num, den = match.groups()
    try:
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise InputError(f"rational literal too long: {len(text)} characters") from None


def fmt(value) -> str:
    """Canonical string for a scalar: "p/q", plain integer, or "inf".

    InputError when a numerator or denominator has more digits than `str`
    converts (sys.get_int_max_str_digits)."""
    # Only the float tags can be infinite; comparing a Fraction with a float
    # would convert the float to a Fraction first.
    if value.__class__ is float:
        if value == INF:
            return "inf"
        if value == NEG_INF:
            return "-inf"
    try:
        return str(value)
    except ValueError:
        raise InputError("a rational is too long to print") from None


def fmt_vec(vec) -> list[str]:
    return [fmt(v) for v in vec]


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


def _piece_image(pieces) -> tuple:
    """A function's integer image (D, rows): each piece (a_i, b_i) times D,
    the least common denominator of all the pieces, as (A_i, B_i)."""
    den = lcm(*[v.denominator for p in pieces for v in (*p.a, p.b)])
    return den, tuple(
        (_times(p.a, den), p.b.numerator * (den // p.b.denominator)) for p in pieces
    )


def _row_images(a, b) -> tuple:
    """A polyhedron's integer image: each row (A_r, b_r) times its own least
    common denominator L_r, as (A_r * L_r, b_r * L_r, L_r)."""
    rows = []
    for row, rhs in zip(a, b):
        den = lcm(rhs.denominator, *[v.denominator for v in row])
        rows.append((_times(row, den), rhs.numerator * (den // rhs.denominator), den))
    return tuple(rows)


def _times(values, den: int) -> tuple:
    """Each of some rationals times `den`, a multiple of their denominators."""
    return tuple([v.numerator * (den // v.denominator) for v in values])


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
        """The integer image (`_row_images`)."""
        return _row_images(self.a, self.b)

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
        """The integer image (D, rows) of the pieces (`_piece_image`)."""
        return _piece_image(self.pieces)

    def value(self, x):
        """Exact value: max over pieces on the domain, INF outside it."""
        if len(x) != self.n:
            raise InputError("eval: dimension mismatch")
        return self._value_at(*_over_common_den(x))

    def _value_at(self, nums, den):
        """The value at the point nums / den."""
        if self.domain is not None and not self.domain._holds(nums, den):
            return INF
        return Fraction(max(self._scaled_pieces(nums, den)), self._image[0] * den)

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
    """The function of a problem file: `pieces` are its (a_i, b_i) and
    `domain` is None or its (A, b), every value one `rat` returned. The
    constructors' shape checks run, in their order, and nothing is parsed
    again; the integer images are built here, from the parsed values."""
    if domain is not None:
        rows, rhs = domain
        _check_polyhedron(rows, rhs, n)
        domain = _built(HPolyhedron, a=rows, b=rhs, n=n, _rows=_row_images(rows, rhs))
    forms = tuple(_built(AffineForm, a=a, b=b) for a, b in pieces)
    _check_function(n, forms, domain)
    return _built(
        PolyhedralConvexFunction,
        n=n,
        pieces=forms,
        domain=domain,
        _image=_piece_image(forms),
    )


def _parsed_problem(n: int, objective, reverse, constraints, point, epsilon) -> ReverseProblem:
    """The problem of a problem file, from functions of `_parsed_function`
    and a point and epsilon that `rat` returned; checked as the constructor
    checks, with nothing parsed again."""
    constraints = tuple(constraints)
    _check_problem(n, point, epsilon, (objective, reverse, *constraints))
    return _built(
        ReverseProblem,
        n=n,
        objective=objective,
        reverse=reverse,
        point=point,
        epsilon=epsilon,
        constraints=constraints,
    )
