"""Exact scalar arithmetic and the shared problem data model.

All quantities are `fractions.Fraction` values ("scalars" below); nothing in
this package ever rounds. Extended values use the distinguished tag `INF`,
never a large number, so indicator semantics stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


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
    the wire format is rationals only.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        if not _RAT_RE.match(text.strip()):
            raise InputError(f"not a rational literal: {text!r}")
        return Fraction(text.strip())
    raise InputError(f"not a rational literal: {text!r}")


def fmt(value) -> str:
    """Canonical string for a scalar: "p/q", plain integer, or "inf"."""
    if value == INF:
        return "inf"
    if value == NEG_INF:
        return "-inf"
    return str(value)


def fmt_vec(vec) -> list[str]:
    return [fmt(v) for v in vec]


def _as_vector(values, n: int, what: str) -> tuple[Fraction, ...]:
    vec = tuple(rat(v) for v in values)
    if len(vec) != n:
        raise InputError(f"{what}: expected length {n}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class AffineForm:
    """One affine piece x |-> <a, x> + b."""

    a: tuple[Fraction, ...]
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(rat(v) for v in self.a))
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
        rows = tuple(tuple(rat(v) for v in row) for row in self.a)
        rhs = tuple(rat(v) for v in self.b)
        if len(rows) != len(rhs):
            raise InputError("polyhedron: row/rhs count mismatch")
        for row in rows:
            if len(row) != self.n:
                raise InputError(
                    f"polyhedron: row width {len(row)} != dimension {self.n}"
                )
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "b", rhs)

    @property
    def m(self) -> int:
        return len(self.a)

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise InputError("membership: dimension mismatch")
        return all(
            sum(ai * xi for ai, xi in zip(row, x)) <= bi
            for row, bi in zip(self.a, self.b)
        )


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
        if not pieces:
            raise InputError("function needs at least one affine piece")
        for p in pieces:
            if p.n != self.n:
                raise InputError(
                    f"piece dimension {p.n} != function dimension {self.n}"
                )
        if self.domain is not None and self.domain.n != self.n:
            raise InputError("domain dimension mismatch")
        object.__setattr__(self, "pieces", pieces)

    def value(self, x):
        """Exact value: max over pieces on the domain, INF outside it."""
        if len(x) != self.n:
            raise InputError("eval: dimension mismatch")
        if self.domain is not None and not self.domain.contains(x):
            return INF
        return max(p.value(x) for p in self.pieces)

    def is_finite_at(self, x) -> bool:
        return self.domain is None or self.domain.contains(x)

    def lipschitz_bound(self) -> Fraction:
        """max_i ||a_i||_1, so |f(x)-f(y)| <= L * ||x-y||_inf on the domain."""
        return max(sum(abs(c) for c in p.a) for p in self.pieces)

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
        object.__setattr__(self, "point", _as_vector(self.point, self.n, "point"))
        object.__setattr__(self, "epsilon", rat(self.epsilon))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.epsilon < 0:
            raise InputError("epsilon must be >= 0")
        for fn in (self.objective, self.reverse, *self.constraints):
            if fn.n != self.n:
                raise InputError("problem functions must share the dimension")
