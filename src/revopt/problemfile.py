"""Problem-file ingestion: exact rationals on the wire, unknown fields rejected.

The document is JSON with every scalar serialized as a "p/q" or integer
string; no floating point is accepted anywhere. Each literal is read exactly
once (`_literal`), into its `Fraction` and its numerator and denominator in
lowest terms; an integer from -256 to 256 shares a Fraction made at import.
The model objects are built from the Fractions and their integer images from
the integers (`_parsed_function`, `_parsed_problem`): nothing is parsed again
and no Fraction is read back.
"""

from __future__ import annotations

import json

from .model import (
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    _literal,
    _parsed_function,
    _parsed_problem,
    fmt,
)

__all__ = ["parse_problem", "load_problem", "problem_to_doc", "dump_problem"]

_PROBLEM_FIELDS = {"n", "objective", "reverse", "constraints", "point", "epsilon"}
_FUNCTION_FIELDS = {"pieces", "domain"}
_PIECE_FIELDS = {"a", "b"}
_DOMAIN_FIELDS = {"A", "b"}


def _check_fields(doc: dict, allowed: set, what: str):
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected an object")
    if not allowed.issuperset(doc):
        raise InputError(f"{what}: unknown fields {sorted(set(doc) - allowed)}")


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what}: expected an array")
    return value


def _vector(value, what: str) -> tuple:
    """An array of literals, each read once (`_literal`), as `(values, nums,
    dens)`: the Fractions, and their numerators and denominators."""
    values, nums, dens = [], [], []
    for text in _array(value, what):
        v, num, den = _literal(text)
        values.append(v)
        nums.append(num)
        dens.append(den)
    return tuple(values), nums, dens


def _parse_function(doc, n: int, what: str) -> PolyhedralConvexFunction:
    _check_fields(doc, _FUNCTION_FIELDS, what)
    if "pieces" not in doc or not _array(doc["pieces"], f"{what}.pieces"):
        raise InputError(f"{what}: needs a nonempty pieces list")
    pieces = []
    for k, piece in enumerate(doc["pieces"]):
        at = f"{what}.pieces[{k}]"
        _check_fields(piece, _PIECE_FIELDS, at)
        if "a" not in piece or "b" not in piece:
            raise InputError(f"{at}: needs fields a and b")
        pieces.append((_vector(piece["a"], f"{at}.a"), _literal(piece["b"])))
    domain = None
    if "domain" in doc and doc["domain"] is not None:
        dom = doc["domain"]
        _check_fields(dom, _DOMAIN_FIELDS, f"{what}.domain")
        if "A" not in dom or "b" not in dom:
            raise InputError(f"{what}.domain: needs fields A and b")
        rows = _array(dom["A"], f"{what}.domain.A")
        domain = (
            tuple(_vector(row, f"{what}.domain.A[{k}]") for k, row in enumerate(rows)),
            _vector(dom["b"], f"{what}.domain.b"),
        )
    return _parsed_function(n, pieces, domain)


def parse_problem(doc) -> ReverseProblem:
    _check_fields(doc, _PROBLEM_FIELDS, "problem")
    for field in ("n", "objective", "reverse", "point", "epsilon"):
        if field not in doc:
            raise InputError(f"problem: missing field {field!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("problem: n must be a positive integer")
    objective = _parse_function(doc["objective"], n, "objective")
    reverse = _parse_function(doc["reverse"], n, "reverse")
    constraints = tuple(
        _parse_function(g, n, f"constraints[{j}]")
        for j, g in enumerate(_array(doc.get("constraints", []), "constraints"))
    )
    point = _vector(doc["point"], "point")
    epsilon, _, _ = _literal(doc["epsilon"])
    return _parsed_problem(n, objective, reverse, constraints, point, epsilon)


def load_problem(path: str) -> ReverseProblem:
    """The problem in the file at `path`. Its bytes are read at once and
    decoded as UTF-8 once, with text mode's newlines: CRLF and a lone CR
    read as LF, so JSON error positions are text mode's."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}") from exc
    except ValueError as exc:  # bad UTF-8, or a number of more digits than int() converts
        raise InputError(f"cannot read problem file: {exc}") from exc
    return parse_problem(doc)


def _function_to_doc(fn: PolyhedralConvexFunction) -> dict:
    doc = {
        "pieces": [
            {"a": [fmt(v) for v in p.a], "b": fmt(p.b)} for p in fn.pieces
        ]
    }
    if fn.domain is not None:
        doc["domain"] = {
            "A": [[fmt(v) for v in row] for row in fn.domain.a],
            "b": [fmt(v) for v in fn.domain.b],
        }
    return doc


def problem_to_doc(problem: ReverseProblem) -> dict:
    doc = {
        "n": problem.n,
        "objective": _function_to_doc(problem.objective),
        "reverse": _function_to_doc(problem.reverse),
        "point": [fmt(v) for v in problem.point],
        "epsilon": fmt(problem.epsilon),
    }
    if problem.constraints:
        doc["constraints"] = [_function_to_doc(g) for g in problem.constraints]
    return doc


def dump_problem(problem: ReverseProblem, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_doc(problem), fh, indent=2)
        fh.write("\n")
