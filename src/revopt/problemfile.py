"""Problem-file ingestion: exact rationals on the wire, unknown fields rejected.

The document is JSON with every scalar serialized as a "p/q" or integer
string; no floating point is accepted anywhere.
"""

from __future__ import annotations

import json

from .model import (
    AffineForm,
    HPolyhedron,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
    fmt,
    rat,
)

__all__ = ["parse_problem", "load_problem", "problem_to_doc", "dump_problem"]

_PROBLEM_FIELDS = {"n", "objective", "reverse", "constraints", "point", "epsilon"}
_FUNCTION_FIELDS = {"pieces", "domain"}
_PIECE_FIELDS = {"a", "b"}
_DOMAIN_FIELDS = {"A", "b"}


def _check_fields(doc: dict, allowed: set, what: str):
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected an object")
    unknown = set(doc) - allowed
    if unknown:
        raise InputError(f"{what}: unknown fields {sorted(unknown)}")


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what}: expected an array")
    return value


def _vector(value, what: str) -> tuple:
    return tuple(rat(v) for v in _array(value, what))


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
        pieces.append(AffineForm(_vector(piece["a"], f"{at}.a"), rat(piece["b"])))
    domain = None
    if "domain" in doc and doc["domain"] is not None:
        dom = doc["domain"]
        _check_fields(dom, _DOMAIN_FIELDS, f"{what}.domain")
        if "A" not in dom or "b" not in dom:
            raise InputError(f"{what}.domain: needs fields A and b")
        rows = _array(dom["A"], f"{what}.domain.A")
        domain = HPolyhedron(
            tuple(_vector(row, f"{what}.domain.A[{k}]") for k, row in enumerate(rows)),
            _vector(dom["b"], f"{what}.domain.b"),
            n,
        )
    return PolyhedralConvexFunction(n, tuple(pieces), domain)


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
    epsilon = rat(doc["epsilon"])
    return ReverseProblem(n, objective, reverse, point, epsilon, constraints)


def load_problem(path: str) -> ReverseProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}") from exc
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
