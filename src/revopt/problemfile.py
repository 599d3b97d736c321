"""Problem files: exact rationals on the wire, unknown fields rejected.

The document is JSON with every scalar serialized as a "p/q" or integer
string; no floating point is accepted anywhere. Each literal is read exactly
once (`_literal`), into its `Fraction` and its numerator and denominator in
lowest terms; an integer from -256 to 256 shares a Fraction made at import.
The model objects are built from the Fractions and their integer images from
the integers (`_parsed_function`, `_parsed_problem`): nothing is parsed again
and no Fraction is read back.

A file is written in one pass (`_problem_text`): its indent-2 JSON text is
made straight from the records, as `fmt` prints each scalar, and written
with LF newlines in one write once it is whole. `problem_to_doc` is that
text's object, so the file's layout is written down in this one place.
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


def _strings(vec, pad: str) -> str:
    """The indent-2 JSON text of `fmt_vec(vec)` for a list opened on a line
    indented by `pad`: one literal a line, indented two more. No string `fmt`
    makes needs escaping."""
    if not vec:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + '"' + ('",\n' + inner + '"').join(map(fmt, vec)) + '"\n' + pad + "]"


def _function_text(fn: PolyhedralConvexFunction, pad: str) -> str:
    """The indent-2 JSON text of one function's object, opened on a line
    indented by `pad`: its pieces, then its domain if it has one."""
    keys = pad + "  "  # the function's keys
    items = keys + "  "  # the pieces, and the domain's keys
    fields = items + "  "  # a piece's keys, and the domain's rows
    pieces = (",\n" + items).join(
        "{\n" + fields + '"a": ' + _strings(p.a, fields) + ",\n" + fields
        + '"b": "' + fmt(p.b) + '"\n' + items + "}"
        for p in fn.pieces
    )
    text = "{\n" + keys + '"pieces": [\n' + items + pieces + "\n" + keys + "]"
    if fn.domain is not None:
        rows = fn.domain.a
        a = "[]"
        if rows:
            a = "[\n" + fields + (",\n" + fields).join(_strings(row, fields) for row in rows)
            a += "\n" + items + "]"
        text += ",\n" + keys + '"domain": {\n' + items + '"A": ' + a + ",\n" + items
        text += '"b": ' + _strings(fn.domain.b, items) + "\n" + keys + "}"
    return text + "\n" + pad + "}"


def _problem_text(problem: ReverseProblem) -> str:
    """The problem file's text, written in one pass from the records: the
    text `json.dumps(doc, indent=2)` gives of the problem's document, and a
    newline. The keys come in the order n, objective, reverse, point,
    epsilon, and constraints only if there are any. InputError as `fmt`
    gives it."""
    text = (
        '{\n  "n": ' + str(problem.n)
        + ',\n  "objective": ' + _function_text(problem.objective, "  ")
        + ',\n  "reverse": ' + _function_text(problem.reverse, "  ")
        + ',\n  "point": ' + _strings(problem.point, "  ")
        + ',\n  "epsilon": "' + fmt(problem.epsilon) + '"'
    )
    if problem.constraints:
        text += ',\n  "constraints": [\n    ' + ",\n    ".join(
            _function_text(g, "    ") for g in problem.constraints
        ) + "\n  ]"
    return text + "\n}\n"


def problem_to_doc(problem: ReverseProblem) -> dict:
    """The problem's document: the JSON object of its file's text."""
    return json.loads(_problem_text(problem))


def dump_problem(problem: ReverseProblem, path: str):
    """Write the problem's file: its text is made in full first, so a
    problem `fmt` cannot print leaves the file as it was, then written with
    LF newlines in one write."""
    text = _problem_text(problem).encode()
    with open(path, "wb") as fh:
        fh.write(text)
