"""Tracing for the per-layer run: spans around each layer's public functions.

revopt's modules import their collaborators by name, so a function is wrapped
at every module that binds it (`BINDINGS`) and restored afterwards. A span is
(name, start, end, parent, instance, attrs); spans stay in memory until the run
writes them out. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, span name); the span name is "<layer>.<function>"
BINDINGS = (
    ("revopt.lp", "lp_solve", "lp.lp_solve"),
    ("revopt.certificates", "lp_solve", "lp.lp_solve"),
    ("revopt.subdiff", "lp_solve", "lp.lp_solve"),
    ("revopt.polytope", "lp_solve", "lp.lp_solve"),
    ("revopt.oracle", "lp_solve", "lp.lp_solve"),
    ("revopt.pareto", "lp_solve", "lp.lp_solve"),
    ("revopt.certificates", "lp_max_component", "lp.lp_max_component"),
    ("revopt.pareto", "lp_max_component", "lp.lp_max_component"),
    ("revopt.cli", "check_outcome", "lp.check_outcome"),
    ("revopt.certificates", "subdiff_vrep", "subdiff.subdiff_vrep"),
    ("revopt.cli", "subdiff_vrep", "subdiff.subdiff_vrep"),
    ("revopt.certificates", "subdiff_member", "subdiff.subdiff_member"),
    ("revopt.subdiff", "project", "polytope.project"),
    ("revopt.polytope", "vertex_enumerate", "polytope.vertex_enumerate"),
    ("revopt.certificates", "essential_check", "certificates.essential_check"),
    ("revopt.certificates", "slater_check", "certificates.slater_check"),
    ("revopt.cli", "verify", "certificates.verify"),
    ("revopt.cli", "falsify", "certificates.falsify"),
    ("revopt.cli", "load_problem", "problemfile.load_problem"),
    ("revopt.cli", "brute_eps_argmin", "oracle.brute_eps_argmin"),
    ("revopt.oracle", "brute_eps_argmin", "oracle.brute_eps_argmin"),
    ("revopt.pareto", "bridge_check", "pareto.bridge_check"),
)

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


def _den_bits(outcome) -> int:
    bits = 0
    for field in ("x", "dual", "farkas", "ray", "point"):
        for v in getattr(outcome, field, ()):
            bits = max(bits, v.denominator.bit_length())
    return bits


def _generators(vpoly) -> int:
    return len(vpoly.vertices) + len(vpoly.rays)


def _grid_points(box, step) -> int:
    count = 1
    for lo, hi in box:
        count *= int((hi - lo) / step) + 1
    return count


def _lp_attrs(args, result):
    lp = args[0]
    return {"rows": len(lp.rows), "vars": lp.n, "den_bits": _den_bits(result)}


#: span name -> attrs(args, result), recorded after the call returns
ATTRS_OF = {
    "lp.lp_solve": _lp_attrs,
    "subdiff.subdiff_vrep": lambda args, res: {"gens": _generators(res)},
    "polytope.project": lambda args, res: {"gens": _generators(res)},
    "polytope.vertex_enumerate": lambda args, res: {"gens": _generators(res)},
    "oracle.brute_eps_argmin": lambda args, res: {
        "points": _grid_points(args[2].box, args[2].step)
    },
    "pareto.bridge_check": lambda args, res: {"points": _grid_points(args[2], args[3])},
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.instance, {}]
        self.spans.append(record)
        self._stack.append(sid)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_of = ATTRS_OF.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                record[ATTRS] = attrs_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding site; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, inst, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "instance": inst,
                            **attrs,
                        }
                    )
                )
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    clipped to its own interval."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, cursor = 0.0, lo
        for start, end in sorted(children.get(sid, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append((hi - lo) - covered)
    return out

