"""Exact ground truth: the infimum of f over a mode's feasible region.

The feasible region of every mode is a finite union of polyhedra, so its
infimum is the minimum of one epigraph LP per polyhedron. Every LP outcome is
re-validated with `check_outcome` before it is used.

- rop:         {h >= 0}, the union over pieces k of {piece_k >= 0} inside
               dom h, plus the outside of dom h, where h = +inf.
- constrained: the rop region intersected with {G <= 0}.
- equality:    {h = 0}, the union over k of {piece_k = 0, piece_j <= 0}.
- convex:      {h <= 0}, one LP.

The outside of dom h is the union over domain rows r of the open half-space
{C_r x > d_r}. Its infimum equals the infimum over the closed side
{C_r x >= d_r}, provided the open side meets the rest of the region; one more
LP (the supremum of C_r x there) decides that.
"""

from __future__ import annotations

from fractions import Fraction

from revopt.lp import (
    Infeasible,
    LinearProgram,
    Unbounded,
    check_outcome,
    lp_solve,
)

NEG_INF = float("-inf")
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _domain_rows(fn):
    if fn.domain is None:
        return []
    return [(row, "<=", rhs) for row, rhs in zip(fn.domain.a, fn.domain.b)]


def _le_zero_rows(fn):
    """{fn <= 0}: every piece <= 0 and the point inside dom fn."""
    return [(p.a, "<=", -p.b) for p in fn.pieces] + _domain_rows(fn)


def _solve(lp: LinearProgram):
    out = lp_solve(lp)
    check_outcome(lp, out)
    return out


def _epigraph_min(f, rows):
    """min f(x) subject to the x-rows: a scalar, NEG_INF, or None if empty."""
    n = f.n
    lifted = [(p.a + (-_ONE,), "<=", -p.b) for p in f.pieces]
    lifted += [(a + (_ZERO,), rel, rhs) for a, rel, rhs in _domain_rows(f) + rows]
    out = _solve(LinearProgram(n + 1, (_ZERO,) * n + (_ONE,), rows=tuple(lifted)))
    if isinstance(out, Infeasible):
        return None
    if isinstance(out, Unbounded):
        return NEG_INF
    return out.value


def _open_side_meets(f, rows, normal, rhs) -> bool:
    """Does {normal . x > rhs} meet dom f and the x-rows?"""
    lp = LinearProgram(f.n, normal, sense="max", rows=tuple(_domain_rows(f) + rows))
    out = _solve(lp)
    if isinstance(out, Infeasible):
        return False
    return isinstance(out, Unbounded) or out.value > rhs


def exact_inf(problem, mode: str):
    """Exact inf of f over the mode's feasible region: a Fraction, NEG_INF,
    or None when the region is empty."""
    f, h = problem.objective, problem.reverse
    polyhedra = []
    if mode == "convex":
        polyhedra.append(_le_zero_rows(h))
    elif mode == "equality":
        for k in h.pieces:
            polyhedra.append(_le_zero_rows(h) + [(k.a, ">=", -k.b)])
    elif mode in ("rop", "constrained"):
        extra = []
        if mode == "constrained":
            extra = [row for g in problem.constraints for row in _le_zero_rows(g)]
        for k in h.pieces:
            polyhedra.append(_domain_rows(h) + [(k.a, ">=", -k.b)] + extra)
        for normal, _rel, rhs in _domain_rows(h):
            if _open_side_meets(f, extra, normal, rhs):
                polyhedra.append([(normal, ">=", rhs)] + extra)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    best = None
    for rows in polyhedra:
        val = _epigraph_min(f, rows)
        if val is not None and (best is None or val < best):
            best = val
    return best
