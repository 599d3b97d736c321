"""Command dispatch and machine-readable reporting.

Every command prints one JSON report to stdout with all numbers as rational
strings, and exits with: 0 certified / check passed, 1 refuted / violation
found, 2 inapplicable, 3 input error. Reports are replayable: the recorded LP
certificates re-validate bit-exactly against the problem file (see `replay`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .certificates import MODES, CertificateVerdict, falsify, membership_lp, verify
from .lp import INF, Infeasible, Optimal, Unbounded, check_outcome
from .model import Inapplicable, InputError, fmt, fmt_vec, rat
from .oracle import MODE_MAP, GridSpec, brute_eps_argmin
from .pareto import SIGMA_KINDS, _bridge, eff_set, grid_sample
from .problemfile import load_problem
from .subdiff import SubdiffQuery, subdiff_epigraph, subdiff_vrep

__all__ = ["main", "run", "replay"]

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_INAPPLICABLE = 2
EXIT_INPUT_ERROR = 3

_EXIT_CODE = {
    "CERTIFIED_ON_GRID": EXIT_PASS,
    "REFUTED": EXIT_REFUTED,
    "INAPPLICABLE": EXIT_INAPPLICABLE,
}


# -- serialization -------------------------------------------------------------


def _outcome_to_doc(outcome) -> dict:
    if isinstance(outcome, Optimal):
        return {
            "tag": "optimal",
            "x": fmt_vec(outcome.x),
            "value": fmt(outcome.value),
            "dual": fmt_vec(outcome.dual),
        }
    if isinstance(outcome, Infeasible):
        return {"tag": "infeasible", "farkas": fmt_vec(outcome.farkas)}
    if isinstance(outcome, Unbounded):
        return {
            "tag": "unbounded",
            "ray": fmt_vec(outcome.ray),
            "point": fmt_vec(outcome.point),
        }
    raise InputError(f"unknown outcome {outcome!r}")


def _outcome_from_doc(doc) -> object:
    tag = doc.get("tag")
    if tag == "optimal":
        return Optimal(
            x=tuple(rat(v) for v in doc["x"]),
            value=rat(doc["value"]),
            dual=tuple(rat(v) for v in doc["dual"]),
        )
    if tag == "infeasible":
        return Infeasible(farkas=tuple(rat(v) for v in doc["farkas"]))
    if tag == "unbounded":
        return Unbounded(
            ray=tuple(rat(v) for v in doc["ray"]),
            point=tuple(rat(v) for v in doc["point"]),
        )
    raise InputError(f"unknown outcome tag {tag!r}")


def _verdict_to_doc(verdict: CertificateVerdict) -> dict:
    doc = {
        "verdict": verdict.tag,
        "mode": verdict.mode,
        "reason": verdict.reason,
        "gates": [[name, ok] for name, ok in verdict.gates],
        "checks": [
            {
                "eps_prime": fmt(rec.eps_prime),
                "generator": fmt_vec(rec.generator),
                "kind": rec.kind,
                "accepted": rec.accepted,
                "sup": None if rec.evidence.sup is None else fmt(rec.evidence.sup),
                "outcome": _outcome_to_doc(rec.evidence.outcome),
            }
            for rec in verdict.log
        ],
        "witness": None,
        "info": [[k, v] for k, v in verdict.info],
    }
    if verdict.tag == "REFUTED":
        doc["witness"] = {
            "eps_prime": fmt(verdict.witness_eps_prime),
            "x_star": fmt_vec(verdict.witness_xstar),
        }
    return doc


# -- replay --------------------------------------------------------------------


def replay(problem, report: dict) -> None:
    """Re-validate every recorded LP certificate against the problem file.

    Rebuilds each check's LP with `membership_lp`, the builder `verify` solved,
    and checks the stored outcome's certificate exactly; raises
    CertificateError on any mismatch. A ray check logs its direction, and
    starts at the first generator of h's eps'-subdifferentials
    (`subdiff_epigraph`).
    """
    mode = report["mode"]
    base = None
    for check in report.get("checks", ()):
        eps_prime = rat(check["eps_prime"])
        generator = tuple(rat(v) for v in check["generator"])
        if check["kind"] == "vertex":
            lp = membership_lp(problem, mode, eps_prime, generator)
        else:
            if base is None:
                (base, *_), _rays = subdiff_epigraph(problem.reverse, problem.point)
            lp = membership_lp(problem, mode, *base, ray=(eps_prime, generator))
        check_outcome(lp, _outcome_from_doc(check["outcome"]))


# -- commands ------------------------------------------------------------------


def _cmd_verify(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    verdict = verify(problem, args.mode)
    doc = {"command": "verify", **_verdict_to_doc(verdict)}
    if args.cross_check_grid is not None:
        lo, hi, step = (rat(v) for v in args.cross_check_grid)
        grid = GridSpec(((lo, hi),) * problem.n, step)
        doc["oracle_cross_check"] = _cross_check_doc(problem, args.mode, grid, verdict)
    return doc, _EXIT_CODE[verdict.tag]


def _cross_check_doc(problem, mode, grid: GridSpec, verdict) -> dict:
    res = brute_eps_argmin(problem, MODE_MAP[mode], grid)
    doc = {
        "mode": res.mode,
        "feasible_count": res.feasible_count,
        "min_value": None if res.min_value is None else fmt(res.min_value),
        "error_bound": fmt(res.error_bound),
        "consistent": True,
    }
    if verdict.tag == "INAPPLICABLE" or res.min_value is None or res.min_value == INF:
        return doc
    threshold = problem.objective.value(problem.point) - problem.epsilon
    if verdict.tag == "REFUTED":
        # An exact refutation tolerates a grid minimum above the threshold
        # only within the grid error bound.
        doc["consistent"] = res.min_value - threshold <= res.error_bound
    else:
        doc["consistent"] = threshold - res.min_value <= res.error_bound
    return doc


def _cmd_falsify(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    verdict = falsify(problem, args.mode)
    doc = {"command": "falsify", **_verdict_to_doc(verdict)}
    return doc, _EXIT_CODE[verdict.tag]


def _cmd_subdiff(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    which = args.fn
    if which == "objective":
        fn = problem.objective
    elif which == "reverse":
        fn = problem.reverse
    elif which.startswith("constraint:"):
        idx = which.split(":", 1)[1]
        if not idx.isdecimal() or int(idx) >= len(problem.constraints):
            raise InputError(f"no constraint {idx!r}")
        fn = problem.constraints[int(idx)]
    else:
        raise InputError(f"unknown function selector {which!r}")
    eps = rat(args.eps)
    vrep = subdiff_vrep(SubdiffQuery(fn, problem.point, eps))
    doc = {
        "command": "subdiff",
        "fn": which,
        "eps": fmt(eps),
        "point": fmt_vec(problem.point),
        "vertices": [fmt_vec(v) for v in vrep.vertices],
        "rays": [fmt_vec(r) for r in vrep.rays],
        "empty": vrep.is_empty(),
    }
    return doc, EXIT_PASS


def _cmd_brute(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    if args.mode not in MODE_MAP:
        raise InputError(f"unknown mode {args.mode!r}")
    lo, hi = rat(args.box[0]), rat(args.box[1])
    grid = GridSpec(((lo, hi),) * problem.n, rat(args.step))
    res = brute_eps_argmin(problem, MODE_MAP[args.mode], grid)
    doc = {
        "command": "brute",
        "mode": res.mode,
        "feasible_count": res.feasible_count,
        "empty": res.empty,
        "min_value": None if res.min_value is None else fmt(res.min_value),
        "eps_argmin": [fmt_vec(p) for p in res.eps_argmin],
        "slack": fmt_vec(res.slack),
        "error_bound": fmt(res.error_bound),
    }
    return doc, EXIT_PASS


def _cmd_pareto(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    lo, hi = rat(args.box[0]), rat(args.box[1])
    box = ((lo, hi),) * problem.n
    step = rat(args.step)
    f, h = problem.objective, problem.reverse
    sample, _grid = grid_sample(f, h, box, step)
    rep = _bridge(sample.images, problem.epsilon)
    pts = sample.points
    doc = {
        "command": "pareto",
        "epsilon": fmt(problem.epsilon),
        "vacuous": rep.vacuous,
        "eps_argmin": [fmt_vec(pts[i]) for i in rep.eps_argmin],
        "weak_set": [fmt_vec(pts[i]) for i in rep.weak_set],
        "efficient_set": [fmt_vec(pts[i]) for i in rep.eff_set],
        "violations": {
            "argmin_not_weak": [fmt_vec(pts[i]) for i in rep.missing_from_weak],
            "efficient_boundary_not_argmin": [
                fmt_vec(pts[i]) for i in rep.missing_from_argmin
            ],
        },
    }
    if args.sigma is not None:
        members = eff_set(sample, (problem.epsilon, Fraction(0)), args.sigma)
        doc["sigma"] = args.sigma
        doc["sigma_set"] = [fmt_vec(pts[i]) for i in members]
    return doc, EXIT_PASS if rep.passed else EXIT_REFUTED


_SEED_HELP = "accepted for compatibility; has no effect (the decision is exact)"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, and building it costs about as much as a small verify."""
    parser = argparse.ArgumentParser(
        prog="revopt",
        description="Exact epsilon-optimality certificates for reverse convex programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide the certificate for all eps' >= 0")
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument(
        "--cross-check-grid",
        nargs=3,
        metavar=("LO", "HI", "STEP"),
        help="attach a brute-force oracle cross-check on this grid",
    )
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("falsify", help="the same exact decision as verify")
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(handler=_cmd_falsify)

    p = sub.add_parser("subdiff", help="generators of an eps-subdifferential")
    p.add_argument("--problem", required=True)
    p.add_argument(
        "--fn",
        required=True,
        help="objective, reverse, or constraint:<j>",
    )
    p.add_argument("--eps", required=True)
    p.set_defaults(handler=_cmd_subdiff)

    p = sub.add_parser("brute", help="grid oracle eps-argmin")
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--box", nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--step", required=True)
    p.set_defaults(handler=_cmd_brute)

    p = sub.add_parser("pareto", help="bicriteria bridge checks on a grid")
    p.add_argument("--problem", required=True)
    p.add_argument("--box", nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--sigma", choices=list(SIGMA_KINDS))
    p.set_defaults(handler=_cmd_pareto)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        doc, code = args.handler(args)
    except (InputError, Inapplicable) as exc:
        code = (
            EXIT_INAPPLICABLE if isinstance(exc, Inapplicable) else EXIT_INPUT_ERROR
        )
        doc = {"command": args.command, "error": str(exc)}
    print(json.dumps(doc, indent=2))
    return code


def main() -> None:
    sys.exit(run())
