"""Command dispatch and machine-readable reporting.

Every command prints one JSON report to stdout as one compact line, all numbers
as rational strings, and exits with: 0 certified / check passed, 1 refuted /
violation found, 2 inapplicable, 3 input or usage error. Reports are replayable:
the recorded LP certificates re-validate bit-exactly against the problem file.

A `verify` or `falsify` report is written in one pass from its verdict
(`_verdict_text`): its strings are rational literals and fixed tokens, none of
which JSON escapes, so the line is the compact `json.dumps` of the report's
object without that object being built. The other reports, and the error
line, go through `json.dumps` (`_json_line`). A number that is too long to
print is an input error wherever it is (`fmt`, `fmt_array`).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import _on_first_use
from .certificates import (
    CERTIFIED,
    INAPPLICABLE,
    MODES,
    REFUTED,
    CertificateVerdict,
    _point_gates,
    falsify,
    membership_lp,
    probe_evidence,
    verify,
)
from .lp import INF, CertificateError, Infeasible, Optimal, Unbounded, check_outcome
from .model import SIGMA_KINDS, Inapplicable, InputError, fmt, fmt_array, fmt_vec, rat
from .problemfile import load_problem
from .subdiff import SubdiffQuery, subdiff_epigraph, subdiff_vrep

__all__ = ["main", "run", "replay"]

# The grid layer's names are bound on first use, by `brute`, `pareto` and
# `--cross-check-grid`, so that a decision loads neither oracle nor pareto.
_bind_grid, __getattr__ = _on_first_use(
    globals(),
    {
        "oracle": ("MODE_MAP", "GridSpec", "brute_eps_argmin"),
        "pareto": ("_bridge", "eff_set", "grid_sample"),
    },
)

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_INAPPLICABLE = 2
EXIT_INPUT_ERROR = 3

_EXIT_CODE = {
    CERTIFIED: EXIT_PASS,
    REFUTED: EXIT_REFUTED,
    INAPPLICABLE: EXIT_INAPPLICABLE,
}


# -- reports --------------------------------------------------------------------

#: JSON's spelling of a gate's or a check's boolean
_BOOL = {True: "true", False: "false"}


def _json_line(doc) -> str:
    """A report that is not a decision's, or an error, as one compact line."""
    return json.dumps(doc, separators=(",", ":"))


def _outcome_text(outcome) -> str:
    """A check's outcome as the JSON object of its tag and vectors."""
    if isinstance(outcome, Optimal):
        return (
            f'{{"tag":"optimal","x":{fmt_array(outcome.x)},'
            f'"value":"{fmt(outcome.value)}","dual":{fmt_array(outcome.dual)}}}'
        )
    if isinstance(outcome, Infeasible):
        return f'{{"tag":"infeasible","farkas":{fmt_array(outcome.farkas)}}}'
    if isinstance(outcome, Unbounded):
        return (
            f'{{"tag":"unbounded","ray":{fmt_array(outcome.ray)},'
            f'"point":{fmt_array(outcome.point)}}}'
        )
    raise InputError(f"unknown outcome {outcome!r}")


def _verdict_text(command: str, verdict: CertificateVerdict) -> str:
    """A `verify` or `falsify` report of `verdict`, written in one pass and
    left open after its `witness`. Every string in it is a rational literal
    (`fmt`) or a token of a closed set: a verdict tag, mode, gate name,
    reason or check kind. None needs JSON escaping, so each is written as it
    is, and the text is `json.dumps` of the report's object, compact."""
    proof = "" if verdict.essential is None else f",{_outcome_text(verdict.essential.outcome)}"
    gates = ",".join(
        [f'["{name}",{_BOOL[ok]}{proof * (name == "essential")}]' for name, ok in verdict.gates]
    )
    checks = ",".join(
        [
            f'{{"eps_prime":"{fmt(rec.eps_prime)}","generator":{fmt_array(rec.generator)},'
            f'"kind":"{rec.kind}","accepted":{_BOOL[rec.evidence.member]},'
            f'"sup":"{fmt(rec.evidence.sup)}","outcome":{_outcome_text(rec.evidence.outcome)}}}'
            for rec in verdict.log
        ]
    )
    reason = "null" if verdict.reason is None else f'"{verdict.reason}"'
    witness = verdict.witness
    if witness is None:
        witness = "null"
    else:
        eps_prime, xstar = witness
        witness = f'{{"eps_prime":"{fmt(eps_prime)}","x_star":{fmt_array(xstar)}}}'
    return (
        f'{{"command":"{command}","verdict":"{verdict.tag}","mode":"{verdict.mode}",'
        f'"reason":{reason},"gates":[{gates}],"checks":[{checks}],"witness":{witness}'
    )


_OUTCOME_FIELDS = {
    "optimal": ("x", "value", "dual"),
    "infeasible": ("farkas",),
    "unbounded": ("ray", "point"),
}


def _outcome_from_doc(doc) -> object:
    """A report's outcome; CertificateError unless it is one."""
    _require(doc, ("tag",), "an outcome")
    tag = doc["tag"]
    if tag not in _OUTCOME_FIELDS:
        raise CertificateError(f"unknown outcome tag {tag!r}")
    _require(doc, _OUTCOME_FIELDS[tag], f"the {tag} outcome")
    if tag == "optimal":
        return Optimal(
            x=_rationals(doc["x"], "x"),
            value=_rational(doc["value"], "value"),
            dual=_rationals(doc["dual"], "dual"),
        )
    if tag == "infeasible":
        return Infeasible(farkas=_rationals(doc["farkas"], "farkas"))
    return Unbounded(ray=_rationals(doc["ray"], "ray"), point=_rationals(doc["point"], "point"))


# -- replay --------------------------------------------------------------------


_CHECK_FIELDS = ("eps_prime", "generator", "kind", "accepted", "sup", "outcome")


def _require(doc, keys, what) -> None:
    """Raise CertificateError unless the report part `doc` is an object with
    every key."""
    if not isinstance(doc, dict):
        raise CertificateError(f"{what} is not an object")
    for key in keys:
        if key not in doc:
            raise CertificateError(f"{what} lacks {key!r}")


def _rational(value, what) -> Fraction:
    """A report's rational literal (`rat`); CertificateError unless it is one."""
    try:
        return rat(value)
    except InputError:
        raise CertificateError(f"{what} is not a rational: {value!r}") from None


def _rationals(values, what) -> tuple:
    """A report's list of rational literals; CertificateError unless it is one."""
    if not isinstance(values, list):
        raise CertificateError(f"{what} is not a list")
    return tuple(_rational(v, what) for v in values)


def _gates(gates) -> tuple[list, object]:
    """A report's gates as [name, passed] pairs, and the outcome that a passed
    `essential` gate carries third (None without one); CertificateError unless
    every gate but that one is such a pair, each flag a boolean."""
    if not isinstance(gates, list) or not all(
        isinstance(gate, list) and len(gate) in (2, 3) for gate in gates
    ):
        raise CertificateError("the gates are not a list of [name, passed] pairs")
    if not all(isinstance(gate[1], bool) for gate in gates):
        raise CertificateError("a gate's flag is not a boolean")
    if any((len(gate) == 3) != (gate[:2] == ["essential", True]) for gate in gates):
        raise CertificateError("a passed essential gate, and it alone, carries an outcome")
    proof = next((gate[2] for gate in gates if len(gate) == 3), None)
    return [gate[:2] for gate in gates], proof


def _implied_verdict(gates, checks) -> str | None:
    """The verdict tag that the gates and the re-read checks, as (kind,
    accepted) pairs, imply; None when no verdict fits them."""
    last_gate, passed = gates[-1]  # `_gate_names` admits no other failed gate
    if not passed:
        if last_gate == "essential":
            return CERTIFIED if checks == [("vertex", True)] else None
        return None if checks else INAPPLICABLE
    if not checks:
        return None
    if all(ok for _kind, ok in checks):
        return CERTIFIED
    # A refutation ends on a rejected vertex check; a ray check rejected just
    # before it is the one that located that point.
    *rest, last = checks
    if last != ("vertex", False) or not all(ok for _kind, ok in rest[:-1]):
        return None
    if rest and rest[-1] == ("vertex", False):
        return None
    return REFUTED


def _gate_names(point_gates, mode) -> list:
    """The gate names `verify` writes: the gates on x_bar up to the first
    failure, then, had they all passed, `essential` unless the mode is
    convex."""
    names = [name for name, _ok in point_gates]
    if point_gates[-1][1] and mode != "convex":
        names.append("essential")
    return names


def replay(problem, report: dict) -> None:
    """Re-validate every recorded LP certificate against the problem file.

    Rebuilds each check's probe, `membership_lp(problem, mode, eps_prime,
    generator)` for a vertex and a ray check alike, checks the stored
    outcome's certificate exactly and re-reads the check's `accepted` and
    `sup` off it (`probe_evidence`). Then it evaluates the gates on x_bar
    (`_point_gates`) up to the first that fails, which must open the report's
    gates (`_gates`), checks that they are the ones `verify` writes
    (`_gate_names`), re-validates a passed `essential` gate's outcome against
    the probe at (0, 0), which must reject, and re-derives the verdict tag
    from the gates and the checks. A certificate must log the checks that
    `verify` runs: the single check at (0, 0) in convex mode or after a
    failed essential gate, and otherwise the generators of h's
    eps'-subdifferentials (`subdiff_epigraph`), its points as vertex checks
    and then its rays as ray checks.
    A refutation's last check must be at a point of E = {(eps', s) : s in
    d_eps' h(x_bar)} that `verify` refutes on: (0, 0) in convex mode, and
    otherwise one of those points, or the first point plus t > 0 times one
    of those rays; a report cut to that check alone still replays.

    Raises CertificateError on any mismatch and on any malformed part that
    replay reads: a missing field, a part of the wrong JSON type, an unknown
    mode, kind or outcome tag, a literal that is not rational, a generator
    without one entry per variable, or a check logged although x_bar is off
    dom f, where no probe exists.
    """
    _require(report, ("mode",), "the report")
    mode = report["mode"]
    if mode not in MODES:
        raise CertificateError(f"unknown mode {mode!r}")
    checks = report.get("checks", [])
    if not isinstance(checks, list):
        raise CertificateError("the checks are not a list")
    seen = []
    logged = []
    for check in checks:
        _require(check, _CHECK_FIELDS, "a check")
        eps_prime = _rational(check["eps_prime"], "eps_prime")
        generator = _rationals(check["generator"], "generator")
        if len(generator) != problem.n:
            raise CertificateError("generator length mismatch")
        kind = check["kind"]
        if kind not in ("vertex", "ray"):
            raise CertificateError(f"unknown check kind {kind!r}")
        try:
            lp = membership_lp(problem, mode, eps_prime, generator)
        except InputError as exc:  # x_bar off dom f: no probe
            raise CertificateError(f"the check has no probe LP ({exc})") from None
        outcome = _outcome_from_doc(check["outcome"])
        check_outcome(lp, outcome)
        ev = probe_evidence(lp, outcome, ray=kind == "ray")
        if check["accepted"] is not ev.member or check["sup"] != fmt(ev.sup):
            raise CertificateError("accepted or sup disagrees with the outcome")
        seen.append((kind, ev.member))
        logged.append((eps_prime, generator, kind))
    gates, proof = _gates(report.get("gates", []))
    point_gates = []
    for name, ok, _reason in _point_gates(problem, mode):
        point_gates.append([name, ok])
        if not ok:
            break
    if gates[: len(point_gates)] != point_gates:
        raise CertificateError("the gates on x_bar do not evaluate as the report claims")
    if [name for name, _ok in gates] != _gate_names(point_gates, mode):
        raise CertificateError("the gates are not the ones verify writes")
    if proof is not None:
        gate_lp = membership_lp(problem, mode, 0, (0,) * problem.n)
        outcome = _outcome_from_doc(proof)
        check_outcome(gate_lp, outcome)
        if probe_evidence(gate_lp, outcome).member:
            raise CertificateError("the passed essential gate's probe at (0, 0) accepts")
    verdict = report.get("verdict")
    if verdict != _implied_verdict(gates, seen):
        raise CertificateError("the verdict does not follow from the gates and checks")
    if verdict == CERTIFIED:
        if mode == "convex" or not gates[-1][1]:  # a certificate's failed gate is `essential`
            covered = [(0, (0,) * problem.n, "vertex")]
        else:
            points, rays = subdiff_epigraph(problem.reverse, problem.point, problem._point_image)
            covered = [(*p, "vertex") for p in points] + [(*r, "ray") for r in rays]
        if logged != covered:
            raise CertificateError("the checks are not the ones a certificate logs")
    elif verdict == REFUTED:
        eps_prime, generator, _ = logged[-1]
        if mode == "convex":
            on_e = eps_prime == 0 and not any(generator)
        else:
            points, rays = subdiff_epigraph(problem.reverse, problem.point, problem._point_image)
            on_e = (eps_prime, generator) in points or any(
                _beyond((eps_prime, *generator), (points[0][0], *points[0][1]), (sigma, *c))
                for sigma, c in rays
            )
        if not on_e:
            raise CertificateError("the refuting check is not a point of E that verify refutes on")


def _beyond(point, base, ray) -> bool:
    """Is point = base + t * ray for some t > 0?"""
    gap = [p - b for p, b in zip(point, base)]
    t = next((g / r for g, r in zip(gap, ray) if r), None)
    return t is not None and t > 0 and all(g == t * r for g, r in zip(gap, ray))


# -- commands ------------------------------------------------------------------


def _cmd_decide(args) -> tuple[str, int]:
    """`verify` and `falsify`: the same report but for its command."""
    problem = load_problem(args.problem)
    verdict = (verify if args.command == "verify" else falsify)(problem, args.mode)
    line = _verdict_text(args.command, verdict)
    if args.cross_check_grid is not None:
        _bind_grid()
        lo, hi, step = (rat(v) for v in args.cross_check_grid)
        grid = GridSpec(((lo, hi),) * problem.n, step)
        line += f',"oracle_cross_check":{_cross_check_text(problem, args.mode, grid, verdict)}'
    return line + "}", _EXIT_CODE[verdict.tag]


def _cross_check_text(problem, mode, grid: GridSpec, verdict) -> str:
    """The grid oracle's cross-check of `verdict` as a JSON object; its mode
    is a `MODE_MAP` value."""
    res = brute_eps_argmin(problem, MODE_MAP[mode], grid)
    consistent = True
    if verdict.tag != INAPPLICABLE and res.min_value is not None and res.min_value != INF:
        threshold = problem.objective.value(problem.point) - problem.epsilon
        if verdict.tag == REFUTED:
            # An exact refutation tolerates a grid minimum above the threshold
            # only within the grid error bound.
            consistent = res.min_value - threshold <= res.error_bound
        else:
            consistent = threshold - res.min_value <= res.error_bound
    min_value = "null" if res.min_value is None else f'"{fmt(res.min_value)}"'
    return (
        f'{{"mode":"{res.mode}","feasible_count":{res.feasible_count},'
        f'"min_value":{min_value},"error_bound":"{fmt(res.error_bound)}",'
        f'"consistent":{_BOOL[consistent]}}}'
    )


def _cmd_subdiff(args) -> tuple[str, int]:
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
    return _json_line(doc), EXIT_PASS


def _cmd_brute(args) -> tuple[str, int]:
    _bind_grid()
    problem = load_problem(args.problem)
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
    return _json_line(doc), EXIT_PASS


def _cmd_pareto(args) -> tuple[str, int]:
    _bind_grid()
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
    return _json_line(doc), EXIT_PASS if rep.passed else EXIT_REFUTED


_USAGE = """revopt verify  --problem FILE --mode {rop|constrained|equality|convex} \\
               [--cross-check-grid LO HI STEP] [--seed N]
revopt falsify --problem FILE --mode MODE [--seed N]
revopt subdiff --problem FILE --fn {objective|reverse|constraint:j} --eps E
revopt brute   --problem FILE --mode MODE --box LO HI --step S
revopt pareto  --problem FILE --box LO HI --step S [--sigma {s|e|w}]
"""

#: flag -> (arity, allowed values, `int` or None); `--a-b`'s value is `args.a_b`,
#: None unless given
_FLAGS = {
    "--problem": (1, None), "--mode": (1, MODES), "--fn": (1, None), "--eps": (1, None),
    "--box": (2, None), "--step": (1, None), "--cross-check-grid": (3, None),
    "--seed": (1, int), "--sigma": (1, SIGMA_KINDS),
}

#: command -> (handler, required flags, optional flags)
_COMMANDS = {
    "verify": (_cmd_decide, ("--problem", "--mode"), ("--cross-check-grid", "--seed")),
    "falsify": (_cmd_decide, ("--problem", "--mode"), ("--seed",)),
    "subdiff": (_cmd_subdiff, ("--problem", "--fn", "--eps"), ()),
    "brute": (_cmd_brute, ("--problem", "--mode", "--box", "--step"), ()),
    "pareto": (_cmd_pareto, ("--problem", "--box", "--step"), ("--sigma",)),
}


#: per command, the flags it takes
_TAKES = {
    command: {*required, *optional} for command, (_handler, required, optional) in _COMMANDS.items()
}

#: flag -> (arity, allowed values, its attribute), as `_FLAGS` has them
_READS = {
    flag: (arity, allowed, flag[2:].replace("-", "_"))
    for flag, (arity, allowed) in _FLAGS.items()
}

#: every flag's attribute, None until the flag is given
_UNSET = dict.fromkeys(name for _arity, _allowed, name in _READS.values())


def _parse(argv) -> SimpleNamespace | None:
    """A command line's args by `_COMMANDS` and `_FLAGS`, read against the
    tables built from them at import, or None for -h and --help. InputError
    unless its syntax is `_USAGE`'s: no flag abbreviated, `--flag=value`,
    `--` or a flag twice; a value may start with one `-`."""
    if "-h" in argv or "--help" in argv:
        return None
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}")
    handler, required, _optional = _COMMANDS[command]
    takes = _TAKES[command]
    names = dict(_UNSET)
    given = set()
    rest = iter(argv[1:])
    for flag in rest:
        if flag not in takes or flag in given:
            raise InputError(f"{command}: unknown or repeated argument {flag!r}")
        given.add(flag)
        arity, allowed, name = _READS[flag]
        values = [next(rest, "--") for _ in range(arity)]  # a missing value reads "--"
        if any(v.startswith("--") for v in values):
            raise InputError(f"{command}: {flag} expects {arity} value(s)")
        try:
            if allowed is int:
                int(values[0])
            elif allowed is not None and values[0] not in allowed:
                raise ValueError
        except ValueError:
            raise InputError(f"{command}: bad {flag} value {values[0]!r}") from None
        names[name] = values[0] if arity == 1 else values
    missing = [flag for flag in required if flag not in given]
    if missing:
        raise InputError(f"{command}: missing {', '.join(missing)}")
    return SimpleNamespace(command=command, handler=handler, **names)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args is None:
            sys.stdout.write(_USAGE)
            return EXIT_PASS
        line, code = args.handler(args)
    except (InputError, Inapplicable) as exc:
        code = EXIT_INAPPLICABLE if isinstance(exc, Inapplicable) else EXIT_INPUT_ERROR
        line = _json_line({"command": argv[0] if argv else None, "error": str(exc)})
    sys.stdout.write(line + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
