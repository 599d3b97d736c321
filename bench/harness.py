"""One workload: set-up, the timed closed loop, the correctness checks, and
the traced pass that gives the per-layer numbers.

The client is a closed loop in one thread: it takes an instance through the
workload's steps, then the next instance, until the time is up. The pool is
reused from the start if the loop gets through all of it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict, deque
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter

from revopt import cli, oracle, pareto
from revopt.model import AffineForm, PolyhedralConvexFunction, ReverseProblem
from revopt.oracle import GridSpec
from revopt.problemfile import dump_problem
from revopt.subdiff import SubdiffQuery, subdiff_member

import gen
import spans as sp
from truth import exact_inf

F = Fraction
BOX = ((F(-3), F(3)),)
#: acceptance grids: the oracle's (criterion 3) and the bridge's (criterion 5)
ORACLE_STEP = {1: F(1, 60), 2: F(1, 8)}
BRIDGE_STEP = {1: F(1, 4), 2: F(1, 2)}
SETUP_ROUNDS = 9
#: instances of one traced pass, and of the report digest
TRACE_COUNT = 200
DIGEST_COUNT = 100
MODES = gen.MODES


@dataclass
class Case:
    inst: gen.Instance
    path: str
    grid: GridSpec | None = None
    box: tuple = ()
    bridge_step: Fraction | None = None


@dataclass
class Record:
    """One instance taken through the workload's steps."""

    case: Case
    times: dict = field(default_factory=dict)  # step -> seconds
    outputs: dict = field(default_factory=dict)  # step -> result
    failed: list = field(default_factory=list)  # steps that raised
    scale: float = 1.0  # Speed.factor() when the instance was taken


#: per-layer metrics that only wide-modes moves: the rop-only workloads print
#: them but leave them out of their result
WIDE_ONLY_LAYERS = (
    "certificates.ray_checks",
    "certificates.verify_s.constrained",
    "certificates.verify_s.equality",
    "certificates.verify_s.convex",
)


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    make: object  # seed -> list[Instance]
    #: (seed, index) -> whether a wrong certification of that instance is a
    #: failure; a wrong refutation always is
    strict: object = lambda seed, index: False
    print_only: tuple = ()  # per-layer metrics left out of the result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-rop",
            ("verify", "replay", "falsify"),
            gen.corpus_rop,
            strict=lambda seed, index: seed == 0 and index < gen.CORPUS_BLOCK,
            print_only=WIDE_ONLY_LAYERS,
        ),
        Workload("wide-modes", ("verify", "replay", "falsify"), gen.wide_modes),
        Workload(
            "grid-oracle",
            ("oracle", "bridge"),
            lambda seed: gen.corpus_rop(seed, 1),
            print_only=WIDE_ONLY_LAYERS,
        ),
    )
}


# -- the client -------------------------------------------------------------------


class CliError(Exception):
    """`revopt` exited with an input error or printed no verdict."""


def _cli(command: str, case: Case) -> str:
    argv = [command, "--problem", case.path, "--mode", case.inst.mode]
    argv += ["--seed", str(case.inst.index)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    text = buf.getvalue()
    if code == cli.EXIT_INPUT_ERROR or "verdict" not in json.loads(text):
        raise CliError(f"{command} exited with {code}: {text.strip()}")
    return text


def _brute(case: Case):
    return oracle.brute_eps_argmin(case.inst.problem, "reverse", case.grid)


def _bridge(case: Case):
    p = case.inst.problem
    return pareto.bridge_check(
        p.objective, p.reverse, case.box, case.bridge_step, p.epsilon
    )


class Client:
    """Takes instances through a workload's steps; with a tracer, each step is
    a root span tagged with the instance index."""

    def __init__(self, workload: Workload, tracer: sp.Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.errors: list[str] = []

    def _op(self, rec: Record, step: str, fn, *args):
        ctx = self.tracer.span("op." + step) if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with ctx:
                result = fn(*args)
        except Exception:  # the loop keeps going; the failure is counted
            rec.times[step] = perf_counter() - t0
            rec.failed.append(step)
            index = rec.case.inst.index
            self.errors.append(f"{step} #{index}: {traceback.format_exc()}")
            return None
        rec.times[step] = perf_counter() - t0
        rec.outputs[step] = result
        return result

    def take(self, case: Case) -> Record:
        rec = Record(case)
        if self.tracer:
            self.tracer.instance = case.inst.index
        if self.workload.steps[0] == "oracle":
            self._op(rec, "oracle", _brute, case)
            self._op(rec, "bridge", _bridge, case)
            return rec
        text = self._op(rec, "verify", _cli, "verify", case)
        if text is not None:
            self._op(rec, "replay", cli.replay, case.inst.problem, json.loads(text))
        self._op(rec, "falsify", _cli, "falsify", case)
        return rec


# -- machine speed ----------------------------------------------------------------

#: the calibration kernel's time at the reference speed that the end-to-end
#: times are scaled to
KERNEL_REF_S = 3.0e-3
SPEED_WINDOW = 5


def _kernel():
    """Fixed pure-Python work of the kind revopt does (Fraction arithmetic and
    big-integer gcds); its time tracks the machine's current speed."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    x = 0
    for i in range(1, 3000):
        x += gcd(i * 7919, 104729 * i + 13)
    return acc, x


class Speed:
    """Running estimate of the machine's speed from the kernel's recent times.

    On a shared VM the speed of one core swings by a factor of 1.6 within
    seconds, so each instance's wall times are scaled by
    KERNEL_REF_S / (median of the last SPEED_WINDOW kernel times), measured
    right before it.
    """

    def __init__(self, window: int = SPEED_WINDOW):
        self.times = deque(maxlen=window)

    def sample(self):
        t0 = perf_counter()
        _kernel()
        self.times.append(perf_counter() - t0)

    def factor(self) -> float:
        return KERNEL_REF_S / statistics.median(self.times)


# -- set-up -----------------------------------------------------------------------


def _warm_problem() -> ReverseProblem:
    """min |x| s.t. |x| - 1 >= 0 at x = 1: cheap, and touches every step."""
    absf = PolyhedralConvexFunction(1, (AffineForm((1,), 0), AffineForm((-1,), 0)))
    h = PolyhedralConvexFunction(1, (AffineForm((1,), -1), AffineForm((-1,), -1)))
    return ReverseProblem(1, absf, h, (1,), 0)


def _prepare(inst: gen.Instance, workdir: str, name: str | None = None) -> Case:
    path = os.path.join(workdir, name or f"p{inst.index:05d}.json")
    dump_problem(inst.problem, path)
    n = inst.problem.n
    case = Case(inst, path)
    if n in ORACLE_STEP:
        case.grid = GridSpec(BOX * n, ORACLE_STEP[n])
        case.box = BOX * n
        case.bridge_step = BRIDGE_STEP[n]
    return case


def _import_seconds(src: str) -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import revopt.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout)


def setup(workload: Workload, seed: int, workdir: str, src: str, rounds: int):
    """Generate the instances once, then import, write the problem files and
    warm up, `rounds` times; returns the cases of the last round, the median
    set-up time and the generation time.

    Generation is left out of the set-up time: the draws that fill the strata
    quotas are the benchmark's own work, and their number varies by seed.
    Later rounds overwrite the files of the first, since creating files is
    the noisiest part of writing them.
    """
    t0 = perf_counter()
    insts = workload.make(seed)
    generate_s = perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    times = []
    # each round is scaled by the kernel's times right before and right after it
    speed = Speed(2 * SPEED_WINDOW)
    for _ in range(rounds):
        for _ in range(SPEED_WINDOW):
            speed.sample()
        imported = _import_seconds(src)
        t0 = perf_counter()
        cases = [_prepare(inst, workdir) for inst in insts]
        warm = _prepare(gen.Instance(0, _warm_problem(), "rop"), workdir, "warm.json")
        Client(workload).take(warm)
        wall = imported + perf_counter() - t0
        for _ in range(SPEED_WINDOW):
            speed.sample()
        times.append(wall * speed.factor())
    return cases, statistics.median(times), generate_s


# -- checks -----------------------------------------------------------------------


@dataclass
class Checks:
    #: the result's `failed`: failed operations and checks, wrong refutations
    #: and wrong certifications of strict instances
    failed: int = 0
    #: CERTIFIED_ON_GRID verdicts the exact truth contradicts (strict ones too)
    wrong_certified: int = 0
    wrong_refutations: int = 0
    notes: list = field(default_factory=list)
    verdicts: dict = field(default_factory=lambda: defaultdict(Counter))
    grid_over_bound: int = 0

    @property
    def wrong_verdicts(self) -> int:
        return self.wrong_certified + self.wrong_refutations


def _witness_ok(problem, mode, report) -> bool:
    """A refutation's witness is a true eps'-subgradient of h at x_bar (not
    in convex mode, whose witness is 0), its check is the log's last and
    rejected one, the evidence shows non-membership, and the evidence's LP
    certificate re-validates."""
    wit = report["witness"]
    last = report["checks"][-1]
    if last["accepted"] or last["kind"] != "vertex":
        return False
    if last["eps_prime"] != wit["eps_prime"] or last["generator"] != wit["x_star"]:
        return False
    tag = last["outcome"]["tag"]
    if mode == "convex":
        if tag != "infeasible":
            return False
    elif tag != "infeasible" and not (tag == "optimal" and F(last["sup"]) <= 0):
        return False
    if mode != "convex":
        eps_prime = F(wit["eps_prime"])
        xstar = tuple(F(v) for v in wit["x_star"])
        query = SubdiffQuery(problem.reverse, problem.point, eps_prime)
        if not subdiff_member(query, xstar):
            return False
    cli.replay(problem, {**report, "checks": [last]})
    return True


def check_decisions(records, checks: Checks, strict=lambda index: False):
    """A wrong refutation is a failure: refutations are exact claims. A wrong
    CERTIFIED_ON_GRID is a failure only on a `strict` instance; elsewhere it
    is counted as the known limit of the finite eps' sweep."""
    seen = {}
    for rec in records:
        inst = rec.case.inst
        checks.failed += len(rec.failed)
        first = seen.setdefault(inst.index, rec)
        if first is not rec:
            if first.outputs != rec.outputs:
                checks.failed += 1
                checks.notes.append(f"#{inst.index}: reports differ on a second pass")
            continue
        problem = inst.problem
        truth = exact_inf(problem, inst.mode)
        threshold = problem.objective.value(problem.point) - problem.epsilon
        optimal = truth is None or truth >= threshold
        where = f"#{inst.index} {inst.mode}"
        for step in ("verify", "falsify"):
            if step not in rec.outputs:
                continue
            report = json.loads(rec.outputs[step])
            verdict = report.get("verdict")
            if verdict is None:
                checks.failed += 1
                checks.notes.append(f"{where}: {step} printed no verdict")
                continue
            checks.verdicts[f"{step}.{inst.mode}"][verdict] += 1
            if verdict == "CERTIFIED_ON_GRID" and not optimal:
                checks.wrong_certified += 1
                if strict(inst.index):
                    checks.failed += 1
                checks.notes.append(
                    f"{where}: {step} certified, exact inf {truth} < {threshold}"
                )
            if verdict == "REFUTED":
                if optimal:
                    checks.failed += 1
                    checks.wrong_refutations += 1
                    checks.notes.append(
                        f"{where}: {step} refuted, exact inf {truth} >= {threshold}"
                    )
                try:
                    ok = _witness_ok(problem, inst.mode, report)
                except Exception:
                    ok = False
                if not ok:
                    checks.failed += 1
                    checks.notes.append(f"{where}: {step} witness fails its re-check")


def check_grid(records, checks: Checks):
    seen = {}
    for rec in records:
        inst = rec.case.inst
        checks.failed += len(rec.failed)
        if seen.setdefault(inst.index, rec) is not rec or rec.failed:
            continue
        brute, bridge = rec.outputs["oracle"], rec.outputs["bridge"]
        truth = exact_inf(inst.problem, "rop")
        checks.verdicts["bridge"]["passed" if bridge.passed else "violated"] += 1
        if not bridge.passed:
            checks.failed += 1
            checks.notes.append(f"#{inst.index}: bridge check violated")
        if brute.min_value is None or brute.min_value == float("inf"):
            checks.verdicts["oracle"]["no-finite-grid-point"] += 1
            continue
        checks.verdicts["oracle"]["finite"] += 1
        if truth is None or brute.min_value < truth:
            checks.failed += 1
            checks.notes.append(
                f"#{inst.index}: grid minimum {brute.min_value} below exact inf {truth}"
            )
        elif brute.min_value - truth > brute.error_bound:
            checks.grid_over_bound += 1


def digest(records, count=DIGEST_COUNT) -> str:
    h = hashlib.sha256()
    for rec in records[:count]:
        for step, text in sorted(_canonical_outputs(rec).items()):
            h.update(text.encode())
    return h.hexdigest()[:16]


def _canonical(out) -> str:
    if isinstance(out, str):
        return out
    return repr(out)


def _canonical_outputs(rec: Record) -> dict:
    return {step: _canonical(out) for step, out in rec.outputs.items()}


# -- metrics ----------------------------------------------------------------------


def _pct(values, q):
    """The q-th percentile (q in 1..99) by `statistics.quantiles`."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def step_stats(records, step, scaled=True):
    ms = [
        r.times[step] * (r.scale if scaled else 1) * 1e3
        for r in records
        if step in r.times
    ]
    return {
        "count": len(ms),
        "p50": statistics.median(ms),
        "p90": _pct(ms, 90),
        "per_s": len(ms) / (sum(ms) / 1e3),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload: Workload, records, setup_s: float) -> dict:
    """The end-to-end metrics, named by role: `decide` is the workload's first
    step (verify, or the grid oracle), `recheck` its last (falsify, or the
    bridge check), and `instance` all steps of one instance."""
    decide = step_stats(records, workload.steps[0])
    recheck = step_stats(records, workload.steps[-1])
    inst_ms = [sum(r.times.values()) * r.scale * 1e3 for r in records]
    values = {
        "setup_s": (setup_s, "s"),
        "instance_ms_p50": (statistics.median(inst_ms), "ms"),
        "instance_ms_p90": (_pct(inst_ms, 90), "ms"),
        "instances_per_s": (len(inst_ms) / (sum(inst_ms) / 1e3), "1/s"),
        "decide_ms_p50": (decide["p50"], "ms"),
        "decide_ms_p90": (decide["p90"], "ms"),
        "decide_per_s": (decide["per_s"], "1/s"),
        "recheck_ms_p50": (recheck["p50"], "ms"),
        "recheck_ms_p90": (recheck["p90"], "ms"),
        "recheck_per_s": (recheck["per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(spans, records, overhead_frac: float) -> dict:
    """Per-layer numbers from one traced pass; see bench/README.md."""
    selfs = sp.self_times(spans)
    by = defaultdict(list)
    for sid, s in enumerate(spans):
        by[s[sp.NAME]].append(sid)

    def dur(sid):
        return spans[sid][sp.END] - spans[sid][sp.START]

    def total(*names):
        return sum(dur(s) for n in names for s in by[n])

    def self_total(*names):
        return sum(selfs[s] for n in names for s in by[n])

    def parent_name(sid):
        parent = spans[sid][sp.PARENT]
        return None if parent is None else spans[parent][sp.NAME]

    def attr_values(name, key, parent=None):
        return [
            spans[s][sp.ATTRS][key]
            for s in by[name]
            if parent is None or parent_name(s) == parent
        ]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    decisions = ("certificates.verify", "certificates.falsify")
    lp = by["lp.lp_solve"]
    membership = [
        s
        for s in by["lp.lp_solve"] + by["lp.lp_max_component"]
        if parent_name(s) in decisions
    ]
    mode_of = {r.case.inst.index: r.case.inst.mode for r in records}
    checks = ray_checks = eps_primes = decided = 0
    report_bytes = []
    for rec in records:
        for step in ("verify", "falsify"):
            if step not in rec.outputs:
                continue
            text = rec.outputs[step]
            report_bytes.append(len(text.encode()))
            log = json.loads(text).get("checks", [])
            decided += 1
            checks += len(log)
            ray_checks += sum(c["kind"] == "ray" for c in log)
            eps_primes += len({c["eps_prime"] for c in log})
    kept = sum(attr_values("polytope.project", "gens"))
    lifted = sum(
        attr_values("polytope.vertex_enumerate", "gens", parent="polytope.project")
    )
    prune_lps = len(attr_values("lp.lp_solve", "rows", parent="polytope.project"))
    lp_rows = attr_values("lp.lp_solve", "rows")
    lp_vars = attr_values("lp.lp_solve", "vars")
    den_bits = max(attr_values("lp.lp_solve", "den_bits"), default=0)
    gate_s = total("certificates.essential_check", "certificates.slater_check")
    grid_points = sum(attr_values("oracle.brute_eps_argmin", "points"))

    m = {
        "lp.solves": (len(lp), "count"),
        "lp.solve_s": (self_total("lp.lp_solve"), "s"),
        "lp.solves_per_s": (ratio(len(lp), self_total("lp.lp_solve")), "1/s"),
        "lp.rows_mean": (mean(lp_rows), "rows"),
        "lp.vars_mean": (mean(lp_vars), "vars"),
        "lp.max_den_bits": (den_bits, "bits"),
        "lp.checks": (len(by["lp.check_outcome"]), "count"),
        "lp.check_s": (total("lp.check_outcome"), "s"),
        "polytope.enumerate_calls": (len(by["polytope.vertex_enumerate"]), "count"),
        "polytope.enumerate_s": (total("polytope.vertex_enumerate"), "s"),
        "polytope.project_self_s": (self_total("polytope.project"), "s"),
        "polytope.prune_lps": (prune_lps, "count"),
        "polytope.kept_frac": (ratio(kept, lifted), "ratio"),
        "subdiff.vrep_calls": (len(by["subdiff.subdiff_vrep"]), "count"),
        "subdiff.vrep_s": (total("subdiff.subdiff_vrep"), "s"),
        "subdiff.generators_mean": (
            mean(attr_values("subdiff.subdiff_vrep", "gens")),
            "count",
        ),
        "subdiff.member_calls": (len(by["subdiff.subdiff_member"]), "count"),
        "subdiff.member_s": (total("subdiff.subdiff_member"), "s"),
        "certificates.verify_self_s": (self_total(*decisions), "s"),
        "certificates.gate_s": (gate_s, "s"),
        "certificates.membership_lps": (len(membership), "count"),
        "certificates.checks": (checks, "count"),
        "certificates.ray_checks": (ray_checks, "count"),
        "certificates.eps_primes": (eps_primes, "count"),
        "certificates.checks_per_decision": (ratio(checks, decided), "count"),
        "certificates.falsify_s": (total("certificates.falsify"), "s"),
    }
    for mode in MODES:
        verify_s = sum(
            dur(s)
            for s in by["certificates.verify"]
            if mode_of.get(spans[s][sp.INSTANCE]) == mode
        )
        m[f"certificates.verify_s.{mode}"] = (verify_s, "s")
    brute_s = total("oracle.brute_eps_argmin")
    m.update(
        {
            "oracle.brute_s": (brute_s, "s"),
            "oracle.grid_points": (grid_points, "count"),
            "oracle.points_per_s": (ratio(grid_points, brute_s), "1/s"),
            "pareto.bridge_s": (total("pareto.bridge_check"), "s"),
            "pareto.grid_points": (
                sum(attr_values("pareto.bridge_check", "points")),
                "count",
            ),
            "problemfile.load_s": (total("problemfile.load_problem"), "s"),
            "cli.self_s": (self_total("op.verify", "op.falsify"), "s"),
            "cli.report_kb_mean": (mean(report_bytes) / 1024, "KB"),
            "cli.replay_self_s": (self_total("op.replay"), "s"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- runs -------------------------------------------------------------------------


def _info(name, value, unit=""):
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"  {name:<34} {value} {unit}".rstrip())


def _print_step_stats(workload, records):
    """Per step under its own name, in unscaled wall time."""
    for step in workload.steps:
        stats = step_stats(records, step, scaled=False)
        _info(f"{step}_ms_p50", stats["p50"], "ms")
        _info(f"{step}_ms_p90", stats["p90"], "ms")
        _info(f"{step}_per_s", stats["per_s"], "1/s")
        _info(f"{step}_samples", stats["count"], "count")


def _print_digest(records):
    count = min(DIGEST_COUNT, len(records))
    print(f"  report digest (first {count} instances): {digest(records)}")


def _run_checks(workload, records, seed) -> Checks:
    checks = Checks()
    if workload.steps[0] == "oracle":
        check_grid(records, checks)
    else:
        check_decisions(records, checks, lambda index: workload.strict(seed, index))
    return checks


def _print_checks(checks: Checks, attempted, errors):
    """Correctness lines; verdict counts are over distinct instances."""
    _info("failed_frac", checks.failed / attempted, "ratio")
    decisions = [c for key, c in checks.verdicts.items() if key.startswith("verify.")]
    if decisions:
        _info("wrong_verdicts", checks.wrong_verdicts, "count")
        _info("wrong_certified", checks.wrong_certified, "count")
        _info("wrong_refutations", checks.wrong_refutations, "count")
        total = sum(sum(c.values()) for c in decisions)
        applicable = total - sum(c["INAPPLICABLE"] for c in decisions)
        _info("applicable_frac", applicable / total, "ratio")
    else:
        _info("grid_gap_over_L_step", checks.grid_over_bound, "count")
    for key in sorted(checks.verdicts):
        counts = ", ".join(f"{v} {c}" for v, c in sorted(checks.verdicts[key].items()))
        print(f"  verdicts {key}: {counts}")
    for note in checks.notes[:20]:
        print(f"  note: {note}")
    for err in errors[:5]:
        print(f"  error: {err}")


def run_timed(
    workload: Workload, seed: int, seconds: float, workdir: str, src: str
) -> dict:
    cases, setup_s, generate_s = setup(workload, seed, workdir, src, SETUP_ROUNDS)
    client = Client(workload)
    speed = Speed()
    for _ in range(SPEED_WINDOW):
        speed.sample()
    records = []
    deadline = perf_counter() + seconds
    while True:
        speed.sample()
        rec = client.take(cases[len(records) % len(cases)])
        rec.scale = speed.factor()
        records.append(rec)
        if perf_counter() >= deadline:
            break
    metrics = end_to_end(workload, records, setup_s)
    attempted = sum(len(r.times) for r in records)
    checks = _run_checks(workload, records, seed)
    distinct = len({r.case.inst.index for r in records})
    print(
        f"workload {workload.name} seed {seed}: {len(records)} instances "
        f"({distinct} distinct) in {seconds} s, closed loop, 1 client"
    )
    _print_step_stats(workload, records)
    _print_checks(checks, attempted, client.errors)
    _print_digest(records)
    _info("speed_scale_p50", statistics.median(r.scale for r in records), "ratio")
    _info("generate_s", generate_s, "s")
    for name, m in metrics.items():
        _info(name, m["value"], m["unit"])
    return {
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def run_traced(
    workload: Workload, seed: int, workdir: str, src: str, span_path: str
) -> dict:
    """Take each instance once untraced and once traced, alternating which
    goes first, so that drift in machine speed cancels out of the overhead."""
    cases, _, _ = setup(workload, seed, workdir, src, 1)
    cases = cases[:TRACE_COUNT]
    tracer = sp.Tracer()
    reference, client = Client(workload), Client(workload, tracer)
    plain, traced = [], []
    for i, case in enumerate(cases):
        if i % 2:
            plain.append(reference.take(case))
        with tracer.installed():
            traced.append(client.take(case))
        if not i % 2:
            plain.append(reference.take(case))
    tracer.dump(span_path)
    plain_s = sum(sum(r.times.values()) for r in plain)
    traced_s = sum(sum(r.times.values()) for r in traced)
    layers = layer_metrics(tracer.spans, traced, (traced_s - plain_s) / plain_s)
    same = list(map(_canonical_outputs, plain)) == list(map(_canonical_outputs, traced))
    checks = _run_checks(workload, traced, seed)
    layers["certificates.wrong_certified"] = {
        "value": checks.wrong_certified,
        "unit": "count",
    }
    attempted = sum(len(r.times) for r in traced)
    print(
        f"workload {workload.name} seed {seed}: traced pass over {len(cases)} "
        f"instances, {len(tracer.spans)} spans -> {span_path}"
    )
    print(
        f"  untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s; "
        f"reports identical: {same}"
    )
    _print_checks(checks, attempted, reference.errors + client.errors)
    _print_digest(traced)
    for name, m in layers.items():
        _info(name, m["value"], m["unit"])
    return {
        "correct": same and checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {k: v for k, v in layers.items() if k not in workload.print_only},
    }
