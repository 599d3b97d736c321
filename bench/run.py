"""Seeded benchmark of revopt, run from the root of a checkout:

    python3 bench/run.py --workload corpus-rop --seed 0 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds`; `--trace 1`
makes one untraced and one traced pass over a fixed set of instances and
prints the per-layer metrics. `--workload all` runs every workload, each in
its own process. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("corpus-rop", "wide-modes", "grid-oracle")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "revopt", "__init__.py")):
        print(f"bench: no revopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    import revopt

    if os.path.dirname(os.path.abspath(revopt.__file__)) != os.path.join(SRC, "revopt"):
        print(f"bench: revopt came from {revopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS[args.workload]
    name = f"{args.workload}-s{args.seed}"
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            span_path = os.path.join(out_dir, f"spans-{name}.jsonl")
            result = harness.run_traced(workload, args.seed, workdir, SRC, span_path)
        else:
            result = harness.run_timed(workload, args.seed, args.seconds, workdir, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
