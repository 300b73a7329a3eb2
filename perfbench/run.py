"""Repo benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed_fig2 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload in a child process (``harness.py``) and
prints the end-to-end metrics.  ``--seconds`` budgets the passes made
after the workload's sub-seed passes, which always run; ``--trace 1``
runs one untraced and one traced pass, each in its own child, and
prints the per-layer metrics plus the tracing overhead.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is nonzero when an output check fails or the program cannot run.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from harness import OUT, WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child(args: argparse.Namespace, trace: int, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.trace:
        # Both sides of the overhead ratio time one pass at --seed.
        command += ["--single-pass"]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"harness timed out ({args.workload})")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"harness exited with {done.returncode}")
    return json.loads(lines[-1])


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in pairs.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        plain = _child(args, 0, deadline)
        traced = _child(args, 1, deadline) if args.trace else None
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    records = [r for r in (plain, traced) if r is not None]
    problems = [p for r in records for p in r["problems"]]
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {},
    }
    if traced is not None and plain["correct"] and traced["correct"]:
        if traced["digests"] != plain["digests"]:
            problems.append("traced rows differ from untraced rows")
        layer = dict(traced["per_layer"])
        wall = layer["trace.wall_s"][0]
        attributed = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        if abs(attributed + layer["trace.unattributed_s"][0] - wall) > 1e-6 * wall:
            problems.append("layer self times + unattributed != traced wall")
        layer["trace.overhead_frac"] = (
            wall / plain["passes"][0]["wall_s"] - 1, "ratio"
        )
        result["metrics"] = _metrics(layer)
    elif traced is None and plain["correct"]:
        result["metrics"] = _metrics(plain["end_to_end"])
    result["correct"] = result["correct"] and not problems
    for record in records:
        for seed, digests in zip(record.get("seeds", ()), record.get("digests", ())):
            print(f"digest {args.workload} seed={seed} trace={record['trace']} "
                  f"rows={digests['rows']} sim={digests['sim']}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
