"""Benchmark for unionstab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload encode|certify|search --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a
fresh interpreter (perfbench/workload.py) with PYTHONPATH=src and one
BLAS thread; rounds repeat until S seconds have passed and at least
MIN_ROUNDS have run.  Every round runs the same operations.
Set-up is sampled SETUP_SAMPLES times in all: each round's own set-up plus
set-up-only interpreters.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics: with --trace 0
the end-to-end metrics (medians over rounds), with --trace 1 the
per-layer metrics from spans around unionstab's entry points.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("encode", "certify", "search")
# two rounds of 10-16 s each: the median of two damps the noise of one
# round, and 70 runs still take only about half an hour on two cores
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a run that cannot finish by then is killed and fails
# one BLAS thread: the host has two cores and the enumerators gain little
# from a second thread, which competes with everything else on the host
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args], env=env,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "unionstab" / "__init__.py").is_file():
        sys.stderr.write(f"no src/unionstab under {root}: "
                         "run from the root of a unionstab checkout\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(args.trace)]

    rounds = []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        rounds.append(run_child(child_args, env, deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(child_args + ["--setup-only"], env,
                                deadline)["setup_s"])

    for i, r in enumerate(rounds):
        print(f"round {i}: wall_s {r['wall_s']:.4f} (cpu {r['cpu_s']:.2f})"
              f" setup_s {r['setup_s']:.4f}"
              f" peak_rss_mb {r['peak_rss_mb']:.1f} attempted {r['attempted']}"
              f" failed {r['failed']} correct {r['correct']}")
        for e in r["check_errors"]:
            print(f"  check failed: {e}")
        for e in r["known_faults"]:
            print(f"  known fault: {e}")
        if "graph_draws" in r:
            print(f"  graph-state draws: {r['graph_draws']}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")

    if args.trace:
        metrics = {name: {"value": statistics.median(
                               r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    correct = all(r["correct"] for r in rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
