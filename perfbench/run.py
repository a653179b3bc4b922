"""Benchmark entry point: one run of one workload, result as the last stdout line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is taken from ``src/`` there;
a directory without it is refused with exit code 2.  Every child is a fresh
Python process with BLAS/OpenMP pinned to one thread:

* ``setup_s``: the median wall time of several fresh processes that import
  the library and make one tiny CLI call (one more runs first, uncounted, so
  that byte-code caches exist as they would for a user), each rescaled to
  nominal machine speed as calibrate.py explains;
* the run itself: worker.py, which times the workload's job list and checks
  its outputs.

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
failed_frac, peak_rss_mb); with ``--trace 1`` the per-layer ones.
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

from workloads import WORKLOADS

WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_PROBES = 11
DEADLINE_S = 170.0
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict, deadline: float) -> float:
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(WORKER), "--probe"], env=env, check=True,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        wall = time.perf_counter() - start
        if i:
            times.append(wall * json.loads(proc.stdout)["scale"])
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (Path.cwd() / "src" / "hilbert_tensors" / "__init__.py").is_file():
        print("perfbench: no src/hilbert_tensors here; run from the root of a checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_s = setup_seconds(env, deadline) if args.trace == 0 else None
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: setup probe failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
