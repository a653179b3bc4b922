"""One benchmark run in a fresh, single-threaded process.

run.py starts this file from the root of a checkout; it imports the library
from ``src/`` of that checkout, and reads the metric names and units from
``BENCHMARK.json`` there.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --probe     # import plus one tiny call (setup_s)

The run is a closed loop: one client, one job at a time.  It cycles through
the workload's job list for ``--seconds`` (every job at least once), each
job timed at nominal machine speed (calibrate.py); wall_s is the sum over
jobs of each job's median time.  It reads peak RSS, then, with
``--trace 1``, runs the job list once more with the wrappers of tracing.py
installed.  Only after that are the outputs checked against the references
of checks.py.  The last line of stdout is the result
object; details go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import itertools
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibrate import SpeedSampler
from run import THREAD_PINS
from workloads import WORKLOADS, Job

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent
# metric names and units: BENCHMARK.json, next to the benchmark's directory
SPEC = HERE.parent / "BENCHMARK.json"
PROBE = Job("probe", argv=["spectrum", "--m", "2", "--n", "2"])


def import_library():
    sys.path.insert(0, str(SRC))
    import hilbert_tensors
    from hilbert_tensors import cli

    where = Path(hilbert_tensors.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"hilbert_tensors was imported from {where}, not from {SRC}")
    return hilbert_tensors, cli


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    start: float
    end: float
    exit: int  # CLI exit code; 0 for a finished apply_fast call, -1 for an exception
    digest: str
    stdout: str = ""
    stderr: str = ""
    sample: object = None  # apply jobs: sampled output rows
    seconds: float = 0.0  # end - start at nominal machine speed (calibrate.py)


def sample_rows(n: int, m: int):
    import numpy as np

    rng = np.random.default_rng([n, m])
    return np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, 14)]))


def run_job(job, lib, cli, keep: bool) -> Outcome:
    if job.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = cli.run(job.argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                status = -1
                traceback.print_exc()
            end = time.perf_counter()
        text = out.getvalue()
        return Outcome(start, end, status, _sha(f"{status}\n{text}".encode()),
                       text if keep else "", err.getvalue() if keep or status == -1 else "")
    m, x = job.apply
    tensor = lib.HilbertTensor(m, x.size)
    start = time.perf_counter()
    try:
        values = tensor.apply_fast(x).values
    except Exception:
        return Outcome(start, time.perf_counter(), -1, "", stderr=traceback.format_exc())
    end = time.perf_counter()
    rows = sample_rows(x.size, m)
    return Outcome(start, end, 0, _sha(values.tobytes()), sample=values[rows].copy() if keep else None)


def closed_loop(jobs, lib, cli, seconds: float) -> tuple[list[list[Outcome]], float]:
    """Run the jobs in order, round after round, one at a time, for ``seconds``.

    Every job runs at least once; after that the loop stops at the first job
    whose previous time would overrun ``seconds``.  Returns each job's runs
    and the peak RSS in MB after the first round: the memory one pass of the
    job list needs.  Later rounds only add timing samples; the allocator's
    layout after many rounds moved the process peak between 119 and 131 MB
    on scale from run to run.
    """
    runs: list[list[Outcome]] = [[] for _ in jobs]
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(jobs)
        if k == len(jobs):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if k >= len(jobs):
            last = runs[i][-1]
            if time.perf_counter() - start + (last.end - last.start) > seconds:
                return runs, peak_rss_mb
        runs[i].append(run_job(jobs[i], lib, cli, keep=not runs[i]))


# -- checks --------------------------------------------------------------------


def check_job(job, outcome, ref) -> tuple[list[str], bool, float]:
    """Reference causes for a job's checked output, whether the program left
    them unflagged (silent), and the job's apply error.

    ``bounds`` and ``spectrum`` causes all concern rows the program printed
    as certified (or its closed-form bounds), so they are silent whatever the
    exit code: an exit 3 for an unconverged Z does not vouch for the H row.
    In ``infinite`` only the verdict is what the program flags, with exit 2;
    a wrong verdict is silent when the program exited 0, and a wrong value,
    constant or enclosure always is.
    """
    import checks

    if outcome.exit == -1:
        return [], False, 0.0
    if job.apply is not None:
        m, x = job.apply
        err, rel, bound = checks.apply_errors(x, m, sample_rows(x.size, m), outcome.sample)
        causes = [f"apply_fast error {err:.3g} exceeds the a priori bound {bound:.3g}"] if err > bound else []
        return causes, bool(causes), rel
    rows = checks.parse_rows(outcome.stdout)
    command, m = job.argv[0], job.meta["m"]
    if command == "bounds":
        causes = checks.check_bounds(rows, m, ref)
        return causes, bool(causes), 0.0
    if command == "spectrum":
        causes = checks.check_spectrum(rows, outcome.stderr, m, job.meta["n"])
        return causes, bool(causes), 0.0
    wrong, verdict = checks.check_infinite(rows, outcome.stderr, outcome.exit, job.meta)
    return wrong + verdict, bool(wrong) or (bool(verdict) and outcome.exit == 0), 0.0


def judge(jobs, runs, traced, earlier: dict) -> tuple[list[dict], float]:
    """Per-job verdicts.  ``silent`` marks a wrong output the program did not flag.

    ``earlier`` maps job_key(job) to the output digest an earlier run of the
    same code and inputs recorded.
    """
    import checks

    ref = checks.EigenReference()
    verdicts = []
    max_rel_err = 0.0
    for i, job in enumerate(jobs):
        first = runs[i][0]
        causes = [f"exit {first.exit}"] if first.exit != 0 else []
        if first.exit == -1:
            causes.append(first.stderr.strip().splitlines()[-1])
        try:
            ref_causes, silent, rel = check_job(job, first, ref)
        except Exception as exc:  # an output the checks cannot read is a wrong output
            ref_causes, silent, rel = [f"unreadable output: {exc!r}"], True, 0.0
        max_rel_err = max(max_rel_err, rel)
        causes += ref_causes
        digests = {o.digest for o in runs[i]} | ({traced[i].digest} if traced else set())
        if len(digests) > 1:
            causes.append("output differs between runs of the job in one benchmark run")
            silent = True
        if earlier.get(job_key(job), first.digest) != first.digest:
            causes.append("output differs from an earlier run of the same code and inputs")
            silent = True
        verdicts.append({
            "job": job.name,
            "key": job_key(job),
            "seconds": [o.seconds for o in runs[i]],
            "exit": first.exit,
            "digest": first.digest,
            "failed": bool(causes),
            "silent": silent,
            "causes": causes,
        })
    return verdicts, max_rel_err


def sample_errors(tracer) -> float:
    """Largest relative error of the hankel_apply calls sampled in the traced pass."""
    import checks

    return max((checks.apply_errors(x, order, rows, out)[1] for x, order, rows, out in tracer.samples.values()),
               default=0.0)


# -- provenance ------------------------------------------------------------------


@functools.cache
def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def job_key(job) -> str:
    """What a job's output may depend on: library and benchmark code, numpy
    and Python versions, and the job's own inputs."""
    import platform

    import numpy as np

    h = hashlib.sha256()
    for part in (tree_digest(SRC / "hilbert_tensors"), tree_digest(HERE), np.__version__,
                 platform.python_version(), json.dumps(job.argv)):
        h.update(part.encode() + b"\0")
    if job.apply is not None:
        m, x = job.apply
        h.update(str(m).encode() + b"\0" + np.ascontiguousarray(x, dtype=float).tobytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; the benchmark may run without one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    return info


def provenance(seed: int) -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the config layout is numpy-version specific
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu": cpu_info(),
        "git_commit": git_commit(),
        "source_sha256": tree_digest(SRC / "hilbert_tensors"),
        "perfbench_sha256": tree_digest(HERE),
        "seed": seed,
        "blas": blas,
        "env": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.probe:
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            lib, cli = import_library()
            status = run_job(PROBE, lib, cli, keep=False).exit
            end = time.perf_counter()
        # the process's wall time, measured by run.py, is rescaled by this factor
        print(json.dumps({"scale": sampler.rescale(start, end) / (end - start)}))
        return 0 if status == 0 else 1

    lib, cli = import_library()
    from tracing import Tracer

    spec = json.loads(SPEC.read_text())
    jobs = WORKLOADS[args.workload](args.seed)
    tracer = traced = None
    with SpeedSampler() as sampler:
        # lazy set-up (first numpy calls, FFT plans of a tiny size) before timing
        run_job(PROBE, lib, cli, keep=False)
        lib.HilbertTensor(3, 8).apply_fast([1.0] * 8)
        runs, peak_rss_mb = closed_loop(jobs, lib, cli, args.seconds)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = []
                for job in jobs:
                    with tracer.job_span(job.name):
                        traced.append(run_job(job, lib, cli, keep=False))
    for outcome in [o for job_runs in runs for o in job_runs] + (traced or []):
        outcome.seconds = sampler.rescale(outcome.start, outcome.end)
    # the job list's time, each job at its median over its runs: a slow
    # spell then moves one sample, not the result
    wall_s = sum(statistics.median(o.seconds for o in job_runs) for job_runs in runs)
    raw_wall_s = sum(statistics.median(o.end - o.start for o in job_runs) for job_runs in runs)

    # checks: outside the timed region, after the memory reading
    OUT_DIR.mkdir(exist_ok=True)
    digest_path = OUT_DIR / "digests.json"
    store = load_digests(digest_path)
    verdicts, max_rel_err = judge(jobs, runs, traced, store)
    for v in verdicts:
        store.setdefault(v["key"], v["digest"])
    digest_path.write_text(json.dumps(store, indent=1, sort_keys=True))

    # attempted and failed count the jobs of the list, not their timed
    # repeats: how many repeats fit in --seconds depends on the machine's
    # speed, so counts of runs would differ between runs of the same seed
    failed_jobs = sum(v["failed"] for v in verdicts)
    job_runs_done = sum(len(job_runs) for job_runs in runs)
    if args.trace:
        traced_wall = sum(o.seconds for o in traced)
        time_scale = traced_wall / sum(o.end - o.start for o in traced)
        metrics = tracer.metrics(max(max_rel_err, sample_errors(tracer)), traced_wall / wall_s - 1.0, time_scale)
        metrics.update({"bench.wall_s": wall_s, "bench.raw_wall_s": raw_wall_s})
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        listed = spec["per_layer"]
    else:
        metrics = {"wall_s": wall_s, "failed_frac": failed_jobs / len(jobs), "peak_rss_mb": peak_rss_mb}
        # setup_s is measured and added by run.py
        listed = [metric for metric in spec["end_to_end"] if metric["name"] != "setup_s"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and in {SPEC.name}")
    result = {
        "correct": not any(v["silent"] for v in verdicts),
        "attempted": len(jobs),
        "failed": failed_jobs,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "row_digest": _sha("".join(v["digest"] for v in verdicts).encode()),
        "raw_wall_s": raw_wall_s,
        "result": result,
        "jobs": verdicts,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"{args.workload} seed={args.seed}: {job_runs_done} job runs, wall_s {wall_s:.3f}, "
          f"{failed_jobs}/{len(jobs)} jobs failed", file=sys.stderr)
    for v in verdicts:
        if v["failed"]:
            print(f"  FAILED {v['job']}{' (silent)' if v['silent'] else ''}: {'; '.join(v['causes'])[:300]}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
