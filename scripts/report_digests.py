"""Digest the CLI's reports over a fixed argv list, to show that a change keeps their bytes.

    python scripts/report_digests.py
    python scripts/report_digests.py --base REF

Runs every argv of ``ARGVS``, one subprocess at a time, in an empty
temporary working directory, with the library of this checkout (``src/``
first on ``PYTHONPATH``), and prints one line per argv:

    <argv, shell-quoted> TAB <exit code> TAB <SHA-256>

An argv is run as ``python -W error::RuntimeWarning -m hilbert_tensors
<argv>``, or, where its first word names a ``.py`` file, as that script of
the checkout under the same flag, so an argv that a change makes warn
shows as a changed exit code and stderr.  The digest
covers stdout, stderr and every file the run writes into its working
directory (``verification.json`` for ``verify_theorems.py --out .``); for
``bench`` it leaves out stderr, which holds wall-clock timings.  Equal lines
mean equal exit codes and bytes.  The exit code of the script is 0.

``ARGVS`` starts with every CLI argv of ``perfbench/workloads.py`` at seeds
5 and 11, in job order, each kept once, so the list follows the benchmark.

With ``--base REF`` it checks the git revision REF out into a temporary
detached worktree, runs this checkout's ``ARGVS`` on REF's ``src/`` and
scripts and on this tree's, prints the argvs whose lines differ, and
removes the worktree, also on error.  It exits 1 unless the set of
differing argvs equals the entries of ``scripts/BYTES_EXPECTED``: one line
per argv whose report a change alters on purpose,
``<argv, shell-quoted> TAB <cause>``.  An entry that no longer differs fails
too, so the file empties one change later.  Both trees run on one machine,
so FFT bits from different numpy builds or CPUs are never compared.

Needs numpy, which ``perfbench/workloads.py`` imports, and no other
third-party package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "scripts" / "BYTES_EXPECTED"


def workload_argvs() -> list[list[str]]:
    """Every CLI argv of the benchmark's workloads at seeds 5 and 11, in job order, first occurrence kept."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    argvs = {}
    for seed in (5, 11):
        for make in workloads.values():
            for job in make(seed):
                if job.argv is not None:
                    argvs.setdefault(shlex.join(job.argv), job.argv)
    return list(argvs.values())


# then solves on the one-block FFT route, bounds ranges at m = 2, 3 and 4, two
# bench runs, the usage errors the tests pin, the verification script, and
# single-vector rows on the homogeneity rescaling (a head or ||x||_1^(2-m)
# outside the float range) and on Euler-Maclaurin zeta at large p, then two
# norm searches, which report e1's norms: F at odd m with q != 2, a trial count
# not divisible by 3 and a seed that wraps; and support 1, where the listed e1 is [1.0];
# then rows whose p-th powers underflow on a normal head: a tiny x at m = 4 and
# e3 at p = 1000; then a p = 1000 search, whose head sums to about 1 and whose
# value equals the constant (slack 0), with a tail whose integral bound underflows;
# then searches at small q for T and F at m = 4, T at p = 1.2 on a 5-long head
# with a seed that wraps, and e1 listed 2000 long, whose head is that of [1.0] too;
# then e1 rows whose upper end rests on the tail's rounding: p = 1 + 1e-12, and p = 2 at N = 1000;
# then a long m = 2 sweep: each H solve starts from the previous dimension's H vector, each Z solve from its own
# dimension's H vector; then m = 4 solves that converge only at the rounding floor: n = 600 on the one-block
# FFT route, the range 2..400, and n = 10^3, 10^4 and 10^5; then a search given --x, which it checks and does
# not read: it certifies e1 through the same call as --x e1; then the one head on the multi-block FFT route, e16
# at m = 4 (blocks of 1024 over 100045 values), as every other infinite head here takes the direct route;
# then T at q = 6, whose sum of products runs in place on the last operator's head;
# then the two edges of the FFT route's row copy: e16 at --trunc 100837, whose 103 blocks
# of 979 rows end exactly at n_out, and n = 1563 at m = 2, one block with need = B = 3125, so n_out = step;
# then the direct route's split at 11 taps of y: len(y) = 12 and 22 at 1024 rows, split, and 22 at 1023, one call;
# then a cold FFT plan in the plan slot's memory that a larger one left: bench at m = 2 plans n = 1500, then
# n = 1450, still on the FFT route (need * len(y) = 4,203,550 > 2^22), with the spectra of a new vector
ARGVS = tuple(workload_argvs()) + tuple(
    shlex.split(line)
    for line in """
spectrum --m 2 --n 1500 --show-vector
spectrum --m 3 --n 900 --show-vector
spectrum --m 2 --n 1448
spectrum --m 3 --n 836
spectrum --m 2 --n 6 --max-iter 2 --tol 1e-14
bounds --m 2 --n 1..80
bounds --m 3 --n 1..40
bounds --m 4 --n 1..16
bounds --m 3 --n 5,17,60 --tol 1e-12 --max-iter 50 --format csv
bounds --m 3 --n 1
bounds --m 4 --n 7
infinite --m 3 --p 4 --op both --x e5 --trunc 20000
infinite --search --op both --m 3 --p 4 --trunc 500 --seed 5 --show-vector
infinite --search --op both --m 2 --p 2 --support 40 --seed 5 --show-vector
infinite --search --op F --m 3 --p 3 --seed 5 --show-vector
infinite --search --op F --m 4 --p 4 --seed 11 --show-vector
infinite --search --op both --m 4 --p 6 --support 2000 --trials 30 --seed 5
bench --m 2 --n 10,100,1500
bench --m 3 --n 10,40,216
spectrum --m 0 --n 2
spectrum --m 2 --n 2,3
spectrum --bogus
spectrum --max-iter 0
spectrum --tol nan
spectrum --n x
spectrum --n 1..10000000000000000000
spectrum --m 2 --n 10000000000000000000
spectrum --m 2 --n 1152921504606846976
spectrum --m 2 --n 4611686018427387904
bounds --m 2 --n 5,3
bounds --n 5..2
bounds --n 0
bounds --n 0..10000000000000000000
bounds --m 2 --n 1..10000000000000000000
bounds --m 2 --n 1..4611686018427387904
bench --repeats 0
bench --max-iter 5
infinite --m 3 --p 1.5 --op F
infinite --op Q
infinite --p nan
infinite --x 0 --trunc 0
infinite --search --trials -1
infinite --search --support 0
infinite --x=1,nan
infinite --x e0
infinite --x=1,,2
infinite --tol 1e-3
infinite --n 5
infinite --trunc 10000000000000000000
infinite --x 0 --trunc 10000000000000000000
infinite --search --support 4611686018427387904 --trials 0
infinite --x e4611686018427387904
scripts/verify_theorems.py --orders 2,3,4 --max-dim 6 --out .
infinite --m 4 --p 2 --op T --x 1e-200
infinite --m 4 --p 2 --op T --x 1e-120
infinite --m 4 --p 2 --op T --x 1e150
infinite --m 3 --p 2 --op T --x 1e-320
infinite --m 2 --p 100 --x e1
infinite --search --op both --m 3 --p 5 --support 5 --trials 31 --seed -1 --show-vector
infinite --search --op T --m 2 --p 3 --support 1 --trials 7
infinite --m 4 --p 8 --op both --x=2e-60,1e-61
infinite --m 2 --p 1000 --op T --x e3
infinite --search --op both --m 2 --p 1000 --support 5 --trials 20 --seed 5
infinite --search --op both --m 4 --p 3.3
infinite --search --op T --m 2 --p 1.2 --trunc 5 --seed -1
infinite --search --op both --m 4 --p 6 --support 2000 --trials 30
infinite --m 2 --p 1.000000000001 --op T --x e1
infinite --m 2 --p 2 --op T --x e1 --trunc 1000
bounds --m 2 --n 2..400
spectrum --m 4 --n 600
bounds --m 4 --n 2..400
bounds --m 4 --n 1000,10000,100000
infinite --search --op both --m 3 --p 4 --x=1,-0.5,0.25 --support 3 --show-vector
infinite --m 4 --p 6 --op both --x e16
infinite --m 4 --p 6 --op T --x=1,-0.5,0.25
infinite --m 4 --p 6 --op both --x e16 --trunc 100837
spectrum --m 2 --n 1563
infinite --m 2 --p 2 --op both --x=0.2,-0.1,0.05,0.06,-0.04,0.02,0.14,-0.12,0.01,0.03,-0.07,0.09 --trunc 1024
infinite --m 4 --p 6 --op both --x=0.3,-0.05,0.1,-0.1,0.05,0.2,-0.1,0.1 --trunc 1024
infinite --m 4 --p 6 --op both --x=0.3,-0.05,0.1,-0.1,0.05,0.2,-0.1,0.1 --trunc 1023
bench --m 2 --n 1500,1450 --repeats 1
""".strip().splitlines()
)


def digest_line(argv: list[str], root: Path = ROOT) -> str:
    """Run one argv on ``root``'s library and scripts in an empty working directory; its line of the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    command = [str(root / argv[0]), *argv[1:]] if argv[0].endswith(".py") else ["-m", "hilbert_tensors", *argv]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as cwd:
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *command],
                              capture_output=True, env=env, cwd=cwd)
        digest.update(b"%d\n" % len(proc.stdout) + proc.stdout)
        if argv[0] != "bench":  # bench's stderr holds wall-clock timings
            digest.update(proc.stderr)
        for path in sorted(Path(cwd).rglob("*")):  # the files the run wrote, by name
            if path.is_file():
                data = path.read_bytes()
                digest.update(b"\n%s %d\n" % (path.relative_to(cwd).as_posix().encode(), len(data)) + data)
    return f"{shlex.join(argv)}\t{proc.returncode}\t{digest.hexdigest()}"


def read_expected(path: Path) -> dict[str, str]:
    """The ``argv TAB cause`` entries of a BYTES_EXPECTED file, argv -> cause; blank lines are skipped."""
    expected = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        argv, _, cause = line.partition("\t")
        if not cause.strip():
            raise ValueError(f"{path.name} line {number}: expected 'argv<TAB>cause', got {line!r}")
        expected[argv] = cause
    return expected


def compare(base_lines: list[str], head_lines: list[str], expected: dict[str, str]) -> tuple[list[str], list[str]]:
    """The argvs whose lines differ, and what breaks the rule that they are exactly ``expected``.

    Both line lists come from the same argv list, in its order.
    """
    differing = [head.split("\t", 1)[0] for base, head in zip(base_lines, head_lines, strict=True) if base != head]
    problems = [f"changed but not in BYTES_EXPECTED: {argv}" for argv in differing if argv not in expected]
    problems += [f"in BYTES_EXPECTED but unchanged: {argv}" for argv in expected if argv not in differing]
    return differing, problems


@contextlib.contextmanager
def worktree(ref: str):
    """A temporary detached git worktree of this repository at ``ref``; removed on exit."""
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        path = Path(tmp) / "base"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(path), ref], check=True)
        try:
            yield path
        finally:
            subprocess.run([*git, "remove", "--force", str(path)], check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REF", help="compare against this git revision")
    args = parser.parse_args()
    if args.base is None:
        for argv in ARGVS:
            print(digest_line(argv), flush=True)
        return 0
    expected = read_expected(EXPECTED)
    with worktree(args.base) as base:
        base_lines = [digest_line(argv, base) for argv in ARGVS]
    differing, problems = compare(base_lines, [digest_line(argv) for argv in ARGVS], expected)
    for argv in differing:
        print(argv)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(differing)} of {len(ARGVS)} argvs differ from {args.base}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
