"""Digest the CLI's reports over a fixed argv list, to show that a change keeps their bytes.

    python scripts/report_digests.py
    python scripts/report_digests.py --base REF

Runs every argv of ``ARGVS`` as ``python -m hilbert_tensors <argv>`` with
the library of this checkout (``src/`` first on ``PYTHONPATH``), one
subprocess at a time, and prints one line per argv:

    <argv, shell-quoted> TAB <exit code> TAB <SHA-256>

The digest covers stdout and stderr; for ``bench`` it covers stdout only,
since its stderr holds wall-clock timings.  Equal lines mean equal exit
codes and bytes.  The exit code of the script is 0.

With ``--base REF`` it checks the git revision REF out into a temporary
detached worktree, runs this checkout's ``ARGVS`` on REF's ``src/`` and on
this tree's ``src/``, prints the argvs whose lines differ, and removes the
worktree, also on error.  It exits 1 unless the set of differing argvs
equals the entries of ``scripts/BYTES_EXPECTED``: one line per argv whose
report a change alters on purpose, ``<argv, shell-quoted> TAB <cause>``.  An
entry that no longer differs fails too, so the file empties one change
later.  Both trees run on one machine, so FFT bits from different numpy
builds or CPUs are never compared.

Uses the standard library only, so it runs in a checkout without the test
dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "scripts" / "BYTES_EXPECTED"

ARGVS = tuple(
    shlex.split(line)
    for line in """
bounds --m 3 --n 3..30
bounds --m 4 --n 2..12
bounds --m 2 --n 2..41
spectrum --m 2 --n 1006 --show-vector
spectrum --m 3 --n 297 --show-vector
spectrum --m 4 --n 302 --show-vector
infinite --search --op both --m 2 --p 2 --seed 5 --show-vector
infinite --m 2 --p 2 --op T --x e1
infinite --m 2 --p 2 --op F --x e1
infinite --m 2 --p 2 --op both --x=3.109448062654651,0.027993802606879347,0.01711233308903755,0.0011479337749018086,0.006690530297323932,0.038490660576846636,0.040217481879119145,0.0020271340770972664
infinite --m 2 --p 2 --op both --x=-0.1376437077526899,-0.10272644291195494,-0.015346166555833981,0.08876767110691462,0.1693424771858783,0.1506854035077668,-0.0898705690468627
infinite --search --op both --m 3 --p 4 --seed 5 --show-vector
infinite --m 3 --p 2 --op T --x e1
infinite --m 3 --p 4 --op F --x e1
infinite --m 3 --p 4 --op both --x=3.134190478545141,0.016204069182264316,0.06179155919548048,0.09471115624641088,0.05344310332059098,0.0289505003959666,0.03356446279770049
infinite --m 3 --p 4 --op both --x=0.035306688189846655,0.0024642744035236995,0.032022505863670725,0.05969105572751149,-0.07641201266859321,-0.07206558607587024,0.0710893196635546,-0.0689863451697456
infinite --search --op both --m 4 --p 6 --seed 5 --show-vector
infinite --m 4 --p 2 --op T --x e1
infinite --m 4 --p 6 --op F --x e1
infinite --m 4 --p 6 --op both --x=3.0263193392170855,0.27366897685641195,0.0717594804105625
infinite --m 4 --p 6 --op both --x=-0.29686957675913345,-0.07982969248505623,-0.0031460130844091216,0.025459074684190054,-0.1945740721143409,-0.20871592177729245
bounds --m 3 --n 2..30
bounds --m 2 --n 2..39
bounds --m 4 --n 3..12
spectrum --m 2 --n 992 --show-vector
spectrum --m 3 --n 304 --show-vector
infinite --search --op both --m 2 --p 2 --seed 11 --show-vector
infinite --m 2 --p 2 --op both --x=2.8356204959939886,8.248239409014938e-05,0.026713711317127724
infinite --m 2 --p 2 --op both --x=-0.03290662733889999,-0.13800672848768814,0.08873662583200573,-0.15081691865262295,-0.14392528072419802,0.037222701519157506,0.06981651733182333,-0.00037890369813026723
infinite --search --op both --m 3 --p 4 --seed 11 --show-vector
infinite --m 3 --p 4 --op both --x=2.74642055663501,0.013751601815539572,0.041416359016319466,0.08306379961575382,0.017108606331360132
infinite --m 3 --p 4 --op both --x=0.2341933155354859,-0.016697553902378228,-0.5426692514103804
infinite --search --op both --m 4 --p 6 --seed 11 --show-vector
infinite --m 4 --p 6 --op both --x=2.888178591979975,0.07092697744002686,0.21865944473192137
infinite --m 4 --p 6 --op both --x=0.0638674882706116,0.10192667343620258,0.15404620104341676,-0.17359054846866862,0.04240432019367861,0.1607907561258246,0.10750808031054174
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
""".strip().splitlines()
)


def digest_line(argv: list[str], root: Path = ROOT) -> str:
    """Run one argv through ``python -m hilbert_tensors`` on ``root``'s library; its line of the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hilbert_tensors", *argv], capture_output=True, env=env, cwd=root)
    digest = hashlib.sha256()
    digest.update(b"%d\n" % len(proc.stdout) + proc.stdout)
    if argv[0] != "bench":  # bench's stderr holds wall-clock timings
        digest.update(proc.stderr)
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
