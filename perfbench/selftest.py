"""Self-test of the benchmark's checks: corrupted outputs must count as failed.

    python3 perfbench/selftest.py      # from the root of a checkout; exit 0 = pass

Each case runs a real CLI job in-process, then hands the checks both the
genuine output and a corrupted copy.  The genuine output must fail only as
the program itself signals it (its nonzero exit), never silently; the
corrupted copy must fail silently, whatever the exit code, because the
program printed the corrupted row as certified:

* a bounds row whose eigenvalue is off by one part in a million (m = 2,
  checked against eigvalsh; exit 0);
* a spectrum row at m = 3 whose eigenvalue no longer fits its eigenvector
  (long-double eigen-residual; exit 0);
* the H row of a spectrum job at m = 4 whose Z solve does not converge
  (exit 3), corrupted the same way;
* an e1 enclosure whose upper end sits below pi/sqrt(6) (exit 0);
* the value of a T row for x = 3 e1, where the program reports a false
  violation (exit 2), off by one part in a million.

It also checks that the traced run's wrappers leave every binding of the
library as it found it.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import worker
from tracing import Tracer
from workloads import Job


def corrupt_row(stdout: str, kind: str, edit) -> str:
    rows = [json.loads(line) for line in stdout.splitlines()]
    for row in rows:
        if row["kind"] == kind:
            edit(row)
            break
    else:
        raise AssertionError(f"no {kind} row to corrupt")
    return "".join(json.dumps(row) + "\n" for row in rows)


def verdict(job, outcome) -> dict:
    return worker.judge([job], [[outcome]], None, {})[0][0]


def bindings(lib) -> dict:
    """Every attribute of the library's modules and of the patched classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("hilbert_tensors"):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (lib.GeneratingVector, lib.HilbertTensor):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def main() -> int:
    lib, cli = worker.import_library()
    cases = [
        (
            Job("bounds", argv=["bounds", "--m", "2", "--n", "2..6"], meta={"m": 2}),
            "H",
            lambda row: row.update(value=row["value"] * (1 + 1e-6)),
        ),
        (
            Job("spectrum", argv=["spectrum", "--m", "3", "--n", "20", "--show-vector"], meta={"m": 3, "n": 20}),
            "H",
            lambda row: row.update(value=row["value"] * (1 + 1e-6)),
        ),
        (
            Job("spectrum-exit3", argv=["spectrum", "--m", "4", "--n", "16", "--show-vector"],
                meta={"m": 4, "n": 16}),
            "H",
            lambda row: row.update(value=row["value"] * (1 + 1e-6)),
        ),
        (
            Job("e1", argv=["infinite", "--m", "2", "--p", "2", "--op", "T", "--x", "e1", "--trunc", "1000"],
                meta={"m": 2, "p": 2.0, "x": np.array([1.0])}),
            "T",
            # upper end = bound - slack = pi/sqrt(6) - 1e-6
            lambda row: row.update(slack=row["bound"] - (math.pi / math.sqrt(6) - 1e-6)),
        ),
        (
            Job("false-violation", argv=["infinite", "--m", "2", "--p", "2", "--op", "T", "--x", "3",
                                         "--trunc", "1000"],
                meta={"m": 2, "p": 2.0, "x": np.array([3.0])}),
            "T",
            lambda row: row.update(value=row["value"] * (1 + 1e-6)),
        ),
    ]
    ok = True
    for job, kind, edit in cases:
        outcome = worker.run_job(job, lib, cli, keep=True)
        genuine = verdict(job, outcome)
        outcome.stdout = corrupt_row(outcome.stdout, kind, edit)
        bad = verdict(job, outcome)
        passed = genuine["failed"] == (outcome.exit != 0) and not genuine["silent"] and bad["silent"]
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {job.name} (exit {outcome.exit}): genuine causes {genuine['causes']}; "
              f"corrupted causes {bad['causes']}")
    before = bindings(lib)
    with Tracer().installed():
        patched = bindings(lib) != before
    restored = bindings(lib) == before
    ok &= patched and restored
    print(f"{'PASS' if patched and restored else 'FAIL'} tracing: patched {patched}, restored {restored}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
