"""Batch command-line front end.

Subcommands
-----------
spectrum   extremal H- and Z-eigenvalues of one tensor
bounds     sine-bound and monotonicity sweep over a dimension range
infinite   truncated infinite-dimensional operator norms / norm search
bench      fast vs naive apply timings with correctness deltas

Machine-readable rows (JSON lines or CSV, see :mod:`reporting`) go to
``--out`` or stdout; human-readable summaries and wall-clock timings go to
stderr so that report files are byte-identical across runs for a fixed
configuration and seed.

A command takes only the flags it reads, except --seed, which every command
takes and only ``infinite --search`` reads; :func:`validate` checks them before
any work: --m >= 2, --out is no directory and its directory exists; --n (all
but ``infinite``) parses with every dimension >= 1, a single one for
``spectrum`` and strictly ascending ones for ``bounds``, and no dimension whose
generating vector, as float64, is longer than numpy can allocate; --tol finite
and > 0 and --max-iter >= 1 (``spectrum``, ``bounds``); for ``infinite`` --op
is T, F or both, --p finite with p > 1 (T) and p > m-1 (F), --x is e<k>
(k >= 1) or finite comma-separated floats, --trunc >= 1, --trials >= 0,
--support >= 1, and the head's generating vector (support --support under
--search, else the length of --x) within the same limit; for ``bench``
--repeats >= 1.  The dense element budget of ``bench``'s naive arm is 10^7
(``core.MAX_DENSE_ELEMENTS``).

Exit codes: 0 all checks passed; 1 usage error; 2 a certified row violated
a claimed bound; 3 a solver failed to converge or an ``infinite`` row
overflowed; 4 internal error (traceback and cause on stderr, no rows).
``bounds`` and ``bench`` judge each row by ``reporting.violated`` (certified
and slack < 0); ``infinite`` keeps its own rule (see :func:`cmd_infinite`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import traceback

import numpy as np

from . import analysis, infinite, reporting
from .core import MAX_DENSE_ELEMENTS, HilbertTensor, generating_length

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNCONVERGED = 3
EXIT_INTERNAL = 4

# allowance of the ``infinite`` rule only; every other allowance is inside a row's bound
SLACK_NOISE_INFINITE = 1e-9

# --op value -> the operators it evaluates
_OPS = {"T": ("T",), "F": ("F",), "both": ("T", "F")}


def exit_status(violated: bool, all_certified: bool) -> int:
    """Every command's and ``scripts/verify_theorems.py``'s exit code from its claims:
    2 if a certified claim was violated, else 0 if every claim is certified, else 3."""
    if violated:
        return EXIT_VIOLATION
    return EXIT_OK if all_certified else EXIT_UNCONVERGED


def parse_dims(spec: str) -> tuple[int, ...] | range:
    """Accept '3', '2..8', or '10,100,1000'; raise ValueError otherwise.

    'lo..hi' comes back as range(lo, hi + 1), not built, so that
    :func:`validate` can check it by its ends.
    """
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            dims = range(int(lo), int(hi) + 1)
        else:
            dims = tuple(int(part) for part in spec.split(","))
    except ValueError:
        dims = ()
    if not dims:
        raise ValueError(f"cannot parse dimension spec {spec!r}")
    return dims


def parse_x(spec: str) -> np.ndarray:
    """Accept 'e<k>' or comma-separated floats; raise ValueError otherwise."""
    spec = spec.strip()
    try:
        if not spec.startswith("e"):
            return np.array([float(part) for part in spec.split(",")])
        k = int(spec[1:])
    except ValueError:
        raise ValueError(f"cannot parse vector spec {spec!r}") from None
    if k < 1:
        raise ValueError("coordinate vectors are e1, e2, ...")
    x = np.zeros(k)
    x[k - 1] = 1.0
    return x


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _check_head(flags: str, support: int, order: int, out_len: int) -> None:
    """Refuse a head whose float64 generating vector is longer than numpy can allocate."""
    length = generating_length(support, order, out_len)
    if length > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValueError(f"{flags} needs a generating vector of {length} entries, more than numpy can allocate")


def validate(args: argparse.Namespace) -> None:
    """Check every flag of a parsed command line before any work.

    Raises ValueError, its own or a library rule's, naming the first flag
    out of range; :func:`run` maps only these to exit 1.  On success the
    ``--n`` spec is replaced by its dimension tuple and, for ``infinite``,
    the ``--x`` spec by its vector.
    """
    if args.m < 2:
        raise ValueError(f"order must be >= 2, got {args.m}")
    if "n" in args:  # each check runs only where the command has the flag
        dims = parse_dims(args.n)
        # a range ascends, so its ends decide each check, and it is built only once they pass
        ends = dims if isinstance(dims, tuple) else sorted({dims[0], dims[-1]})
        if any(n < 1 for n in ends):
            raise ValueError("dimensions must be >= 1")
        if args.command == "spectrum" and len(ends) != 1:
            raise ValueError("spectrum needs a single dimension, e.g. --n 4")
        if args.command == "bounds" and any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("dims must be strictly ascending")
        for n in ends:
            _check_head(f"--m {args.m} --n {n}", n, args.m, n)
        args.n = tuple(dims)
    if "tol" in args:
        if not 0 < args.tol < math.inf:
            raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
        _at_least("--max-iter", args.max_iter, 1)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out directory does not exist: {os.path.dirname(args.out)!r}")
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out names a directory, not a file: {args.out!r}")
    if args.command == "infinite":
        if args.op not in _OPS:
            raise ValueError(f"--op must be T, F, or both, got {args.op!r}")
        if not math.isfinite(args.p):
            raise ValueError(f"--p must be finite, got {args.p}")
        for op in _OPS[args.op]:
            infinite.tail_exponent(op, args.m, args.p)
        _at_least("--trunc", args.trunc, 1)
        _at_least("--trials", args.trials, 0)
        _at_least("--support", args.support, 1)
        x = parse_x(args.x)
        if not np.isfinite(x).all():
            raise ValueError(f"--x entries must be finite, got {args.x!r}")
        support = args.support if args.search else x.size
        _check_head(f"--m {args.m} --trunc {args.trunc} with support {support}", support, args.m, args.trunc)
        args.x = x
    if args.command == "bench":
        _at_least("--repeats", args.repeats, 1)


def cmd_spectrum(args: argparse.Namespace, rows: list) -> int:
    n = args.n[0]
    ((h, z),) = analysis.solve_dims(args.m, args.n, tol=args.tol, max_iter=args.max_iter)
    for res in (h, z):
        rows.append(
            reporting.make_row(args.m, n, res.kind, res.value, None, None, res.converged, res.iterations)
        )
        cert = (
            f"bracket [{res.lower:.17g}, {res.upper:.17g}]"
            if res.kind == "H"
            else f"residual {res.residual:.3e}"
        )
        print(
            f"{res.kind}: value={res.value:.12g}  {cert}  iterations={res.iterations}"
            f"  converged={res.converged}",
            file=sys.stderr,
        )
        if args.show_vector:
            print(f"{res.kind} vector: {[float(v) for v in res.vector]}", file=sys.stderr)
    return exit_status(False, h.converged and z.converged)


def cmd_bounds(args: argparse.Namespace, rows: list) -> int:
    sweep = analysis.dimension_sweep(args.m, args.n, tol=args.tol, max_iter=args.max_iter)
    rows.extend(reporting.sweep_rows(sweep))

    violations = [row for row in rows if reporting.violated(row)]
    for row in violations:
        print(
            f"BOUND VIOLATION: m={row['m']} n={row['n']} kind={row['kind']} "
            f"value={row['value']:.17g} bound={row['bound']:.17g}",
            file=sys.stderr,
        )
    mono = sweep.monotonicity
    if mono is not None:
        print(
            f"monotonicity m={args.m}: strict_h={mono.strict_h} "
            f"nondecreasing_z={mono.nondecreasing_z} certified={mono.certified}",
            file=sys.stderr,
        )
    return exit_status(bool(violations), all(row["certified"] for row in rows))


def cmd_infinite(args: argparse.Namespace, rows: list) -> int:
    violated = False
    ops = _OPS[args.op]
    if args.search:  # one candidate stream, and one head per candidate, for every operator
        reports = infinite.norm_searches(
            ops, args.m, args.p, trials=args.trials, support=args.support, out_len=args.trunc, seed=args.seed
        )
    for i, op in enumerate(ops):
        bound = infinite.operator_norm_constant(op, args.m, args.p)
        if args.search:
            rep = reports[i]
            l1 = 1.0  # search candidates lie on the unit l^1 sphere
            kind, iterations = f"{op}-search", rep.trials
            value, slack = rep.best_value, bound - rep.best_value
            print(
                f"{op}-search: best={rep.best_value:.12g} tail={rep.best_tail_bound:.3e} "
                f"gap to constant={slack:.3e} evaluations={rep.evaluations}",
                file=sys.stderr,
            )
            if args.show_vector:
                print(f"{op}-search vector: {rep.best_vector}", file=sys.stderr)
        else:
            l1 = float(np.abs(args.x).sum())
            evaluate = infinite.t_infinity if op == "T" else infinite.f_infinity
            cert = evaluate(args.x, args.m, args.p, args.trunc)
            kind, iterations = op, None
            value, slack = cert.value, bound - cert.upper
            print(
                f"{op}: value={cert.value:.12g} tail<={cert.tail_bound:.3e} "
                f"certified upper={cert.upper:.12g} constant={bound:.12g}",
                file=sys.stderr,
            )
        # An overflowed value or upper end (slack is taken there) encloses
        # nothing; like an overflowing solve, the row is uncertified (exit 3).
        certified = math.isfinite(value) and math.isfinite(slack)
        rows.append(reporting.make_row(args.m, args.trunc, kind, value, bound, slack, certified, iterations))
        # The one rule besides reporting.violated, since the row keeps the
        # unit-sphere bound and slack = bound - upper.  T and F are
        # homogeneous of degree one, so that constant bounds the norm at x by
        # bound * ||x||_1.  Negative slack alone only means the enclosure
        # straddles that (tail looseness); a genuine violation needs the
        # certified lower bound itself to exceed it.
        if certified and value > bound * l1 + SLACK_NOISE_INFINITE:
            print(f"NORM BOUND VIOLATION in row {rows[-1]}", file=sys.stderr)
            violated = True
    return exit_status(violated, all(row["certified"] for row in rows))


def cmd_bench(args: argparse.Namespace, rows: list) -> int:
    m, repeats = args.m, args.repeats
    print(f"{'m':>3} {'n':>7} {'fast (s)':>12} {'naive (s)':>12} {'speedup':>9} {'delta':>10}", file=sys.stderr)
    for n in args.n:
        t = HilbertTensor(m, n)
        x = np.cos(np.arange(1, n + 1))  # fixed, seed-independent workload
        t_fast, fast = _timed(t.apply_fast, x, repeats)
        if n**m <= MAX_DENSE_ELEMENTS:
            t_naive, naive = _timed(t.apply_naive, x, repeats)
            fast, naive = fast.values, np.asarray(naive)
            delta = float(np.max(np.abs(fast - naive)) / (1.0 + np.max(np.abs(naive))))
            rows.append(reporting.make_row(m, n, "bench", delta, 1e-10, 1e-10 - delta, True, repeats))
            print(
                f"{m:>3} {n:>7} {t_fast:>12.3e} {t_naive:>12.3e} {t_naive / t_fast:>9.1f} {delta:>10.2e}",
                file=sys.stderr,
            )
        else:
            rows.append(reporting.make_row(m, n, "bench-fast-only", None, None, None, False, repeats))
            print(f"{m:>3} {n:>7} {t_fast:>12.3e} {'skipped':>12} {'-':>9} {'-':>10}", file=sys.stderr)
    # a bench-fast-only row checks nothing, so it never makes the run exit 3
    return exit_status(any(reporting.violated(row) for row in rows), True)


def _timed(fn, x, repeats: int):
    """Best wall time of ``repeats`` calls fn(x), and the last call's output (all are equal)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(x)
        best = min(best, time.perf_counter() - start)
    return best, out


class Parser(argparse.ArgumentParser):
    """The CLI's and ``scripts/verify_theorems.py``'s parser: usage errors exit 1."""

    def error(self, message):  # argparse defaults to exit code 2, the code of a violation here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="hilbert-tensors", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dims_help=None, solves=False):
        p.add_argument("--m", type=int, default=2, help="tensor order (>= 2)")
        if dims_help:
            p.add_argument("--n", default="2", help=dims_help)
        if solves:
            p.add_argument("--tol", type=float, default=1e-10)
            p.add_argument("--max-iter", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write report rows to this path")

    p = sub.add_parser("spectrum", help="extremal H- and Z-eigenvalues")
    common(p, "dimension, e.g. 4", solves=True)
    p.add_argument("--show-vector", action="store_true")

    p = sub.add_parser("bounds", help="sine bounds and monotonicity sweep")
    common(p, "dimension range, e.g. 2..8", solves=True)

    p = sub.add_parser("infinite", help="truncated infinite-dimensional operators")
    common(p)
    p.add_argument("--p", type=float, default=2.0, help="target l^p exponent")
    p.add_argument("--op", default="T", help="T, F, or both")
    p.add_argument("--x", default="e1", help="vector: e<k> or comma-separated floats")
    p.add_argument("--trunc", type=int, default=infinite.DEFAULT_TRUNCATION)
    p.add_argument("--search", action="store_true", help="run the norm search")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--support", type=int, default=16)
    p.add_argument("--show-vector", action="store_true")

    p = sub.add_parser("bench", help="fast vs naive apply timings")
    common(p, "dimension list, e.g. 10,100,1000")
    p.add_argument("--repeats", type=int, default=3)

    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "bounds": cmd_bounds,
    "infinite": cmd_infinite,
    "bench": cmd_bench,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rows: list[dict] = []
    try:
        try:
            validate(args)
        except ValueError as exc:  # the one usage-error path; a command's ValueError is a fault
            print(f"hilbert-tensors: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # overflow already shows as null values, certified: false and exit 3
        with np.errstate(over="ignore", invalid="ignore"):
            status = _COMMANDS[args.command](args, rows)
    except Exception as exc:  # anything else is a fault of the program, not of its arguments
        traceback.print_exc()
        print(f"hilbert-tensors: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    text = reporting.render(rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    raise SystemExit(run())
