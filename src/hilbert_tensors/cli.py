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

Exit codes: 0 all checks passed; 1 usage error; 2 a certified row violated
a claimed bound; 3 a solver failed to converge.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, infinite, reporting
from .core import HilbertTensor, max_elements_budget
from .reporting import SLACK_NOISE
from .eigensolvers import h_spectral_radius, z_spectral_radius

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNCONVERGED = 3

SLACK_NOISE_INFINITE = 1e-9


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Normalized arguments for one command invocation."""

    command: str
    m: int = 2
    dims: tuple[int, ...] = ()
    tol: float = 1e-10
    max_iter: int = 10_000
    trunc: int = infinite.DEFAULT_TRUNCATION
    trials: int = 100
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    p: float = 2.0
    op: str = "T"
    x_spec: str = "e1"
    search: bool = False
    support: int = 16
    show_vector: bool = False
    repeats: int = 3
    rows: list = field(default_factory=list, repr=False)


def parse_dims(spec: str) -> tuple[int, ...]:
    """Accept '3', '2..8', or '10,100,1000'."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise UsageError(f"empty range {spec!r}")
            return tuple(range(lo, hi + 1))
        if "," in spec:
            return tuple(int(part) for part in spec.split(","))
        return (int(spec),)
    except ValueError as exc:
        raise UsageError(f"cannot parse dimension spec {spec!r}") from exc


def parse_x(spec: str) -> np.ndarray:
    spec = spec.strip()
    if spec.startswith("e"):
        try:
            k = int(spec[1:])
        except ValueError as exc:
            raise UsageError(f"cannot parse vector spec {spec!r}") from exc
        if k < 1:
            raise UsageError("coordinate vectors are e1, e2, ...")
        x = np.zeros(k)
        x[k - 1] = 1.0
        return x
    try:
        return np.array([float(part) for part in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"cannot parse vector spec {spec!r}") from exc


def cmd_spectrum(cfg: RunConfig) -> int:
    if len(cfg.dims) != 1:
        raise UsageError("spectrum needs a single dimension, e.g. --n 4")
    t = HilbertTensor(cfg.m, cfg.dims[0])
    h = h_spectral_radius(t, tol=cfg.tol, max_iter=cfg.max_iter)
    z = z_spectral_radius(t, tol=cfg.tol, max_iter=cfg.max_iter)
    for res in (h, z):
        cfg.rows.append(
            reporting.make_row(
                cfg.m, cfg.dims[0], res.kind, res.value, None, None, res.converged, res.iterations
            )
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
        if cfg.show_vector:
            print(f"{res.kind} vector: {[float(v) for v in res.vector]}", file=sys.stderr)
    return EXIT_OK if (h.converged and z.converged) else EXIT_UNCONVERGED


def cmd_bounds(cfg: RunConfig) -> int:
    if not cfg.dims:
        raise UsageError("bounds needs a dimension range, e.g. --n 2..8")
    if any(b <= a for a, b in zip(cfg.dims, cfg.dims[1:])):
        raise UsageError("dims must be strictly ascending")
    sweep = analysis.dimension_sweep(cfg.m, cfg.dims, tol=cfg.tol, max_iter=cfg.max_iter)
    cfg.rows.extend(reporting.sweep_rows(sweep))

    status = EXIT_OK
    for row in cfg.rows:
        if row["certified"] and row["slack"] is not None and row["slack"] < -SLACK_NOISE:
            print(
                f"BOUND VIOLATION: m={row['m']} n={row['n']} kind={row['kind']} "
                f"value={row['value']:.17g} bound={row['bound']:.17g}",
                file=sys.stderr,
            )
            status = EXIT_VIOLATION
    if status == EXIT_OK and any(not row["certified"] for row in cfg.rows):
        status = EXIT_UNCONVERGED
    mono = sweep.monotonicity
    if mono is not None:
        print(
            f"monotonicity m={cfg.m}: strict_h={mono.strict_h} "
            f"nondecreasing_z={mono.nondecreasing_z} certified={mono.certified}",
            file=sys.stderr,
        )
    return status


def _infinite_ops(cfg: RunConfig) -> list[str]:
    if cfg.op == "both":
        return ["T", "F"]
    if cfg.op in ("T", "F"):
        return [cfg.op]
    raise UsageError(f"--op must be T, F, or both, got {cfg.op!r}")


def _check_p(op: str, m: int, p: float) -> None:
    if op == "T" and p <= 1:
        raise UsageError(f"operator T needs p > 1, got p = {p:g}")
    if op == "F" and p <= m - 1:
        raise UsageError(f"operator F needs p > m-1 = {m - 1}, got p = {p:g}")


def cmd_infinite(cfg: RunConfig) -> int:
    ops = _infinite_ops(cfg)
    for op in ops:
        _check_p(op, cfg.m, cfg.p)
    status = EXIT_OK

    for op in ops:
        bound = infinite.operator_norm_constant(op, cfg.m, cfg.p)
        if cfg.search:
            rep = infinite.norm_search(
                cfg.m,
                cfg.p,
                trials=cfg.trials,
                support=cfg.support,
                out_len=cfg.trunc,
                seed=cfg.seed,
                operator=op,
            )
            slack = bound - rep.best_value
            cfg.rows.append(
                reporting.make_row(
                    cfg.m, cfg.trunc, f"{op}-search", rep.best_value, bound, slack, True, rep.trials
                )
            )
            print(
                f"{op}-search: best={rep.best_value:.12g} tail={rep.best_tail_bound:.3e} "
                f"gap to pi/sqrt6={rep.gap_to_pi_sqrt6:.3e} evaluations={rep.evaluations}",
                file=sys.stderr,
            )
            if cfg.show_vector:
                print(f"{op}-search vector: {rep.best_vector}", file=sys.stderr)
        else:
            x = parse_x(cfg.x_spec)
            cert = (
                infinite.t_infinity(x, cfg.m, cfg.p, cfg.trunc)
                if op == "T"
                else infinite.f_infinity(x, cfg.m, cfg.p, cfg.trunc)
            )
            slack = bound - cert.upper
            cfg.rows.append(
                reporting.make_row(cfg.m, cfg.trunc, op, cert.value, bound, slack, True, None)
            )
            print(
                f"{op}: value={cert.value:.12g} tail<={cert.tail_bound:.3e} "
                f"certified upper={cert.upper:.12g} constant={bound:.12g}",
                file=sys.stderr,
            )
        # Negative slack alone only means the enclosure straddles the constant
        # (tail looseness); a genuine violation needs the certified lower
        # bound itself to exceed the constant.
        row = cfg.rows[-1]
        if row["value"] > row["bound"] + SLACK_NOISE_INFINITE:
            print(f"NORM BOUND VIOLATION in row {row}", file=sys.stderr)
            status = EXIT_VIOLATION
    return status


def cmd_bench(cfg: RunConfig) -> int:
    if not cfg.dims:
        raise UsageError("bench needs dimensions, e.g. --n 10,100,1000")
    budget = max_elements_budget()
    status = EXIT_OK
    print(f"{'m':>3} {'n':>7} {'fast (s)':>12} {'naive (s)':>12} {'speedup':>9} {'delta':>10}", file=sys.stderr)
    for n in cfg.dims:
        t = HilbertTensor(cfg.m, n)
        x = np.cos(np.arange(1, n + 1))  # fixed, seed-independent workload
        t_fast = min(_timed(t.apply_fast, x) for _ in range(cfg.repeats))
        run_naive = n**cfg.m <= budget
        if run_naive:
            t_naive = min(_timed(t.apply_naive, x) for _ in range(cfg.repeats))
            fast = t.apply_fast(x).values
            naive = np.asarray(t.apply_naive(x))
            delta = float(np.max(np.abs(fast - naive)) / (1.0 + np.max(np.abs(naive))))
            cfg.rows.append(
                reporting.make_row(cfg.m, n, "bench", delta, 1e-10, 1e-10 - delta, True, cfg.repeats)
            )
            print(
                f"{cfg.m:>3} {n:>7} {t_fast:>12.3e} {t_naive:>12.3e} {t_naive / t_fast:>9.1f} {delta:>10.2e}",
                file=sys.stderr,
            )
            if delta > 1e-10:
                status = EXIT_VIOLATION
        else:
            cfg.rows.append(
                reporting.make_row(cfg.m, n, "bench-fast-only", None, None, None, False, cfg.repeats)
            )
            print(f"{cfg.m:>3} {n:>7} {t_fast:>12.3e} {'skipped':>12} {'-':>9} {'-':>10}", file=sys.stderr)
    return status


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; the contract wants 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hilbert-tensors", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dims_help):
        p.add_argument("--m", type=int, default=2, help="tensor order (>= 2)")
        p.add_argument("--n", default="2", help=dims_help)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write report rows to this path")

    p = sub.add_parser("spectrum", help="extremal H- and Z-eigenvalues")
    common(p, "dimension, e.g. 4")
    p.add_argument("--show-vector", action="store_true")

    p = sub.add_parser("bounds", help="sine bounds and monotonicity sweep")
    common(p, "dimension range, e.g. 2..8")

    p = sub.add_parser("infinite", help="truncated infinite-dimensional operators")
    common(p, "(unused)")
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.m < 2:
        raise UsageError(f"order must be >= 2, got {args.m}")
    dims = parse_dims(args.n)
    if any(n < 1 for n in dims):
        raise UsageError("dimensions must be >= 1")
    cfg = RunConfig(
        command=args.command,
        m=args.m,
        dims=dims,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
        fmt=args.format,
        out=args.out,
    )
    if args.tol <= 0:
        raise UsageError("tolerance must be positive")
    if args.command == "infinite":
        cfg.p = args.p
        cfg.op = args.op
        cfg.x_spec = args.x
        cfg.trunc = args.trunc
        cfg.search = args.search
        cfg.trials = args.trials
        cfg.support = args.support
        cfg.show_vector = args.show_vector
    if args.command == "spectrum":
        cfg.show_vector = args.show_vector
    if args.command == "bench":
        cfg.repeats = args.repeats
    return cfg


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "bounds": cmd_bounds,
    "infinite": cmd_infinite,
    "bench": cmd_bench,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        status = _COMMANDS[cfg.command](cfg)
    except (UsageError, ValueError) as exc:
        # every ValueError reachable from here stems from rejected arguments
        print(f"hilbert-tensors: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = reporting.render(cfg.rows, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    raise SystemExit(run())
