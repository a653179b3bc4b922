#!/usr/bin/env python3
"""Run the full verification sweep and write machine-readable reports.

Per order m it writes the rows of ``hilbert-tensors bounds --n 1..MAX_DIM``
(sine bounds on both spectral radii, dimension monotonicity, eigenpair
embedding residuals), then positive definiteness (even m); the finite
Hilbert inequality ratios follow at the end, one claim per n.  Nothing is
sampled: a positive-definiteness row holds the closed-form lower end of
``analysis.check_positive_definite`` (certified, no iterations), and an
inequality row the exact upper end of one m = 2 H solve at n
(``analysis.hilbert_inequality_ratio``), certified when that solve
converged.
Every printed claim is judged by its own rows with ``reporting.violated``,
as ``bounds`` judges them: unconverged if a row is uncertified, else
VIOLATION if a row is violated, else ok.  Every printed bound and flag is
read from the rows too: the monotonicity flags are ``reporting.all_hold``
over the gap rows of each kind.  The exit code is the CLI's
(``cli.exit_status``): 0 every claim certified and holding, 1 usage error
(refused before any work), 2 a certified claim violated, 3 some claim
uncertified.  The written rows, judged by ``reporting.violated``, give the
same code.

Usage:
    python scripts/verify_theorems.py --orders 2,3,4 --max-dim 8 --out results/
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout's library, installed or not

from hilbert_tensors import (
    HilbertTensor,
    check_positive_definite,
    h_spectral_radius,
    hilbert_inequality_ratio,
    spectral_bound_h,
)
from hilbert_tensors.analysis import dimension_sweep
from hilbert_tensors.cli import Parser, exit_status
from hilbert_tensors.reporting import all_hold, make_row, render, sweep_rows, violated


def label(rows) -> str:
    """The verdict on a claim from its rows."""
    if not all(row["certified"] for row in rows):
        return "unconverged"
    return "VIOLATION" if any(violated(row) for row in rows) else "ok"


def rows_of(rows, kinds, n=None) -> list:
    """The rows of the given kinds, only those at dimension n if n is given."""
    return [row for row in rows if row["kind"] in kinds and n in (None, row["n"])]


def main() -> int:
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="2,3,4")
    parser.add_argument("--max-dim", type=int, default=8)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--max-iter", type=int, default=10_000)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default="results")
    args = parser.parse_args()
    try:
        orders = [int(s) for s in args.orders.split(",")]
    except ValueError:
        parser.error(f"--orders must be comma-separated integers, got {args.orders!r}")
    if min(orders) < 2:
        parser.error(f"--orders must all be >= 2, got {args.orders!r}")
    if args.max_dim < 2:
        parser.error("--max-dim must be >= 2")
    if not 0 < args.tol < math.inf:
        parser.error(f"--tol must be finite and > 0, got {args.tol}")
    if args.max_iter < 1:
        parser.error(f"--max-iter must be >= 1, got {args.max_iter}")
    out_dir = Path(args.out)
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        parser.error(f"--out names a file, not a directory: {args.out!r}")

    dims = list(range(2, args.max_dim + 1))
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    labels = []  # one per claim

    for m in orders:
        print(f"== order m = {m}")
        sweep = dimension_sweep(m, [1] + dims, tol=args.tol, max_iter=args.max_iter)
        sweep_out = sweep_rows(sweep)
        rows += sweep_out
        for rep in sweep.bounds:
            h, z = rows_of(sweep_out, ("H", "Z"), rep.n)
            labels.append(label([h, z]))
            print(f"  n={rep.n}: rho_h={h['value']:.8f} (bound {h['bound']:.4f})  "
                  f"rho_z={z['value']:.8f} (bound {z['bound']:.4f})  {labels[-1]}")

        labels.append(label(rows_of(sweep_out, ("H-gap", "Z-gap"))))
        print(f"  monotone: strict rho(F) {all_hold(sweep_out, 'H-gap')}, "
              f"nondecreasing rho(T) {all_hold(sweep_out, 'Z-gap')}  {labels[-1]}")
        for emb in sweep.embeddings:
            labels.append(label(rows_of(sweep_out, ("H-embed",), emb.k)))
            print(f"  embedding n={emb.n} into k={emb.k}: "
                  f"restricted residual {emb.restricted_residual:.3e}  {labels[-1]}")

        if m % 2 == 0:
            for n in dims:
                rep = check_positive_definite(HilbertTensor(m, n))
                # a closed form has nothing to converge: certified, no iterations
                rows.append(make_row(m, n, "pd-min-integral", rep.min_form_lower, 0.0, rep.min_form_lower,
                                     True, None))
                labels.append(label(rows[-1:]))
            failed_dims = [str(n) for n, verdict in zip(dims, labels[-len(dims):]) if verdict != "ok"]
            verdict = f"FAILED at n={','.join(failed_dims)}" if failed_dims else "ok"
            print(f"  positive definiteness certified over n=2..{args.max_dim}: {verdict}")

    for n in dims:
        h = h_spectral_radius(HilbertTensor(2, n), tol=args.tol, max_iter=args.max_iter)
        ratio = hilbert_inequality_ratio(h)
        rows.append(make_row(2, n, "hilbert-ineq-ratio", ratio, 1.0, 1.0 - ratio, h.converged, h.iterations))
        labels.append(label(rows[-1:]))
        print(f"  inequality n={n}: max ratio <= {ratio:.6f} "
              f"(constant {spectral_bound_h(2, n):.6f})  {labels[-1]}")

    path = out_dir / f"verification.{args.format}"
    path.write_text(render(rows, args.format), encoding="utf-8", newline="\n")
    print(f"wrote {len(rows)} rows to {path}")
    failures = sum(verdict != "ok" for verdict in labels)
    if failures:
        print(f"{failures} check(s) FAILED", file=sys.stderr)
    else:
        print("all checks passed")
    return exit_status("VIOLATION" in labels, "unconverged" not in labels)


if __name__ == "__main__":
    raise SystemExit(main())
