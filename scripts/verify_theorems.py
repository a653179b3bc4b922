#!/usr/bin/env python3
"""Run the full verification sweep and write machine-readable reports.

Per order m it writes the rows of ``hilbert-tensors bounds --n 1..MAX_DIM``
(sine bounds on both spectral radii, dimension monotonicity, eigenpair
embedding residuals), then positive definiteness sampling (even m); the
finite Hilbert inequality constants follow at the end.

Usage:
    python scripts/verify_theorems.py --orders 2,3,4 --max-dim 8 --out results/
"""

import argparse
import sys
from pathlib import Path

from hilbert_tensors import HilbertTensor, check_positive_definite, hilbert_inequality_check
from hilbert_tensors.analysis import dimension_sweep
from hilbert_tensors.reporting import SLACK_NOISE, make_row, render, sweep_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="2,3,4")
    parser.add_argument("--max-dim", type=int, default=8)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--max-iter", type=int, default=100_000)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default="results")
    args = parser.parse_args()
    if args.max_dim < 2:
        parser.error("--max-dim must be >= 2")

    orders = [int(s) for s in args.orders.split(",")]
    dims = list(range(2, args.max_dim + 1))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    rows = []

    for m in orders:
        print(f"== order m = {m}")
        sweep = dimension_sweep(m, [1] + dims, tol=args.tol, max_iter=args.max_iter)
        rows += sweep_rows(sweep)
        for rep in sweep.bounds:
            ok = rep.certified and rep.slack_h >= -SLACK_NOISE and rep.slack_z >= -SLACK_NOISE
            failures += 0 if ok else 1
            print(f"  n={rep.n}: rho_h={rep.rho_h:.8f} (bound {rep.bound_h:.4f})  "
                  f"rho_z={rep.rho_z:.8f} (bound {rep.bound_z:.4f})  "
                  f"{'ok' if ok else 'VIOLATION'}")

        mono = sweep.monotonicity
        print(f"  monotone: strict rho(F) {mono.strict_h}, "
              f"nondecreasing rho(T) {mono.nondecreasing_z}")
        failures += 0 if (mono.strict_h and mono.nondecreasing_z) else 1
        failures += sum(0 if emb.restricted_residual <= SLACK_NOISE else 1 for emb in sweep.embeddings)

        if m % 2 == 0:
            for n in dims:
                rep = check_positive_definite(HilbertTensor(m, n), trials=args.trials,
                                              seed=args.seed)
                rows.append(make_row(m, n, "pd-min-integral", rep.min_integral, 0.0,
                                     rep.min_integral, rep.all_positive, rep.trials))
                failures += 0 if rep.all_positive else 1
            print(f"  positive definiteness sampled over n=2..{args.max_dim}: ok")

    for n in dims:
        rep = hilbert_inequality_check(n, trials=args.trials, seed=args.seed)
        rows.append(make_row(2, n, "hilbert-ineq-ratio", rep.worst_ratio, 1.0,
                             1.0 - rep.worst_ratio, rep.asserted, rep.trials))
        failures += 1 if rep.violation_observed else 0
        print(f"  inequality n={n}: worst ratio {rep.worst_ratio:.6f} "
              f"(constant {rep.bound_constant:.6f})")

    path = out_dir / f"verification.{args.format}"
    path.write_text(render(rows, args.format), encoding="utf-8", newline="\n")
    print(f"wrote {len(rows)} rows to {path}")
    if failures:
        print(f"{failures} check(s) FAILED", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
