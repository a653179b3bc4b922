"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.  Criteria with stated runtime budgets measure their own wall
time and fail when over budget.
"""

import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np

from hilbert_tensors import (
    PI_OVER_SQRT6,
    HilbertTensor,
    cli,
    f_infinity,
    h_spectral_radius,
    t_infinity,
    z_spectral_radius,
)
from hilbert_tensors.analysis import dimension_sweep
from hilbert_tensors.reporting import sweep_rows

from oracle import brute_apply, dense_matrix_eigenpair
from splitmix import SplitMix64

SEED = 20_240_901


def criterion(num, title):
    """Print one PASS/FAIL line per criterion (run with -s to see them live)."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {num} FAIL ({title}): {exc}", file=sys.stderr, flush=True)
                raise
            print(f"ACCEPTANCE {num} PASS ({title}){': ' + detail if detail else ''}",
                  file=sys.stderr, flush=True)

        return wrapper

    return decorate


def seeded_vectors(rng, n, count, low=-1.0, high=1.0):
    for _ in range(count):
        yield np.array(rng.uniforms(n, low, high))


@criterion(1, "apply oracle equivalence")
def test_criterion_1_apply_oracle_equivalence():
    start = time.perf_counter()
    rng = SplitMix64(SEED)
    worst = 0.0
    for m in (2, 3, 4, 5):
        for n in range(1, 9):
            t = HilbertTensor(m, n)
            for x in seeded_vectors(rng, n, 100):
                naive = np.asarray(t.apply_naive(x))
                fast = t.apply_fast(x).values
                brute = brute_apply(t, x)
                scale = 1.0 + np.max(np.abs(naive))
                dev = max(np.max(np.abs(fast - naive)), np.max(np.abs(brute - naive)))
                worst = max(worst, dev / scale)
                assert dev <= 1e-10 * scale, f"m={m} n={n}: deviation {dev:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over the 30s budget"
    return f"worst relative deviation {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "quadratic form vs integral oracle")
def test_criterion_2_integral_oracle_equivalence():
    rng = SplitMix64(SEED + 1)
    worst = 0.0
    for m in (2, 3, 4, 5):
        for n in range(1, 9):
            t = HilbertTensor(m, n)
            for x in seeded_vectors(rng, n, 100):
                qf = t.quadratic_form(x)
                qi = t.quadratic_form_integral(x)
                dev = abs(qf - qi) / (1.0 + abs(qi))
                worst = max(worst, dev)
                assert dev <= 1e-10, f"m={m} n={n}: deviation {dev:.3e}"
    # rational mode: exact equality of the two exact routes
    for m in (2, 3, 4):
        for n in range(1, 7):
            t = HilbertTensor(m, n)
            for _ in range(5):
                x = [Fraction(rng.randint(21) - 10, 1 + rng.randint(12)) for _ in range(n)]
                assert t.quadratic_form(x, exact=True) == t.quadratic_form_integral(x, exact=True)
    return f"worst float deviation {worst:.2e}; exact-mode equality on n<=6, m<=4"


@criterion(3, "m=2 matrix eigensolver cross-check")
def test_criterion_3_matrix_cross_check():
    closed_form = (4 + math.sqrt(13)) / 6
    worst = 0.0
    for n in range(1, 11):
        expected, _ = dense_matrix_eigenpair(n)
        t = HilbertTensor(2, n)
        h = h_spectral_radius(t)
        z = z_spectral_radius(t)
        assert h.converged and z.converged
        worst = max(worst, abs(h.value - expected), abs(z.value - expected))
        assert abs(h.value - expected) <= 1e-8, f"H solver off at n={n}"
        assert abs(z.value - expected) <= 1e-8, f"Z solver off at n={n}"
        if n == 2:
            assert abs(h.value - closed_form) <= 1e-8
            assert abs(z.value - closed_form) <= 1e-8
    return f"worst |solver - eigh| = {worst:.2e} over n=1..10"


@criterion(4, "positive definiteness of even orders")
def test_criterion_4_positive_definiteness():
    rng = SplitMix64(SEED + 2)
    checked = 0
    for m in (2, 4):
        for n in range(2, 7):
            t = HilbertTensor(m, n)
            for x in seeded_vectors(rng, n, 1000):
                if not x.any():
                    continue
                value = t.quadratic_form_integral(x)
                if value <= 1e-9:
                    # adjudicate suspiciously small values in exact arithmetic
                    assert t.quadratic_form_integral(x, exact=True) > 0, f"m={m} n={n}"
                else:
                    assert value > 0
                checked += 1
    # adversarial alternating-sign decaying vectors, exact arithmetic
    floor = Fraction(1, 10**30)
    for m in (2, 4):
        for n in range(2, 7):
            t = HilbertTensor(m, n)
            adversarial = [
                [Fraction((-1) ** i, i) for i in range(1, n + 1)],
                [Fraction((-1) ** i, i * i) for i in range(1, n + 1)],
                [Fraction((-1) ** i, 2**i) for i in range(1, n + 1)],
                [Fraction(1, 1)] + [Fraction(0)] * (n - 1),
            ]
            for x in adversarial:
                value = t.quadratic_form_integral(x, exact=True)
                assert value > floor, f"m={m} n={n}: exact value {value} not above 1e-30"
    return f"{checked} random trials positive; adversarial exact values > 1e-30"


@criterion(5, "sine bounds on both spectral radii")
def test_criterion_5_spectral_bounds():
    # through the pass and the rows the bounds command reports
    start = time.perf_counter()
    for m in (2, 3, 4):
        sweep = dimension_sweep(m, range(2, 9), tol=1e-10, max_iter=100_000)
        rows = sweep_rows(sweep)
        for rep in sweep.bounds:
            h, z = [row for row in rows if row["n"] == rep.n and row["kind"] in ("H", "Z")]
            assert rep.certified, f"m={m} n={rep.n}: solver did not converge"
            assert h["value"] <= h["bound"] + 1e-8, (
                f"H bound violated at m={m} n={rep.n}: "
                f"rho_h={h['value']:.17g} bound={h['bound']:.17g} "
                f"iterations={h['iterations']}"
            )
            assert z["value"] <= z["bound"] + 1e-8, (
                f"Z bound violated at m={m} n={rep.n}: "
                f"rho_z={z['value']:.17g} bound={z['bound']:.17g} "
                f"iterations={z['iterations']}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over the 2 min budget"
    return f"21 certified rows inside bounds, {elapsed:.1f}s"


@criterion(6, "monotonicity in dimension and eigenpair embedding")
def test_criterion_6_monotonicity():
    tol = 1e-10
    for m in (2, 3, 4):
        sweep = dimension_sweep(m, range(1, 9), tol=tol, max_iter=100_000)
        rep = sweep.monotonicity
        assert rep.certified
        gaps_h = [b - a for a, b in zip(rep.rho_h_seq, rep.rho_h_seq[1:])]
        assert all(g > tol for g in gaps_h), f"m={m}: rho(F) gaps {gaps_h}"
        gaps_z = [b - a for a, b in zip(rep.rho_z_seq, rep.rho_z_seq[1:])]
        assert all(g >= -2 * tol for g in gaps_z), f"m={m}: rho(T) gaps {gaps_z}"
        assert [(emb.n, emb.k) for emb in sweep.embeddings] == [(n, n + 1) for n in range(1, 8)]
        for emb in sweep.embeddings:
            assert emb.restricted_residual <= 1e-8, (
                f"m={m}: embedding residual {emb.restricted_residual:.3e} at ({emb.n},{emb.k})"
            )
    return "rho(F) strictly increasing, rho(T) nondecreasing, embeddings tight"


@criterion(7, "infinite operators stay under pi/sqrt(6)")
def test_criterion_7_infinite_operators():
    out_len = 100_000
    budget = PI_OVER_SQRT6 + 1e-9
    rng = SplitMix64(SEED + 3)
    support = 8
    for m in (2, 3, 4):
        p_f = 2.0 * (m - 1)
        for _ in range(500):
            x = np.array(rng.uniforms(support, -1.0, 1.0))
            if not np.abs(x).sum():
                continue
            x /= np.abs(x).sum()
            ct = t_infinity(x, m, 2.0, out_len)
            assert ct.upper <= budget, f"T bound broken at m={m}: {ct.upper!r}"
            cf = f_infinity(x, m, p_f, out_len)
            assert cf.upper <= budget, f"F bound broken at m={m}: {cf.upper!r}"
        # attainment at e_1 (tail-limited)
        e1 = np.array([1.0])
        t_val = t_infinity(e1, m, 2.0, out_len).value
        assert t_val >= PI_OVER_SQRT6 - 1e-4, f"T e1 too small at m={m}: {t_val}"
        f_val = f_infinity(e1, m, p_f, out_len).value
        f_const = (math.pi**2 / 6.0) ** (1.0 / p_f)  # = pi/sqrt(6) when m = 2
        assert f_val >= f_const - 1e-4, f"F e1 off its constant at m={m}: {f_val}"
        if m == 2:
            assert f_val >= PI_OVER_SQRT6 - 1e-4
    assert abs(PI_OVER_SQRT6 - 1.2825498) < 1e-7
    return "1500 vectors per operator under the bound; e_1 attains (tail-limited)"


@criterion(8, "fast apply performance")
def test_criterion_8_performance():
    t = HilbertTensor(3, 100)
    x = np.cos(np.arange(1, 101))
    naive_time = time.perf_counter()
    naive = np.asarray(t.apply_naive(x))
    naive_time = time.perf_counter() - naive_time
    fast_time = min(
        _timed(t.apply_fast, x) for _ in range(5)
    )
    speedup = naive_time / fast_time
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x at m=3 n=100"
    delta = np.max(np.abs(t.apply_fast(x).values - naive)) / (1.0 + np.max(np.abs(naive)))
    assert delta <= 1e-10, f"correctness delta {delta:.3e}"

    big = HilbertTensor(3, 10_000)
    xb = np.cos(np.arange(1, 10_001))
    big_time = _timed(big.apply_fast, xb)
    assert big_time < 1.0, f"m=3 n=10^4 fast apply took {big_time:.2f}s"
    return f"speedup {speedup:.0f}x at n=100; n=10^4 in {big_time * 1e3:.0f} ms"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@criterion(9, "byte-identical reruns")
def test_criterion_9_determinism(tmp_path):
    commands = [
        ["spectrum", "--m", "3", "--n", "4", "--seed", "7"],
        ["bounds", "--m", "2", "--n", "2..5", "--seed", "7"],
        ["bounds", "--m", "3", "--n", "1..4", "--format", "csv", "--seed", "7"],
        ["infinite", "--m", "2", "--p", "2", "--x", "e1", "--trunc", "10000", "--seed", "7"],
        ["infinite", "--m", "3", "--p", "4", "--op", "both", "--search", "--trials", "50",
         "--trunc", "2000", "--seed", "7"],
        ["bench", "--m", "3", "--n", "10,40", "--repeats", "1", "--seed", "7"],
    ]
    for i, args in enumerate(commands):
        first = tmp_path / f"run_{i}_a.out"
        second = tmp_path / f"run_{i}_b.out"
        assert cli.run(args + ["--out", str(first)]) == 0, f"command failed: {args}"
        assert cli.run(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"nondeterministic: {args}"
    return f"{len(commands)} command configurations byte-identical"
