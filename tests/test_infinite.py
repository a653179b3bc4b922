import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hilbert_tensors import (
    PI_OVER_SQRT6,
    GeneratingVector,
    HilbertTensor,
    apply_infinite,
    cli,
    f_infinity,
    h_spectral_radius,
    hankel_apply,
    infinite,
    norm_search,
    operator_norm_constant,
    t_infinity,
)
from hilbert_tensors.infinite import CertifiedNorm, tail_exponent, zeta_upper_bound

from splitmix import SplitMix64


def _cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process CLI run of the space-separated ``argv``."""
    code = cli.run(argv.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unit_l1(x):
    x = np.asarray(x, dtype=float)
    return x / np.abs(x).sum()


# -- truncated apply -------------------------------------------------------------


def test_apply_infinite_e1_harmonic():
    for m in (2, 3, 4):
        out = apply_infinite([1.0], m, 50).values
        np.testing.assert_allclose(out, 1.0 / np.arange(1, 51), rtol=1e-12)


def test_apply_infinite_e2_shifted():
    out = apply_infinite([0.0, 1.0], 2, 30).values
    np.testing.assert_allclose(out, 1.0 / np.arange(2, 32), rtol=1e-12)


def test_apply_infinite_zero():
    out = apply_infinite(np.zeros(4), 3, 20).values
    np.testing.assert_array_equal(out, np.zeros(20))


@pytest.mark.parametrize("out_len", [1, 5])
def test_apply_infinite_empty_input_keeps_the_cached_vector(out_len):
    cached = GeneratingVector.hilbert(7)
    with pytest.raises(ValueError, match="empty input vector"):
        apply_infinite([], 3, out_len)
    assert GeneratingVector.hilbert(7) is cached


def test_apply_infinite_matches_finite_head():
    # with out_len = support the truncation reproduces the finite tensor
    rng = SplitMix64(61)
    x = np.array(rng.uniforms(6, -1, 1))
    t = HilbertTensor(3, 6)
    np.testing.assert_allclose(
        apply_infinite(x, 3, 6).values, t.apply_fast(x).values, rtol=1e-12
    )


@pytest.mark.parametrize(
    "m, n", [pytest.param(3, 6, id="direct"), pytest.param(2, 1500, id="fft")]
)
def test_apply_infinite_is_the_finite_head_bit_for_bit(m, n):
    x = np.array(SplitMix64(62).uniforms(n, -1, 1))
    head = apply_infinite(x, m, n).values
    np.testing.assert_array_equal(head, HilbertTensor(m, n).apply_fast(x).values)


def test_apply_infinite_order_below_two_keeps_the_cached_vector():
    cached = GeneratingVector.hilbert(50)
    with pytest.raises(ValueError, match="order must be >= 2, got 1"):
        apply_infinite([1.0, 2.0], 1, 60)
    assert GeneratingVector.hilbert(50) is cached


def test_apply_infinite_m2_dense_cross_check():
    # H_inf restricted to 400 rows and 50 columns as a dense matrix
    rng = SplitMix64(67)
    x = np.array(rng.uniforms(50, -1, 1))
    rows = np.arange(1, 401)[:, None]
    cols = np.arange(1, 51)[None, :]
    dense = 1.0 / (rows + cols - 1)
    np.testing.assert_allclose(apply_infinite(x, 2, 400).values, dense @ x, atol=1e-12)


# -- certified norms --------------------------------------------------------------


def test_t_infinity_rejects_bad_p():
    with pytest.raises(ValueError, match="p > 1"):
        t_infinity([1.0], 2, 1.0)


def test_t_infinity_zero_vector_exact():
    cert = t_infinity(np.zeros(3), 3, 2.0)
    assert cert.value == 0.0 and cert.tail_bound == 0.0


def test_t_infinity_e1_value():
    n = 10_000
    cert = t_infinity([1.0], 2, 2.0, out_len=n)
    expected = math.sqrt(sum(1.0 / i**2 for i in range(1, n + 1)))
    assert cert.value == pytest.approx(expected, rel=1e-12)
    assert cert.value <= PI_OVER_SQRT6 <= cert.upper


def test_t_infinity_e1_any_order():
    # T e_1 has components 1/i regardless of m, because ||e_1||_1 = 1
    for m in (2, 3, 4):
        cert = t_infinity([1.0], m, 2.0, out_len=2000)
        ref = t_infinity([1.0], 2, 2.0, out_len=2000)
        assert cert.value == pytest.approx(ref.value, rel=1e-12)


def test_t_infinity_positive_homogeneity():
    x = unit_l1([0.3, 0.5, 0.2])
    base = t_infinity(x, 3, 2.0, out_len=500)
    scaled = t_infinity(4.0 * x, 3, 2.0, out_len=500)
    assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-12)


def test_t_infinity_tail_decreases():
    x = unit_l1([1.0, 2.0])
    t_small = t_infinity(x, 2, 2.0, out_len=100)
    t_large = t_infinity(x, 2, 2.0, out_len=10_000)
    assert t_large.tail_bound < t_small.tail_bound


def test_certified_containment():
    rng = SplitMix64(71)
    for m, make in ((2, t_infinity), (3, t_infinity), (3, f_infinity), (4, f_infinity)):
        p = 2.0 if make is t_infinity else 2.0 * (m - 1)
        for _ in range(5):
            x = unit_l1(np.array(rng.uniforms(8, -1, 1)))
            coarse = make(x, m, p, out_len=200)
            fine = make(x, m, p, out_len=5000)
            assert coarse.value <= fine.value + 1e-12
            assert fine.value <= coarse.upper + 1e-12
            assert fine.upper <= coarse.upper + 1e-12


def test_f_infinity_rejects_bad_p():
    with pytest.raises(ValueError, match="m-1"):
        f_infinity([1.0], 3, 1.5)


def test_f_infinity_e1_value():
    # ||F e_1||_{2(m-1)} = (sum i^-2)^(1/(2(m-1)))
    n = 5000
    partial = sum(1.0 / i**2 for i in range(1, n + 1))
    for m in (2, 3, 4):
        p = 2.0 * (m - 1)
        cert = f_infinity([1.0], m, p, out_len=n)
        assert cert.value == pytest.approx(partial ** (1.0 / p), rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_f_infinity_value_is_root_then_power(m):
    # ||F x||_p summed as |h_i|^(p/(m-1)) equals the entrywise real root raised to p
    rng = SplitMix64(83 + m)
    for p in (m - 0.5, 2.0 * (m - 1), 7.5, 20.0):
        x = np.array(rng.uniforms(6, -1, 1))
        head = apply_infinite(x, m, 2000).values
        root = np.sign(head) * np.abs(head) ** (1.0 / (m - 1))
        reference = np.sum(np.abs(root) ** p) ** (1.0 / p)
        assert f_infinity(x, m, p, out_len=2000).value == pytest.approx(reference, rel=1e-14)


@pytest.mark.parametrize("call", [t_infinity, f_infinity])
def test_bad_out_len_raises_for_the_zero_vector_too(call):
    for x in ([0.0], [1.0]):
        with pytest.raises(ValueError, match="out_len must be >= 1"):
            call(x, 2, 2.0, out_len=-5)


@pytest.mark.parametrize("call", [t_infinity, f_infinity])
def test_empty_input_is_refused_not_a_zero_norm(call):
    with pytest.raises(ValueError, match="empty input vector"):
        call([], 2, 2.0, out_len=10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: t_infinity([1.0], 1, 2.0, out_len=10),
        lambda: f_infinity([1.0], 1, 2.0, out_len=10),
        lambda: operator_norm_constant("F", 0, 2.0),
        lambda: norm_search(1, 2.0, out_len=10),
        lambda: hankel_apply(GeneratingVector.hilbert(10), [1.0, 2.0], 1, 3),
    ],
    ids=["t_infinity", "f_infinity", "constant", "norm_search", "hankel_apply"],
)
def test_order_below_two_is_refused_everywhere(call):
    with pytest.raises(ValueError, match="order must be >= 2"):
        call()


@pytest.mark.parametrize("call", [t_infinity, f_infinity])
def test_zero_vector_norm_computes_no_head(call, monkeypatch):
    def no_head(*args):
        raise AssertionError("the zero vector needs no head")

    monkeypatch.setattr(infinite, "_head", no_head)
    assert call([0.0, 0.0], 3, 4.0, out_len=10**9) == CertifiedNorm(0.0, 0.0, 4.0, 10**9)


def test_f_infinity_nonnegative_output_head():
    # for odd m the inner contraction is a moment integral, nonnegative for any x
    rng = SplitMix64(73)
    for _ in range(10):
        x = np.array(rng.uniforms(6, -1, 1))
        head = apply_infinite(x, 3, 200).values
        assert np.all(head >= -1e-12)
        cert = f_infinity(x, 3, 4.0, out_len=200)
        assert cert.value >= 0


def test_norm_bound_random_unit_vectors():
    rng = SplitMix64(79)
    for m in (2, 3):
        for _ in range(25):
            x = unit_l1(np.array(rng.uniforms(10, -1, 1)))
            ct = t_infinity(x, m, 2.0, out_len=100_000)
            assert ct.upper <= PI_OVER_SQRT6 + 1e-9
            cf = f_infinity(x, m, 2.0 * (m - 1), out_len=100_000)
            assert cf.upper <= PI_OVER_SQRT6 + 1e-9


def test_boundedness_constant():
    # ||T x||_p <= M ||x||_1 with M = (sum i^-p)^(1/p)
    rng = SplitMix64(83)
    for p in (1.5, 2.0, 3.0):
        M = operator_norm_constant("T", 2, p)
        for _ in range(10):
            x = np.array(rng.uniforms(6, -1, 1))
            cert = t_infinity(x, 2, p, out_len=20_000)
            assert cert.upper <= M * np.abs(x).sum() + 1e-9


def test_operator_norm_constant_closed_forms():
    assert operator_norm_constant("T", 2, 2.0) == PI_OVER_SQRT6
    assert operator_norm_constant("F", 3, 4.0) == pytest.approx((math.pi**2 / 6) ** 0.25)
    with pytest.raises(ValueError):
        operator_norm_constant("T", 2, 0.5)
    with pytest.raises(ValueError):
        operator_norm_constant("Q", 2, 2.0)


def test_tail_exponent_per_operator():
    assert tail_exponent("T", 3, 1.5) == 1.5
    assert tail_exponent("F", 3, 3.0) == 1.5
    assert tail_exponent("F", 4, 6.0) == 2.0


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: t_infinity([1.0], 3, 1.0), "operator T needs p > 1, got p = 1"),
        (lambda: f_infinity([1.0], 3, 1.5), "operator F needs p > m-1 = 2, got p = 1.5"),
        (lambda: operator_norm_constant("T", 2, 0.5), "operator T needs p > 1, got p = 0.5"),
        (lambda: operator_norm_constant("F", 4, 3.0), "operator F needs p > m-1 = 3, got p = 3"),
        (lambda: norm_search(3, 2.0, operator="F"), "operator F needs p > m-1 = 2, got p = 2"),
        (lambda: norm_search(2, 2.0, operator="Q"), "operator must be 'T' or 'F', got 'Q'"),
    ],
    ids=["t_infinity", "f_infinity", "constant-T", "constant-F", "search-F", "search-Q"],
)
def test_p_range_errors_carry_the_cli_text(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: tail_exponent("T", 2, p),
        lambda p: t_infinity([0.5], 2, p),
        lambda p: f_infinity([0.5], 3, p),
        lambda p: operator_norm_constant("T", 2, p),
        lambda p: norm_search(2, p, out_len=10),
    ],
    ids=["tail_exponent", "t_infinity", "f_infinity", "constant", "search"],
)
def test_non_finite_p_is_rejected(call, p):
    # at p = inf, ||T e1/2||_inf is 0.5, but the finite-p sums would enclose it in [1, 1.5]
    with pytest.raises(ValueError, match="p must be finite"):
        call(p)


def test_upper_is_inf_when_a_power_overflows():
    assert CertifiedNorm(1.0, 1e110, 6.0, 10).upper == math.inf


@pytest.mark.parametrize("q", [1.01, 1.5, 3, 4, 6, 50, 100])
def test_zeta_upper_bound_errs_upward_by_at_most_1e14(q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.zeta(q)
        assert 0 <= (mpmath.mpf(zeta_upper_bound(q)) - exact) / exact <= 1e-14


def test_overflow_raises_no_numpy_warning():
    # overflow shows in the results (non-finite, unconverged), not as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = h_spectral_radius(HilbertTensor(500, 5), max_iter=50)
        constant = operator_norm_constant("T", 2, 100.0)
    assert not res.converged
    assert constant == 1.0  # every term past i = 1 is lost in rounding against the first


# -- norm search ------------------------------------------------------------------


def test_norm_search_support_one_is_e1(capsys):
    code, _, err = _cli(capsys, "infinite --search --m 2 --p 2 --trials 10 --support 1 --trunc 2000 --show-vector")
    assert code == 0 and "T-search vector: [1.0]" in err.splitlines()


def test_norm_search_rejects_negative_trials(capsys):
    code, out, err = _cli(capsys, "infinite --search --m 2 --p 2 --trials -3 --support 2 --trunc 10")
    assert (code, out, err) == (cli.EXIT_USAGE, "", "hilbert-tensors: error: --trials must be >= 0, got -3\n")


def test_norm_search_coordinate_decay():
    # ||T e_k||_2 decreases in k, so e_1 beats the other coordinates
    vals = [t_infinity(np.eye(5)[k], 2, 2.0, out_len=2000).value for k in range(5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_norm_search_finds_e1():
    cert = norm_search(2, 2.0, out_len=1_000_000)
    assert cert.value >= PI_OVER_SQRT6 - 1e-6
    assert cert.value <= PI_OVER_SQRT6 + 1e-9
    assert cert == t_infinity([1.0], 2, 2.0, out_len=1_000_000)


def test_norm_search_deterministic():
    assert norm_search(3, 2.0, out_len=1000) == norm_search(3, 2.0, out_len=1000)


def test_norm_search_never_exceeds_bound():
    for op in ("T", "F"):
        p = 2.0 if op == "T" else 4.0
        cert = norm_search(3, p, out_len=5000, operator=op)
        assert cert.value <= PI_OVER_SQRT6 + 1e-9


def test_norm_search_gap_is_to_its_own_constant(capsys):
    # F at m = 3, p = 4: the constant is (pi^2/6)^(1/4), not pi/sqrt(6)
    argv = "infinite --search --op F --m 3 --p 4 --trials 6 --support 4 --trunc 1000 --seed 3"
    assert cli.run(argv.split()) == 0
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("F-search: ")]
    cert = norm_search(3, 4.0, out_len=1000, operator="F")
    gap = operator_norm_constant("F", 3, 4.0) - cert.value
    assert f" gap to constant={gap:.3e} " in line
    assert 0 < gap < PI_OVER_SQRT6 - cert.value


# -- one work array per head ------------------------------------------------------------


def _head_norm(operator, x, order, p, out_len):
    """(sum |h|^q)^(1/p) from apply_infinite, with the T scale and the F clamp at odd m."""
    head = apply_infinite(x, order, out_len).values
    q = tail_exponent(operator, order, p)
    if operator == "T":
        head = head * float(np.abs(x).sum()) ** (2 - order)
    elif order % 2 == 1:
        head = np.where(head < 0, 0.0, head)
    if q == 2:
        total = np.einsum("i,i->", head, head)
    elif q == 4:
        total = np.einsum("i,i->", head * head, head * head)
    elif q == 6:
        total = np.einsum("i,i,i->", head * head, head * head, head * head)
    else:
        total = np.sum(np.abs(head) ** q)
    return float(total ** (1.0 / p))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("support, out_len", [(3, 1000), (16, 100_000), (40, 100_000)])
def test_norms_are_the_head_q_sum_bit_for_bit(m, support, out_len):
    x = 1.7 * np.cos(np.arange(1, support + 1))
    for operator, call in (("T", t_infinity), ("F", f_infinity)):
        for p in (2.0 * (m - 1) + 0.5, 3.0 * (m - 1)):
            cert = call(x, m, p, out_len)
            assert cert.value == _head_norm(operator, x, m, p, out_len)


@pytest.mark.parametrize(
    "call, m, p, scale",
    [
        (call, m, p, scale)
        for call in (t_infinity, f_infinity)
        for m, p, scale in [
            (3, 4.0, 1e-320),  # ||x||_1^(2-m) overflows
            (4, 6.0, 1e-200),
            (4, 6.0, 1e-120),  # ||x||_1^(2-m) is finite, the head underflows
            (3, 4.0, 1e-200),
            (4, 6.0, 1e-103),  # the head is subnormal
            (2, 2.5, 1e-200),  # the head is normal, its p-th powers underflow
        ]
    ]
    + [(t_infinity, 4, 2.0, 1e150), (t_infinity, 3, 1.5, 1e200)],  # the head overflows, its p-th powers do not
)
def test_norms_outside_the_float_range_are_homogeneous(call, m, p, scale):
    # T and F are ||x||_1 times their value at x / ||x||_1
    cert = call([scale], m, p, 100)
    unit = call([1.0], m, p, 100)
    assert cert.value == pytest.approx(scale * unit.value, rel=1e-14, abs=0)
    assert cert.tail_bound == pytest.approx(scale * unit.tail_bound, rel=1e-14, abs=0)
    assert cert.upper >= cert.value


@pytest.mark.parametrize("operator, call", [("T", t_infinity), ("F", f_infinity)])
def test_norms_in_the_float_range_keep_their_bits(operator, call):
    x = np.array([3e-20, -1e-20])
    assert call(x, 3, 4.0, 1000).value == _head_norm(operator, x, 3, 4.0, 1000)


def test_upper_is_never_below_a_term_when_powers_underflow():
    assert CertifiedNorm(1.28e-200, 1e-201, 2.0, 10).upper == pytest.approx(1.2839e-200, rel=1e-4, abs=0)
    assert CertifiedNorm(1e-201, 1.28e-200, 2.0, 10).upper >= 1.28e-200
    assert CertifiedNorm(0.0, 0.0, 2.0, 10).upper == 0.0


@pytest.mark.parametrize("m, p, k", [(2, 1000.0, 3), (3, 700.0, 2)])
def test_norm_is_kept_where_every_power_of_a_normal_head_underflows(m, p, k):
    # |h_i|^p underflows for every i, yet ||T e_k||_p >= h_1 = 1/3: the sum is taken relative to max |h_i|
    x = np.eye(1, k, k - 1)[0]
    (cert,) = infinite._certified_norms(("T",), x, m, p, 100_000)
    assert cert.value == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)
    assert 0 < cert.tail_bound and cert.value <= cert.upper


@pytest.mark.parametrize("q", [66.0, 100.0, 1000.0])
@pytest.mark.parametrize("n", [128, 100_000])
def test_tail_root_holds_where_the_integral_bound_underflows(q, n):
    mpmath = pytest.importorskip("mpmath")
    tail = t_infinity([1.0], 2, q, n).tail_bound  # p = q, ||x||_1 = 1
    with mpmath.workdps(40):
        integral = (mpmath.mpf(n) ** (1 - mpmath.mpf(q)) / (mpmath.mpf(q) - 1)) ** (1 / mpmath.mpf(q))
        assert tail > 0 and tail >= mpmath.zeta(q, n + 1) ** (1 / mpmath.mpf(q))  # the true tail
        assert integral <= tail <= integral * (1 + 1e-12)  # the log form, rounded up, normal bound or not


@pytest.mark.parametrize("p, n", [(1.000000000001, 100_000), (2.0, 1000)])
def test_e1_tail_and_upper_are_never_below_the_true_ones(p, n):
    # rounded to nearest, the tail root falls below the integral root (p = 2) and, near p = 1, where the tail
    # is most of the norm, below the true tail, which puts upper 7.9e-5 below ||T e_1||_p = zeta(p)^(1/p)
    mpmath = pytest.importorskip("mpmath")
    cert = t_infinity([1.0], 2, p, n)
    with mpmath.workdps(60):
        root = 1 / mpmath.mpf(p)
        assert cert.tail_bound >= (mpmath.mpf(n) ** (1 - mpmath.mpf(p)) / (mpmath.mpf(p) - 1)) ** root
        assert cert.tail_bound >= mpmath.zeta(p, n + 1) ** root
        assert cert.upper >= mpmath.zeta(p) ** root


def _upper_before_enclosure(value, tail, p):
    """CertifiedNorm.upper as one Python-float formula: the reference for its bits."""
    try:
        upper = (value**p + tail**p) ** (1.0 / p)
    except OverflowError:
        return math.inf
    big = max(value, tail)
    if not upper < big:
        return upper
    return big * ((value / big) ** p + (tail / big) ** p) ** (1.0 / p)


def test_upper_keeps_the_scalar_formulas_bits():
    terms = [0.0, 5e-324, 1e-200, 1.0, 1e200, math.inf, math.nan]
    for value in terms:
        for tail in terms:
            for p in (1.5, 2.0, 6.0, 100.0, 1000.0):
                upper, reference = CertifiedNorm(value, tail, p, 10).upper, _upper_before_enclosure(value, tail, p)
                assert struct.pack("<d", upper) == struct.pack("<d", reference), (value, tail, p, upper, reference)


@pytest.mark.parametrize(
    "m, p, x", [(4, 8.0, [2e-60, 1e-61]), (3, 6.0, [1e-100, -2e-101]), (2, 30.0, [1e-20, -3e-21, 5e-22])]
)
def test_rows_whose_powers_underflow_on_a_normal_head_are_homogeneous(m, p, x):
    # computed on the head itself, not on x / ||x||_1: homogeneous up to rounding
    l1 = float(np.abs(x).sum())
    operators = ("T", "F") if p > m - 1 else ("T",)
    for cert, unit in zip(infinite._certified_norms(operators, x, m, p, 1000),
                          infinite._certified_norms(operators, np.array(x) / l1, m, p, 1000)):
        assert cert.value == pytest.approx(l1 * unit.value, rel=1e-12, abs=0)
        assert cert.tail_bound == pytest.approx(l1 * unit.tail_bound, rel=1e-12, abs=0)


def _traced_peak(call, warm=None):
    (warm or call)()  # warm: the generating vector and its block spectra are cached
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda x: apply_infinite(x, 4, 100_000),
        lambda x: t_infinity(x, 4, 2.0, 100_000),
        lambda x: f_infinity(x, 4, 6.0, 100_000),
    ],
    ids=["apply_infinite", "t_infinity", "f_infinity"],
)
def test_multi_block_head_holds_two_head_sized_arrays_at_most(call):
    # the output array only: the FFT route's product and blocks are held by its plan; |h|^q is taken in place
    x = np.cos(np.arange(1, 17))
    head_bytes = apply_infinite(x, 4, 100_000).values.nbytes
    assert _traced_peak(lambda: call(x)) <= 1.1 * head_bytes


def test_joint_evaluation_holds_one_head_sized_array():
    # F at q = 2 and scale 1 only reads the head, so it runs first, and T at q = 6 then works in place on it
    x = np.cos(np.arange(1, 17))
    head_bytes = apply_infinite(x, 4, 100_000).values.nbytes
    joint = lambda: infinite._certified_norms(("T", "F"), x, 4, 6.0, 10**5)
    assert _traced_peak(joint) <= 1.1 * head_bytes


# one 10^5-long head: 8e5 bytes
HEAD_BYTES = 8 * 10**5


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_infinite([1.0], 3, 10**5),
        lambda: t_infinity([1.0], 3, 2.0, 10**5),
        lambda: f_infinity([1.0], 3, 4.0, 10**5),
        lambda: t_infinity([1.0], 4, 6.0, 10**5),
        lambda: t_infinity([1.0, -0.5, 0.25], 4, 6.0, 10**5),
        lambda: apply_infinite(np.cos(np.arange(1, 9)), 3, 10**5),
        lambda: t_infinity(np.cos(np.arange(1, 9)), 4, 6.0, 10**5),
    ],
    ids=["apply_infinite", "t_infinity", "f_infinity", "t_infinity-q6-e1", "t_infinity-q6-scaled",
         "apply_infinite-split-y15", "t_infinity-split-y22"],
)
def test_one_operator_holds_one_head_sized_array(call):
    # no copy of the generating vector for np.correlate, none of the head, and |h|^q, or r = s h and r^2
    # at q in {2, 4, 6}, taken in place on it; a split correlation adds one block of rows at a time
    assert _traced_peak(call) <= 1.1 * HEAD_BYTES


@pytest.mark.parametrize("warm_x", [[1.0], [1.0, 0.5]], ids=["same-length", "after-a-longer-head"])
def test_joint_certification_holds_one_head_sized_array(warm_x):
    # F at q = 2 reads the head first, then T at q = 4 works in place on it; after a head 2 longer,
    # 1/(s+1) is a prefix of the same buffer
    joint = lambda: infinite._certified_norms(("T", "F"), [1.0], 3, 4.0, 10**5)
    warm = lambda: infinite._certified_norms(("T", "F"), warm_x, 3, 4.0, 10**5)
    assert _traced_peak(joint, warm) <= 1.1 * HEAD_BYTES


@pytest.mark.parametrize("operators", [("T", "F"), ("F", "T")])
def test_joint_certification_with_two_work_arrays_holds_two_head_sized_arrays(operators):
    # T at q = 6 and F at q = 3 both need a work array: the first in its own, the second in place on the head
    joint = lambda: infinite._certified_norms(operators, [1.0], 3, 6.0, 10**5)
    assert _traced_peak(joint) <= 2.1 * HEAD_BYTES


def test_joint_certification_at_q2_and_scale_1_makes_no_copy():
    # T at m = 2 has scale ||x||_1^0 = 1: its sum of products reads the head, which F then reads too
    joint = lambda: infinite._certified_norms(("T", "F"), [1.0, -0.5], 2, 2.0, 10**5)
    assert _traced_peak(joint) <= 1.1 * HEAD_BYTES


# (operator, m, p) at each q of the fused sum, for T (q = p) and F (q = p / (m - 1))
_FUSED_CASES = [("T", 3, 2.0), ("T", 3, 4.0), ("T", 4, 6.0), ("F", 3, 4.0), ("F", 3, 8.0), ("F", 4, 18.0)]


@pytest.mark.parametrize("out_len", [10**3, 10**5])
@pytest.mark.parametrize("x", [[1.0], [1.0, -0.5, 0.25]], ids=["e1", "mixed-sign"])
def test_fused_sum_is_accurate_against_long_double(x, out_len):
    # the value against (sum |s h_i|^q)^(1/p) over the same float head, summed in 64-bit-mantissa long double
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double is no wider than double here")
    errors = []
    for operator, m, p in _FUSED_CASES:
        call = t_infinity if operator == "T" else f_infinity
        head = apply_infinite(x, m, out_len).values.astype(np.longdouble)
        if operator == "T":
            head *= np.longdouble(float(np.abs(x).sum()) ** (2 - m))
        q = tail_exponent(operator, m, p)
        exact = np.sum(np.abs(head) ** q) ** (1 / np.longdouble(p))
        errors.append(float(abs(np.longdouble(call(x, m, p, out_len).value) - exact) / exact))
    assert max(errors) <= 1e-13, errors


def test_infinite_bytes_do_not_depend_on_the_blas_thread_count():
    # at this x, sums by a threaded BLAS dot differ in a last bit between 1 and 2 threads, and the rows show it
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "hilbert_tensors", "infinite", "--op", "both", "--m", "3",
                               "--p", "4", "--x=0.9,-0.1,0.4,-0.3"], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "order, p, x",
    [(4, 8.0, [2e-60, 1e-61]), (2, 1000.0, [0.0, 0.0, 1.0])],
    ids=["tiny-pair", "e3-p1000"],
)
def test_in_place_relative_pass_rebuilds_the_head_and_keeps_the_bits(monkeypatch, order, p, x):
    # the sums underflow: the first T works on a copy of the head, the second in place, then on a rebuilt head
    heads = []
    head = infinite._head
    monkeypatch.setattr(infinite, "_head", lambda *args: heads.append(args) or head(*args))
    first, second = infinite._certified_norms(("T", "T"), x, order, p, 10**5)
    assert len(heads) == 2 and first == second and first.value > 0


# -- one head of e_1 for T and F -------------------------------------------------------


@pytest.mark.parametrize("m, ps", [(2, (2.0, 3.5)), (3, (2.5, 4.0)), (4, (3.5, 6.0))])
def test_joint_search_is_the_separate_searches(capsys, m, ps):
    # at p = 2(m - 1) and off it, --op both prints the T search's rows and lines, then the F search's
    for p in ps:
        argv = f"infinite --search --m {m} --p {p} --trials 30 --support 16 --trunc 300 --seed 0 --show-vector"
        (t_code, t_out, t_err), (f_code, f_out, f_err) = (_cli(capsys, f"{argv} --op {op}") for op in ("T", "F"))
        assert t_code == f_code == 0
        assert _cli(capsys, f"{argv} --op both") == (0, t_out + f_out, t_err + f_err)


@pytest.mark.parametrize("x", [[1.0], [0.5, -0.25, 0.25], np.cos(np.arange(1, 17))])
def test_joint_norms_are_the_single_operator_norms(x):
    for m, p in ((2, 2.5), (3, 4.0), (4, 6.0)):
        assert infinite._certified_norms(("T", "F"), x, m, p, 1000) == (
            t_infinity(x, m, p, 1000),
            f_infinity(x, m, p, 1000),
        )


def test_norm_search_memory_grows_with_support_not_its_square(capsys):
    # the search lists e_1 support long, not a support x support identity (32 MB here), from the head of [1.0]
    argv = "infinite --search --m 2 --p 2 --trials 30 --support 2000 --trunc 10 --show-vector"
    _cli(capsys, argv)  # the parser and the generating vector are built outside the measurement
    tracemalloc.start()
    try:
        code, _, err = _cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "evaluations=2034\n" in err and f"T-search vector: {[1.0] + [0.0] * 1999}\n" in err
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: infinite.zeta_upper_bound(1.0), "q > 1"),
        (lambda: norm_search(2, 2.0, out_len=-1), "out_len must be >= 1"),
    ],
    ids=[
        "zeta_upper_bound",
        "norm_search-negative-out_len",
    ],
)
def test_infinite_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_zeta_upper_bound_survives_underflowing_terms():
    # at q = 1e4 every term past 1 underflows to zero; the Euler-Maclaurin loop stops there
    assert 1.0 <= infinite.zeta_upper_bound(1e4) <= 1.0 + 1e-14


# -- the theorem's evidence: no candidate a search would consider beats e_1 ---------------------


def _candidates(support, seed, trials):
    """The ``support + 4 + trials`` unit-l^1 candidates that ``evaluations`` counts, from scalar draws.

    The coordinate vectors, the decaying profiles 1/i, 1/i^2, 0.5^i and 0.2^i, then in turn per trial:
    random signs, random weights over i^(3u), and a mass move of delta <= 0.2 from e_1 (entry a scaled
    by 1 - delta, delta added to entry b along its sign).
    """
    idx = np.arange(1, support + 1, dtype=float)
    yield from np.eye(support)
    yield from (unit_l1(v) for v in (1.0 / idx, 1.0 / idx**2, 0.5**idx, 0.2**idx))
    rng = SplitMix64(seed)
    for trial in range(trials):
        if trial % 3 == 0:  # one draw of 2 support + 4 numbers serves three trials
            signs = np.array(rng.uniforms(support, -1.0, 1.0))
            weights = np.array(rng.uniforms(support)) / idx ** (3.0 * rng.uniform())
            a, b, delta = rng.randint(support), rng.randint(support), rng.uniform(0.0, 0.2)
            moved = np.eye(1, support)[0]
            moved[a] *= 1.0 - delta
            moved[b] += math.copysign(delta, moved[b] if moved[b] != 0 else 1.0)
        yield unit_l1((signs, weights, moved)[trial % 3])


def _assert_no_candidate_beats_e1(operators, m, p, out_len, support, seed, trials):
    """Every candidate's certified value is at most e_1's, with no allowance, and the search reports e_1's norms."""
    e1 = infinite._certified_norms(operators, np.eye(1, support)[0], m, p, out_len)
    for k, x in enumerate(_candidates(support, seed, trials)):
        for best, cert in zip(e1, infinite._certified_norms(operators, x, m, p, out_len)):
            assert cert.value <= best.value, (k, x.tolist(), cert.value, best.value)
    assert tuple(norm_search(m, p, out_len, operator) for operator in operators) == e1


@pytest.mark.parametrize(
    "operators, m, p, out_len, seed",
    [
        pytest.param(operators, m, p, 1000, 0, id=f"{'-'.join(operators)}-{m}-{p:g}")
        for operators in (("T",), ("F",), ("T", "F"))
        for m in (2, 3, 4)
        for p in (m - 1 + 0.2, 2.0 * (m - 1), 1000.0)  # small q, q = 2 for F, p-th powers that underflow
    ]
    + [pytest.param(("T", "F"), 4, 6.0, 100_000, -1, id="T-F-4-6-multi-block")],  # a seed that wraps mod 2^64
)
def test_no_candidate_beats_e1(operators, m, p, out_len, seed):
    _assert_no_candidate_beats_e1(operators, m, p, out_len, support=16, seed=seed, trials=60)


@pytest.mark.parametrize("operators", [("T",), ("F",), ("T", "F")], ids=["T", "F", "both"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("support", [1, 5, 16])
@pytest.mark.parametrize("seed", [0, 13])
def test_screened_search_is_the_unscreened_search(operators, m, support, seed):
    # the theorem screens out every candidate but e_1; walking them all unscreened finds none better
    _assert_no_candidate_beats_e1(operators, m, 2.0 * (m - 1), 5000, support, seed, trials=60)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("out_len", [1000, 100_000])
def test_negated_candidate_has_the_same_norms_bit_for_bit(m, out_len):
    # rounding is symmetric under negation, on the direct and the FFT route
    x = np.cos(np.arange(1, 17))
    p = 2.0 * (m - 1)
    assert infinite._certified_norms(("T", "F"), -x, m, p, out_len) == infinite._certified_norms(
        ("T", "F"), x, m, p, out_len
    )


def _full_heads(monkeypatch, capsys, order, p, seed, out_len, support=16):
    """Heads of length out_len that one default ``infinite --search --op both`` builds, and its evaluations= count."""
    lengths = []
    apply = infinite._head

    def counted(x, order, length):
        lengths.append(length)
        return apply(x, order, length)

    monkeypatch.setattr(infinite, "_head", counted)
    code, _, err = _cli(capsys, f"infinite --search --op both --m {order} --p {p} --seed {seed} --support {support} "
                                f"--trunc {out_len} --show-vector")
    assert code == 0 and err.count(f"-search vector: {[1.0] + [0.0] * (support - 1)}\n") == 2
    (evaluations,) = {line.split("evaluations=")[1] for line in err.splitlines() if "evaluations=" in line}
    return lengths.count(out_len), int(evaluations)


@pytest.mark.parametrize(
    "m, seed, p, out_len",
    [pytest.param(m, seed, 2.0 * (m - 1), infinite.DEFAULT_TRUNCATION, id=f"{seed}-{m}")
     for m in (2, 3, 4) for seed in (0, 13)]
    + [pytest.param(m, seed, m - 1 + 0.2, out_len, id=f"{seed}-{m}-small-q-{out_len}")  # q 1.07-3.2
       for m in (2, 3, 4) for seed in (0, 13) for out_len in (1000, 100_000)],
)
def test_default_search_builds_one_full_head(monkeypatch, capsys, m, seed, p, out_len):
    full, evaluations = _full_heads(monkeypatch, capsys, order=m, p=p, seed=seed, out_len=out_len)
    assert full == 1 and evaluations == 16 + 4 + 200  # e1's, for T and F at once
    full, _ = _full_heads(monkeypatch, capsys, order=m, p=p, seed=seed, support=1, out_len=out_len)
    assert full == 1  # at support 1 too


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("support", [1, 16, 2000])
@pytest.mark.parametrize("out_len", [1000, 100_000])
def test_search_certifies_one_head_of_a_length_one_e1(monkeypatch, capsys, m, support, out_len):
    # --support sets only the listed e_1 and evaluations: the head is [1.0]'s, whatever the support
    heads = []
    apply = infinite._head

    def recorded(x, order, length):
        heads.append((len(x), order, length))
        return apply(x, order, length)

    monkeypatch.setattr(infinite, "_head", recorded)
    p = 2.0 * (m - 1)
    code, out, err = _cli(capsys, f"infinite --search --op both --m {m} --p {p} --trials 30 --support {support} "
                                  f"--trunc {out_len} --show-vector")
    assert code == 0 and heads == [(1, m, out_len)]
    certs = infinite._certified_norms(("T", "F"), [1.0], m, p, out_len)
    assert [json.loads(line)["value"] for line in out.splitlines()] == [cert.value for cert in certs]
    for op, cert in zip(("T", "F"), certs):
        assert f"{op}-search: best={cert.value:.12g} tail={cert.tail_bound:.3e} " in err
        assert f"{op}-search vector: {[1.0] + [0.0] * (support - 1)}\n" in err
    assert err.count(f" evaluations={support + 4 + 30}\n") == 2
