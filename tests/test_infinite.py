import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hilbert_tensors import (
    PI_OVER_SQRT6,
    GeneratingVector,
    HilbertTensor,
    SplitMix64,
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
from hilbert_tensors.core import SequenceVector
from hilbert_tensors.infinite import CertifiedNorm, tail_exponent, zeta_upper_bound


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
        lambda: norm_search(1, 2.0, trials=0, support=2, out_len=10),
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

    monkeypatch.setattr(infinite, "apply_infinite", no_head)
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
        (lambda: norm_search(3, 2.0, trials=1, operator="F"), "operator F needs p > m-1 = 2, got p = 2"),
        (lambda: norm_search(2, 2.0, trials=1, operator="Q"), "operator must be 'T' or 'F', got 'Q'"),
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
        lambda p: norm_search(2, p, trials=1, support=2, out_len=10),
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


def test_norm_search_support_one_is_e1():
    rep = norm_search(2, 2.0, trials=10, support=1, out_len=2000, seed=5)
    assert rep.best_vector == [1.0]


def test_norm_search_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        norm_search(2, 2.0, trials=-3, support=2, out_len=10)


def test_norm_search_coordinate_decay():
    # ||T e_k||_2 decreases in k, so e_1 beats the other coordinates
    vals = [t_infinity(np.eye(5)[k], 2, 2.0, out_len=2000).value for k in range(5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_norm_search_finds_e1():
    rep = norm_search(2, 2.0, trials=60, support=8, out_len=1_000_000, seed=6)
    assert rep.best_value >= PI_OVER_SQRT6 - 1e-6
    assert rep.best_value <= PI_OVER_SQRT6 + 1e-9
    assert np.argmax(np.abs(rep.best_vector)) == 0


def test_norm_search_deterministic():
    a = norm_search(3, 2.0, trials=40, support=6, out_len=1000, seed=9)
    b = norm_search(3, 2.0, trials=40, support=6, out_len=1000, seed=9)
    assert a == b


def test_norm_search_never_exceeds_bound():
    for op in ("T", "F"):
        p = 2.0 if op == "T" else 4.0
        rep = norm_search(3, p, trials=80, support=6, out_len=5000, seed=10, operator=op)
        assert rep.best_value <= PI_OVER_SQRT6 + 1e-9


def test_norm_search_gap_is_to_its_own_constant(capsys):
    # F at m = 3, p = 4: the constant is (pi^2/6)^(1/4), not pi/sqrt(6)
    argv = "infinite --search --op F --m 3 --p 4 --trials 6 --support 4 --trunc 1000 --seed 3"
    assert cli.run(argv.split()) == 0
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("F-search: ")]
    rep = norm_search(3, 4.0, trials=6, support=4, out_len=1000, seed=3, operator="F")
    gap = operator_norm_constant("F", 3, 4.0) - rep.best_value
    assert f" gap to constant={gap:.3e} " in line
    assert 0 < gap < PI_OVER_SQRT6 - rep.best_value


# -- one work array per head ------------------------------------------------------------


def _head_norm(operator, x, order, p, out_len):
    """(sum |h|^q)^(1/p) from apply_infinite, with the T scale and the F clamp at odd m."""
    head = apply_infinite(x, order, out_len).values
    q = tail_exponent(operator, order, p)
    if operator == "T":
        head = head * float(np.abs(x).sum()) ** (2 - order)
    elif order % 2 == 1:
        head = np.where(head < 0, 0.0, head)
    return float(np.sum(np.abs(head) ** q) ** (1.0 / p))


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


def _traced_peak(call):
    call()  # warm: the generating vector and its block spectra are cached
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
    # the output array plus one more (SequenceVector's copy, or the |h|^q work array)
    x = np.cos(np.arange(1, 17))
    head_bytes = apply_infinite(x, 4, 100_000).values.nbytes
    assert _traced_peak(lambda: call(x)) <= 2.5 * head_bytes


def test_joint_evaluation_holds_two_head_sized_arrays_at_most():
    # T's work array is freed before F's is made: the head plus one work array
    x = np.cos(np.arange(1, 17))
    head_bytes = apply_infinite(x, 4, 100_000).values.nbytes
    joint = lambda: infinite._certified_norms(("T", "F"), x, 4, 6.0, 10**5)
    assert _traced_peak(joint) <= 2.5 * head_bytes


# -- one candidate stream for T and F ---------------------------------------------------


@pytest.mark.parametrize("m, ps", [(2, (2.0, 3.5)), (3, (2.5, 4.0)), (4, (3.5, 6.0))])
@pytest.mark.parametrize("support", [1, 5, 16])
@pytest.mark.parametrize("seed", [0, 13])
def test_joint_search_is_the_separate_searches(m, ps, support, seed):
    for p in ps:
        joint = infinite.norm_searches(("T", "F"), m, p, trials=30, support=support, out_len=300, seed=seed)
        separate = tuple(
            norm_search(m, p, trials=30, support=support, out_len=300, seed=seed, operator=op) for op in ("T", "F")
        )
        assert joint == separate


@pytest.mark.parametrize("x", [[1.0], [0.5, -0.25, 0.25], np.cos(np.arange(1, 17))])
def test_joint_norms_are_the_single_operator_norms(x):
    for m, p in ((2, 2.5), (3, 4.0), (4, 6.0)):
        assert infinite._certified_norms(("T", "F"), x, m, p, 1000) == (
            t_infinity(x, m, p, 1000),
            f_infinity(x, m, p, 1000),
        )


def test_joint_search_perturbs_each_incumbent(monkeypatch):
    # with this head T (q = 6) keeps e1 while F (q = 2) moves to e2, so every
    # perturbation is a different candidate for each and gets its own head
    heads = []

    def spread_head(x, order, out_len):
        heads.append(x)
        x = np.asarray(x, dtype=float)
        head = np.zeros(out_len)
        head[0] = x[0]
        head[1 : 1 + 10 * (x.size - 1)] = np.repeat(0.6 * x[1:], 10)
        return SequenceVector(head)

    monkeypatch.setattr(infinite, "apply_infinite", spread_head)
    joint = infinite.norm_searches(("T", "F"), 4, 6.0, trials=30, support=4, out_len=100, seed=3)
    joint_heads = len(heads)
    separate = tuple(
        norm_search(4, 6.0, trials=30, support=4, out_len=100, seed=3, operator=op) for op in ("T", "F")
    )
    assert joint == separate
    assert joint[0].best_vector == [1.0, 0.0, 0.0, 0.0]
    assert joint[1].best_vector == [0.0, 1.0, 0.0, 0.0]
    assert joint_heads == joint[0].evaluations + 30 // 3  # shared candidates once, perturbations twice
    assert len(heads) - joint_heads == 2 * joint[0].evaluations


def test_norm_search_memory_grows_with_support_not_its_square(monkeypatch):
    # with the heads stubbed out, what is left is the search's own arrays:
    # a list of all support + 4 structured candidates would hold support**2 doubles (32 MB here)
    def first_coordinate(operators, x, order, p, out_len):
        return tuple(infinite.CertifiedNorm(float(abs(x[0])), 0.0, p, out_len) for _ in operators)

    monkeypatch.setattr(infinite, "_certified_norms", first_coordinate)
    tracemalloc.start()
    try:
        (report,) = infinite.norm_searches(("T",), 2, 2.0, trials=30, support=2000, out_len=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.best_vector[0] == 1.0 and report.evaluations == 2000 + 4 + 30
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: infinite.zeta_tail_bound(1.0, 10), "q > 1"),
        (lambda: infinite.zeta_tail_bound(2.0, -1), "n >= 1, got -1"),
        (lambda: infinite.zeta_tail_bound(2.5, -1), "n >= 1, got -1"),
        (lambda: infinite.zeta_tail_bound(2.0, 0), "n >= 1, got 0"),
        (lambda: infinite.zeta_upper_bound(1.0), "q > 1"),
        (lambda: infinite.norm_searches(("T",), 2, 2.0, support=0), "support"),
    ],
    ids=[
        "zeta_tail_bound",
        "zeta_tail_bound-negative-n",
        "zeta_tail_bound-negative-n-fractional-q",
        "zeta_tail_bound-zero-n",
        "zeta_upper_bound",
        "norm_searches",
    ],
)
def test_infinite_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_zeta_upper_bound_survives_underflowing_terms():
    # at q = 1e4 every term past 1 underflows to zero; the Euler-Maclaurin loop stops there
    assert 1.0 <= infinite.zeta_upper_bound(1e4) <= 1.0 + 1e-14


# -- screening candidates on a short head ------------------------------------------------


def test_screen_lets_through_a_winner_whose_short_value_loses(monkeypatch):
    # e2's head has its mass beyond the screen's truncation: its short value (0) is below
    # e1's, its short upper end (the tail bound) above it, and its full value wins
    short = infinite._SCREEN_TRUNCATION
    out_len = 2 * short

    def far_head(x, order, out_len):
        head = np.zeros(out_len)
        head[0] = 0.01 * x[0]
        head[short : short + 10] = 0.01 * x[1]
        return SequenceVector(head)

    monkeypatch.setattr(infinite, "apply_infinite", far_head)
    (incumbent,) = infinite._certified_norms(("T",), [1.0, 0.0], 2, 2.0, out_len)
    (e2_short,) = infinite._certified_norms(("T",), [0.0, 1.0], 2, 2.0, short)
    assert e2_short.value < incumbent.value < e2_short.upper
    screened = norm_search(2, 2.0, trials=0, support=2, out_len=out_len)
    assert screened.best_vector == [0.0, 1.0]
    monkeypatch.setattr(infinite, "_SCREEN_TRUNCATION", out_len)
    assert screened == norm_search(2, 2.0, trials=0, support=2, out_len=out_len)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("out_len", [1000, 100_000])
def test_negated_candidate_has_the_same_norms_bit_for_bit(m, out_len):
    # the premise of skipping a candidate equal to the incumbent's negative:
    # rounding is symmetric under negation, on the direct and the FFT route
    x = np.cos(np.arange(1, 17))
    p = 2.0 * (m - 1)
    assert infinite._certified_norms(("T", "F"), -x, m, p, out_len) == infinite._certified_norms(
        ("T", "F"), x, m, p, out_len
    )


@pytest.mark.parametrize("operators", [("T",), ("F",), ("T", "F")], ids=["T", "F", "both"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("support", [1, 5, 16])
@pytest.mark.parametrize("seed", [0, 13])
def test_screened_search_is_the_unscreened_search(monkeypatch, operators, m, support, seed):
    p = 2.0 * (m - 1)
    screened = infinite.norm_searches(operators, m, p, support=support, out_len=5000, seed=seed)
    monkeypatch.setattr(infinite, "_SCREEN_TRUNCATION", 5000)
    assert screened == infinite.norm_searches(operators, m, p, support=support, out_len=5000, seed=seed)


def _full_heads(monkeypatch, **search):
    """Heads of length out_len that one T+F norm_searches call builds."""
    out_len = search["out_len"]
    lengths = []
    apply = infinite.apply_infinite

    def counted(x, order, length):
        lengths.append(length)
        return apply(x, order, length)

    monkeypatch.setattr(infinite, "apply_infinite", counted)
    reports = infinite.norm_searches(("T", "F"), **search)
    assert all(report.best_vector[0] == 1.0 for report in reports)
    return lengths.count(out_len), reports[0].evaluations


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 13])
def test_default_search_builds_at_most_two_full_heads(monkeypatch, m, seed):
    full, evaluations = _full_heads(monkeypatch, order=m, p=2.0 * (m - 1), seed=seed,
                                    out_len=infinite.DEFAULT_TRUNCATION)
    assert evaluations == 16 + 4 + 200 and full <= 2
    full, _ = _full_heads(monkeypatch, order=m, p=2.0 * (m - 1), seed=seed, support=1,
                          out_len=infinite.DEFAULT_TRUNCATION)
    assert full == 1  # e1 once: every later candidate is e1 or -e1


def test_no_screen_at_the_screen_truncation(monkeypatch):
    # every candidate considered gets its full head, and no short one
    out_len = infinite._SCREEN_TRUNCATION
    full, evaluations = _full_heads(monkeypatch, order=3, p=4.0, trials=30, support=1, out_len=out_len)
    assert full == evaluations
