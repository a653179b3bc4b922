import bisect
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_tensors import (
    BudgetError,
    GeneratingVector,
    HilbertTensor,
    SequenceVector,
    SplitMix64,
    apply_infinite,
    convolution_power,
    f_infinity,
    hankel_apply,
    infinite,
    reporting,
    spectral_bound_h,
    spectral_bound_z,
)
from hilbert_tensors.core import (
    _FFT_GROUP_BLOCKS,
    _FFT_PRODUCT_THRESHOLD,
    _fast_length,
    convolve,
    even_root_domain,
    generating_length,
    hankel_operator,
)


# -- entries ------------------------------------------------------------------


def test_entry_examples():
    assert HilbertTensor(2, 2).entry((1, 1)) == 1.0
    assert HilbertTensor(3, 3).entry((1, 2, 3)) == pytest.approx(0.25)
    assert HilbertTensor(2, 2).entry((2, 2)) == pytest.approx(1 / 3)


def test_entry_range_checks():
    t = HilbertTensor(3, 4)
    with pytest.raises(ValueError):
        t.entry((0, 1, 1))
    with pytest.raises(ValueError):
        t.entry((1, 1, 5))
    with pytest.raises(ValueError):
        t.entry((1, 1))


def test_entry_symmetry_and_bounds():
    t = HilbertTensor(4, 3)
    rng = SplitMix64(7)
    for _ in range(50):
        idx = tuple(1 + rng.randint(3) for _ in range(4))
        base = t.entry(idx)
        assert 0.0 < base <= 1.0
        perm = tuple(sorted(idx, reverse=bool(rng.randint(2))))
        assert t.entry(perm) == base


@pytest.mark.parametrize(
    "call",
    [
        lambda: HilbertTensor(3, None),
        lambda: HilbertTensor(2, 2.5),
        lambda: HilbertTensor(2.0, 3),
        lambda: HilbertTensor(2, 3).entry((1.5, 1)),
    ],
    ids=["dim-none", "dim-float", "order-float", "entry-float"],
)
def test_tensor_takes_integers_only(call):
    with pytest.raises(TypeError):
        call()


def test_tensor_takes_numpy_integers():
    t = HilbertTensor(np.int64(2), np.int32(3))
    assert t == HilbertTensor(2, 3) and type(t.order) is int and type(t.dim) is int
    assert t.entry((np.int64(2), np.uint8(1))) == HilbertTensor(2, 3).entry((2, 1)) == 0.5


def test_bad_constructor_args():
    with pytest.raises(ValueError):
        HilbertTensor(1, 3)
    with pytest.raises(ValueError):
        HilbertTensor(2, 0)


# -- generating vector ---------------------------------------------------------


def test_generating_vector_values():
    g = GeneratingVector.hilbert(generating_length(4, 3, 4))
    assert len(g) == 3 * 3 + 1
    for s, v in enumerate(g.values):
        assert v == 1.0 / (s + 1)
    assert np.all(np.diff(g.values) < 0)
    assert np.all(g.values > 0)


def test_generating_vector_too_short():
    g = GeneratingVector.hilbert(3)
    with pytest.raises(ValueError, match="too short"):
        hankel_apply(g, [1.0, 1.0, 1.0], 2)


def test_generating_length_is_the_head_rule():
    assert generating_length(4, 3, 4) == len(GeneratingVector.hilbert(generating_length(4, 3, 4))) == 10
    assert generating_length(16, 4, 100_000) == 100_045
    # the checks run in a fixed order: support, out_len, order
    for args, message in [
        ((0, 1, 0), "empty input vector"),
        ((1, 1, 0), "out_len must be >= 1"),
        ((1, 1, 1), "order must be >= 2, got 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            generating_length(*args)


def test_generating_vector_must_be_one_dimensional():
    with pytest.raises(ValueError, match="expected a 1-d vector"):
        GeneratingVector(np.ones((3, 4)))


# -- sequence vector ------------------------------------------------------------


def test_sequence_vector_norms_and_cache():
    x = SequenceVector([3.0, -4.0])
    assert x.norm(2) == pytest.approx(5.0)
    assert x.norm(1) == pytest.approx(7.0)
    assert SequenceVector.__slots__ == ("values",)  # no per-exponent cache on each result
    assert len(x) == 2
    assert x[1] == -4.0
    with pytest.raises(ValueError):
        x.norm(0.5)


def test_sequence_vector_array_copies_on_request():
    x = SequenceVector([3.0, -4.0])
    copied = np.array(x)
    assert not np.shares_memory(copied, x.values)
    copied[0] = 1.0  # a new array is writable, and the vector keeps its values
    assert x.values.tolist() == [3.0, -4.0]
    assert np.shares_memory(np.asarray(x), x.values)


def test_zero_vector_norms():
    theta = SequenceVector([0.0, 0.0, 0.0])
    for p in (1, 2, 3.5):
        assert theta.norm(p) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=10),
    st.floats(1.0, 6.0),
    st.floats(0.0, 5.0),
)
def test_norm_ordering(values, r, extra):
    # ||x||_p <= ||x||_r <= n^(1/r - 1/p) ||x||_p for p > r >= 1
    p = r + extra + 1e-6
    x = SequenceVector(values)
    n = len(values)
    assert x.norm(p) <= x.norm(r) + 1e-9 * (1 + x.norm(r))
    assert x.norm(r) <= n ** (1 / r - 1 / p) * x.norm(p) * (1 + 1e-12) + 1e-9


# -- dense materialization -------------------------------------------------------


def test_materialize_m2_n2():
    dense = HilbertTensor(2, 2).materialize_dense()
    np.testing.assert_allclose(dense, [[1, 0.5], [0.5, 1 / 3]])


def test_materialize_m2_n1():
    np.testing.assert_allclose(HilbertTensor(2, 1).materialize_dense(), [[1.0]])


def test_materialize_m3_n2_entries():
    dense = HilbertTensor(3, 2).materialize_dense()
    expected = sorted([1, 0.5, 0.5, 1 / 3, 0.5, 1 / 3, 1 / 3, 0.25])
    assert sorted(dense.ravel().tolist()) == pytest.approx(expected)


def test_materialize_budget():
    # 3163^2 = 10,004,569 > MAX_DENSE_ELEMENTS = 10^7: refused before allocating
    with pytest.raises(BudgetError):
        HilbertTensor(2, 3163).materialize_dense()


def test_materialize_matches_entry():
    t = HilbertTensor(3, 3)
    dense = t.materialize_dense()
    for idx in itertools.product(range(1, 4), repeat=3):
        zero_based = tuple(i - 1 for i in idx)
        assert dense[zero_based] == pytest.approx(t.entry(idx))


# -- apply paths -----------------------------------------------------------------


def test_apply_naive_examples():
    t = HilbertTensor(2, 2)
    np.testing.assert_allclose(np.asarray(t.apply_naive([1.0, 0.0])), [1.0, 0.5])
    t = HilbertTensor(3, 1)
    np.testing.assert_allclose(np.asarray(t.apply_naive([3.0])), [9.0])
    t = HilbertTensor(3, 2)
    np.testing.assert_allclose(np.asarray(t.apply_naive([1.0, 1.0])), [7 / 3, 17 / 12])


def test_apply_fast_matches_naive_frozen():
    t = HilbertTensor(3, 2)
    np.testing.assert_allclose(t.apply_fast([1.0, 1.0]).values, [7 / 3, 17 / 12], rtol=1e-14)


def test_apply_dimension_mismatch():
    t = HilbertTensor(3, 4)
    with pytest.raises(ValueError, match="mismatch"):
        t.apply_fast([1.0, 2.0])
    with pytest.raises(ValueError, match="mismatch"):
        t.apply_naive([1.0, 2.0])


def test_apply_fast_zero_is_zero():
    t = HilbertTensor(4, 5)
    np.testing.assert_array_equal(t.apply_fast(np.zeros(5)).values, np.zeros(5))


def test_apply_fast_m2_is_matrix_product():
    rng = SplitMix64(3)
    for n in (1, 3, 7, 10):
        t = HilbertTensor(2, n)
        matrix = t.materialize_dense()
        x = np.array(rng.uniforms(n, -1, 1))
        np.testing.assert_allclose(t.apply_fast(x).values, matrix @ x, atol=1e-13)


def test_fast_naive_agreement_grid():
    rng = SplitMix64(11)
    for m in (2, 3, 4, 5):
        for n in (1, 2, 4, 6):
            t = HilbertTensor(m, n)
            for _ in range(5):
                x = np.array(rng.uniforms(n, -1, 1))
                naive = np.asarray(t.apply_naive(x))
                fast = t.apply_fast(x).values
                scale = 1.0 + np.max(np.abs(naive))
                assert np.max(np.abs(fast - naive)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=6),
    st.floats(0.1, 4.0),
)
def test_apply_homogeneity(m, values, c):
    t = HilbertTensor(m, len(values))
    base = t.apply_fast(values).values
    scaled = t.apply_fast(c * np.asarray(values)).values
    np.testing.assert_allclose(scaled, c ** (m - 1) * base, rtol=1e-11, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
def test_apply_strict_positivity(m, values):
    # strictly copositive: nonnegative nonzero input gives strictly positive
    # output; entries below 1e-6 are floored away so x**(m-1) cannot underflow
    x = np.asarray(values)
    if np.max(x, initial=0.0) < 1e-6:
        x = x.copy()
        x[0] = 0.5
    t = HilbertTensor(m, len(x))
    assert np.all(t.apply_fast(x).values > 0)


# -- quadratic forms ---------------------------------------------------------------


def test_quadratic_form_examples():
    assert HilbertTensor(2, 2).quadratic_form([1.0, 0.0]) == pytest.approx(1.0)
    assert HilbertTensor(3, 2).quadratic_form([1.0, 1.0]) == pytest.approx(15 / 4)


def test_quadratic_form_integral_examples():
    assert HilbertTensor(2, 1).quadratic_form_integral([1.0]) == pytest.approx(1.0)
    assert HilbertTensor(3, 2).quadratic_form_integral([1.0, 1.0]) == pytest.approx(15 / 4)
    assert HilbertTensor(2, 2).quadratic_form_integral([1.0, -1.0]) == pytest.approx(1 / 3)


def test_quadratic_form_exact_closed_forms():
    assert HilbertTensor(3, 2).quadratic_form([1, 1], exact=True) == Fraction(15, 4)
    assert HilbertTensor(3, 2).quadratic_form_integral([1, 1], exact=True) == Fraction(15, 4)
    assert HilbertTensor(2, 2).quadratic_form_integral([1, -1], exact=True) == Fraction(1, 3)


def test_quadratic_form_vs_integral_grid():
    rng = SplitMix64(23)
    for m in (2, 3, 4):
        for n in (1, 2, 3, 5):
            t = HilbertTensor(m, n)
            for _ in range(10):
                x = np.array(rng.uniforms(n, -1, 1))
                qf = t.quadratic_form(x)
                qi = t.quadratic_form_integral(x)
                assert abs(qf - qi) <= 1e-10 * (1 + abs(qi))


def test_quadratic_form_exact_equality():
    rng = SplitMix64(29)
    for m in (2, 3, 4):
        for n in (2, 4, 6):
            t = HilbertTensor(m, n)
            x = [Fraction(rng.randint(41) - 20, 1 + rng.randint(20)) for _ in range(n)]
            assert t.quadratic_form(x, exact=True) == t.quadratic_form_integral(x, exact=True)


def test_even_order_form_positive():
    rng = SplitMix64(31)
    t = HilbertTensor(4, 4)
    for _ in range(50):
        x = np.array(rng.uniforms(4, -1, 1))
        if not x.any():
            continue
        assert t.quadratic_form(x) > 0


# -- helpers ------------------------------------------------------------------------


def test_convolution_power_fft_path_matches_direct():
    # size^2 * (k-1) above the threshold, so this exercises the rFFT branch
    rng = SplitMix64(37)
    x = np.array(rng.uniforms(1600, -1, 1))
    direct = np.convolve(np.convolve(x, x), x)
    fast = convolution_power(x, 3)
    np.testing.assert_allclose(fast, direct, atol=1e-9 * (1 + np.abs(direct).max()))


# -- the FFT route of hankel_apply, past the sizes the naive sum reaches ------------------


def _route_sizes(order, support, out_len):
    y_len = (order - 1) * (support - 1) + 1
    return y_len, out_len + y_len - 1


def _longdouble_rows(x, order, out_len, rows):
    """out[i] = sum_s v[i + s] y[s] at ``rows``, all in long double."""
    xl = np.asarray(x, dtype=np.longdouble)
    y = xl
    for _ in range(order - 2):
        y = np.convolve(y, xl)
    v = 1 / np.arange(1, out_len + y.size, dtype=np.longdouble)
    return np.array([v[i : i + y.size] @ y for i in rows])


def _fft_route_bound(x, order, out_len):
    """8 eps log2(S) ||v[:need]||_2 || |x|^{*(m-1)} ||_2, S the power of two >= need."""
    _, need = _route_sizes(order, len(x), out_len)
    size = 1 << (need - 1).bit_length()
    ay = np.abs(x)
    for _ in range(order - 2):
        ay = np.convolve(ay, np.abs(x))
    v_norm = np.linalg.norm(1.0 / np.arange(1, need + 1))
    return 8 * np.finfo(float).eps * np.log2(size) * v_norm * np.linalg.norm(ay)


def _assert_fft_route_accurate(x, order, out_len, out):
    y_len, need = _route_sizes(order, len(x), out_len)
    assert need * y_len > _FFT_PRODUCT_THRESHOLD  # the case really takes the FFT route
    sampled = np.random.default_rng(order).integers(0, out_len, 14)
    rows = np.unique(np.concatenate([[0, out_len - 1], sampled]))
    err = np.max(np.abs(out[rows].astype(np.longdouble) - _longdouble_rows(x, order, out_len, rows)))
    assert float(err) <= _fft_route_bound(x, order, out_len)


@pytest.mark.parametrize("m, n", [(2, 1500), (3, 900), (4, 600)])
@pytest.mark.parametrize("kind", ["cosine", "uniform"])
def test_fft_route_matches_long_double_sums(m, n, kind):
    # just past each order's first dimension on the FFT route (1449, 837, 592)
    if kind == "cosine":
        x = np.cos(np.arange(1, n + 1))
    else:
        x = np.array(SplitMix64(n).uniforms(n, -1, 1))
    _assert_fft_route_accurate(x, m, n, HilbertTensor(m, n).apply_fast(x).values)


def test_fft_route_long_by_short_apply_infinite():
    x = np.cos(np.arange(1, 17))
    _assert_fft_route_accurate(x, 4, 100_000, apply_infinite(x, 4, 100_000).values)


@pytest.mark.parametrize(
    "m, n, out_len",
    [
        pytest.param(m, n, n, id=f"{m}-{n}")
        for m, n in [*itertools.product((2, 3, 4), (1, 2, 30)), (2, 1448), (3, 836), (4, 591)]
    ]
    + [pytest.param(3, 16, 100_000, id="3-16-100000")],
)
def test_direct_route_is_convolve_of_convolution_power(m, n, out_len):
    # small dimensions, the last dimension before the FFT route, and one
    # long-by-short correlation: direct sums, bit for bit
    y_len, need = _route_sizes(m, n, out_len)
    assert need * y_len <= _FFT_PRODUCT_THRESHOLD
    x = np.cos(np.arange(1, n + 1))
    y = convolution_power(x, m - 1)
    gen = GeneratingVector.hilbert(need).values
    expected = convolve(gen, y[::-1])[y.size - 1 : y.size - 1 + out_len]
    out = HilbertTensor(m, n).apply_fast(x) if out_len == n else apply_infinite(x, m, out_len)
    assert np.array_equal(out.values, expected)


# -- overlap-save blocks of the FFT route and the cached generating vector -----------


def _block_step(order, support, out_len):
    """Outputs per overlap-save block: B - len(y) + 1, B = min(S, max(1024, pow2 >= 8 len(y)))."""
    y_len, need = _route_sizes(order, support, out_len)
    size = 1 << (need - 1).bit_length()
    return min(size, max(1024, 1 << (8 * y_len - 1).bit_length())) - y_len + 1


@pytest.mark.parametrize(
    "order, support, out_len, case",
    [
        pytest.param(2, 1000, 5000, "short", id="out_len-below-step"),
        pytest.param(4, 16, 979 * 103, "multiple", id="multiple-of-step"),
        pytest.param(4, 16, 979 * 103 + 1, "one-past", id="one-past-a-multiple"),
        pytest.param(2, 1, 1024 * 4100 + 1, "y_len-1", id="y_len-1"),
    ],
)
def test_fft_route_block_boundaries(order, support, out_len, case):
    step = _block_step(order, support, out_len)
    y_len, need = _route_sizes(order, support, out_len)
    assert need * y_len > _FFT_PRODUCT_THRESHOLD
    assert {
        "short": out_len < step,
        "multiple": out_len % step == 0,
        "one-past": out_len % step == 1,
        "y_len-1": y_len == 1,
    }[case]
    x = np.cos(np.arange(1, support + 1))
    out = apply_infinite(x, order, out_len).values
    last = (out_len - 1) // step * step  # first row of the last block
    edges = (0, 1, step - 1, step, step + 1, last - 1, last, out_len - 2, out_len - 1)
    rows = np.unique([r for r in edges if 0 <= r < out_len])
    err = np.max(np.abs(out[rows].astype(np.longdouble) - _longdouble_rows(x, order, out_len, rows)))
    assert float(err) <= _fft_route_bound(x, order, out_len)


def test_fft_route_same_bits_on_cache_miss_hit_and_raw_array():
    x = np.cos(np.arange(1, 17))
    values = 1.0 / np.arange(1, 100_000 + 45 + 1)
    gen = GeneratingVector(values)
    miss = hankel_apply(gen, x, 4, 100_000)
    assert len(gen._spectra) == 1
    hit = hankel_apply(gen, x, 4, 100_000)
    raw = hankel_apply(values, x, 4, 100_000)
    assert np.array_equal(miss, hit)
    assert np.array_equal(miss, raw)
    assert np.array_equal(miss, apply_infinite(x, 4, 100_000).values)
    hankel_apply(gen, x[:15], 4, 100_000)  # another shape replaces the cached spectra
    assert len(gen._spectra) == 1


def test_direct_route_same_bits_for_raw_array_and_generating_vector():
    x = np.cos(np.arange(1, 9))
    values = 1.0 / np.arange(1, 1000 + 14 + 1)
    y_len, need = _route_sizes(3, x.size, 1000)
    assert need * y_len <= _FFT_PRODUCT_THRESHOLD
    gen = GeneratingVector(values)
    out = hankel_apply(gen, x, 3, 1000)
    assert not gen._spectra  # the direct route computes no spectra
    assert np.array_equal(out, hankel_apply(values, x, 3, 1000))
    assert np.array_equal(out, apply_infinite(x, 3, 1000).values)


@pytest.mark.parametrize("order, out_len", [pytest.param(3, 1000, id="direct"), pytest.param(4, 100_000, id="fft")])
def test_generating_vector_keeps_its_own_read_only_values(order, out_len):
    x = np.cos(np.arange(1, 17))
    values = 1.0 / np.arange(1, out_len + (order - 1) * 15 + 1)
    gen = GeneratingVector(values)
    assert not gen.values.flags.writeable
    assert not np.shares_memory(gen.values, values)
    before = hankel_apply(gen, x, order, out_len)
    values *= 2.0
    assert np.array_equal(hankel_apply(gen, x, order, out_len), before)
    with pytest.raises(ValueError):
        gen.values[0] = 2.0


def test_hilbert_keeps_one_read_only_vector():
    x = np.cos(np.arange(1, 17))
    apply_infinite(x, 4, 100_000)  # FFT route, so the spectra are cached
    gen = GeneratingVector.hilbert(100_045)
    assert GeneratingVector.hilbert(100_045) is gen
    assert not gen.values.flags.writeable
    (spectra,) = gen._spectra.values()
    assert not spectra.flags.writeable
    old = weakref.ref(gen)
    del gen, spectra
    assert GeneratingVector.hilbert(generating_length(5, 3, 5)) is GeneratingVector.hilbert(13)
    assert old() is None


# -- the even-root domain ------------------------------------------------------------


def _f_infinity_value(y, monkeypatch):
    monkeypatch.setattr(infinite, "apply_infinite", lambda x, order, out_len: SequenceVector(y))
    return f_infinity([1.0], 3, 4.0, out_len=len(y)).value


@pytest.mark.parametrize("route", ["helper", "f_infinity"])
def test_even_root_clamps_noise_and_rejects_negatives(route, monkeypatch):
    noisy = np.array([4.0, -1e-15, 9.0])
    negative = np.array([4.0, 9.0, -1e-3])
    apply = {
        "helper": lambda y: np.sqrt(even_root_domain(y)),
        "f_infinity": lambda y: _f_infinity_value(y, monkeypatch),
    }[route]
    out = apply(noisy)
    if route == "f_infinity":
        assert out == pytest.approx((2.0**4 + 3.0**4) ** 0.25, rel=1e-12)
    else:
        assert out.tolist() == [2.0, 0.0, 3.0]
    with pytest.raises(ValueError, match="even root of negative component at index 3"):
        apply(negative)


# -- grouped overlap-save blocks and the even-root fast exit --------------------------

# every 2^a 3^b 5^c up to 2^21, sorted: the brute-force reference for the one-block length
_SMOOTH_LENGTHS = sorted(
    2**a * 3**b * 5**c for a in range(22) for b in range(14) for c in range(10) if 2**a * 3**b * 5**c <= 1 << 21
)


def _smallest_smooth_at_least(n):
    return _SMOOTH_LENGTHS[bisect.bisect_left(_SMOOTH_LENGTHS, n)]


def _one_shot_blocks(x, order, out_len):
    """The multi-block FFT route with every block in one product and one batched irfft."""
    y_len, need = _route_sizes(order, x.size, out_len)
    block = min(_smallest_smooth_at_least(need), max(1024, 1 << (8 * y_len - 1).bit_length()))
    step = block - y_len + 1
    n_blocks = -(-(need - block + step) // step)
    padded = np.zeros((n_blocks - 1) * step + block)
    padded[:need] = GeneratingVector.hilbert(need).values
    spectra = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(padded, block)[::step], axis=-1)
    fx = np.conj(np.fft.rfft(x, block))
    fy = spectra * fx
    for _ in range(order - 2):
        fy = fy * fx
    return n_blocks, np.fft.irfft(fy, block)[:, :step].reshape(-1)[:out_len]


@pytest.mark.parametrize("blocks", [1, _FFT_GROUP_BLOCKS - 1, _FFT_GROUP_BLOCKS, _FFT_GROUP_BLOCKS + 1, 103])
def test_grouped_fft_route_is_the_one_shot_blocks_bit_for_bit(blocks):
    if blocks == 1:  # B = S: one block over all of v[:need]
        order, x, out_len = 2, np.cos(np.arange(1, 1501)), 1500
    else:  # len(y) = 301, B = 4096, step = 3796
        order, x = 3, np.cos(np.arange(1, 152))
        out_len = blocks * 3796 - 7
    y_len, need = _route_sizes(order, x.size, out_len)
    assert need * y_len > _FFT_PRODUCT_THRESHOLD
    n_blocks, expected = _one_shot_blocks(x, order, out_len)
    assert n_blocks == blocks
    out = hankel_apply(GeneratingVector.hilbert(need), x, order, out_len)
    assert np.array_equal(out, expected)


# -- the one-block length: the smallest 2^a 3^b 5^c >= need ---------------------------

_SCALE_NEEDS = [199_999, 299_999, 399_997]  # m = 2, 3, 4 at n = 10^5


def test_fast_length_is_the_smallest_5_smooth_length():
    for n in [*range(1, 5001), *_SCALE_NEEDS]:
        assert _fast_length(n) == _smallest_smooth_at_least(n), n
    assert [_fast_length(n) for n in _SCALE_NEEDS] == [200_000, 300_000, 400_000]


def test_fast_length_is_scipys_next_fast_len():
    fft = pytest.importorskip("scipy.fft")
    for n in [*range(1, 5001), *range(5001, 200_000, 97), *_SCALE_NEEDS]:
        assert _fast_length(n) == fft.next_fast_len(n, real=True), n


def _cached_spectra_key(gen):
    (key,) = gen._spectra
    return key


@pytest.mark.parametrize("m, n", [(2, 1500), (3, 900), (4, 600), (2, 10_000)])
def test_one_block_route_transforms_at_the_fast_length(m, n):
    tensor = HilbertTensor(m, n)
    tensor.apply_fast(np.cos(np.arange(1, n + 1)))
    y_len, need = _route_sizes(m, n, n)
    block = _fast_length(need)
    assert _cached_spectra_key(GeneratingVector.hilbert(generating_length(n, m, n))) == (need, block, block - y_len + 1)
    assert block < 1 << (need - 1).bit_length()


@pytest.mark.parametrize("m, n", [(2, 50), (3, 50), (4, 50), (2, 1500), (3, 900), (4, 600)])
def test_apply_fast_is_the_head_of_apply_infinite(m, n):
    # H_n is the leading block of H_inf: the direct route (n = 50) and the one-block FFT route
    x = np.cos(np.arange(1, n + 1))
    gen = GeneratingVector.hilbert(generating_length(n, m, n))
    fast = HilbertTensor(m, n).apply_fast(x).values
    assert GeneratingVector.hilbert(generating_length(n, m, n)) is gen
    head = apply_infinite(x, m, n).values
    assert GeneratingVector.hilbert(generating_length(n, m, n)) is gen
    assert np.array_equal(fast, head)


def test_multi_block_route_keeps_power_of_two_blocks():
    x = np.cos(np.arange(1, 17))
    apply_infinite(x, 4, 100_000)
    y_len, need = _route_sizes(4, x.size, 100_000)
    assert _cached_spectra_key(GeneratingVector.hilbert(need)) == (need, 1024, 1024 - y_len + 1)


@pytest.mark.parametrize("m, n, block", [(2, 1550, 5**5), (3, 1000, 2**3 * 3 * 5**3), (4, 675, 2**2 * 3**3 * 5**2)])
def test_one_block_route_accurate_at_a_5_smooth_length(m, n, block):
    # m = 2: irfft at an odd length; m = 3, 4: lengths with radix-3 and radix-5 passes
    x = np.cos(np.arange(1, n + 1))
    out = HilbertTensor(m, n).apply_fast(x).values
    y_len, need = _route_sizes(m, n, n)
    assert need * y_len > _FFT_PRODUCT_THRESHOLD
    assert _cached_spectra_key(GeneratingVector.hilbert(need))[1] == block
    ay = np.abs(x)
    for _ in range(m - 2):
        ay = np.convolve(ay, np.abs(x))
    v_norm = np.linalg.norm(1.0 / np.arange(1, need + 1))
    bound = 8 * np.finfo(float).eps * np.log2(block) * v_norm * np.linalg.norm(ay)
    err = np.max(np.abs(out.astype(np.longdouble) - _longdouble_rows(x, m, n, range(n))))
    assert float(err) <= bound


@pytest.mark.parametrize("y", [[], [0.0, 2.0, 3.0], [-0.0, 1e-300, np.inf]])
def test_even_root_domain_returns_its_input_when_nothing_is_negative(y):
    y = np.array(y)
    assert even_root_domain(y) is y


def test_even_root_domain_nan_takes_the_checks():
    y = np.array([1.0, np.nan])
    out = even_root_domain(y)
    assert out is not y
    assert out[0] == 1.0 and np.isnan(out[1])


def test_even_root_domain_takes_its_noise_scale_from_the_non_nan_entries():
    # a NaN entry neither blocks the clamp of float noise nor is named as the negative one
    out = even_root_domain(np.array([1.0, np.nan, -1e-15]))
    assert out[0] == 1.0 and np.isnan(out[1]) and out[2] == 0.0
    with pytest.raises(ValueError, match="negative component at index 4"):
        even_root_domain(np.array([1.0, np.nan, -1e-3, -2e-3]))
    assert np.isnan(even_root_domain(np.array([np.nan, -1e-15]))).tolist() == [True, False]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: GeneratingVector.hilbert(0), "length >= 1"),
        (lambda: convolution_power([1.0, 2.0], 0), "k >= 1"),
        (lambda: spectral_bound_h(3, 1), "n = 1"),
        (lambda: spectral_bound_z(3, 1), "n = 1"),
        (lambda: reporting.render([], "xml"), "unknown format"),
        (lambda: SplitMix64().randint(0), "n >= 1"),
    ],
    ids=["hilbert", "convolution_power", "spectral_bound_h", "spectral_bound_z", "render", "randint"],
)
def test_core_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("bound", [spectral_bound_h, spectral_bound_z])
@pytest.mark.parametrize("order", [1, 0])
def test_spectral_bounds_refuse_order_below_two(bound, order):
    # the message HilbertTensor and generating_length give for the same order
    with pytest.raises(ValueError, match=f"order must be >= 2, got {order}"):
        bound(order, 5)


def test_empty_sequence_vector_has_norm_zero():
    assert SequenceVector([]).norm(2) == 0.0


# -- plan, then apply: hankel_operator ------------------------------------------------


def _route(gen):
    """The route a plan took, read off the spectra it left on its fresh generating vector."""
    if not gen._spectra:
        return "direct"
    (spectra,) = gen._spectra.values()
    return "one-block" if spectra.shape[0] == 1 else "multi-block"


@pytest.mark.parametrize(
    "order, n, out_len, route",
    [
        pytest.param(3, 30, None, "direct", id="direct"),
        # each order's last dimension on the direct route and its first on the one-block FFT route
        pytest.param(2, 1448, None, "direct", id="2-1448"),
        pytest.param(2, 1449, None, "one-block", id="2-1449"),
        pytest.param(3, 836, None, "direct", id="3-836"),
        pytest.param(3, 837, None, "one-block", id="3-837"),
        pytest.param(4, 591, None, "direct", id="4-591"),
        pytest.param(4, 592, None, "one-block", id="4-592"),
        pytest.param(4, 16, 100_000, "multi-block", id="multi-block"),
    ],
)
def test_hankel_operator_is_hankel_apply_bit_for_bit(order, n, out_len, route):
    need = generating_length(n, order, out_len or n)
    gen = GeneratingVector(1.0 / np.arange(1, need + 1))  # fresh, so the route is read off its spectra
    apply = hankel_operator(gen, order, n, out_len)
    assert _route(gen) == route
    xs = [np.cos(np.arange(1, n + 1)), np.array(SplitMix64(n).uniforms(n, -1, 1)), np.zeros(n)]
    # each x twice and in turn: no call leaves anything behind for the next
    for x in xs + xs:
        out = apply(x)
        assert np.array_equal(out, hankel_apply(gen, x, order, out_len))
        fast = HilbertTensor(order, n).apply_fast(x) if out_len is None else apply_infinite(x, order, out_len)
        assert np.array_equal(out, fast.values)
    assert not np.any(apply(np.zeros(n)))


@pytest.mark.parametrize(
    "n, out_len", [pytest.param(30, None, id="direct"), pytest.param(1500, None, id="one-block"),
                   pytest.param(16, 100_000, id="multi-block")]
)
def test_hankel_operator_refuses_a_vector_of_another_length(n, out_len):
    apply = hankel_operator(GeneratingVector.hilbert(generating_length(n, 3, out_len or n)), 3, n, out_len)
    for bad in (np.ones(n - 1), np.ones(n + 1), np.ones((1, n))):
        with pytest.raises(ValueError):
            apply(bad)


@pytest.mark.parametrize(
    "plan, match",
    [
        (lambda: hankel_operator(GeneratingVector.hilbert(4), 2, 3), "too short: need 5, have 4"),
        (lambda: hankel_operator([1.0, 0.5], 2, 0), "empty input vector"),
        (lambda: hankel_operator([1.0, 0.5], 1, 2), "order must be >= 2"),
        (lambda: hankel_operator([1.0, 0.5], 2, 1, 0), "out_len must be >= 1"),
    ],
    ids=["short", "empty", "order", "out_len"],
)
def test_hankel_operator_checks_when_it_plans(plan, match):
    # the plan refuses before any x is seen, with hankel_apply's messages
    with pytest.raises(ValueError, match=match):
        plan()
