import functools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hilbert_tensors import (
    GeneratingVector,
    HilbertTensor,
    SequenceVector,
    analysis,
    bound_sweep,
    check_positive_definite,
    embedding_check,
    h_spectral_radius,
    hilbert_inequality_ratio,
    monotonicity_sweep,
    reporting,
    spectral_bound_h,
    z_spectral_radius,
)
from hilbert_tensors.eigensolvers import equation_residual

from oracle import dense_matrix_eigenpair
from splitmix import SplitMix64


# -- positive definiteness ------------------------------------------------------

# lambda_min of the Hilbert matrix H_n, from mpmath at 80 digits
@functools.cache
def hilbert_lambda_min(n):
    with mpmath.workdps(80):
        return min(mpmath.eigsy(mpmath.hilbert(n), eigvals_only=True))


def seeded_vectors(rng, n, count):
    for _ in range(count):
        yield np.array(rng.uniforms(n, -1.0, 1.0))


def exact_sq_norm(x):
    return sum(Fraction(v) ** 2 for v in x)


def assert_form_above(t, x, lower):
    """H_n x^m >= lower * ||x||_2^m, in floats, and values under 1e-9 in exact arithmetic."""
    m = t.order
    value = t.quadratic_form_integral(x) / float(np.dot(x, x)) ** (m // 2)
    if value <= 1e-9:
        assert t.quadratic_form_integral(x, exact=True) >= Fraction(lower) * exact_sq_norm(x) ** (m // 2)
    else:
        assert value >= lower


def test_pd_rejects_odd_order():
    with pytest.raises(ValueError, match="even"):
        check_positive_definite(HilbertTensor(3, 3))


def test_pd_small_sample():
    # H_2^{-1} = [[4, -6], [-6, 12]]: the lower end is 1/18 at m = 2, rounded down, and no draw goes below it
    rep = check_positive_definite(HilbertTensor(2, 2))
    assert rep.n == 2
    assert Fraction(rep.min_form_lower) <= Fraction(1, 18) and rep.min_form_lower == pytest.approx(1 / 18, rel=1e-15)
    for x in seeded_vectors(SplitMix64(1), 2, 200):
        assert_form_above(HilbertTensor(2, 2), x, rep.min_form_lower)


def test_pd_alternating_vector_value():
    # the alternating vector x_i = (-1)^i / i stays above the lower end, exactly
    for m in (2, 4):
        for n in range(2, 9):
            x = [Fraction((-1) ** i, i) for i in range(1, n + 1)]
            lower = Fraction(check_positive_definite(HilbertTensor(m, n)).min_form_lower)
            assert HilbertTensor(m, n).quadratic_form_integral(x, exact=True) >= lower * exact_sq_norm(x) ** (m // 2)


def test_pd_leading_coordinate():
    for m in (2, 4):
        t = HilbertTensor(m, 3)
        e1 = [1.0, 0.0, 0.0]
        assert t.quadratic_form_integral(e1) == pytest.approx(1.0)
        assert t.quadratic_form_integral(e1, exact=True) == Fraction(1)


def test_pd_m4_n3_thousand_trials():
    # ||H_3^{-1}||_inf = 408, so the lower end is 1/408^2; a thousand draws stay above it
    t = HilbertTensor(4, 3)
    lower = check_positive_definite(t).min_form_lower
    assert lower == pytest.approx(1 / 408**2, rel=1e-15) and lower > 0
    for x in seeded_vectors(SplitMix64(2), 3, 1000):
        assert_form_above(t, x, lower)


@pytest.mark.parametrize("m", [2, 4])
def test_pd_seeded_draws_never_go_below_the_lower_end(m):
    rng = SplitMix64(40 + m)
    for n in range(2, 9):
        t = HilbertTensor(m, n)
        lower = check_positive_definite(t).min_form_lower
        for x in seeded_vectors(rng, n, 200):
            assert_form_above(t, x, lower)


@pytest.mark.parametrize("m", [2, 4])
def test_pd_lower_end_is_within_a_factor_1_5_of_lambda_min(m):
    # lambda_min^{m/2} / 1.5^{m/2} <= lower end <= lambda_min^{m/2}; Choi's bound is 1.18 to 1.41 times below
    for n in range(2, 33):
        exact = hilbert_lambda_min(n) ** (m // 2)
        lower = mpmath.mpf(check_positive_definite(HilbertTensor(m, n)).min_form_lower)
        assert exact / mpmath.mpf(1.5) ** (m // 2) <= lower <= exact, f"n={n}"


@pytest.mark.parametrize("n", [2, 5, 12])
def test_inverse_hilbert_norm_is_the_row_sum_of_the_inverse(n):
    with mpmath.workdps(60):
        inverse = mpmath.inverse(mpmath.hilbert(n))
        entries = [[int(mpmath.nint(inverse[i, j])) for j in range(n)] for i in range(n)]
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    assert all(sum(hilbert[i][k] * entries[k][j] for k in range(n)) == (i == j) for i in range(n) for j in range(n))
    assert analysis._inverse_hilbert_norm(n) == max(sum(map(abs, row)) for row in entries)


@pytest.mark.parametrize("m, n", [(2, 214), (4, 108)])
def test_pd_lower_end_below_the_float_range_reads_zero(m, n):
    # the recorded decision: 1/S^{m/2} rounds down to 0.0, never up to the smallest subnormal
    assert check_positive_definite(HilbertTensor(m, n - 1)).min_form_lower > 0
    assert check_positive_definite(HilbertTensor(m, n)).min_form_lower == 0.0


# -- Hilbert inequality ----------------------------------------------------------


def inequality_ratio(n):
    return hilbert_inequality_ratio(h_spectral_radius(HilbertTensor(2, n)))


def sampled_ratio(n, count, seed):
    """The largest sum |x_i||x_j|/(i+j-1) / (n sin(pi/n) ||x||_2^2) over seeded draws in [-1, 1]^n."""
    t = HilbertTensor(2, n)
    ratios = [float(np.abs(x) @ t.apply_fast(np.abs(x)).values) / float(x @ x)
              for x in seeded_vectors(SplitMix64(seed), n, count)]
    return max(ratios) / spectral_bound_h(2, n)


def test_inequality_rejects_small_n():
    with pytest.raises(ValueError):
        hilbert_inequality_ratio(h_spectral_radius(HilbertTensor(2, 1)))


def test_inequality_n2_frozen_vector():
    # for x = (1,1): LHS = 7/3 and the bound is n sin(pi/n) ||x||^2 = 4
    t = HilbertTensor(2, 2)
    ones = np.ones(2)
    lhs = float(ones @ t.apply_fast(ones).values)
    assert lhs == pytest.approx(7 / 3, rel=1e-12)
    assert lhs <= 2 * math.sin(math.pi / 2) * 2.0


def test_inequality_small_n_records_only():
    # at n = 2 the maximum is lambda_max(H_2) / 2 = (4 + sqrt(13)) / 12
    ratio = inequality_ratio(2)
    assert spectral_bound_h(2, 2) == pytest.approx(2.0)
    assert (4 + math.sqrt(13)) / 12 <= ratio <= (4 + math.sqrt(13)) / 12 * (1 + 1e-9)


def test_inequality_n8_sample():
    ratio = inequality_ratio(8)
    assert 0 < sampled_ratio(8, 1000, 4) <= ratio < 1.0


@pytest.mark.parametrize("n", [2, 16, 64])
def test_inequality_seeded_draws_never_beat_the_row(n):
    assert sampled_ratio(n, 300, n) <= inequality_ratio(n)


def test_inequality_ratio_brackets_the_eigvalsh_ratio():
    # never below the exact maximum lambda_max(H_n) / (n sin(pi/n)), and within 1e-9 of it
    for n in range(2, 65):
        top = np.linalg.eigvalsh(HilbertTensor(2, n).materialize_dense())[-1] / spectral_bound_h(2, n)
        ratio = inequality_ratio(n)
        assert top <= ratio <= top * (1 + 1e-9), f"n={n}"


@pytest.mark.parametrize("n", [2, 4, 8])
def test_inequality_violation_is_reported_not_raised(monkeypatch, n):
    # a tripled Hilbert matrix, where the certificate reads it, breaks the inequality at every n
    orig = HilbertTensor.apply_naive
    monkeypatch.setattr(HilbertTensor, "apply_naive",
                        lambda self, x, exact=False: [3 * v for v in orig(self, x, exact)])
    assert inequality_ratio(n) > 1.0


# -- bound sweep ------------------------------------------------------------------


def bound_rows(m, reports):
    """The (H row, Z row) pair that ``reporting.sweep_rows`` makes of each bound report."""
    sweep = analysis.DimensionSweep(m=m, bounds=reports, monotonicity=None, embeddings=[])
    rows = reporting.sweep_rows(sweep)
    return list(zip(rows[::2], rows[1::2]))


def gap_flags(m, mono):
    """Whether every H-gap row, and every Z-gap row, of a monotonicity report holds."""
    rows = reporting.sweep_rows(analysis.DimensionSweep(m=m, bounds=[], monotonicity=mono, embeddings=[]))
    return reporting.all_hold(rows, "H-gap"), reporting.all_hold(rows, "Z-gap")


def test_bound_sweep_rejects_n1():
    with pytest.raises(ValueError):
        bound_sweep(2, [1, 2])


def test_bound_sweep_m2_values():
    reports = bound_sweep(2, [2, 3, 4])
    for rep, (h_row, z_row) in zip(reports, bound_rows(2, reports), strict=True):
        expected, _ = dense_matrix_eigenpair(rep.n)
        assert rep.certified
        assert rep.rho_h == pytest.approx(expected, abs=1e-8)
        assert rep.rho_z == pytest.approx(expected, abs=1e-8)
        assert h_row["bound"] == pytest.approx(rep.n * math.sin(math.pi / rep.n))
        assert h_row["slack"] >= 0
        assert z_row["slack"] >= 0


def test_bound_sweep_m3_bound_value():
    rep = bound_sweep(3, [2])[0]
    [(h_row, z_row)] = bound_rows(3, [rep])
    assert h_row["bound"] == pytest.approx(4.0)  # 2^2 sin(pi/2)
    assert z_row["bound"] == pytest.approx(2 ** 1.5)
    assert rep.rho_h <= 4.0


def test_bound_sweep_single_dim():
    assert len(bound_sweep(2, [2])) == 1


def test_bound_sweep_sine_bound_too_large_for_a_float_is_inf():
    # 5^499 overflows a float; the H bound is inf instead of an OverflowError
    [rep] = bound_sweep(500, [5], max_iter=50)
    [(h_row, z_row)] = bound_rows(500, [rep])
    assert h_row["bound"] == math.inf
    assert z_row["bound"] == 5 ** 250.0 * math.sin(math.pi / 5)  # still finite, same bits
    assert not rep.certified


# -- monotonicity -----------------------------------------------------------------


def test_monotonicity_rejects_non_ascending():
    with pytest.raises(ValueError):
        monotonicity_sweep(2, [2, 2])
    with pytest.raises(ValueError):
        monotonicity_sweep(2, [3, 2])


def test_monotonicity_m2_dims_1_2_3():
    rep = monotonicity_sweep(2, [1, 2, 3])
    assert gap_flags(2, rep) == (True, True) and rep.certified
    assert rep.rho_h_seq[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.rho_h_seq[1] == pytest.approx((4 + math.sqrt(13)) / 6, abs=1e-8)
    assert rep.rho_h_seq[2] == pytest.approx(1.4083189271236538, abs=1e-8)


def test_monotonicity_m3_rho_f_is_root():
    rep = monotonicity_sweep(3, [2, 3])
    lam = h_spectral_radius(HilbertTensor(3, 2)).value
    assert rep.rho_h_seq[0] == pytest.approx(math.sqrt(lam), rel=1e-10)



@pytest.mark.parametrize("gap, holds", [(1e-10, True), (math.nextafter(1e-10, 0.0), False)])
def test_strict_h_agrees_with_its_gap_row_at_the_tolerance(gap, holds):
    # a gap of exactly tol is an H-gap row with slack 0, which holds; one ulp less is violated
    records = [analysis.BoundReport(n, rho, 0.0, True, 1, 1) for n, rho in ((1, 0.0), (2, gap))]
    mono = analysis.monotonicity_report(2, records, 1e-10)
    sweep = analysis.DimensionSweep(m=2, bounds=[], monotonicity=mono, embeddings=[])
    (row,) = [row for row in reporting.sweep_rows(sweep) if row["kind"] == "H-gap"]
    assert (row["slack"] == 0.0) is holds
    assert gap_flags(2, mono) == (holds, True)
    assert holds is not reporting.violated(row)

# -- embedding --------------------------------------------------------------------


def test_embedding_restricted_residual_small():
    for m, n, k in ((2, 2, 4), (3, 2, 3), (4, 3, 5)):
        rep = embedding_check(m, n, k)
        assert rep.converged
        assert rep.restricted_residual <= 1e-8


def test_embedding_full_residual_positive_frozen():
    # m=2: pad x=(1) of H_1 into H_2; component 2 of H_2 (1,0) is 1/2 vs 0
    rep = embedding_check(2, 1, 2)
    assert rep.restricted_residual <= 1e-12
    h = h_spectral_radius(HilbertTensor(2, 1))
    padded = np.array([h.vector.values[0], 0.0])
    full = equation_residual("H", 2, padded, HilbertTensor(2, 2).apply_fast(padded).values, h.value)
    assert full == pytest.approx(0.5, rel=1e-12)


def test_embedding_rejects_bad_dims():
    with pytest.raises(ValueError):
        embedding_check(2, 3, 3)


@pytest.mark.parametrize("dims, match", [([3, 2], "ascending"), ([0, 1], "positive")])
def test_dimension_sweep_refuses_bad_dims_on_its_own(dims, match):
    with pytest.raises(ValueError, match=match):
        analysis.dimension_sweep(2, dims)


# -- the streaming dimension sweep ---------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dimension_sweep_reports_equal_the_single_sweeps(m):
    sweep = analysis.dimension_sweep(m, range(1, 9))
    assert sweep.bounds == bound_sweep(m, range(2, 9))
    assert sweep.monotonicity == monotonicity_sweep(m, range(1, 9))
    hs = [h for h, _ in analysis.solve_dims(m, range(1, 9))]
    assert sweep.embeddings == [analysis.embedding_report(m, n + 1, h) for n, h in zip(range(1, 8), hs)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dimension_sweep_embeds_agree_with_cold_embedding_checks(m):
    # the sweep embeds warm-started eigenpairs, embedding_check a cold-started one
    sweep = analysis.dimension_sweep(m, range(1, 9))
    for emb, cold in zip(sweep.embeddings, [embedding_check(m, n, n + 1) for n in range(1, 8)], strict=True):
        assert emb.converged == cold.converged
        assert emb.restricted_residual <= 1e-10 and cold.restricted_residual <= 1e-10


def test_dimension_sweep_holds_one_eigenvector_at_a_time():
    # keeping the H and Z eigenvectors of every dimension would take 2 * sum(n) doubles
    dims = range(2, 201)
    analysis.dimension_sweep(3, [2, 3])  # first-call allocations are not the sweep's
    tracemalloc.start()
    try:
        analysis.dimension_sweep(3, dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(dims) * 8


def test_dimension_sweep_builds_one_generating_vector_per_dimension(monkeypatch):
    # each embed apply into k runs while the generating vector of k's solves is the cached one
    builds = []
    own = GeneratingVector._own

    def counted(self, buffer):
        builds.append(self)
        own(self, buffer)

    monkeypatch.setattr(GeneratingVector, "_last_hilbert", None)
    monkeypatch.setattr(GeneratingVector, "_own", counted)
    sweep = analysis.dimension_sweep(3, range(2, 31))
    assert len(sweep.embeddings) == 28
    assert len(builds) == 29


# -- warm starts ------------------------------------------------------------------


@pytest.mark.parametrize("m, top", [(2, 200), (3, 100), (4, 60)])
def test_warm_solves_agree_with_cold_ones(m, top):
    for n, (h, z) in zip(range(2, top + 1), analysis.solve_dims(m, range(2, top + 1)), strict=True):
        t = HilbertTensor(m, n)
        for warm, cold in ((h, h_spectral_radius(t)), (z, z_spectral_radius(t))):
            assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=0)
            assert warm.converged == cold.converged


@pytest.mark.parametrize("dims", [range(2, 401), [5, 17, 60]])
def test_m2_z_solve_takes_one_iteration_from_the_h_vector(dims):
    # at m = 2 the H step is the Z step: an H iterate of bracket width w has Z residual <= w
    for h, z in analysis.solve_dims(2, dims, tol=1e-10):
        assert h.converged
        assert z.iterations == 1 and z.converged and z.residual <= 1e-10


def _recorded(solve, starts, spoil=None):
    """``solve`` recording each start vector, its result's last vector entry set to ``spoil`` if given."""

    def wrapper(t, tol, max_iter, x0):
        starts.append(x0)
        res = solve(t, tol=tol, max_iter=max_iter, x0=x0)
        if spoil is None:
            return res
        values = res.vector.values.copy()
        values[-1] = spoil
        return replace(res, vector=SequenceVector(values))

    return wrapper


def _extended(vector, n):
    return np.r_[vector.values, [vector.values[-1]] * (n - len(vector))]


@pytest.mark.parametrize("m", [2, 3])
def test_warm_start_extends_the_previous_vector(monkeypatch, m):
    h_starts, z_starts = [], []
    monkeypatch.setattr(analysis, "h_spectral_radius", _recorded(h_spectral_radius, h_starts))
    monkeypatch.setattr(analysis, "z_spectral_radius", _recorded(z_spectral_radius, z_starts))
    dims = [5, 17, 60]
    pairs = list(analysis.solve_dims(m, dims))
    assert h_starts[0] is None
    for n, (h, _), start in zip(dims[1:], pairs, h_starts[1:]):
        assert np.array_equal(start, _extended(h.vector, n))
    if m == 2:  # Z starts from this entry's own H vector
        assert all(np.array_equal(start, h.vector.values) for (h, _), start in zip(pairs, z_starts, strict=True))
    else:
        assert z_starts[0] is None
        for n, (_, z), start in zip(dims[1:], pairs, z_starts[1:]):
            assert np.array_equal(start, _extended(z.vector, n))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("spoil", [math.nan, 0.0])
def test_unusable_previous_vector_gives_a_cold_start(monkeypatch, m, spoil):
    # the solvers refuse a start with a non-finite or non-positive entry
    h_starts, z_starts = [], []
    monkeypatch.setattr(analysis, "h_spectral_radius", _recorded(h_spectral_radius, h_starts, spoil))
    monkeypatch.setattr(analysis, "z_spectral_radius", _recorded(z_spectral_radius, z_starts, spoil))
    assert len(list(analysis.solve_dims(m, [2, 3, 4]))) == 3
    assert h_starts == z_starts == [None] * 3


def test_sweep_workload_ranges_take_fewer_iterations():
    # the bounds ranges of the benchmark's sweep workload at seed 5; 2,634 iterations from cold starts
    total = 0
    for m, dims in ((2, range(2, 42)), (3, range(3, 31)), (4, range(2, 13))):
        total += sum(rep.iterations_h + rep.iterations_z for rep in analysis.dimension_sweep(m, dims).bounds)
    assert total <= 1850


def test_long_m4_sweep_certifies_no_fewer_rows():
    # bounds --m 4 --n 2..400: 816 uncertified rows from cold starts, where 7 solves reach max_iter
    rows = reporting.sweep_rows(analysis.dimension_sweep(4, range(2, 401)))
    assert sum(not row["certified"] for row in rows) <= 816
