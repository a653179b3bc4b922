import math
import warnings

import numpy as np
import pytest

from hilbert_tensors import (
    GeneratingVector,
    HilbertTensor,
    h_spectral_radius,
    z_spectral_radius,
)
from hilbert_tensors import core
from hilbert_tensors.eigensolvers import _power_iteration, equation_residual

from oracle import OracleConfig, brute_max_sphere, dense_matrix_eigenpair
from splitmix import SplitMix64

CLOSED_FORM_N2 = (4 + math.sqrt(13)) / 6


# -- H solver -----------------------------------------------------------------


def test_h_trivial_dimension():
    res = h_spectral_radius(HilbertTensor(2, 1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.vector.values == pytest.approx([1.0])
    assert res.converged and res.iterations == 1


def test_h_closed_form_n2():
    res = h_spectral_radius(HilbertTensor(2, 2))
    assert res.converged
    assert res.value == pytest.approx(CLOSED_FORM_N2, abs=1e-10)


def test_h_certificate_brackets_value():
    res = h_spectral_radius(HilbertTensor(3, 5), tol=1e-10)
    assert res.converged
    assert res.lower <= res.value <= res.upper
    assert res.upper - res.lower <= 1e-10
    assert np.linalg.norm(res.vector, 3) == pytest.approx(1.0, abs=1e-12)


def test_h_eigenvector_strictly_positive():
    for m, n in ((2, 6), (3, 4), (4, 5)):
        res = h_spectral_radius(HilbertTensor(m, n))
        assert np.all(res.vector.values >= 1e-12)


def test_h_matches_matrix_oracle():
    for n in (1, 2, 3, 5, 8):
        expected, _ = dense_matrix_eigenpair(n)
        res = h_spectral_radius(HilbertTensor(2, n))
        assert res.value == pytest.approx(expected, abs=1e-8)


def test_h_matches_sphere_oracle_m4_n2():
    cfg = OracleConfig(grid_points=50_000, refinement_rounds=10)
    reference = brute_max_sphere(HilbertTensor(4, 2), "lm", cfg)
    res = h_spectral_radius(HilbertTensor(4, 2))
    assert res.value == pytest.approx(reference, abs=1e-6)


def test_h_scaling_invariance():
    t = HilbertTensor(3, 4)
    base = h_spectral_radius(t, x0=np.ones(4))
    scaled = h_spectral_radius(t, x0=7.3 * np.ones(4))
    assert scaled.value == pytest.approx(base.value, abs=1e-10)


def test_h_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        h_spectral_radius(HilbertTensor(3, 3), x0=[1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        h_spectral_radius(HilbertTensor(3, 3), x0=[0.0, 0.0, 0.0])


@pytest.mark.parametrize("solver", [h_spectral_radius, z_spectral_radius])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_start_is_rejected_without_warnings(solver, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite start vector"):
            solver(HilbertTensor(2, 3), x0=[1.0, bad, 1.0])


@pytest.mark.parametrize("solver", [h_spectral_radius, z_spectral_radius])
@pytest.mark.parametrize("scale", [1e200, 1e-320])
def test_extreme_start_scale_is_normalized_without_warnings(solver, scale):
    t = HilbertTensor(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solver(t, x0=scale * np.ones(3))
    assert res.converged
    assert res.value == solver(t).value


def test_start_spanning_the_float_range_ends_unconverged_without_warnings():
    # the scaled start's small entries square to 0, so a ratio divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = h_spectral_radius(HilbertTensor(3, 3), x0=[1e308, 1.0, 1.0])
    assert not res.converged


def test_h_unconverged_flagged():
    res = h_spectral_radius(HilbertTensor(2, 8), tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.lower <= res.value <= res.upper  # bracket still valid


def test_h_variational_upper_bound():
    # H_n x^m <= lambda_max for nonnegative x with unit m-norm
    t = HilbertTensor(3, 5)
    res = h_spectral_radius(t)
    rng = SplitMix64(43)
    for _ in range(100):
        x = np.array(rng.uniforms(5))
        if not x.any():
            continue
        x /= np.sum(x**3) ** (1 / 3)
        assert t.quadratic_form(x) <= res.value + 1e-10


def test_h_invalid_tol():
    with pytest.raises(ValueError):
        h_spectral_radius(HilbertTensor(2, 2), tol=0.0)
    # NaN would run every iteration, inf would stop at the first
    for solve in (h_spectral_radius, z_spectral_radius):
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError):
                solve(HilbertTensor(3, 5), tol=tol)


# -- Z solver -----------------------------------------------------------------


def test_z_trivial_dimension():
    res = z_spectral_radius(HilbertTensor(3, 1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_z_closed_form_n2():
    res = z_spectral_radius(HilbertTensor(2, 2))
    assert res.converged
    assert res.value == pytest.approx(CLOSED_FORM_N2, abs=1e-10)
    assert res.residual <= 1e-10


def test_z_matches_matrix_oracle():
    for n in (1, 2, 4, 7, 10):
        expected, _ = dense_matrix_eigenpair(n)
        res = z_spectral_radius(HilbertTensor(2, n))
        assert res.converged
        assert res.value == pytest.approx(expected, abs=1e-8)


def test_z_matches_sphere_oracle_m3_n2():
    cfg = OracleConfig(grid_points=100_000, refinement_rounds=10)
    reference = brute_max_sphere(HilbertTensor(3, 2), "l2", cfg)
    res = z_spectral_radius(HilbertTensor(3, 2))
    assert res.value == pytest.approx(reference, abs=1e-6)


def test_z_unit_two_norm_vector():
    res = z_spectral_radius(HilbertTensor(4, 3))
    assert np.linalg.norm(res.vector, 2) == pytest.approx(1.0, abs=1e-12)


def test_z_scaling_invariance():
    t = HilbertTensor(4, 3)
    base = z_spectral_radius(t, x0=np.ones(3))
    scaled = z_spectral_radius(t, x0=0.02 * np.ones(3))
    assert scaled.value == pytest.approx(base.value, abs=1e-10)


@pytest.mark.parametrize("m,n", [(3, 6), (3, 60), (4, 12)])
def test_z_monotone_ascent_trace(m, n):
    res = z_spectral_radius(HilbertTensor(m, n))
    assert res.converged
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) >= -1e-12)


def test_z_variational_upper_bound():
    t = HilbertTensor(3, 5)
    res = z_spectral_radius(t)
    rng = SplitMix64(47)
    for _ in range(100):
        x = np.array(rng.uniforms(5, -1, 1))
        norm = np.linalg.norm(x)
        if norm == 0:
            continue
        assert t.quadratic_form(x / norm) <= res.value + 1e-10


def test_z_unconverged_flagged():
    res = z_spectral_radius(HilbertTensor(3, 6), tol=1e-14, max_iter=3)
    assert not res.converged


def test_z_rejects_nonpositive_start():
    # the unshifted ascent is monotone only inside the positive orthant
    for x0 in ([1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            z_spectral_radius(HilbertTensor(3, 3), x0=x0)


def test_z_hilbert_matrix_n1000_fast_and_exact():
    res = z_spectral_radius(HilbertTensor(2, 1000))
    assert res.converged
    assert res.iterations <= 100
    i = np.arange(1000)
    expected = np.linalg.eigvalsh(1.0 / (i[:, None] + i[None, :] + 1.0))[-1]
    assert res.value == pytest.approx(expected, rel=1e-12)


# -- residuals and the operator maps ----------------------------------------------


def recomputed_residual(t, pair):
    """The defining-equation residual of a returned pair, recomputed from the fast apply."""
    x = pair.vector.values
    return equation_residual(pair.kind, t.order, x, t.apply_fast(x).values, pair.value)


def test_eigen_residual_exact_pair():
    res = h_spectral_radius(HilbertTensor(2, 1))
    assert recomputed_residual(HilbertTensor(2, 1), res) == pytest.approx(0.0, abs=1e-14)


def test_eigen_residual_converged_pairs():
    t = HilbertTensor(3, 4)
    assert recomputed_residual(t, h_spectral_radius(t)) <= 1e-10
    assert recomputed_residual(t, z_spectral_radius(t)) <= 1e-10


def test_eigen_residual_grows_under_perturbation():
    t = HilbertTensor(3, 4)
    clean = recomputed_residual(t, h_spectral_radius(t))
    rough = h_spectral_radius(t, max_iter=1)  # the all-ones start, evaluated once
    assert recomputed_residual(t, rough) > clean
    assert recomputed_residual(t, rough) > 0


@pytest.mark.parametrize("solve", [h_spectral_radius, z_spectral_radius])
def test_unconverged_result_describes_its_vector(solve):
    # value, certificate and vector come from the same (last evaluated) iterate
    t = HilbertTensor(3, 20)
    res = solve(t, max_iter=2)
    assert not res.converged and res.iterations == 2
    assert recomputed_residual(t, res) == res.residual


@pytest.mark.parametrize("solve", [h_spectral_radius, z_spectral_radius])
def test_max_iter_below_one_is_rejected(solve):
    # no iterate would be evaluated, so no result could describe one
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve(HilbertTensor(3, 4), max_iter=0)


def test_eigen_residual_unknown_kind():
    t = HilbertTensor(2, 2)
    res = h_spectral_radius(t)
    res.kind = "Q"
    with pytest.raises(ValueError):
        recomputed_residual(t, res)


def test_operator_positive_homogeneity():
    # x -> H x^{m-1}, behind F_n = (H x^{m-1})^{[1/(m-1)]} and T_n = ||x||_2^{2-m} H x^{m-1},
    # is homogeneous of degree m - 1, so F_n and T_n are positively homogeneous of degree one
    t = HilbertTensor(3, 4)
    rng = SplitMix64(53)
    for _ in range(20):
        x = np.array(rng.uniforms(4, -1, 1))
        c = 0.5 + rng.uniform()
        np.testing.assert_allclose(
            t.apply_fast(c * x).values, c**2 * t.apply_fast(x).values, rtol=1e-10, atol=1e-12
        )


def test_f_operator_matches_eigen_relation():
    # at the H-eigenpair, F x = (H x^{m-1})^{[1/(m-1)]} = rho(F) x
    t = HilbertTensor(3, 3)
    res = h_spectral_radius(t)
    rho_f = res.value ** (1 / (t.order - 1))
    np.testing.assert_allclose(
        t.apply_fast(res.vector).values ** (1 / (t.order - 1)), rho_f * res.vector.values, rtol=1e-8
    )


@pytest.mark.parametrize("solver", [h_spectral_radius, z_spectral_radius], ids=["H", "Z"])
@pytest.mark.parametrize("m, n", [(2, 4), (3, 5), (4, 3)])
def test_trace_holds_one_value_per_iteration(solver, m, n):
    res = solver(HilbertTensor(m, n))
    assert res.converged
    assert len(res.trace) == res.iterations
    assert res.trace[-1] == res.value


@pytest.mark.parametrize("solver", [h_spectral_radius, z_spectral_radius], ids=["H", "Z"])
def test_start_of_the_wrong_length_is_refused(solver):
    with pytest.raises(ValueError, match="dimension mismatch"):
        solver(HilbertTensor(2, 3), x0=[1.0, 1.0])


# -- the power loop on any Hankel generating vector ----------------------------------


@pytest.mark.parametrize("kind", ["H", "Z"])
@pytest.mark.parametrize("s", [1, 5])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_power_loop_on_shifted_hilbert_matrix_matches_eigvalsh(kind, s, n):
    # M_s(i, j) = 1/(i + j - 1 + s), 1-based: the Hankel matrix of v[k] = 1/(s + 1 + k)
    gen = GeneratingVector(1.0 / (s + 1 + np.arange(2 * n - 1)))
    res = _power_iteration(kind, gen, 2, n, 1e-13, 100_000, None)
    i = np.arange(1, n + 1)
    expected = np.linalg.eigvalsh(1.0 / (i[:, None] + i[None, :] - 1 + s))[-1]
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind, solver", [("H", h_spectral_radius), ("Z", z_spectral_radius)])
def test_solve_on_the_fft_route_transforms_the_generating_vector_once(kind, solver, monkeypatch):
    # m = 2, n = 1500 takes the one-block FFT route; the tiny tol keeps the loop going to max_iter
    calls = []
    orig = core._block_spectra
    monkeypatch.setattr(core, "_block_spectra", lambda *args: calls.append(args[1:]) or orig(*args))
    n = 1500
    gen = GeneratingVector(1.0 / np.arange(1, 2 * n))  # a fresh vector, so nothing is cached yet
    res = _power_iteration(kind, gen, 2, n, 1e-300, 30, None)
    assert res.iterations == 30 and not res.converged
    assert len(calls) == 1
    # the same values as the vector apply_fast uses: the Hilbert solver's bits
    hilbert = solver(HilbertTensor(2, n), tol=1e-300, max_iter=30)
    assert res.value == hilbert.value and res.trace == hilbert.trace
    assert np.array_equal(res.vector.values, hilbert.vector.values)
