import math
from fractions import Fraction

import numpy as np
import pytest

from hilbert_tensors import (
    HilbertTensor,
    SequenceVector,
    bound_sweep,
    check_positive_definite,
    embedding_check,
    hilbert_inequality_check,
    monotonicity_sweep,
)
from hilbert_tensors.oracle import dense_matrix_eigenpair


# -- positive definiteness ------------------------------------------------------


def test_pd_rejects_odd_order():
    with pytest.raises(ValueError, match="even"):
        check_positive_definite(HilbertTensor(3, 3))


def test_pd_small_sample():
    rep = check_positive_definite(HilbertTensor(2, 2), trials=200, seed=1)
    assert rep.all_positive
    assert rep.min_integral > 0
    assert rep.min_sphere_value > 0


def test_pd_alternating_vector_value():
    # x = (-1, 1/2): integral of (-1 + t/2)^2 = 1 - 1/2 + 1/12 = 7/12
    rep = check_positive_definite(HilbertTensor(2, 2), trials=1, seed=0)
    assert rep.alternating_value == pytest.approx(7 / 12, rel=1e-12)


def test_pd_leading_coordinate():
    for m in (2, 4):
        t = HilbertTensor(m, 3)
        e1 = [1.0, 0.0, 0.0]
        assert t.quadratic_form_integral(e1) == pytest.approx(1.0)
        assert t.quadratic_form_integral(e1, exact=True) == Fraction(1)


def test_pd_m4_n3_thousand_trials():
    rep = check_positive_definite(HilbertTensor(4, 3), trials=1000, seed=2)
    assert rep.all_positive


# -- Hilbert inequality ----------------------------------------------------------


def test_inequality_rejects_small_n():
    with pytest.raises(ValueError):
        hilbert_inequality_check(1)


def test_inequality_n2_frozen_vector():
    # for x = (1,1): LHS = 7/3 and the bound is n sin(pi/n) ||x||^2 = 4
    t = HilbertTensor(2, 2)
    ones = np.ones(2)
    lhs = float(ones @ t.apply_fast(ones).values)
    assert lhs == pytest.approx(7 / 3, rel=1e-12)
    assert lhs <= 2 * math.sin(math.pi / 2) * 2.0


def test_inequality_small_n_records_only():
    rep = hilbert_inequality_check(2, trials=500, seed=3)
    assert not rep.asserted
    assert rep.worst_ratio < 1.0
    assert rep.bound_constant == pytest.approx(2.0)
    # the empirical constant is at most the top matrix eigenvalue
    top, _ = dense_matrix_eigenpair(2)
    assert rep.worst_lhs_over_norm <= top + 1e-10


def test_inequality_n8_sample():
    rep = hilbert_inequality_check(8, trials=1000, seed=4)
    assert rep.asserted
    assert not rep.violation_observed
    assert 0 < rep.worst_ratio < 1.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_inequality_violation_is_reported_not_raised(monkeypatch, n):
    # a tripled Hilbert matrix breaks the inequality at every n
    orig = HilbertTensor.apply_fast
    monkeypatch.setattr(HilbertTensor, "apply_fast", lambda self, x: SequenceVector(3.0 * orig(self, x).values))
    rep = hilbert_inequality_check(n, trials=50, seed=4)
    assert rep.asserted == (n >= 4)
    assert rep.violation_observed
    assert rep.worst_ratio > 1.0


# -- bound sweep ------------------------------------------------------------------


def test_bound_sweep_rejects_n1():
    with pytest.raises(ValueError):
        bound_sweep(2, [1, 2])


def test_bound_sweep_m2_values():
    reports = bound_sweep(2, [2, 3, 4])
    for rep in reports:
        expected, _ = dense_matrix_eigenpair(rep.n)
        assert rep.certified
        assert rep.rho_h == pytest.approx(expected, abs=1e-8)
        assert rep.rho_z == pytest.approx(expected, abs=1e-8)
        assert rep.bound_h == pytest.approx(rep.n * math.sin(math.pi / rep.n))
        assert rep.slack_h >= 0
        assert rep.slack_z >= 0


def test_bound_sweep_m3_bound_value():
    rep = bound_sweep(3, [2])[0]
    assert rep.bound_h == pytest.approx(4.0)  # 2^2 sin(pi/2)
    assert rep.bound_z == pytest.approx(2 ** 1.5)
    assert rep.rho_h <= 4.0


def test_bound_sweep_single_dim():
    assert len(bound_sweep(2, [2])) == 1


def test_bound_sweep_sine_bound_too_large_for_a_float_is_inf():
    # 5^499 overflows a float; the H bound is inf instead of an OverflowError
    [rep] = bound_sweep(500, [5], max_iter=50)
    assert rep.bound_h == math.inf
    assert rep.bound_z == 5 ** 250.0 * math.sin(math.pi / 5)  # still finite, same bits
    assert not rep.certified


# -- monotonicity -----------------------------------------------------------------


def test_monotonicity_rejects_non_ascending():
    with pytest.raises(ValueError):
        monotonicity_sweep(2, [2, 2])
    with pytest.raises(ValueError):
        monotonicity_sweep(2, [3, 2])


def test_monotonicity_m2_dims_1_2_3():
    rep = monotonicity_sweep(2, [1, 2, 3])
    assert rep.strict_h and rep.nondecreasing_z and rep.certified
    assert rep.rho_h_seq[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.rho_h_seq[1] == pytest.approx((4 + math.sqrt(13)) / 6, abs=1e-8)
    assert rep.rho_h_seq[2] == pytest.approx(1.4083189271236538, abs=1e-8)
    assert len(rep.vectors_h) == 3


def test_monotonicity_m3_rho_f_is_root():
    rep = monotonicity_sweep(3, [2, 3])
    from hilbert_tensors import h_spectral_radius

    lam = h_spectral_radius(HilbertTensor(3, 2)).value
    assert rep.rho_h_seq[0] == pytest.approx(math.sqrt(lam), rel=1e-10)


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
    assert rep.full_residual == pytest.approx(0.5, rel=1e-12)


def test_embedding_rejects_bad_dims():
    with pytest.raises(ValueError):
        embedding_check(2, 3, 3)
