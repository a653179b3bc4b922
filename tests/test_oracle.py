import math
from fractions import Fraction

import numpy as np
import pytest

from hilbert_tensors import BudgetError, HilbertTensor, SplitMix64
from hilbert_tensors.oracle import (
    OracleConfig,
    brute_apply,
    brute_max_sphere,
    brute_quadratic_form,
    dense_matrix_eigenpair,
)


def test_brute_apply_frozen():
    out = brute_apply(HilbertTensor(3, 2), [1.0, 1.0])
    np.testing.assert_allclose(out, [7 / 3, 17 / 12], rtol=1e-14)


def test_brute_apply_first_column():
    t = HilbertTensor(3, 4)
    out = brute_apply(t, [1.0, 0.0, 0.0, 0.0])
    expected = [t.entry((i, 1, 1)) for i in range(1, 5)]
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_brute_apply_m2_matrix_product():
    t = HilbertTensor(2, 5)
    rng = SplitMix64(5)
    x = np.array(rng.uniforms(5, -1, 1))
    np.testing.assert_allclose(brute_apply(t, x), t.materialize_dense() @ x, atol=1e-13)


def test_brute_vs_naive_float():
    rng = SplitMix64(17)
    for m in (2, 3, 4, 5):
        for n in (1, 3, 6):
            t = HilbertTensor(m, n)
            for _ in range(5):
                x = np.array(rng.uniforms(n, -1, 1))
                naive = np.asarray(t.apply_naive(x))
                brute = brute_apply(t, x)
                assert np.max(np.abs(naive - brute)) <= 1e-12 * (1 + np.max(np.abs(naive)))


def test_brute_vs_naive_exact():
    rng = SplitMix64(19)
    for m in (2, 3, 4):
        for n in (2, 4):
            t = HilbertTensor(m, n)
            x = [Fraction(rng.randint(9) - 4, 1 + rng.randint(6)) for _ in range(n)]
            assert brute_apply(t, x, exact=True) == t.apply_naive(x, exact=True)


def test_brute_quadratic_form_exact_matches_integral():
    t = HilbertTensor(4, 3)
    x = [Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
    assert brute_quadratic_form(t, x, exact=True) == t.quadratic_form_integral(x, exact=True)


def test_brute_budget_refusal():
    cfg = OracleConfig(max_elements=10)
    with pytest.raises(BudgetError):
        brute_apply(HilbertTensor(3, 3), np.ones(3), cfg=cfg)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(max_elements=0)


def test_dense_eig_closed_form():
    value, vector = dense_matrix_eigenpair(2)
    assert value == pytest.approx((4 + math.sqrt(13)) / 6, abs=1e-12)
    assert np.all(vector > 0)
    assert np.linalg.norm(vector) == pytest.approx(1.0)


def test_brute_max_sphere_trivial_dim():
    assert brute_max_sphere(HilbertTensor(3, 1), "l2") == 1.0
    assert brute_max_sphere(HilbertTensor(2, 1), "lm") == 1.0


def test_brute_max_sphere_m2_matches_eig():
    cfg = OracleConfig(grid_points=20_000, refinement_rounds=10)
    for n in (2, 3):
        expected, _ = dense_matrix_eigenpair(n)
        # for matrices the l2 and lm spheres coincide
        assert brute_max_sphere(HilbertTensor(2, n), "l2", cfg) == pytest.approx(expected, abs=1e-7)
        assert brute_max_sphere(HilbertTensor(2, n), "lm", cfg) == pytest.approx(expected, abs=1e-7)


def test_brute_max_sphere_rejects_large_dim():
    with pytest.raises(BudgetError):
        brute_max_sphere(HilbertTensor(2, 4), "l2")


def test_brute_max_sphere_bad_norm():
    with pytest.raises(ValueError):
        brute_max_sphere(HilbertTensor(2, 2), "linf")


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 3)])
def test_brute_quadratic_form_float_path_matches_fast(m, n):
    t = HilbertTensor(m, n)
    rng = SplitMix64(m * 10 + n)
    x = np.array(rng.uniforms(n, -1.0, 1.0))
    value = brute_quadratic_form(t, x)
    assert isinstance(value, float)
    assert value == pytest.approx(t.quadratic_form(x), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_brute_apply_refuses_a_vector_of_the_wrong_length(exact):
    with pytest.raises(ValueError, match="dimension mismatch"):
        brute_apply(HilbertTensor(3, 3), [1.0, 2.0], exact=exact)
