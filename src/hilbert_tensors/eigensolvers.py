"""Extremal H- and Z-eigenvalues of Hilbert tensors, with certificates.

An H-eigenpair satisfies H_n x^{m-1} = lambda x^{[m-1]} (entrywise powers);
a Z-eigenpair satisfies H_n x^{m-1} = mu x with ||x||_2 = 1.  The largest
H-eigenvalue equals rho(F_n)^{m-1} for F_n x = (H_n x^{m-1})^{[1/(m-1)]},
and the largest Z-eigenvalue equals rho(T_n) for
T_n x = ||x||_2^{2-m} H_n x^{m-1}; both are attained at nonnegative vectors
because every tensor entry is positive.

Solvers:

* ``h_spectral_radius``: power iteration on positive vectors with per-step
  Collatz-Wielandt ratio bounds; the bracket width is the certificate.
* ``z_spectral_radius``: unshifted power ascent from a positive start; the
  eigen-equation residual is the certificate.  No SS-HOPM shift is needed:
  H_n x^m = int_0^1 (sum_i x_i t^{i-1})^m dt is convex on the nonnegative
  orthant, and positive entries keep the iterates inside it.

Both run one power loop, ``_power_iteration``, and differ only in the
start norm, the step and the stop quantity.  Both reject a start vector
with a non-positive entry and ``max_iter < 1``.  Both step through
``HilbertTensor.apply_fast``, so no generating vector but Hilbert's reaches
them (the shifted ones of ROADMAP.md's certified Z upper end would need one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import HilbertTensor, SequenceVector, as_vector, real_root


@dataclass
class EigenResult:
    """Eigenvalue estimate with its certificate and iteration history.

    For ``kind == "H"`` the certificate is the Collatz-Wielandt bracket
    [lower, upper] from the final iterate and the vector has unit m-norm.
    For ``kind == "Z"`` the certificate is the residual
    ||H_n x^{m-1} - mu x||_2 and the vector has unit 2-norm.  Converged or
    not, value, certificate and vector describe the last evaluated iterate.
    """

    kind: str
    value: float
    vector: SequenceVector
    lower: float | None
    upper: float | None
    residual: float
    iterations: int
    converged: bool
    trace: list[float] = field(repr=False, default_factory=list)


def _positive_start(t: HilbertTensor, x0, p: float) -> np.ndarray:
    n = t.dim
    if x0 is None:
        x = np.ones(n)
    else:
        x = as_vector(x0)
        if len(x) != n:
            raise ValueError(f"dimension mismatch: tensor dim {n}, start length {len(x)}")
        if not np.isfinite(x).all():
            raise ValueError("power iteration needs a finite start vector")
    if np.any(x <= 0):
        raise ValueError("power iteration needs an entrywise positive start vector")
    x = x / x.max()  # entries in (0, 1], so the p-norm neither overflows nor underflows to 0
    return x / float(np.sum(x**p) ** (1.0 / p))


def equation_residual(kind: str, order: int, x: np.ndarray, y: np.ndarray, value: float) -> float:
    """Residual of the eigen-equation at x, given y = H x^{m-1} and the eigenvalue.

    H-kind: ||y - lambda x^{[m-1]}||_inf.
    Z-kind: ||y - mu x||_2.
    """
    if kind == "H":
        return float(np.max(np.abs(y - value * x ** (order - 1))))
    if kind == "Z":
        return float(np.linalg.norm(y - value * x))
    raise ValueError(f"unknown eigenpair kind {kind!r}")


def _power_iteration(kind: str, t: HilbertTensor, tol: float, max_iter: int, x0) -> EigenResult:
    """The one power loop behind both solvers.

    Only the start norm, the step and the stop quantity depend on ``kind``.
    Each iterate x is evaluated once, y = H_n x^{m-1}.  The loop stops
    unconverged at the first non-finite value or certificate (overflow:
    further iterates stay non-finite) and converged once the certificate,
    the bracket width for H and the residual for Z, is at most ``tol``.
    """
    if not 0 < tol < math.inf:  # NaN would never stop the loop, inf would stop it at once
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m = t.order
    x = _positive_start(t, x0, float(m) if kind == "H" else 2.0)

    trace: list[float] = []
    lower = upper = None
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # ends the loop unconverged
        for iterations in range(1, max_iter + 1):
            if iterations > 1:  # advance only when the new iterate gets evaluated
                if kind == "H":
                    root = y ** (1.0 / (m - 1))
                    x = root / np.sum(root**m) ** (1.0 / m)
                else:
                    x = y / np.linalg.norm(y)
            y = t.apply_fast(x).values
            value = float(x @ y)
            trace.append(value)
            if kind == "H":
                ratios = y / x ** (m - 1)
                lower = float(ratios.min())
                upper = float(ratios.max())
                certificate = upper - lower
            else:
                certificate = equation_residual(kind, m, x, y, value)
            if not (math.isfinite(value) and math.isfinite(certificate)):
                break
            if certificate <= tol:
                converged = True
                break

        return EigenResult(
            kind=kind,
            value=value,
            vector=SequenceVector(x),
            lower=lower,
            upper=upper,
            residual=equation_residual(kind, m, x, y, value),
            iterations=iterations,
            converged=converged,
            trace=trace,
        )


def h_spectral_radius(
    t: HilbertTensor,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    x0=None,
) -> EigenResult:
    """Largest H-eigenvalue rho(F_n)^{m-1} with a positive unit-m-norm eigenvector.

    Iterates y = H_n x^{m-1}, x <- y^{[1/(m-1)]} / ||.||_m from a positive
    start.  For a positive tensor the ratio bounds
    min_i y_i / x_i^{m-1} <= lambda_max <= max_i y_i / x_i^{m-1} hold at
    every positive iterate; the loop stops when the bracket is narrower
    than ``tol``, or unconverged at the first non-finite bracket or value.
    The reported value H_n x^m is a convex combination of the ratios, so it
    always lies inside the bracket.
    """
    return _power_iteration("H", t, tol, max_iter, x0)


def z_spectral_radius(
    t: HilbertTensor,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    x0=None,
) -> EigenResult:
    """Largest Z-eigenvalue rho(T_n) with a unit-2-norm eigenvector.

    Power ascent x <- H_n x^{m-1} / ||.||_2 from a positive start.  The
    iterates stay positive, f(x) = H_n x^m is convex there, and x' maximizes
    m (H_n x^{m-1}) . x' over the unit sphere, so without any shift
    f(x') >= f(x) + m (H_n x^{m-1}) . (x' - x) >= f(x): the Rayleigh value
    never drops.  The limit is the nonnegative maximizer guaranteed for
    positive tensors.  The residual ||H_n x^{m-1} - mu x||_2 is the stopping
    certificate; a non-finite value or residual stops the loop unconverged.
    """
    return _power_iteration("Z", t, tol, max_iter, x0)


def eigen_residual(t: HilbertTensor, pair: EigenResult) -> float:
    """Recompute the defining-equation residual for a returned pair.

    H-kind: ||H_n x^{m-1} - lambda x^{[m-1]}||_inf.
    Z-kind: ||H_n x^{m-1} - mu x||_2.
    """
    x = pair.vector.values
    return equation_residual(pair.kind, t.order, x, t.apply_fast(x).values, pair.value)


def f_operator(t: HilbertTensor):
    """F_n x = (H_n x^{m-1})^{[1/(m-1)]} as a callable on vectors.

    For odd m the inner contraction is entrywise nonnegative for every real
    x (it is a moment integral), so the even root is always defined up to
    float rounding; tiny negative noise is clamped, genuine negatives raise.
    """
    k = t.order - 1

    def apply_f(x) -> SequenceVector:
        return SequenceVector(real_root(t.apply_fast(x).values, k))

    return apply_f


def t_operator(t: HilbertTensor):
    """T_n x = ||x||_2^{2-m} H_n x^{m-1} as a callable; T_n(0) = 0."""

    def apply_t(x) -> SequenceVector:
        xv = as_vector(x)
        norm = float(np.linalg.norm(xv))
        if norm == 0.0:
            return SequenceVector(np.zeros_like(xv))
        return SequenceVector(norm ** (2 - t.order) * t.apply_fast(xv).values)

    return apply_t
