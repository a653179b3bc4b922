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
start norm, the step and the stop quantity.  ``equation_residual`` is the
one eigen-equation residual: the Z certificate, the ``residual`` of every
result and the embedding check's measure; to recheck a returned pair, pass
it y = ``HilbertTensor.apply_fast(x)``.  Both reject a start vector
with a non-positive entry and ``max_iter < 1``.  The loop takes a Hankel
tensor by its generating vector, order and dimension, plans its apply once
per solve with ``core.hankel_operator`` and then only applies it, so every
iteration runs the arithmetic of ``core.hankel_apply`` on x and nothing
else.  The two solvers pass the vector ``HilbertTensor.apply_fast`` uses,
``GeneratingVector.hilbert(generating_length(n, m, n))``, so their bits are
those of the fast apply; any other ``GeneratingVector``, for example the
shifted sequence 1/(s+1+k) of the matrix 1/(i+j-1+s), goes through the same
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GeneratingVector,
    HilbertTensor,
    SequenceVector,
    as_vector,
    generating_length,
    hankel_operator,
)


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


def _positive_start(dim: int, x0, p: float) -> np.ndarray:
    if x0 is None:
        x = np.ones(dim)  # positive, with maximum 1 already
    else:
        x = as_vector(x0)
        if len(x) != dim:
            raise ValueError(f"dimension mismatch: tensor dim {dim}, start length {len(x)}")
        if not np.isfinite(x).all():
            raise ValueError("power iteration needs a finite start vector")
        if np.any(x <= 0):
            raise ValueError("power iteration needs an entrywise positive start vector")
        x = x / x.max()  # entries in (0, 1], so the p-norm neither overflows nor underflows to 0
    return x / float(np.sum(x**p) ** (1.0 / p))


def _norm2(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a 1-d float array without its argument handling: the same dot and square root."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def equation_residual(kind: str, order: int, x: np.ndarray, y: np.ndarray, value: float) -> float:
    """Residual of the eigen-equation at x, given y = H x^{m-1} and the eigenvalue.

    H-kind: ||y - lambda x^{[m-1]}||_inf.
    Z-kind: ||y - mu x||_2.
    """
    if kind == "H":
        return float(np.max(np.abs(y - value * x ** (order - 1))))
    if kind == "Z":
        return _norm2(y - value * x)
    raise ValueError(f"unknown eigenpair kind {kind!r}")


def _power_iteration(kind: str, gen, order: int, dim: int, tol: float, max_iter: int, x0) -> EigenResult:
    """The one power loop behind both solvers, on the Hankel tensor of ``gen``.

    Only the start norm, the step and the stop quantity depend on ``kind``.
    The order-``order``, dimension-``dim`` operator x -> H x^{m-1} is planned
    once (``core.hankel_operator``) and each iterate x is evaluated once,
    y = H x^{m-1}.  The loop stops unconverged at the first non-finite value
    or certificate (overflow: further iterates stay non-finite) and converged
    once the certificate, the bracket width for H and the residual for Z, is
    at most ``tol``.
    """
    if not 0 < tol < math.inf:  # NaN would never stop the loop, inf would stop it at once
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m = order
    x = _positive_start(dim, x0, float(m) if kind == "H" else 2.0)
    apply = hankel_operator(gen, m, dim)
    # loop invariants; at m = 2, x^{[m-1]} and y^{[1/(m-1)]} are x and y themselves, bit for bit
    root_power, norm_power = 1.0 / (m - 1), 1.0 / m
    linear = m == 2

    trace: list[float] = []
    lower = upper = None
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # ends the loop unconverged
        for iterations in range(1, max_iter + 1):
            if iterations > 1:  # advance only when the new iterate gets evaluated
                if kind == "H":
                    root = y if linear else y**root_power
                    x = root / (root**m).sum() ** norm_power
                else:
                    x = y / _norm2(y)
            y = apply(x)
            value = float(x @ y)
            trace.append(value)
            if kind == "H":
                ratios = y / (x if linear else x ** (m - 1))
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


def _hilbert_operands(t: HilbertTensor):
    """The generating vector, order and dimension ``HilbertTensor.apply_fast`` uses for t."""
    return GeneratingVector.hilbert(generating_length(t.dim, t.order, t.dim)), t.order, t.dim


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
    return _power_iteration("H", *_hilbert_operands(t), tol, max_iter, x0)


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
    return _power_iteration("Z", *_hilbert_operands(t), tol, max_iter, x0)
