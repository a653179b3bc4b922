"""Quantitative checks of the Hilbert-tensor claims, as machine-readable reports.

Covered claims, each turned into a report with explicit slack:

* positive definiteness of even-order tensors (via the integral form),
* the finite Hilbert inequality
  sum |x_i||x_j|/(i+j-1) <= n sin(pi/n) ||x||_2^2,
* the eigenvalue bounds rho_H <= n^{m-1} sin(pi/n) and
  rho_Z <= n^{m/2} sin(pi/n)  (meaningful for n >= 2 only: at n = 1 the
  sine factor vanishes while the spectral radius is 1),
* strict growth of rho(F_n) and nondecrease of rho(T_n) in the dimension,
* the principal sub-tensor embedding: the H-eigenpair of H_n, zero-padded
  into H_k, reproduces the eigen-equation on the first n components.
  (On components beyond n the contraction is strictly positive while the
  padded vector is zero, so the equation genuinely fails there.)

``dimension_sweep`` makes every report of the ``bounds`` command in one
ascending pass that streams: each dimension's bound report, and the embed
report of the previous dimension into it, are built as soon as that
dimension is solved, and only the previous H eigenpair and scalar values
are kept, so its memory grows with the largest dimension, not with their
sum.

Every check returns its report, whatever it finds; none raises on a failed
claim.  Callers judge the report rows, not the reports: the CLI and
``scripts/verify_theorems.py`` turn reports into rows whose ``bound`` holds
any allowance, judge each row with ``reporting.violated`` and map the
verdicts to exit codes through ``cli.exit_status``.  ``strict_h`` and
``nondecreasing_z`` are report data that no verdict reads.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import HilbertTensor, spectral_bound_h, spectral_bound_z
from .eigensolvers import EigenResult, equation_residual, h_spectral_radius, z_spectral_radius
from .rng import SplitMix64


@dataclass
class BoundReport:
    """One dimension's eigenvalues against the sine bounds.

    ``rho_h`` is the largest H-eigenvalue, i.e. rho(F_n)^{m-1};
    ``rho_z`` is the largest Z-eigenvalue rho(T_n).
    """

    m: int
    n: int
    rho_h: float
    rho_z: float
    bound_h: float
    bound_z: float
    slack_h: float
    slack_z: float
    certified: bool
    iterations_h: int
    iterations_z: int


@dataclass
class MonotonicityReport:
    """rho(F_n) and rho(T_n) across an ascending dimension sweep."""

    m: int
    dims: list[int]
    rho_h_seq: list[float]  # rho(F_n) = (largest H-eigenvalue)^(1/(m-1))
    rho_z_seq: list[float]
    strict_h: bool
    nondecreasing_z: bool
    certified: bool
    tolerance: float


@dataclass
class PositiveDefiniteReport:
    m: int
    n: int
    trials: int
    min_integral: float
    all_positive: bool


@dataclass
class InequalityReport:
    n: int
    trials: int
    bound_constant: float  # n sin(pi/n)
    worst_ratio: float  # max LHS / (bound_constant ||x||_2^2)


@dataclass
class EmbeddingReport:
    m: int
    n: int
    k: int
    restricted_residual: float  # over the embedded block, components 1..n
    converged: bool


def check_positive_definite(
    t: HilbertTensor, trials: int = 1000, seed: int = 0
) -> PositiveDefiniteReport:
    """Sample x != 0 and check the integral form of H_n x^m stays positive.

    The alternating vector x_i = (-1)^i / i is always included, as the first
    form evaluated.
    """
    n = t.dim
    if t.order % 2 != 0:
        raise ValueError("positive definiteness is defined for even order only")
    rng = SplitMix64(seed)

    alternating = np.array([(-1) ** i / i for i in range(1, n + 1)])
    min_integral = t.quadratic_form_integral(alternating)
    for _ in range(trials):
        x = np.array(rng.uniforms(n, -1.0, 1.0))
        while not np.any(x):
            x = np.array(rng.uniforms(n, -1.0, 1.0))
        min_integral = min(min_integral, t.quadratic_form_integral(x))

    return PositiveDefiniteReport(
        m=t.order,
        n=n,
        trials=trials,
        min_integral=float(min_integral),
        all_positive=min_integral > 0.0,
    )


def hilbert_inequality_check(n: int, trials: int = 1000, seed: int = 0) -> InequalityReport:
    """Measure sum_{ij} |x_i||x_j| / (i+j-1) against n sin(pi/n) ||x||_2^2.

    Returns the report at every n.  ``scripts/verify_theorems.py`` checks
    every n by its row, which is violated once the worst ratio exceeds 1.
    """
    if n < 2:
        raise ValueError("the inequality check needs n >= 2")
    t = HilbertTensor(2, n)
    constant = n * math.sin(math.pi / n)
    rng = SplitMix64(seed)

    worst_ratio = 0.0
    for _ in range(trials):
        x = np.array(rng.uniforms(n, -1.0, 1.0))
        sq = float(x @ x)
        if sq == 0.0:
            continue
        u = np.abs(x)
        lhs = float(u @ t.apply_fast(u).values)
        worst_ratio = max(worst_ratio, lhs / (constant * sq))

    return InequalityReport(n=n, trials=trials, bound_constant=constant, worst_ratio=worst_ratio)


def solve_dims(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> Iterator[tuple[EigenResult, EigenResult]]:
    """The (H, Z) eigenpairs of H_n for each n in ``dims``, one dimension at a time.

    One solve of each kind per entry, made when the pair is asked for, so a
    sweep holds only the pairs it keeps.  The pairs come without their
    iteration history: no report reads it.
    """
    for n in dims:
        t = HilbertTensor(m, n)
        h = h_spectral_radius(t, tol=tol, max_iter=max_iter)
        z = z_spectral_radius(t, tol=tol, max_iter=max_iter)
        yield replace(h, trace=[]), replace(z, trace=[])


def bound_report(m: int, n: int, h: EigenResult, z: EigenResult) -> BoundReport:
    """Compare one dimension's solved eigenvalues against the sine bounds."""
    bound_h = spectral_bound_h(m, n)
    bound_z = spectral_bound_z(m, n)
    return BoundReport(
        m=m,
        n=n,
        rho_h=h.value,
        rho_z=z.value,
        bound_h=bound_h,
        bound_z=bound_z,
        slack_h=bound_h - h.value,
        slack_z=bound_z - z.value,
        certified=h.converged and z.converged,
        iterations_h=h.iterations,
        iterations_z=z.iterations,
    )


def _radii(m: int, h: EigenResult, z: EigenResult) -> tuple[float, float, bool]:
    """rho(F_n), rho(T_n) and whether both solves converged: all a monotonicity report keeps of a dimension."""
    return h.value ** (1.0 / (m - 1)), z.value, h.converged and z.converged


def monotonicity_report(m: int, dims, radii, tol: float) -> MonotonicityReport:
    """rho(F_n) and rho(T_n) from the ``_radii`` of ascending ``dims``."""
    rho_f, rho_t, converged = (list(column) for column in zip(*radii))
    return MonotonicityReport(
        m=m,
        dims=list(dims),
        rho_h_seq=rho_f,
        rho_z_seq=rho_t,
        strict_h=all(b - a > tol for a, b in zip(rho_f, rho_f[1:])),
        nondecreasing_z=all(b - a >= -2 * tol for a, b in zip(rho_t, rho_t[1:])),
        certified=all(converged),
        tolerance=tol,
    )


def embedding_report(m: int, k: int, h: EigenResult) -> EmbeddingReport:
    """Zero-pad the solved H-eigenpair of H_n into H_k and measure the residual on the embedded block.

    There the padded pair satisfies the H_k eigen-equation up to solver
    accuracy; beyond it the contraction is strictly positive against a zero
    right-hand side.
    """
    n = len(h.vector)
    padded = np.zeros(k)
    padded[:n] = h.vector.values
    y = HilbertTensor(m, k).apply_fast(padded).values
    return EmbeddingReport(
        m=m,
        n=n,
        k=k,
        restricted_residual=equation_residual("H", m, padded[:n], y[:n], h.value),
        converged=h.converged,
    )


def _check_dims(dims: list[int]) -> None:
    if len(dims) < 1 or any(n < 1 for n in dims):
        raise ValueError("dims must be positive")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")


def bound_sweep(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> list[BoundReport]:
    """Run both eigensolvers per dimension and compare against the sine bounds."""
    dims = list(dims)
    if any(n < 2 for n in dims):
        raise ValueError("bound rows need n >= 2; the sine bound is vacuous at n = 1")
    return [bound_report(m, n, h, z) for n, (h, z) in zip(dims, solve_dims(m, dims, tol, max_iter))]


def monotonicity_sweep(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> MonotonicityReport:
    """Track rho(F_n) and rho(T_n) over strictly ascending dimensions."""
    dims = list(dims)
    _check_dims(dims)
    return monotonicity_report(m, dims, [_radii(m, h, z) for h, z in solve_dims(m, dims, tol, max_iter)], tol)


def embedding_check(
    m: int,
    n: int,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> EmbeddingReport:
    """Solve the H-eigenpair of H_n and check it zero-padded into H_k (see ``embedding_report``)."""
    if not 1 <= n < k:
        raise ValueError("need 1 <= n < k")
    return embedding_report(m, k, h_spectral_radius(HilbertTensor(m, n), tol=tol, max_iter=max_iter))


@dataclass
class DimensionSweep:
    """Every report of the ``bounds`` command for one order, from one solve pass."""

    m: int
    bounds: list[BoundReport]  # the dimensions n >= 2
    monotonicity: MonotonicityReport | None  # None for a single dimension
    embeddings: list[EmbeddingReport]  # each consecutive pair of dimensions


def dimension_sweep(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> DimensionSweep:
    """Solve H and Z once per dimension some report needs, in ascending order, and report as it goes.

    Each dimension's bound report, and the embed report of the previous
    dimension into it, are made right after its solve, while its generating
    vector is the cached one.  Only the previous H eigenpair and the
    ``_radii`` are kept.  With a single dimension only its bound report is
    made (none at n = 1), so nothing is solved that no report reads.
    """
    dims = list(dims)
    _check_dims(dims)
    solved = dims if len(dims) >= 2 else [n for n in dims if n >= 2]
    bounds, embeddings, radii = [], [], []
    prev_h = None
    for n, (h, z) in zip(solved, solve_dims(m, solved, tol, max_iter)):
        if n >= 2:
            bounds.append(bound_report(m, n, h, z))
        if prev_h is not None:
            embeddings.append(embedding_report(m, n, prev_h))
        radii.append(_radii(m, h, z))
        prev_h = h
    mono = monotonicity_report(m, dims, radii, tol) if len(dims) >= 2 else None
    return DimensionSweep(m=m, bounds=bounds, monotonicity=mono, embeddings=embeddings)
