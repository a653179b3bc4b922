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
  padded vector is zero, so the equation genuinely fails there; the full
  residual is reported as data, not asserted.)

Every check returns its report, whatever it finds; none raises on a failed
claim.  Callers judge the report rows, not the reports: the CLI and
``scripts/verify_theorems.py`` turn reports into rows whose ``bound`` holds
any allowance, judge each row with ``reporting.violated`` and map the
verdicts to exit codes through ``cli.exit_status``.  ``strict_h``,
``nondecreasing_z``, ``violation_observed`` and ``asserted`` are report data
that no verdict reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    # kept so eigenvector monotonicity can be explored; nothing is asserted
    vectors_h: list[list[float]] = field(repr=False, default_factory=list)


@dataclass
class PositiveDefiniteReport:
    m: int
    n: int
    trials: int
    min_integral: float
    min_sphere_value: float
    alternating_value: float
    all_positive: bool


@dataclass
class InequalityReport:
    n: int
    trials: int
    bound_constant: float  # n sin(pi/n)
    worst_ratio: float  # max LHS / (bound_constant ||x||_2^2)
    worst_lhs_over_norm: float  # the empirical constant max LHS / ||x||_2^2
    asserted: bool
    violation_observed: bool


@dataclass
class EmbeddingReport:
    m: int
    n: int
    k: int
    eigenvalue: float
    restricted_residual: float  # over the embedded block, components 1..n
    full_residual: float  # over all k components; positive by construction
    converged: bool


def check_positive_definite(
    t: HilbertTensor, trials: int = 1000, seed: int = 0
) -> PositiveDefiniteReport:
    """Sample x != 0 and check the integral form of H_n x^m stays positive.

    The alternating vector x_i = (-1)^i / i is always included.  Also
    records the smallest sampled value of H_n x^m over the unit 2-sphere.
    """
    n = t.dim
    if t.order % 2 != 0:
        raise ValueError("positive definiteness is defined for even order only")
    rng = SplitMix64(seed)

    alternating = np.array([(-1) ** i / i for i in range(1, n + 1)])
    alternating_value = t.quadratic_form_integral(alternating)

    min_integral = alternating_value
    min_sphere = t.quadratic_form(alternating / np.linalg.norm(alternating))
    for _ in range(trials):
        x = np.array(rng.uniforms(n, -1.0, 1.0))
        while not np.any(x):
            x = np.array(rng.uniforms(n, -1.0, 1.0))
        min_integral = min(min_integral, t.quadratic_form_integral(x))
        min_sphere = min(min_sphere, t.quadratic_form(x / np.linalg.norm(x)))

    return PositiveDefiniteReport(
        m=t.order,
        n=n,
        trials=trials,
        min_integral=float(min_integral),
        min_sphere_value=float(min_sphere),
        alternating_value=float(alternating_value),
        all_positive=min_integral > 0.0,
    )


def hilbert_inequality_check(n: int, trials: int = 1000, seed: int = 0) -> InequalityReport:
    """Measure sum_{ij} |x_i||x_j| / (i+j-1) against n sin(pi/n) ||x||_2^2.

    Returns the report at every n.  ``violation_observed`` says whether some
    sample exceeded the bound (worst ratio above 1 + 1e-12) and ``asserted``
    whether n >= 4; both are data.  ``scripts/verify_theorems.py`` checks
    every n by its row, which is violated once the worst ratio exceeds 1.
    """
    if n < 2:
        raise ValueError("the inequality check needs n >= 2")
    t = HilbertTensor(2, n)
    constant = n * math.sin(math.pi / n)
    rng = SplitMix64(seed)

    worst_ratio = 0.0
    worst_lhs_over_norm = 0.0
    for _ in range(trials):
        x = np.array(rng.uniforms(n, -1.0, 1.0))
        sq = float(x @ x)
        if sq == 0.0:
            continue
        u = np.abs(x)
        lhs = float(u @ t.apply_fast(u).values)
        worst_lhs_over_norm = max(worst_lhs_over_norm, lhs / sq)
        worst_ratio = max(worst_ratio, lhs / (constant * sq))

    return InequalityReport(
        n=n,
        trials=trials,
        bound_constant=constant,
        worst_ratio=worst_ratio,
        worst_lhs_over_norm=worst_lhs_over_norm,
        asserted=n >= 4,
        violation_observed=worst_ratio > 1.0 + 1e-12,
    )


def solve_dims(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> list[tuple[EigenResult, EigenResult]]:
    """The (H, Z) eigenpairs of H_n for each n in ``dims``: one solve of each kind per entry.

    The pairs come without their iteration history: no report reads it, and
    a sweep would otherwise hold every iterate of every solve until its
    reports are built.
    """
    pairs = []
    for n in dims:
        t = HilbertTensor(m, n)
        h = h_spectral_radius(t, tol=tol, max_iter=max_iter)
        z = z_spectral_radius(t, tol=tol, max_iter=max_iter)
        pairs.append((replace(h, trace=[]), replace(z, trace=[])))
    return pairs


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


def monotonicity_report(m: int, dims, pairs, tol: float) -> MonotonicityReport:
    """rho(F_n) and rho(T_n) from the solved (H, Z) pairs of ascending ``dims``."""
    rho_f = [h.value ** (1.0 / (m - 1)) for h, _ in pairs]
    rho_t = [z.value for _, z in pairs]
    return MonotonicityReport(
        m=m,
        dims=list(dims),
        rho_h_seq=rho_f,
        rho_z_seq=rho_t,
        strict_h=all(b - a > tol for a, b in zip(rho_f, rho_f[1:])),
        nondecreasing_z=all(b - a >= -2 * tol for a, b in zip(rho_t, rho_t[1:])),
        certified=all(h.converged and z.converged for h, z in pairs),
        tolerance=tol,
        vectors_h=[[float(v) for v in h.vector] for h, _ in pairs],
    )


def embedding_report(m: int, k: int, h: EigenResult) -> EmbeddingReport:
    """Zero-pad the solved H-eigenpair of H_n into H_k and measure both residuals.

    On the embedded block the padded pair satisfies the H_k eigen-equation
    up to solver accuracy; beyond it the contraction is strictly positive
    against a zero right-hand side, so ``full_residual`` stays positive.
    """
    n = len(h.vector)
    padded = np.zeros(k)
    padded[:n] = h.vector.values
    y = HilbertTensor(m, k).apply_fast(padded).values
    return EmbeddingReport(
        m=m,
        n=n,
        k=k,
        eigenvalue=h.value,
        restricted_residual=equation_residual("H", m, padded[:n], y[:n], h.value),
        full_residual=equation_residual("H", m, padded, y, h.value),
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
    pairs = solve_dims(m, dims, tol, max_iter)
    return [bound_report(m, n, h, z) for n, (h, z) in zip(dims, pairs)]


def monotonicity_sweep(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> MonotonicityReport:
    """Track rho(F_n) and rho(T_n) over strictly ascending dimensions."""
    dims = list(dims)
    _check_dims(dims)
    return monotonicity_report(m, dims, solve_dims(m, dims, tol, max_iter), tol)


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
    """Solve H and Z once per dimension some report needs; derive all reports from them.

    With a single dimension only its bound report is made (none at n = 1),
    so nothing is solved that no report reads.
    """
    dims = list(dims)
    _check_dims(dims)
    bound_dims = [n for n in dims if n >= 2]
    solved = dims if len(dims) >= 2 else bound_dims
    pairs = dict(zip(solved, solve_dims(m, solved, tol, max_iter)))
    mono = None
    if len(dims) >= 2:
        mono = monotonicity_report(m, dims, [pairs[n] for n in dims], tol)
    return DimensionSweep(
        m=m,
        bounds=[bound_report(m, n, *pairs[n]) for n in bound_dims],
        monotonicity=mono,
        embeddings=[embedding_report(m, k, pairs[n][0]) for n, k in zip(dims, dims[1:])],
    )
