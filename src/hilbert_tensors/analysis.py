"""Quantitative checks of the Hilbert-tensor claims, as machine-readable reports.

Covered claims, each measured into a report:

* positive definiteness of even-order tensors (a closed-form lower end),
* the finite Hilbert inequality
  sum |x_i||x_j|/(i+j-1) <= n sin(pi/n) ||x||_2^2 (an exact bracket end),
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
dimension is solved, and only the previous H and Z eigenpairs and the
scalar bound reports are kept, so its memory grows with the largest
dimension, not with their sum.  Each solve starts from the previous
dimension's eigenvector (``solve_dims``).

A report keeps only what its solves or closed forms measured; no check
judges a claim or raises on a failed one.  Each claim's bound, allowance,
slack and verdict are set on its rows (``reporting``, ``scripts/verify_theorems.py``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import HilbertTensor
from .eigensolvers import EigenResult, equation_residual, h_spectral_radius, z_spectral_radius


@dataclass
class BoundReport:
    """One solved dimension: its largest eigenvalues and how they were found.

    ``rho_h`` is the largest H-eigenvalue, i.e. rho(F_n)^{m-1};
    ``rho_z`` is the largest Z-eigenvalue rho(T_n).
    """

    n: int
    rho_h: float
    rho_z: float
    certified: bool
    iterations_h: int
    iterations_z: int


@dataclass
class MonotonicityReport:
    """rho(F_n) and rho(T_n) across an ascending dimension sweep."""

    dims: list[int]
    rho_h_seq: list[float]  # rho(F_n) = (largest H-eigenvalue)^(1/(m-1))
    rho_z_seq: list[float]
    certified: bool
    tolerance: float


@dataclass
class PositiveDefiniteReport:
    n: int
    min_form_lower: float  # a lower end of min H_n x^m over ||x||_2 = 1, rounded down


@dataclass
class EmbeddingReport:
    n: int
    k: int
    restricted_residual: float  # over the embedded block, components 1..n
    converged: bool


def _rounded(q: Fraction, toward: float) -> float:
    """q as a float rounded toward ``toward``, +inf or -inf, instead of to nearest."""
    f = float(q)
    off = Fraction(f) < q if toward > 0 else Fraction(f) > q
    return math.nextafter(f, toward) if off else f


def _inverse_hilbert_norm(n: int) -> int:
    """||H_n^{-1}||_inf, exact: the inverse Hilbert matrix has the integer entries
    (-1)^{i+j} (i+j-1) C(n+i-1, n-j) C(n+j-1, n-i) C(i+j-2, i-1)^2 (Choi, Amer. Math. Monthly 1983)."""
    c, ns = math.comb, range(1, n + 1)
    return max(sum((i + j - 1) * c(n + i - 1, n - j) * c(n + j - 1, n - i) * c(i + j - 2, i - 1) ** 2 for j in ns)
               for i in ns)


def check_positive_definite(t: HilbertTensor) -> PositiveDefiniteReport:
    """A certified lower end of min H_n x^m over the unit sphere, for even m.

    With p(s) = sum_i x_i s^{i-1}, Jensen's inequality gives H_n x^m =
    int_0^1 p^m >= (x^T H_n x)^{m/2} >= lambda_min(H_n)^{m/2} >= ||H_n^{-1}||_inf^{-m/2},
    exact in integers and rounded down.  Below the float range (m = 2 from
    n = 214, m = 4 from n = 108) it reads 0.0, which certifies only min >= 0.
    """
    if t.order % 2 != 0:
        raise ValueError("positive definiteness is defined for even order only")
    lower = Fraction(1, _inverse_hilbert_norm(t.dim) ** (t.order // 2))
    return PositiveDefiniteReport(n=t.dim, min_form_lower=_rounded(lower, -math.inf))


def hilbert_inequality_ratio(h: EigenResult) -> float:
    """An upper end of max_x sum_ij |x_i||x_j| / (i+j-1) / (n sin(pi/n) ||x||_2^2), from an m = 2 H solve.

    The maximum is lambda_max(H_n) / (n sin(pi/n)), and lambda_max(H_n) <=
    max_i (H_n x)_i / x_i at any positive x (Collatz-Wielandt).  That end is
    exact at the solve's final iterate, whose entries are binary floats; it
    is divided by a lower end of n sin(pi/n) and rounded up.  So the ratio is
    never below the true one; ``h.converged`` says whether it is also tight.
    """
    x = h.vector.values
    n = len(x)
    if n < 2:
        raise ValueError("the inequality needs n >= 2")
    y = HilbertTensor(2, n).apply_naive(x, exact=True)
    upper = max(yi / Fraction(xi) for yi, xi in zip(y, x))
    # math.pi < pi, and the Taylor terms of sin shrink on (0, pi/2]: summed up to the
    # twelfth, a subtracted one, they lie below sin(pi/n), by less than 1e-20
    s = Fraction(math.pi) / n
    sine = sum((-1) ** k * s ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12))
    return _rounded(upper / (n * sine), math.inf)


def _warm_start(prev: EigenResult | None, n: int) -> np.ndarray | None:
    """``prev``'s vector cut or extended to length n with copies of its last entry.

    None, the solvers' all-ones start, where there is no previous solve or
    its vector is not finite and entrywise positive, which the solvers refuse.
    """
    if prev is None:
        return None
    x = prev.vector.values[:n]
    if not (np.minimum.reduce(x) > 0 and np.maximum.reduce(x) < math.inf):  # a NaN entry makes both NaN
        return None
    start = np.empty(n)
    start[: len(x)], start[len(x) :] = x, x[-1]
    return start


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

    Warm starts: H_n is the leading block of H_{n+1}, so each H solve starts
    from the previous entry's H vector, and each Z solve from the previous
    Z vector, extended with copies of its last entry (``_warm_start``).  At
    m = 2 the largest H- and Z-eigenvalue are both lambda_max(H_n) and the
    two steps agree up to rounding, so Z starts from this entry's final H
    vector and normally stops after one iteration, on its own residual.  The
    first entry, and any whose previous vector is not finite and positive,
    start from all ones.  So an entry's iterations and last digits depend on
    the dims before it: n = 9 in ``5..9`` and alone can differ.
    """
    h = z = None
    for n in dims:
        t = HilbertTensor(m, n)
        h = h_spectral_radius(t, tol=tol, max_iter=max_iter, x0=_warm_start(h, n))
        z = z_spectral_radius(t, tol=tol, max_iter=max_iter, x0=_warm_start(h if m == 2 else z, n))
        h.trace.clear()
        z.trace.clear()
        yield h, z


def bound_report(h: EigenResult, z: EigenResult) -> BoundReport:
    """One dimension's record from its solved (H, Z) pair."""
    return BoundReport(
        n=len(h.vector),
        rho_h=h.value,
        rho_z=z.value,
        certified=h.converged and z.converged,
        iterations_h=h.iterations,
        iterations_z=z.iterations,
    )


def monotonicity_report(m: int, records: list[BoundReport], tol: float) -> MonotonicityReport:
    """rho(F_n) and rho(T_n) from the bound reports of ascending dimensions."""
    return MonotonicityReport(
        dims=[rep.n for rep in records],
        rho_h_seq=[rep.rho_h ** (1.0 / (m - 1)) for rep in records],
        rho_z_seq=[rep.rho_z for rep in records],
        certified=all(rep.certified for rep in records),
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
    """Run both eigensolvers per dimension, for rows against the sine bounds."""
    dims = list(dims)
    if any(n < 2 for n in dims):
        raise ValueError("bound rows need n >= 2; the sine bound is vacuous at n = 1")
    return [bound_report(h, z) for h, z in solve_dims(m, dims, tol, max_iter)]


def monotonicity_sweep(
    m: int,
    dims,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> MonotonicityReport:
    """Track rho(F_n) and rho(T_n) over strictly ascending dimensions."""
    dims = list(dims)
    _check_dims(dims)
    return monotonicity_report(m, [bound_report(h, z) for h, z in solve_dims(m, dims, tol, max_iter)], tol)


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
    vector is the cached one.  Only the previous H and Z eigenpairs and the
    bound reports are kept.  With a single dimension only its bound report
    is made (none at n = 1), so nothing is solved that no report reads.  The
    solves are ``solve_dims``'s, warm-started: H and Z from the previous
    dimension's vectors, extended with copies of their last entry, and Z at
    m = 2 from this dimension's H vector; the first dimension starts from
    all ones.
    """
    dims = list(dims)
    _check_dims(dims)
    solved = dims if len(dims) >= 2 else [n for n in dims if n >= 2]
    records, embeddings = [], []
    prev_h = None
    for h, z in solve_dims(m, solved, tol, max_iter):
        records.append(bound_report(h, z))
        if prev_h is not None:
            embeddings.append(embedding_report(m, records[-1].n, prev_h))
        prev_h = h
    mono = monotonicity_report(m, records, tol) if len(dims) >= 2 else None
    return DimensionSweep(m, [rep for rep in records if rep.n >= 2], mono, embeddings)
