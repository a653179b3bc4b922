"""Brute-force reference implementations of the test suite (``from oracle import ...``).

Nothing here shares code with the production paths in :mod:`core`:
contraction goes through a dense materialized tensor (float) or literal
nested loops over Fractions (exact), and extremal values come from grid
search over low-dimensional spheres.  Oracles refuse inputs above their
budget instead of degrading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hilbert_tensors.core import BudgetError, HilbertTensor, as_vector


@dataclass(frozen=True)
class OracleConfig:
    max_elements: int = 10_000_000
    grid_points: int = 100_000
    refinement_rounds: int = 12

    def __post_init__(self):
        if self.max_elements < 1 or self.grid_points < 8 or self.refinement_rounds < 0:
            raise ValueError("oracle budgets must be positive")


DEFAULT_CONFIG = OracleConfig()


def _dense(t: HilbertTensor, max_elements: int) -> np.ndarray:
    n, m = t.dim, t.order
    if n**m > max_elements:
        raise BudgetError(f"oracle refuses {n}^{m} = {n**m} dense elements (budget {max_elements})")
    offs = np.arange(n, dtype=np.int64)
    total = offs
    for _ in range(m - 1):
        total = np.add.outer(total, offs)
    return 1.0 / (total + 1.0)


def brute_apply(t: HilbertTensor, x, exact: bool = False, cfg: OracleConfig = DEFAULT_CONFIG):
    """H_n x^{m-1} with no code shared with the production paths.

    Float mode contracts a dense materialized tensor axis by axis; exact mode
    runs literal nested loops in rational arithmetic.
    """
    n, m = t.dim, t.order
    if exact:
        xs = [Fraction(v) for v in (x.values if hasattr(x, "values") else x)]
        if len(xs) != n:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(1, n + 1):
            acc = Fraction(0)
            for tail in itertools.product(range(1, n + 1), repeat=m - 1):
                prod = Fraction(1)
                for j in tail:
                    prod *= xs[j - 1]
                acc += prod / Fraction(i + sum(tail) - m + 1)
            out.append(acc)
        return out
    xv = as_vector(x)
    if xv.size != n:
        raise ValueError("dimension mismatch")
    dense = _dense(t, cfg.max_elements)
    result = dense
    for _ in range(m - 1):
        result = np.tensordot(result, xv, axes=([result.ndim - 1], [0]))
    return result


def brute_quadratic_form(t: HilbertTensor, x, exact: bool = False, cfg: OracleConfig = DEFAULT_CONFIG):
    """x^T (H_n x^{m-1}) through the brute contraction."""
    if exact:
        xs = [Fraction(v) for v in (x.values if hasattr(x, "values") else x)]
        y = brute_apply(t, x, exact=True, cfg=cfg)
        return sum((a * b for a, b in zip(xs, y)), Fraction(0))
    xv = as_vector(x)
    return float(xv @ brute_apply(t, xv, cfg=cfg))


def dense_matrix_eigenpair(n: int) -> tuple[float, np.ndarray]:
    """Largest eigenpair of the n-by-n Hilbert matrix via LAPACK."""
    matrix = _dense(HilbertTensor(2, n), DEFAULT_CONFIG.max_elements)
    w, v = np.linalg.eigh(matrix)
    vec = v[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return float(w[-1]), vec


def _batch_values(t: HilbertTensor, points: np.ndarray) -> np.ndarray:
    """H_n x^m for every row of ``points``, via per-index-tuple products."""
    n, m = t.dim, t.order
    vals = np.zeros(points.shape[0])
    for idx in itertools.product(range(n), repeat=m):
        coeff = 1.0 / (sum(idx) + 1.0)
        prod = points[:, idx[0]].copy()
        for j in idx[1:]:
            prod *= points[:, j]
        vals += coeff * prod
    return vals


def _normalized(dirs: np.ndarray, norm_kind: str, m: int) -> np.ndarray:
    if norm_kind == "lm":
        norms = (np.abs(dirs) ** m).sum(axis=1) ** (1.0 / m)
    else:
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def brute_max_sphere(
    t: HilbertTensor,
    norm_kind: str = "l2",
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> float:
    """max H_n x^m over the unit sphere of the given norm, to ~1e-6.

    ``l2`` sweeps the whole Euclidean sphere (Z-eigenvalue reference);
    ``lm`` sweeps the nonnegative orthant of the m-norm sphere
    (H-eigenvalue reference).  Angle grid plus window refinement; only
    n <= 3 is supported.
    """
    n, m = t.dim, t.order
    if norm_kind not in ("l2", "lm"):
        raise ValueError(f"norm_kind must be 'l2' or 'lm', got {norm_kind!r}")
    if n > 3:
        raise BudgetError("sphere grid search supports n <= 3 only")
    if n == 1:
        return float(t.entry((1,) * m))

    nonneg = norm_kind == "lm"
    best = -math.inf
    if n == 2:
        width = math.pi / 2 if nonneg else 2 * math.pi
        center = width / 2
        pts = cfg.grid_points
        for _ in range(cfg.refinement_rounds + 1):
            theta = np.linspace(center - width / 2, center + width / 2, pts)
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            if nonneg:
                dirs = np.abs(dirs)
            vals = _batch_values(t, _normalized(dirs, norm_kind, m))
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                center = float(theta[k])
            width /= 4.0
        return best

    pts = max(int(math.sqrt(cfg.grid_points)), 32)
    # theta, phi in [0, pi] cover a hemisphere; enough for the max because
    # even-order forms are sign-symmetric and odd-order maxima are nonnegative.
    width = math.pi / 2 if nonneg else math.pi
    c_theta = c_phi = width / 2
    for _ in range(cfg.refinement_rounds + 1):
        a = np.linspace(c_theta - width / 2, c_theta + width / 2, pts)
        b = np.linspace(c_phi - width / 2, c_phi + width / 2, pts)
        theta, phi = np.meshgrid(a, b, indexing="ij")
        dirs = np.column_stack(
            [
                (np.sin(phi) * np.cos(theta)).ravel(),
                (np.sin(phi) * np.sin(theta)).ravel(),
                np.cos(phi).ravel(),
            ]
        )
        if nonneg:
            dirs = np.abs(dirs)
        vals = _batch_values(t, _normalized(dirs, norm_kind, m))
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            c_theta = float(a[k // pts])
            c_phi = float(b[k % pts])
        width /= 4.0
    return best
