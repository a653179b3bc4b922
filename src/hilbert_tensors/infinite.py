"""Truncated infinite-dimensional Hilbert tensor operators with certified tails.

Inputs are finitely supported sequences standing for elements of l^1.  For
such x every component of H_inf x^{m-1} is a finite sum and is computed
exactly (up to float rounding) by the Hankel fast path; all truncation error
lives in the discarded output tail, which is bounded analytically:

    |(H_inf x^{m-1})_i| <= ||x||_1^{m-1} / i

componentwise, so the p-norm tail beyond index N is at most
||x||_1 (sum_{i>N} i^{-q})^{1/p} with q from :func:`tail_exponent`, and the
zeta tail is capped by the integral comparison sum_{i>N} i^{-q} <= N^{1-q}/(q-1).

The operators:

    T_inf x = ||x||_1^{2-m} H_inf x^{m-1}     (maps l^1 into l^p, p > 1)
    F_inf x = (H_inf x^{m-1})^{[1/(m-1)]}     (maps l^1 into l^p, p > m-1)

At p = 2 the norm of T_inf over the unit l^1 sphere is bounded by
pi/sqrt(6) = (sum i^-2)^(1/2), and the first coordinate vector attains it
in the truncation limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GeneratingVector, SequenceVector, as_vector, hankel_apply, real_root
from .rng import SplitMix64

PI_OVER_SQRT6 = math.pi / math.sqrt(6.0)

DEFAULT_TRUNCATION = 100_000

ZETA_TERMS = 1_000_000


@dataclass(frozen=True)
class CertifiedNorm:
    """Truncated p-norm plus a rigorous bound on the discarded tail.

    The true norm lies in [value, (value^p + tail_bound^p)^(1/p)].
    """

    value: float
    tail_bound: float
    p: float
    truncation: int

    @property
    def upper(self) -> float:
        """Certified upper end of the enclosure; inf where a p-th power overflows."""
        try:
            return (self.value**self.p + self.tail_bound**self.p) ** (1.0 / self.p)
        except OverflowError:
            return math.inf


def zeta_tail_bound(q: float, n: int) -> float:
    """Upper bound for sum_{i>n} i^{-q} via integral comparison (q > 1)."""
    if q <= 1:
        raise ValueError("tail bound needs exponent q > 1")
    return n ** (1.0 - q) / (q - 1.0)


def apply_infinite(x, order: int, out_len: int) -> SequenceVector:
    """First ``out_len`` components of H_inf x^{m-1} for finitely supported x."""
    xv = as_vector(x)
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    support = xv.size
    gen = GeneratingVector.hilbert(out_len + (order - 1) * (support - 1))
    return SequenceVector(hankel_apply(gen, xv, order, out_len))


def tail_exponent(operator: str, order: int, p: float) -> float:
    """Tail exponent q of ``operator`` into l^p: p for T, p/(m-1) for F.

    |(T x)_i| <= ||x||_1 / i and |(F x)_i| <= ||x||_1 i^{-1/(m-1)}, so q > 1
    exactly on each operator's range; outside it (p <= 1 for T, p <= m-1
    for F) this raises ValueError with the message the CLI prints.
    """
    if operator == "T":
        if p <= 1:
            raise ValueError(f"operator T needs p > 1, got p = {p:g}")
        return p
    if operator == "F":
        k = order - 1
        if p <= k:
            raise ValueError(f"operator F needs p > m-1 = {k}, got p = {p:g}")
        return p / k
    raise ValueError(f"operator must be 'T' or 'F', got {operator!r}")


def _certified_norm(operator: str, x, order: int, p: float, out_len: int) -> CertifiedNorm:
    q = tail_exponent(operator, order, p)
    xv = as_vector(x)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf/nan in the result
        l1 = float(np.abs(xv).sum())
        if l1 == 0.0:
            return CertifiedNorm(0.0, 0.0, p, out_len)
        head = apply_infinite(xv, order, out_len).values
        head = head * l1 ** (2 - order) if operator == "T" else real_root(head, order - 1)
        value = float(np.sum(np.abs(head) ** p) ** (1.0 / p))
        tail = l1 * zeta_tail_bound(q, out_len) ** (1.0 / p)
    return CertifiedNorm(value, tail, p, out_len)


def t_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||T_inf x||_p from the length-``out_len`` truncation.

    The zero vector maps to the exact zero norm.  Needs p > 1.
    """
    return _certified_norm("T", x, order, p, out_len)


def f_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||F_inf x||_p from the length-``out_len`` truncation.

    Needs p > m-1.  When m-1 is even the contraction is genuinely
    nonnegative for every real x; float noise below zero is clamped and
    anything materially negative raises with the offending 1-based index.
    """
    return _certified_norm("F", x, order, p, out_len)


def operator_norm_constant(operator: str, order: int, p: float) -> float:
    """Rigorous upper bound for the l^1 -> l^p operator-norm constant.

    The constant is (sum i^-q)^(1/p) with q from :func:`tail_exponent`.  At
    q = 2 (p = 2 for T, p = 2(m-1) for F) it is the closed form
    (pi^2/6)^(1/p), which is pi/sqrt(6) for T.  Elsewhere ``ZETA_TERMS``
    terms of the series are summed and its integral-comparison tail added,
    erring upward.
    """
    q = tail_exponent(operator, order, p)
    if q == 2.0:
        return (math.pi**2 / 6.0) ** (1.0 / p)
    with np.errstate(over="ignore"):  # i^q overflows to inf for large q: its term is 0
        partial = float(np.sum(1.0 / np.arange(1, ZETA_TERMS + 1) ** q))
    return (partial + zeta_tail_bound(q, ZETA_TERMS)) ** (1.0 / p)


@dataclass
class NormSearchReport:
    """Best certified lower bound found for an operator norm on the l^1 sphere."""

    operator: str
    order: int
    p: float
    trials: int
    support: int
    out_len: int
    seed: int
    best_value: float
    best_tail_bound: float
    best_vector: list[float] = field(repr=False)
    gap_to_constant: float = 0.0  # operator_norm_constant(operator, order, p) - best_value
    evaluations: int = 0


def _unit_l1(x: np.ndarray) -> np.ndarray:
    s = np.abs(x).sum()
    if s == 0.0:
        raise ValueError("zero candidate")
    return x / s


def norm_search(
    order: int,
    p: float,
    trials: int = 200,
    support: int = 16,
    out_len: int = 10_000,
    seed: int = 0,
    operator: str = "T",
) -> NormSearchReport:
    """Maximize the certified norm lower bound over unit-l^1 vectors.

    Structured candidates (coordinate vectors, decaying profiles) are
    followed by seeded random draws and local mass-move perturbations of the
    incumbent.  Deterministic for fixed seed; ties keep the earlier find.
    No gradient claims: this is evidence for where the operator norm sits,
    not a proof.
    """
    tail_exponent(operator, order, p)
    if support < 1:
        raise ValueError("support must be >= 1")
    evaluate = t_infinity if operator == "T" else f_infinity
    rng = SplitMix64(seed)
    idx = np.arange(1, support + 1, dtype=float)

    candidates: list[np.ndarray] = []
    for k in range(support):
        e = np.zeros(support)
        e[k] = 1.0
        candidates.append(e)
    for profile in (1.0 / idx, 1.0 / idx**2, 0.5**idx, 0.2**idx):
        candidates.append(_unit_l1(profile))

    best_val = -math.inf
    best_cert: CertifiedNorm | None = None
    best_x: np.ndarray | None = None
    evaluations = 0

    def consider(x: np.ndarray) -> None:
        nonlocal best_val, best_cert, best_x, evaluations
        cert = evaluate(x, order, p, out_len)
        evaluations += 1
        if cert.value > best_val:
            best_val = cert.value
            best_cert = cert
            best_x = x

    for cand in candidates:
        consider(cand)

    for trial in range(trials):
        mode = trial % 3
        if mode == 0:
            raw = np.array(rng.uniforms(support, -1.0, 1.0))
            if np.abs(raw).sum() == 0.0:
                continue
            consider(_unit_l1(raw))
        elif mode == 1:
            weights = np.array(rng.uniforms(support)) / idx ** rng.uniform(0.0, 3.0)
            if weights.sum() == 0.0:
                continue
            consider(_unit_l1(weights))
        else:
            x = best_x.copy()
            a = rng.randint(support)
            b = rng.randint(support)
            delta = rng.uniform(0.0, 0.2)
            x[a] = x[a] * (1.0 - delta)
            x[b] = x[b] + math.copysign(delta, x[b] if x[b] != 0 else 1.0)
            consider(_unit_l1(x))

    assert best_cert is not None
    return NormSearchReport(
        operator=operator,
        order=order,
        p=p,
        trials=trials,
        support=support,
        out_len=out_len,
        seed=seed,
        best_value=best_cert.value,
        best_tail_bound=best_cert.tail_bound,
        best_vector=[float(v) for v in best_x],
        gap_to_constant=operator_norm_constant(operator, order, p) - best_cert.value,
        evaluations=evaluations,
    )
