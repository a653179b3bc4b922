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

Their exact l^1 -> l^p norms are ``operator_norm_constant``, zeta(q)^(1/p)
with q from :func:`tail_exponent` (q = p for T, q = p/(m-1) for F).  Write
y = x^{*(m-1)}, so ||y||_1 <= ||x||_1^{m-1}, and H_inf x^{m-1} = sum_s y_s c_s
with Hankel columns c_s = (1/(i+s))_{i>=1}, ||c_s||_q <= zeta(q)^(1/q).
Minkowski gives ||T x||_p <= ||x||_1 zeta(p)^(1/p), and, since
||F x||_p = ||H_inf x^{m-1}||_q^{1/(m-1)}, ||F x||_p <= ||x||_1 zeta(q)^(1/p).
Equality holds at e_1.  The same argument on the first N components shows
that e_1 also maximizes every truncated value, so :func:`norm_search` returns
e_1 (up to rounding ties); its rows are evidence for a proven fact.  (At p = 2 the T constant is
pi/sqrt(6).)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import GeneratingVector, SequenceVector, as_vector, even_root_domain, generating_length, hankel_apply
from .rng import SplitMix64

PI_OVER_SQRT6 = math.pi / math.sqrt(6.0)

DEFAULT_TRUNCATION = 100_000

# Euler-Maclaurin for zeta(q): terms 1..N summed, then the tail from A = N + 1
# with M Bernoulli corrections B_2j / (2j)!.  At N = 9, M = 8 Johansson's
# remainder is below 1e-16 of zeta(q) for every q > 1.
_EM_TERMS = 9
_EM_COEFFS = tuple(
    float(Fraction(b) / math.factorial(2 * j))
    for j, b in enumerate(
        ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), start=1
    )
)
# rounding allowance relative to the terms' magnitudes: a term carries at most
# 4M + 3 roundings of u = 2^-53 (pow counted as two, the rising-factorial
# factors, its coefficient), fsum one more and the two final additions two
_EM_ROUNDING = 64 * 2.0**-53


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
        """Certified upper end of the enclosure; inf where a p-th power overflows.

        Where p-th powers underflow and the sum would fall below either term,
        it is taken relative to the larger term.
        """
        try:
            upper = (self.value**self.p + self.tail_bound**self.p) ** (1.0 / self.p)
        except OverflowError:
            return math.inf
        big = max(self.value, self.tail_bound)
        if not upper < big:
            return upper
        return big * ((self.value / big) ** self.p + (self.tail_bound / big) ** self.p) ** (1.0 / self.p)


def zeta_tail_bound(q: float, n: int) -> float:
    """Upper bound for sum_{i>n} i^{-q} via integral comparison (q > 1)."""
    if q <= 1:
        raise ValueError("tail bound needs exponent q > 1")
    return n ** (1.0 - q) / (q - 1.0)


def zeta_upper_bound(q: float) -> float:
    """Upper bound for zeta(q) = sum_{i>=1} i^{-q} (q > 1), within 1e-14 relative.

    Euler-Maclaurin at the cut-off A = N + 1 (Johansson, "Rigorous
    high-precision computation of the Hurwitz zeta function", Numer.
    Algorithms 2015, Theorem 1):

        zeta(q) = sum_{i<=N} i^-q + A^(1-q)/(q-1) + A^-q/2
                  + sum_{j<=M} B_2j/(2j)! (q)_{2j-1} A^(1-q-2j) + R,
        |R| <= 4 (q)_{2M} A^(1-q-2M) / ((2 pi)^(2M) (q + 2M - 1)),

    (q)_k the rising factorial.  |R| and a rounding allowance proportional to
    the sum of the terms' magnitudes are added, so the result errs upward.
    Stdlib floats only, a few microseconds per call.
    """
    if q <= 1:
        raise ValueError("zeta needs exponent q > 1")
    a = _EM_TERMS + 1.0
    terms = [i**-q for i in range(1, _EM_TERMS + 1)]
    rising = a**-q  # (q)_k a^(-q-k), for k = 0, 1, ...
    terms += [rising * a / (q - 1.0), rising / 2.0]
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        if rising == 0.0:  # underflowed: every later term is 0 (and q = inf would give nan)
            break
        rising *= (q + 2 * j - 2) / a  # k = 2j - 1
        terms.append(coeff * rising)
        rising *= (q + 2 * j - 1) / a  # k = 2j
    two_m = 2 * len(_EM_COEFFS)
    remainder = 4.0 * rising * a / ((2.0 * math.pi) ** two_m * (q + two_m - 1.0))
    return math.fsum(terms) + remainder + _EM_ROUNDING * math.fsum(map(abs, terms))


def apply_infinite(x, order: int, out_len: int) -> SequenceVector:
    """First ``out_len`` components of H_inf x^{m-1} for finitely supported x.

    The zero vector maps to exact zeros.  An empty x, ``out_len < 1`` or order < 2
    raises ValueError before the cached generating vector can be replaced.
    """
    xv = as_vector(x)
    gen = GeneratingVector.hilbert(generating_length(xv.size, order, out_len))
    return SequenceVector(hankel_apply(gen, xv, order, out_len))


def tail_exponent(operator: str, order: int, p: float) -> float:
    """Tail exponent q of ``operator`` into l^p: p for T, p/(m-1) for F.

    |(T x)_i| <= ||x||_1 / i and |(F x)_i| <= ||x||_1 i^{-1/(m-1)}, so q > 1
    exactly on each operator's range; outside it (p <= 1 for T, p <= m-1
    for F) this raises ValueError with the message the CLI prints.  A
    non-finite p (the norms and tail bounds are finite-p sums) or order < 2 raises too.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got p = {p:g}")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
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


def _outside_float_range(l1: float, order: int, p: float) -> bool:
    """Whether at finite ||x||_1 = l1 > 0 the head, about l1^{m-1}, or its
    p-th powers, about l1^p, leave the float range.

    Overflowing p-th powers are left to show as an infinite value, since the
    tail's p-th power, and so the upper end, overflows with them; the head
    alone overflows only for T at p < m - 1.
    """
    tiny, huge = math.log(sys.float_info.min), math.log(sys.float_info.max)
    head, powers = math.log(l1) * (order - 1), math.log(l1) * p
    return head < tiny or powers < tiny or head >= huge > powers


def _certified_norm(operator: str, x, order: int, p: float, out_len: int) -> CertifiedNorm:
    """Both norms as (sum |h_i|^q)^(1/p) over the head h = H_inf x^{m-1}.

    T scales h by ||x||_1^{2-m} first (q = p), which keeps large x finite;
    F takes no root, since |h_i^{1/(m-1)}|^p = |h_i|^q.  Both are homogeneous
    of degree one, so where the head or its p-th powers would leave the float
    range (tiny, or for T huge, finite ||x||_1), the value is ||x||_1 times
    the value at x / ||x||_1.
    """
    q = tail_exponent(operator, order, p)
    xv = as_vector(x)
    generating_length(xv.size, order, out_len)  # the head's input rule, zero vector included
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/nan in the result
        l1 = float(np.abs(xv).sum())
        if l1 == 0.0:
            return CertifiedNorm(0.0, 0.0, p, out_len)
        tail = l1 * zeta_tail_bound(q, out_len) ** (1.0 / p)
        if math.isfinite(l1) and _outside_float_range(l1, order, p):
            value = _certified_norm(operator, xv / l1, order, p, out_len).value * l1
            return CertifiedNorm(value, tail, p, out_len)
        head = apply_infinite(xv, order, out_len).values
        if operator == "F" and order % 2 == 1:  # F takes an even root of every component
            head = even_root_domain(head)
        work = np.abs(head)  # the one head-sized work array: |h|, scaled for T, to the q
        if operator == "T":
            work *= l1 ** (2 - order)  # |h| s equals |h s| bit for bit
        work **= q
        value = float(np.sum(work) ** (1.0 / p))
    return CertifiedNorm(value, tail, p, out_len)


def t_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||T_inf x||_p from the length-``out_len`` truncation.

    Needs p > 1.  The zero vector maps to the exact zero norm; an empty x,
    ``out_len < 1`` or order < 2 raises ValueError.
    """
    return _certified_norm("T", x, order, p, out_len)


def f_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||F_inf x||_p from the length-``out_len`` truncation.

    Needs p > m-1.  The zero vector maps to the exact zero norm; an empty x,
    ``out_len < 1`` or order < 2 raises ValueError.  When m-1 is even the
    contraction is nonnegative for every real x; float noise below zero is
    clamped and anything materially negative raises with its 1-based index.
    """
    return _certified_norm("F", x, order, p, out_len)


def operator_norm_constant(operator: str, order: int, p: float) -> float:
    """Rigorous upper bound for the l^1 -> l^p operator-norm constant.

    The constant is (sum i^-q)^(1/p) = zeta(q)^(1/p) with q from
    :func:`tail_exponent`, and it is the exact norm of T (q = p) and of
    F (q = p/(m-1)), attained at e_1: by Minkowski over the Hankel columns
    c_s = (1/(i+s))_{i>=1}, ||c_s||_q <= zeta(q)^(1/q), with
    ||x^{*(m-1)}||_1 <= ||x||_1^{m-1} (module docstring).  At
    q = 2 (p = 2 for T, p = 2(m-1) for F) it is the closed form
    (pi^2/6)^(1/p), which is pi/sqrt(6) for T.  Elsewhere it is
    :func:`zeta_upper_bound` to the power 1/p, erring upward up to the
    rounding of that last power.
    """
    q = tail_exponent(operator, order, p)
    if q == 2.0:
        return (math.pi**2 / 6.0) ** (1.0 / p)
    return zeta_upper_bound(q) ** (1.0 / p)


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
    evaluations: int = 0

    @property
    def gap_to_constant(self) -> float:
        """operator_norm_constant(operator, order, p) - best_value, computed on access."""
        return operator_norm_constant(self.operator, self.order, self.p) - self.best_value


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
    No gradient claims: the result is evidence for the norm, which the module
    docstring proves is attained at e_1.
    """
    tail_exponent(operator, order, p)
    if trials < 0:
        raise ValueError("trials must be >= 0")
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
        evaluations=evaluations,
    )
