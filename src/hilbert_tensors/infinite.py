"""Truncated infinite-dimensional Hilbert tensor operators with certified tails.

Inputs are finitely supported sequences standing for elements of l^1.  For
such x every component of H_inf x^{m-1} is a finite sum and is computed
exactly (up to float rounding) by the Hankel fast path; all truncation error
lives in the discarded output tail, which is bounded analytically:

    |(H_inf x^{m-1})_i| <= ||x||_1^{m-1} / i

componentwise, so the p-norm tail beyond index N is at most
||x||_1 (sum_{i>N} i^{-q})^{1/p} with q from :func:`tail_exponent`, and the
zeta tail is capped by the integral comparison sum_{i>N} i^{-q} <= N^{1-q}/(q-1),
whose p-th root :func:`_enclosure` takes from logarithms, rounded up.  The
upper end of the enclosure is :attr:`CertifiedNorm.upper`.  At q in {2, 4, 6}
the head's sum of |s h_i|^q is one ``np.einsum`` chain of products, within
gamma_{N+q+2} relative and independent of the BLAS thread count.

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
that e_1 also maximizes every truncated value, so ``infinite --search``
walks no candidates: it certifies [1.0] through the same
:func:`_certified_norms` call as a single vector.  (At p = 2 the T constant
is pi/sqrt(6).)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    GeneratingVector,
    SequenceVector,
    as_vector,
    even_root_domain,
    generating_length,
    hankel_apply,
)

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

    The true norm lies in [value, (value^p + tail_bound^p)^(1/p)], up to the
    rounding of value, which is not yet rounded outward: at q in {2, 4, 6}
    up to gamma_{N+q+2} relative, N = truncation (see :func:`_enclosure`).
    """

    value: float
    tail_bound: float
    p: float
    truncation: int

    @property
    def upper(self) -> float:
        """Certified upper end of the enclosure, (value^p + tail_bound^p)^(1/p).

        inf where a finite term's p-th power overflows; where p-th powers
        underflow and the sum would fall below the larger term, it is taken
        relative to that term.
        """
        value, tail, p = self.value, self.tail_bound, self.p
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):  # inf/nan in the result
            big, vp, tp = np.fmax(value, tail), np.float64(value) ** p, np.float64(tail) ** p  # inf, not OverflowError
            upper = np.inf if (vp == np.inf or tp == np.inf) and big < np.inf else (vp + tp) ** (1.0 / p)
            return float(big * ((value / big) ** p + (tail / big) ** p) ** (1.0 / p) if upper < big else upper)


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
    return SequenceVector._owning(_head(as_vector(x), order, out_len))


def _head(xv: np.ndarray, order: int, out_len: int) -> np.ndarray:
    """The first ``out_len`` components of H_inf x^{m-1} as a fresh writeable array that the caller owns."""
    gen = GeneratingVector.hilbert(generating_length(xv.size, order, out_len))
    return hankel_apply(gen, xv, order, out_len)


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
    """Whether at finite ||x||_1 = l1 > 0 the head, about l1^{m-1}, leaves the float range.

    Overflowing p-th powers, about l1^p, are left to show as an infinite
    value, since the tail's p-th power, and so the upper end, overflows with
    them; the head alone overflows only for T at p < m - 1.  Underflowing
    p-th powers of a normal head are :func:`_enclosure`'s.
    """
    head, powers = math.log(l1) * (order - 1), math.log(l1) * p
    return head < math.log(sys.float_info.min) or head >= math.log(sys.float_info.max) > powers


def _enclosure(p: float, head, q: float, scale: float, l1: float, out_len: int, rebuild=None):
    """Value and tail bound of the certified l^p enclosure of one head.

    value = (sum_i |scale h_i|^q)^(1/p), inf where it overflows; below the normal range the sum is taken
    relative to max_i |h_i| (a zero head stays 0).  tail = l1 (N^(1-q) / (q-1))^(1/p), N = out_len, the root of
    the integral bound on sum_{i>N} i^-q.  That bound underflows from q ~ 66 at N = 10^5, so its p-th root is
    taken as exp(log(bound) / p) rounded up by 2^-40 relative (the logarithms' rounding is < 1e-13 for
    out_len < 2^64), so it holds where the bound underflows too.

    At q in {2, 4, 6} the sum is r = scale h, squared in place to r^2 at q = 4 and 6, then one
    ``np.einsum`` sum of products: a single accumulation chain, within gamma_{N+q+2} = (N+q+2)u / (1-(N+q+2)u),
    u = 2^-53, of the sum relative (plus N 2^-1073 where products underflow), and with bits that do not
    depend on the BLAS thread count.  Every other q, and the relative pass, takes |h|, ``**= q`` and a sum.

    Without ``rebuild`` the head is left as it is, and at most one work array is made (none at scale 1 and
    q = 2).  With it, a callable that returns the head anew as a fresh array, the work is done in place on
    ``head``, and the rare relative pass takes |h| from ``rebuild()``.
    """
    def out(work):  # where a pass over work writes: in place, unless work is a head left as it is
        return None if work is head and rebuild is None else work

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):  # inf/nan in the results
        if q in (2.0, 4.0, 6.0):
            work = head if scale == 1.0 else np.multiply(head, scale, out=out(head))  # r = scale h
            if q != 2:
                work = np.multiply(work, work, out=out(work))  # r^2
            total = np.einsum("i,i,i->", work, work, work) if q == 6 else np.einsum("i,i->", work, work)
        else:
            work = np.abs(head, out=out(head))  # |h|, scaled for T, to the q
            if scale != 1.0:
                work *= scale  # |h| s equals |h s| bit for bit
            work **= q
            total = work.sum()
        value = total ** (1.0 / p)
        if total < sys.float_info.min:  # one more pass, over |h| / max |h|
            work = np.abs(head if rebuild is None else rebuild(), out=out(work))
            big = work.max()
            work /= big
            work **= q
            value = (scale * big) ** (q / p) * np.nansum(work) ** (1.0 / p)
        tail = l1 * np.exp(((1.0 - q) * math.log(out_len) - np.log(q - 1.0)) / p) * (1.0 + 2.0**-40)
    return value, tail


def _certified_norms(operators, x, order: int, p: float, out_len: int) -> tuple[CertifiedNorm, ...]:
    """Each operator's certified norm from one head h = H_inf x^{m-1} of length ``out_len``.

    Checks the operators and p, then the head's inputs, and takes h from
    :func:`_head`, the seam :func:`apply_infinite` wraps.  The value is (sum |h_i|^q)^(1/p), q from
    :func:`tail_exponent`: T scales h by ||x||_1^{2-m} first (q = p), which
    keeps large x finite; F takes no root, since |h_i^{1/(m-1)}|^p = |h_i|^q.
    The tail bound is ||x||_1 (sum_{i>out_len} i^{-q})^{1/p}.  Both are
    homogeneous of degree one, so where the head would leave the float range
    (tiny, or for T huge, finite ||x||_1), the value is ||x||_1 times the
    value at x / ||x||_1; :func:`_enclosure` computes both, and keeps them
    where only p-th powers underflow.  The zero vector calls no head.
    An operator at scale 1 and q = 2 only reads the head; such operators run first.  The last to run
    works in place on the head, and every other one that needs a work array works in its own, freed before
    the next one is made.  So one operator holds one head-sized array, and two hold two only when both
    need a work array (plus the clamped copy ``even_root_domain`` makes where a head for F at odd m has
    float-noise negatives).  The results come in the order of ``operators``.
    """
    qs = [tail_exponent(operator, order, p) for operator in operators]
    xv = as_vector(x)
    generating_length(xv.size, order, out_len)  # the head's input rule, zero vector included
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/nan in the result
        l1 = float(np.abs(xv).sum())
        if l1 == 0.0:
            return tuple(CertifiedNorm(0.0, 0.0, p, out_len) for _ in operators)
        times = l1 if math.isfinite(l1) and _outside_float_range(l1, order, p) else 1.0  # the values at x / times
        unit_l1 = l1 if times == 1.0 else float(np.abs(xv := xv / times).sum())
        scales = {"T": unit_l1 ** (2 - order), "F": 1.0}

        def domain(op, h):  # at odd m, F takes an even root of every component
            return even_root_domain(h) if op == "F" and order % 2 == 1 else h

        # readers first; the last to run works in place on the head, and computes it again for a relative pass
        runs = sorted(range(len(operators)), key=lambda i: not (scales[operators[i]] == 1.0 and qs[i] == 2.0))
        h, ends = _head(xv, order, out_len), [None] * len(operators)
        for i in runs:
            op = operators[i]
            rebuild = (lambda op=op: domain(op, _head(xv, order, out_len))) if i == runs[-1] else None
            ends[i] = _enclosure(p, domain(op, h), qs[i], scales[op], l1, out_len, rebuild)
    return tuple(CertifiedNorm(float(value) * times, float(tail), p, out_len) for value, tail in ends)


def t_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||T_inf x||_p from the length-``out_len`` truncation.

    Needs p > 1.  The zero vector maps to the exact zero norm; an empty x,
    ``out_len < 1`` or order < 2 raises ValueError.
    """
    (cert,) = _certified_norms(("T",), x, order, p, out_len)
    return cert


def f_infinity(x, order: int, p: float, out_len: int = DEFAULT_TRUNCATION) -> CertifiedNorm:
    """Certified ||F_inf x||_p from the length-``out_len`` truncation.

    Needs p > m-1.  The zero vector maps to the exact zero norm; an empty x,
    ``out_len < 1`` or order < 2 raises ValueError.  When m-1 is even the
    contraction is nonnegative for every real x; float noise below zero is
    clamped and anything materially negative raises with its 1-based index.
    """
    (cert,) = _certified_norms(("F",), x, order, p, out_len)
    return cert


def operator_norm_constant(operator: str, order: int, p: float) -> float:
    """The l^1 -> l^p operator-norm constant in floats, not a rigorous upper bound.

    The constant is (sum i^-q)^(1/p) = zeta(q)^(1/p) with q from
    :func:`tail_exponent`, and it is the exact norm of T (q = p) and of
    F (q = p/(m-1)), attained at e_1: by Minkowski over the Hankel columns
    c_s = (1/(i+s))_{i>=1}, ||c_s||_q <= zeta(q)^(1/q), with
    ||x^{*(m-1)}||_1 <= ||x||_1^{m-1} (module docstring).  At
    q = 2 (p = 2 for T, p = 2(m-1) for F) it is the closed form (pi^2/6)^(1/p),
    pi/sqrt(6) for T, and no upper bound: correctly rounded, 1.6e-17 below the
    constant at p = 2, above it at p = 4 and 6.  Elsewhere it is
    :func:`zeta_upper_bound` to the power 1/p, erring upward up to the rounding
    of that last power.  The ``infinite`` verdict's 1e-9 allowance covers both.
    """
    q = tail_exponent(operator, order, p)
    if q == 2.0:
        return (math.pi**2 / 6.0) ** (1.0 / p)
    return zeta_upper_bound(q) ** (1.0 / p)


def norm_search(order: int, p: float, out_len: int = DEFAULT_TRUNCATION, operator: str = "T") -> CertifiedNorm:
    """``operator``'s certified l^1 -> l^p norm, taken at its maximizer e_1 = [1.0] (module docstring).

    ``infinite --search`` makes the same :func:`_certified_norms` call for all its operators at once.  This
    name stays only because the benchmark's tracer (``perfbench/tracing.py``, ``SPANS``) wraps it; the
    in-library trace recorder of ROADMAP item 4 replaces that tracer and deletes it.
    """
    (cert,) = _certified_norms((operator,), [1.0], order, p, out_len)
    return cert
