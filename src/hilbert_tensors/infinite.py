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

So no candidate after e_1 beats it, and where ``out_len`` exceeds
``_SCREEN_TRUNCATION`` (1000) :func:`norm_searches` screens candidates before
building their length-``out_len`` heads.  A candidate replaces an incumbent
only if its value is strictly larger, so an operator skips:

* a candidate byte-equal to its incumbent or to the incumbent's negative:
  the evaluation is deterministic and float rounding is symmetric under
  negation, so both give the incumbent's head up to sign and its value bit
  for bit;
* a candidate whose certified upper end on a length-1000 head, widened by
  ``_SCREEN_ALLOWANCE`` (1e-6 relative), is below the incumbent's value: a
  truncated value never exceeds the true norm, and the true norm never
  exceeds the certified upper end at any shorter truncation.

The allowance stands for the rounding of the two heads and their sums.  No
a-priori bound on that rounding exists yet, so it is a guard, not a proof.
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

# norm_searches screens candidates on a head this long when out_len exceeds it,
# and widens the short upper end by the relative allowance (a guard, not a proof)
_SCREEN_TRUNCATION = 1000
_SCREEN_ALLOWANCE = 1e-6


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
    """Upper bound for sum_{i>n} i^{-q} via integral comparison (q > 1, n >= 1)."""
    if q <= 1:
        raise ValueError("tail bound needs exponent q > 1")
    if n < 1:
        raise ValueError(f"tail bound needs n >= 1, got {n}")
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


def _certified_norms(operators, x, order: int, p: float, out_len: int) -> tuple[CertifiedNorm, ...]:
    """Each operator's norm as (sum |h_i|^q)^(1/p) over one head h = H_inf x^{m-1}.

    T scales h by ||x||_1^{2-m} first (q = p), which keeps large x finite;
    F takes no root, since |h_i^{1/(m-1)}|^p = |h_i|^q.  Both are homogeneous
    of degree one, so where the head or its p-th powers would leave the float
    range (tiny, or for T huge, finite ||x||_1), the value is ||x||_1 times
    the value at x / ||x||_1.  Each operator's work array is freed before the
    next one is made, so the head and one work array are all that is held
    (plus the clamped copy ``even_root_domain`` makes where a head for F at
    odd m has float-noise negatives).
    """
    qs = [tail_exponent(operator, order, p) for operator in operators]
    xv = as_vector(x)
    generating_length(xv.size, order, out_len)  # the head's input rule, zero vector included
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/nan in the result
        l1 = float(np.abs(xv).sum())
        if l1 == 0.0:
            return tuple(CertifiedNorm(0.0, 0.0, p, out_len) for _ in operators)
        tails = [l1 * zeta_tail_bound(q, out_len) ** (1.0 / p) for q in qs]
        if math.isfinite(l1) and _outside_float_range(l1, order, p):
            units = _certified_norms(operators, xv / l1, order, p, out_len)
            return tuple(CertifiedNorm(unit.value * l1, tail, p, out_len) for unit, tail in zip(units, tails))
        head = apply_infinite(xv, order, out_len).values
        values = []
        for operator, q in zip(operators, qs):
            even_root = operator == "F" and order % 2 == 1  # F takes an even root of every component
            work = np.abs(even_root_domain(head) if even_root else head)  # |h|, scaled for T, to the q
            if operator == "T":
                work *= l1 ** (2 - order)  # |h| s equals |h s| bit for bit
            work **= q
            values.append(float(np.sum(work) ** (1.0 / p)))
            del work
    return tuple(CertifiedNorm(value, tail, p, out_len) for value, tail in zip(values, tails))


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
    docstring proves is attained at e_1.  The one-operator case of
    :func:`norm_searches`, which ``infinite --search --op both`` runs for T
    and F over one candidate stream and one head per distinct candidate.
    """
    (report,) = norm_searches((operator,), order, p, trials, support, out_len, seed)
    return report


def norm_searches(
    operators,
    order: int,
    p: float,
    trials: int = 200,
    support: int = 16,
    out_len: int = 10_000,
    seed: int = 0,
) -> tuple[NormSearchReport, ...]:
    """:func:`norm_search` for each of ``operators`` over one candidate stream.

    Every operator draws the same candidates, except that a perturbation
    moves mass in its own incumbent.  Candidates are grouped by their bytes,
    and each distinct one gets one head for all the operators that drew it,
    so each report equals that of a separate :func:`norm_search`.  Each
    candidate is built where it is considered: memory grows with ``support``.

    Where ``out_len`` exceeds ``_SCREEN_TRUNCATION`` (1000), an operator
    skips a candidate equal to its incumbent or the incumbent's negative, and
    one whose length-1000 upper end, widened by the guard ``_SCREEN_ALLOWANCE``,
    is below the incumbent's value (module docstring).  Neither could replace
    the incumbent, so the reports are those of the unscreened search, and a
    losing candidate costs a head of length 1000, not ``out_len``.
    ``evaluations`` still counts every candidate considered.
    """
    for operator in operators:
        tail_exponent(operator, order, p)
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if support < 1:
        raise ValueError("support must be >= 1")
    rng = SplitMix64(seed)
    idx = np.arange(1, support + 1, dtype=float)

    # per operator: the incumbent's value, certificate and vector
    best_val = [-math.inf] * len(operators)
    best_cert: list[CertifiedNorm | None] = [None] * len(operators)
    best_x: list[np.ndarray | None] = [None] * len(operators)
    evaluations = 0

    def screen(key: bytes, x: np.ndarray, members: list[int]) -> list[int]:
        """The members for which x, with bytes ``key``, may beat the incumbent at out_len."""
        # the incumbent's bytes, or its negative's, give the incumbent's value bit for bit
        members = [
            i for i in members if best_x[i] is None or key not in (best_x[i].tobytes(), (-best_x[i]).tobytes())
        ]
        if not members:
            return members
        shorts = _certified_norms(tuple(operators[i] for i in members), x, order, p, _SCREEN_TRUNCATION)
        # "not <" lets a nan upper end through to the full head
        widened = [short.upper * (1.0 + _SCREEN_ALLOWANCE) for short in shorts]
        return [i for i, upper in zip(members, widened) if not upper < best_val[i]]

    def consider(xs: list[np.ndarray]) -> None:
        """Evaluate xs[i] for operators[i], one head per distinct candidate that passes the screen."""
        nonlocal evaluations
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for i, x in enumerate(xs):
            groups.setdefault(x.tobytes(), (x, []))[1].append(i)
        for key, (x, members) in groups.items():
            if out_len > _SCREEN_TRUNCATION:
                members = screen(key, x, members)
            if not members:
                continue
            certs = _certified_norms(tuple(operators[i] for i in members), x, order, p, out_len)
            for i, cert in zip(members, certs):
                if cert.value > best_val[i]:
                    best_val[i], best_cert[i], best_x[i] = cert.value, cert, x
        evaluations += 1

    for k in range(support):
        e = np.zeros(support)
        e[k] = 1.0
        consider([e] * len(operators))
    for profile in (1.0 / idx, 1.0 / idx**2, 0.5**idx, 0.2**idx):
        consider([_unit_l1(profile)] * len(operators))

    for trial in range(trials):
        mode = trial % 3
        if mode == 0:
            raw = np.array(rng.uniforms(support, -1.0, 1.0))
            consider([_unit_l1(raw)] * len(operators))
        elif mode == 1:
            weights = np.array(rng.uniforms(support)) / idx ** rng.uniform(0.0, 3.0)
            consider([_unit_l1(weights)] * len(operators))
        else:
            a = rng.randint(support)
            b = rng.randint(support)
            delta = rng.uniform(0.0, 0.2)
            moved = []
            for incumbent in best_x:
                x = incumbent.copy()
                x[a] = x[a] * (1.0 - delta)
                x[b] = x[b] + math.copysign(delta, x[b] if x[b] != 0 else 1.0)
                moved.append(_unit_l1(x))
            consider(moved)

    return tuple(
        NormSearchReport(
            operator=operator,
            order=order,
            p=p,
            trials=trials,
            support=support,
            out_len=out_len,
            seed=seed,
            best_value=cert.value,
            best_tail_bound=cert.tail_bound,
            best_vector=[float(v) for v in x],
            evaluations=evaluations,
        )
        for operator, cert, x in zip(operators, best_cert, best_x)
    )
