"""Hilbert tensors and their Hankel-structured evaluation paths.

The order-m, dimension-n Hilbert tensor has entries 1/(i_1 + ... + i_m - m + 1)
for 1-based indices.  Because every entry depends only on the index sum, the
tensor is Hankel: it is fully described by the generating sequence
v[s] = 1/(s + 1) over 0-based offsets s, and tensor-vector contraction reduces
to a self-convolution of the input followed by one correlation against v.

The pipeline is plan, then apply.  ``hankel_operator`` plans the contraction
for one (v, order, len x, out_len): it checks the shapes and picks the route
once, and the callable it returns does only the arithmetic of each x.
``hankel_apply`` is that operator applied once; a solver plans one operator
per solve.  The routes: when small, one valid-mode correlation of v against
y = x^{*(m-1)}, which computes only the outputs returned; else overlap-save,
irfft(rfft(v_j) * conj(rfft(x)^(m-1))) over blocks v_j of v, so the
convolution power never leaves the frequency domain (the anti-circulant form
of Ding, Qi and Wei, NLAA 2015).  Blocks are short, a power of two, when y is
short against v; otherwise one block covers every offset read, at the
smallest 2^a 3^b 5^c >= need, a length pocketfft transforms by radix-2, 3 and
5 passes.  Many blocks are taken in groups of ``_FFT_GROUP_BLOCKS`` that
write into one output array, so no other head-sized array is made.  The block
spectra of v are memoised on its ``GeneratingVector``, and
``GeneratingVector.hilbert`` keeps the last vector it built, so repeated
plans at one shape (norm-search candidates) transform only x, as does each
call of one operator (solver iterations).

Three routes compute the same contraction and quadratic form:

* ``apply_naive`` / ``quadratic_form`` via the literal multi-index sum,
* ``apply_fast`` via convolution powers (quasi-linear in n),
* ``quadratic_form_integral`` via polynomial expansion of
  integral(0,1) (sum_i x_i t^(i-1))^m dt, optionally in exact rationals.

They are kept deliberately redundant; the test suite holds them against each
other and against the brute-force oracle module.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

# Dense element budget of ``materialize_dense`` and of the naive arm of ``bench``.
MAX_DENSE_ELEMENTS = 10_000_000

# Above this need * len(y) cost, hankel_apply takes the overlap-save FFT route.
_FFT_PRODUCT_THRESHOLD = 1 << 22

# Blocks per group on the multi-block FFT route: each group's product and irfft
# stay small (G * B doubles) while the head goes straight into one output array.
# Against one batch of all blocks, groups of 16 took 8% off the `infinite`
# benchmark's wall time (2-core x86-64, numpy 2.4).
_FFT_GROUP_BLOCKS = 16


class BudgetError(RuntimeError):
    """A dense computation would exceed its element budget."""


class SequenceVector:
    """Finite real vector with p-norms.

    Stands for an element of R^n, or for a finitely supported element of l^1.
    Values are immutable after construction.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(as_vector(values))
        v.setflags(write=False)
        self.values = v

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.values, dtype=dtype)
        return np.asarray(self.values, dtype=dtype)

    def __repr__(self) -> str:
        return f"SequenceVector({self.values.tolist()!r})"

    def norm(self, p: float) -> float:
        if p < 1:
            raise ValueError(f"p-norms are defined here for p >= 1, got {p}")
        if self.values.size == 0:
            return 0.0
        return float(np.linalg.norm(self.values, ord=float(p)))


def as_vector(x) -> np.ndarray:
    """Coerce SequenceVector / array-like to a 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def even_root_domain(y: np.ndarray) -> np.ndarray:
    """y ready for an even root, with float-noise negatives clamped to 0.

    Negatives above -1e-12 (1 + max|y|), the maximum over the non-NaN
    entries, are noise; anything more negative raises with the 1-based index
    of the most negative entry.  NaN passes through.  With no negative entry,
    y itself is returned.
    """
    if y.size == 0 or y.min() >= 0:  # nothing to clamp; a NaN minimum takes the checks below
        return y
    scale = float(np.max(np.abs(y), where=~np.isnan(y), initial=0.0))
    y = np.where((y < 0) & (y > -1e-12 * (1.0 + scale)), 0.0, y)
    if np.any(y < 0):
        raise ValueError(f"even root of negative component at index {int(np.nanargmin(y)) + 1}")
    return y


@dataclass(frozen=True, eq=False)
class GeneratingVector:
    """Hankel generating sequence with values[s] = 1/(s+1) at offset s.

    ``values`` is a read-only copy of the array given, so it is never written
    after construction, which is what lets ``hankel_apply`` memoise the block
    spectra of one shape on the instance.
    """

    values: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    # the last vector ``hilbert`` built; at most one is held
    _last_hilbert: ClassVar["GeneratingVector | None"] = None

    def __post_init__(self):
        values = np.array(as_vector(self.values))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def hilbert(cls, length: int) -> "GeneratingVector":
        """Read-only 1/(s+1) sequence of ``length``; the same instance while the length repeats."""
        if length < 1:
            raise ValueError("generating vector needs length >= 1")
        last = cls._last_hilbert
        if last is not None and len(last) == length:
            return last
        # drop the old vector and its spectra before the new one is allocated
        del last
        cls._last_hilbert = None
        cls._last_hilbert = cls(1.0 / np.arange(1, length + 1))
        return cls._last_hilbert

    def __len__(self) -> int:
        return len(self.values)


def generating_length(support: int, order: int, out_len: int) -> int:
    """Generating-vector length of a head, out_len + (order-1)(support-1); the one input rule.

    Raises ValueError on an empty x (support < 1), then out_len < 1, then order < 2.
    """
    if support < 1:
        raise ValueError("empty input vector")
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    return out_len + (order - 1) * (support - 1)


def convolve(a, b) -> np.ndarray:
    """Full linear convolution by the direct sum: the tests' reference, off the pipeline."""
    return np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def convolution_power(x, k: int) -> np.ndarray:
    """k-fold self-convolution of x (k >= 1) by direct sums.

    ``hankel_apply`` calls it only on its direct route, where
    need * len(y) <= ``_FFT_PRODUCT_THRESHOLD`` bounds the (k-1) len(x)^2
    multiply-adds, since (k-1) len(x)^2 <= len(y)^2 <= need * len(y).
    """
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError("convolution power needs k >= 1")
    y = x.copy()
    for _ in range(k - 1):
        y = np.convolve(y, x)
    return y


def hankel_operator(gen, order: int, n: int, out_len: int | None = None) -> Callable[..., np.ndarray]:
    """Plan the contraction of a Hankel tensor with generating sequence ``gen`` against x of length n.

    The returned callable maps x to out[i] = sum_s gen[i + s] * y[s] for
    0-based i < out_len (default n), y the (order-1)-fold self-convolution of
    x; it raises ValueError on an x of another length, and the zero vector
    maps to exact zeros.  ``gen`` must hold the need =
    ``generating_length(n, order, out_len)`` values read, which raises
    ValueError on bad input.  The checks, the route and what the route reads
    of ``gen`` are fixed here, once; each call does only the arithmetic of x.

    While need * len(y) <= ``_FFT_PRODUCT_THRESHOLD``, one valid-mode correlation
    (out_len * len(y) multiply-adds).  Else overlap-save with
    X = max(1024, the power of two >= 8 len(y)): each block of B offsets
    yields B - len(y) + 1 outputs from one rfft(x, B) and the cached block
    spectra of ``gen``.  While need <= X, B = ``_fast_length(need)``, the
    smallest 2^a 3^b 5^c >= need: one block, the whole of v[:need], and one
    irfft.  Past X, B = X, a power of two.  Several blocks go in groups of
    ``_FFT_GROUP_BLOCKS``, each one product and one batched irfft written into
    its rows of the one output array; the bits are those of a single batch.
    A ``GeneratingVector`` keeps the spectra of its last shape; a raw array is
    wrapped in a throwaway one.

    Any generating sequence is accepted; nothing here is specific to the
    Hilbert choice gen[s] = 1/(s+1).
    """
    gen = gen if isinstance(gen, GeneratingVector) else GeneratingVector(gen)
    v = gen.values
    n_out = n if out_len is None else int(out_len)
    need = generating_length(n, order, n_out)
    if v.size < need:
        raise ValueError(f"generating vector too short: need {need}, have {v.size}")
    y_len = need - n_out + 1  # len(y)

    def checked(x) -> np.ndarray:
        xv = as_vector(x)
        if xv.size != n:
            raise ValueError(f"operator planned for vectors of length {n}, got {xv.size}")
        return xv

    if need * y_len <= _FFT_PRODUCT_THRESHOLD:
        head = v[:need]

        def apply_direct(x) -> np.ndarray:
            return np.correlate(head, convolution_power(checked(x), order - 1), "valid")

        return apply_direct
    block = max(1024, 1 << (8 * y_len - 1).bit_length())
    if need <= block:  # one block over v[:need], at a length no larger than the power of two >= need
        block = _fast_length(need)
    # row i < step of a block reads offsets i + s <= block - 1: no wrap-around
    step = block - y_len + 1
    key = (need, block, step)
    if key not in gen._spectra:
        gen._spectra.clear()
        gen._spectra[key] = _block_spectra(v[:need], block, step)
    spectra = gen._spectra[key]

    def apply_fft(x) -> np.ndarray:
        fx = np.fft.rfft(checked(x), block)
        np.conjugate(fx, out=fx)
        if spectra.shape[0] == 1:
            fy = spectra * fx  # spectra * conj(fx)^(order-1), in place after the first product
            for _ in range(order - 2):
                fy *= fx
            del fx  # one block over v[:need]: free its buffer before irfft allocates the output
            return np.fft.irfft(fy, block)[:, :step].reshape(-1)[:n_out]
        # groups of blocks write into one output array, so no head-sized temporary is made
        out = np.empty((spectra.shape[0], step))
        for g in range(0, spectra.shape[0], _FFT_GROUP_BLOCKS):
            fy = spectra[g : g + _FFT_GROUP_BLOCKS] * fx
            for _ in range(order - 2):
                fy *= fx
            out[g : g + _FFT_GROUP_BLOCKS] = np.fft.irfft(fy, block)[:, :step]
        return out.reshape(-1)[:n_out]

    return apply_fft


def hankel_apply(gen, x, order: int, out_len: int | None = None) -> np.ndarray:
    """``hankel_operator(gen, order, len(x), out_len)`` applied once to x: the same checks and bits."""
    xv = as_vector(x)
    return hankel_operator(gen, order, xv.size, out_len)(xv)


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1), a length pocketfft transforms by radix-2, 3 and 5 passes.

    The rule of scipy's ``next_fast_len(n, real=True)``: for each 3^b 5^c
    below the power of two >= n, the least power of two that lifts it to n.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _block_spectra(v: np.ndarray, block: int, step: int) -> np.ndarray:
    """Read-only rfft of each v[j*step : j*step + block], zero past the end of v, one row per block.

    The rows cover the len(v) - block + step outputs of the correlation.
    """
    n_blocks = -(-(v.size - block + step) // step)
    padded = np.zeros((n_blocks - 1) * step + block)
    padded[:v.size] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, block)[::step]
    spectra = np.fft.rfft(windows, axis=-1)
    spectra.setflags(write=False)
    return spectra


def _exact_values(x) -> list[Fraction]:
    return [Fraction(v) for v in x]


def _exact_convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class HilbertTensor:
    """Symmetric order-m, dimension-n tensor with entries 1/(i_1 + ... + i_m - m + 1).

    The finite tensor H_n only: it is the leading block of H_inf, so its
    entries are those of any H_N with N >= the largest index.  H_inf acts
    through T_inf and F_inf, whose heads :mod:`hilbert_tensors.infinite`
    evaluates.  ``order`` and ``dim`` are integers (numpy integers too).
    """

    order: int
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "order", operator.index(self.order))
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    # -- entries ------------------------------------------------------------

    def entry(self, idx) -> float:
        """Entry at a 1-based integer index tuple of length ``order``."""
        idx = tuple(map(operator.index, idx))
        if len(idx) != self.order:
            raise ValueError(f"need {self.order} indices, got {len(idx)}")
        for i in idx:
            if not 1 <= i <= self.dim:
                raise ValueError(f"index {i} out of range 1..{self.dim}")
        return 1.0 / (sum(idx) - self.order + 1)

    def materialize_dense(self) -> np.ndarray:
        """Dense m-way array of entries; refuses above ``MAX_DENSE_ELEMENTS`` before allocating."""
        n = self.dim
        if n**self.order > MAX_DENSE_ELEMENTS:
            raise BudgetError(
                f"dense tensor holds {n**self.order} elements, budget is {MAX_DENSE_ELEMENTS}"
            )
        offsets = np.arange(n, dtype=np.int64)
        total = offsets
        for _ in range(self.order - 1):
            total = np.add.outer(total, offsets)
        return 1.0 / (total + 1.0)

    # -- tensor-vector contraction -------------------------------------------

    def _check_dim(self, xv) -> None:
        if len(xv) != self.dim:
            raise ValueError(f"dimension mismatch: tensor dim {self.dim}, vector length {len(xv)}")

    def apply_naive(self, x, exact: bool = False):
        """(H_n x^{m-1})_i by the literal (m-1)-fold index sum.

        With ``exact=True`` the input entries are taken as exact rationals and
        a list of Fractions is returned.
        """
        n, m = self.dim, self.order
        if exact:
            xs = _exact_values(x)
            zero = Fraction(0)
        else:
            xs = [float(v) for v in as_vector(x)]
            zero = 0.0
        self._check_dim(xs)
        out = [zero] * n
        for tail in itertools.product(range(1, n + 1), repeat=m - 1):
            prod = xs[tail[0] - 1]
            s = tail[0]
            for j in tail[1:]:
                prod = prod * xs[j - 1]
                s += j
            for i in range(1, n + 1):
                out[i - 1] += prod / (i + s - m + 1)
        return out if exact else SequenceVector(out)

    def apply_fast(self, x) -> SequenceVector:
        """Same value as ``apply_naive`` via convolution power + correlation.

        The n-head of H_inf x^{m-1}, bit for bit: the same cached generating
        vector and route as ``infinite.apply_infinite(x, m, n)``.  Cost is
        O(m n log(m n)) against the naive O(n^m).
        """
        xv = as_vector(x)
        self._check_dim(xv)
        gen = GeneratingVector.hilbert(generating_length(self.dim, self.order, self.dim))
        return SequenceVector(hankel_apply(gen, xv, self.order))

    def quadratic_form(self, x, exact: bool = False):
        """x^T (H_n x^{m-1}), the degree-m homogeneous form.

        The float route goes through ``apply_fast``.  The exact route repeats
        the same contract-then-dot structure in rational arithmetic.
        """
        if exact:
            xs = _exact_values(x)
            self._check_dim(xs)
            m = self.order
            y = xs
            for _ in range(m - 2):
                y = _exact_convolve(y, xs)
            total = Fraction(0)
            for i, xi in enumerate(xs):
                if xi == 0:
                    continue
                row = sum((ys / (i + s + 1) for s, ys in enumerate(y)), Fraction(0))
                total += xi * row
            return total
        xv = as_vector(x)
        return float(xv @ self.apply_fast(xv).values)

    def quadratic_form_integral(self, x, exact: bool = False):
        """The same form as integral(0,1) of (sum_i x_i t^(i-1))^m dt.

        Expands the m-th power of the coefficient polynomial and integrates
        term by term: sum_k c_k / (k+1).  Serves as the independent oracle
        for ``quadratic_form``; with ``exact=True`` all arithmetic is in
        Fractions and the result is exact for the given binary-float inputs.
        """
        m = self.order
        if exact:
            coeffs = _exact_values(x)
            self._check_dim(coeffs)
            c = coeffs
            for _ in range(m - 1):
                c = _exact_convolve(c, coeffs)
            return sum((ck / (k + 1) for k, ck in enumerate(c)), Fraction(0))
        xv = as_vector(x)
        self._check_dim(xv)
        c = xv
        for _ in range(m - 1):
            c = np.convolve(c, xv)
        return float(c @ (1.0 / np.arange(1, c.size + 1)))


def spectral_bound_h(order: int, dim: int) -> float:
    """Upper bound n^(m-1) sin(pi/n) for the largest H-eigenvalue (n >= 2); inf on overflow."""
    return _sine_bound(order, dim, order - 1)


def spectral_bound_z(order: int, dim: int) -> float:
    """Upper bound n^(m/2) sin(pi/n) for the largest Z-eigenvalue (n >= 2); inf on overflow."""
    return _sine_bound(order, dim, order / 2.0)


def _sine_bound(order: int, dim: int, power) -> float:
    # an int power is exact until the product with the sine rounds it once
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if dim < 2:
        raise ValueError("the sine bound is vacuous at n = 1; need n >= 2")
    try:
        return dim**power * math.sin(math.pi / dim)
    except OverflowError:  # n^power, or its float, past the float range
        return math.inf
