"""Hilbert tensors and their Hankel-structured evaluation paths.

The order-m, dimension-n Hilbert tensor has entries 1/(i_1 + ... + i_m - m + 1)
for 1-based indices.  Because every entry depends only on the index sum, the
tensor is Hankel: it is fully described by the generating sequence
v[s] = 1/(s + 1) over 0-based offsets s, and tensor-vector contraction reduces
to a self-convolution of the input followed by one correlation against v.

``hankel_apply`` picks its route once: when small, one valid-mode correlation
of v against y = x^{*(m-1)}, which computes only the outputs returned; else
overlap-save, irfft(rfft(v_j) * conj(rfft(x)^(m-1))) over blocks v_j of v, so
the convolution power never leaves the frequency domain (the anti-circulant
form of Ding, Qi and Wei, NLAA 2015).  Blocks are short when y is short
against v, and one block covers every offset read otherwise; many blocks are
taken in groups of ``_FFT_GROUP_BLOCKS`` that write into one output array, so
no other head-sized array is made.  The block
spectra of v are memoised on its ``GeneratingVector``, and
``GeneratingVector.hilbert`` keeps the last vector it built, so repeated
applies at one shape (solver iterations, norm-search candidates) transform
only x.

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
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

DEFAULT_MAX_ELEMENTS = 10_000_000

# Above this need * len(y) cost, hankel_apply takes the overlap-save FFT route.
_FFT_PRODUCT_THRESHOLD = 1 << 22

# Blocks per group on the multi-block FFT route: each group's product and irfft
# stay small (G * B doubles) while the head goes straight into one output array.
# Against one batch of all blocks, groups of 16 took 8% off the `infinite`
# benchmark's wall time (2-core x86-64, numpy 2.4).
_FFT_GROUP_BLOCKS = 16


class BudgetError(RuntimeError):
    """A dense computation would exceed the configured element budget."""


def max_elements_budget(override: int | None = None) -> int:
    """Dense element budget: explicit override, else HILBERT_MAX_ELEMENTS, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get("HILBERT_MAX_ELEMENTS")
    try:
        return int(env) if env else DEFAULT_MAX_ELEMENTS
    except ValueError:
        raise ValueError(f"HILBERT_MAX_ELEMENTS must be an integer, got {env!r}") from None


class SequenceVector:
    """Finite real vector with cached p-norms.

    Stands for an element of R^n, or for a finitely supported element of l^1.
    Values are immutable after construction; norms are computed once per
    exponent and cached.
    """

    __slots__ = ("values", "_norms")

    def __init__(self, values):
        v = np.array(as_vector(values))
        v.setflags(write=False)
        self.values = v
        self._norms: dict[float, float] = {}

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
        key = float(p)
        if key not in self._norms:
            if self.values.size == 0:
                self._norms[key] = 0.0
            else:
                self._norms[key] = float(np.linalg.norm(self.values, ord=key))
        return self._norms[key]


def as_vector(x) -> np.ndarray:
    """Coerce SequenceVector / array-like to a 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def even_root_domain(y: np.ndarray) -> np.ndarray:
    """y ready for an even root, with float-noise negatives clamped to 0.

    Negatives above -1e-12 (1 + max|y|) are noise; anything more negative
    raises with its 1-based index.  With no negative entry, y itself is returned.
    """
    if y.size == 0 or y.min() >= 0:  # nothing to clamp; a NaN minimum takes the checks below
        return y
    scale = float(np.max(np.abs(y)))
    y = np.where((y < 0) & (y > -1e-12 * (1.0 + scale)), 0.0, y)
    if np.any(y < 0):
        raise ValueError(f"even root of negative component at index {int(np.argmin(y)) + 1}")
    return y


def real_root(y: np.ndarray, k: int) -> np.ndarray:
    """Entrywise real k-th root, sign kept; even k goes through ``even_root_domain``."""
    if k % 2 == 0:
        y = even_root_domain(y)
    return np.copysign(np.abs(y) ** (1.0 / k), y)


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

    @classmethod
    def for_tensor(cls, order: int, dim: int) -> "GeneratingVector":
        return cls.hilbert(generating_length(dim, order, dim))

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


def hankel_apply(gen, x, order: int, out_len: int | None = None) -> np.ndarray:
    """Contract a Hankel tensor with generating sequence ``gen`` against x.

    Computes out[i] = sum_s gen[i + s] * y[s] for 0-based i < out_len (default
    len(x)), y the (order-1)-fold self-convolution of x.  ``gen`` must hold the
    need = ``generating_length(len(x), order, out_len)`` values read, which raises
    ValueError on bad input; the zero vector maps to exact zeros.

    While need * len(y) <= ``_FFT_PRODUCT_THRESHOLD``, one valid-mode correlation
    (out_len * len(y) multiply-adds).  Else overlap-save at block size
    B = min(S, max(1024, the power of two >= 8 len(y))), S the power of two
    >= need: each block of B offsets yields B - len(y) + 1 outputs from one
    rfft(x, B) and the cached block spectra of ``gen``.  B = S is one block,
    the whole of v[:need], and one irfft.  Several blocks go in groups of
    ``_FFT_GROUP_BLOCKS``, each one product and one batched irfft written into
    its rows of the one output array; the bits are those of a single batch.
    A ``GeneratingVector`` keeps the spectra of its last shape; a raw array is
    wrapped in a throwaway one.

    Any generating sequence is accepted; nothing here is specific to the
    Hilbert choice gen[s] = 1/(s+1).
    """
    gen = gen if isinstance(gen, GeneratingVector) else GeneratingVector(gen)
    v = gen.values
    xv = as_vector(x)
    n_out = xv.size if out_len is None else int(out_len)
    need = generating_length(xv.size, order, n_out)
    if v.size < need:
        raise ValueError(f"generating vector too short: need {need}, have {v.size}")
    y_len = need - n_out + 1  # len(y)
    if need * y_len <= _FFT_PRODUCT_THRESHOLD:
        return np.correlate(v[:need], convolution_power(xv, order - 1), "valid")
    size = 1 << (need - 1).bit_length()
    block = min(size, max(1024, 1 << (8 * y_len - 1).bit_length()))
    # row i < step of a block reads offsets i + s <= block - 1: no wrap-around
    step = block - y_len + 1
    key = (need, block, step)
    if key not in gen._spectra:
        gen._spectra.clear()
        gen._spectra[key] = _block_spectra(v[:need], block, step)
    spectra = gen._spectra[key]
    fx = np.fft.rfft(xv, block)
    np.conjugate(fx, out=fx)
    if spectra.shape[0] == 1:
        fy = spectra * fx  # spectra * conj(fx)^(order-1), in place after the first product
        for _ in range(order - 2):
            fy *= fx
        del fx  # at B = S, free its buffer before irfft allocates the output
        return np.fft.irfft(fy, block)[:, :step].reshape(-1)[:n_out]
    # groups of blocks write into one output array, so no head-sized temporary is made
    out = np.empty((spectra.shape[0], step))
    for g in range(0, spectra.shape[0], _FFT_GROUP_BLOCKS):
        fy = spectra[g : g + _FFT_GROUP_BLOCKS] * fx
        for _ in range(order - 2):
            fy *= fx
        out[g : g + _FFT_GROUP_BLOCKS] = np.fft.irfft(fy, block)[:, :step]
    return out.reshape(-1)[:n_out]


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
    """Symmetric order-m tensor with entries 1/(i_1 + ... + i_m - m + 1).

    ``dim=None`` stands for the infinite-dimensional tensor; only ``entry``
    is meaningful then, the truncated operators live in
    :mod:`hilbert_tensors.infinite`.
    """

    order: int
    dim: int | None

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.dim is not None and self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @classmethod
    def infinite(cls, order: int) -> "HilbertTensor":
        return cls(order, None)

    def _require_finite(self) -> int:
        if self.dim is None:
            raise ValueError("operation needs a finite-dimensional tensor")
        return self.dim

    # -- entries ------------------------------------------------------------

    def entry(self, idx) -> float:
        """Entry at a 1-based index tuple of length ``order``."""
        idx = tuple(idx)
        if len(idx) != self.order:
            raise ValueError(f"need {self.order} indices, got {len(idx)}")
        for i in idx:
            if i < 1 or (self.dim is not None and i > self.dim):
                raise ValueError(f"index {i} out of range 1..{self.dim}")
        return 1.0 / (sum(idx) - self.order + 1)

    def generating_vector(self) -> GeneratingVector:
        return GeneratingVector.for_tensor(self.order, self._require_finite())

    def materialize_dense(self, max_elements: int | None = None) -> np.ndarray:
        """Dense m-way array of entries; refuses above the element budget."""
        n = self._require_finite()
        budget = max_elements_budget(max_elements)
        if n**self.order > budget:
            raise BudgetError(
                f"dense tensor holds {n**self.order} elements, budget is {budget}"
            )
        offsets = np.arange(n, dtype=np.int64)
        total = offsets
        for _ in range(self.order - 1):
            total = np.add.outer(total, offsets)
        return 1.0 / (total + 1.0)

    # -- tensor-vector contraction -------------------------------------------

    def _check_dim(self, xv) -> None:
        n = self._require_finite()
        if len(xv) != n:
            raise ValueError(f"dimension mismatch: tensor dim {n}, vector length {len(xv)}")

    def apply_naive(self, x, exact: bool = False):
        """(H_n x^{m-1})_i by the literal (m-1)-fold index sum.

        With ``exact=True`` the input entries are taken as exact rationals and
        a list of Fractions is returned.
        """
        n = self._require_finite()
        m = self.order
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

        Cost is O(m n log(m n)) against the naive O(n^m).
        """
        xv = as_vector(x)
        self._check_dim(xv)
        return SequenceVector(hankel_apply(self.generating_vector(), xv, self.order))

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
    return _sine_bound(dim, order - 1)


def spectral_bound_z(order: int, dim: int) -> float:
    """Upper bound n^(m/2) sin(pi/n) for the largest Z-eigenvalue (n >= 2); inf on overflow."""
    return _sine_bound(dim, order / 2.0)


def _sine_bound(dim: int, power) -> float:
    # an int power is exact until the product with the sine rounds it once
    if dim < 2:
        raise ValueError("the sine bound is vacuous at n = 1; need n >= 2")
    try:
        return dim**power * math.sin(math.pi / dim)
    except OverflowError:  # n^power, or its float, past the float range
        return math.inf
