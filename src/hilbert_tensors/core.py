"""Hilbert tensors and their Hankel-structured evaluation paths.

The order-m, dimension-n Hilbert tensor has entries 1/(i_1 + ... + i_m - m + 1)
for 1-based indices.  Because every entry depends only on the index sum, the
tensor is Hankel: it is fully described by the generating sequence
v[s] = 1/(s + 1) over 0-based offsets s, and tensor-vector contraction reduces
to a self-convolution of the input followed by one correlation against v.

The pipeline is plan, then apply.  ``hankel_operator`` plans the contraction
for one (v, order, len x, out_len): it checks the shapes and picks the route
once, and returns a ``HankelPlan`` that states what it decided (``route``,
``need``, ``y_len`` and, on the FFT route, ``block``, ``step``, ``n_blocks``)
and, called on x, does only the arithmetic of x.  ``hankel_apply`` is that
plan applied once; a solver plans once per solve.  The routes are a
valid-mode correlation of v against y = x^{*(m-1)}, split at numpy's 11-tap
kernel, and overlap-save, irfft(rfft(v_j) * conj(rfft(x)^(m-1))) over blocks
v_j of v, so the convolution power never leaves the frequency domain (the
anti-circulant form of Ding, Qi and Wei, NLAA 2015); ``hankel_operator``
states when each is taken and what the FFT plan slot of each thread holds.
``GeneratingVector.hilbert`` keeps the last vector it built, so repeated
plans at one shape (a norm search's full heads) transform only x, as does
each call of one plan (solver iterations); a warm call allocates only its
result.

Three routes compute the same contraction and quadratic form:

* ``apply_naive`` / ``quadratic_form`` via the literal multi-index sum,
* ``apply_fast`` via convolution powers (quasi-linear in n),
* ``quadratic_form_integral`` via polynomial expansion of
  integral(0,1) (sum_i x_i t^(i-1))^m dt, optionally in exact rationals.

They are kept deliberately redundant; the test suite holds them against each
other and against the brute-force oracle of ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

# Dense element budget of ``materialize_dense`` and of the naive arm of ``bench``.
MAX_DENSE_ELEMENTS = 10_000_000

# Above this need * len(y) cost, hankel_apply takes the overlap-save FFT route.
_FFT_PRODUCT_THRESHOLD = 1 << 22

# The longest kernel np.correlate sums by its unrolled loop, not one BLAS dot per output (numpy 2.4).
_SMALL_KERNEL = 11
# The direct route splits y at _SMALL_KERNEL from this many outputs on, adding the second piece
# in row blocks of _SPLIT_ROWS, so the one temporary is a block.
_SPLIT_MIN_ROWS = 1024
_SPLIT_ROWS = 8192

# slot: this thread's FFT plan, a _Slot: its vector (weakly), (need, block, step), arrays and grow-only memory
_Slot = namedtuple("_Slot", "gen key spectra fy fx blocks memory")
_plans = threading.local()


class BudgetError(RuntimeError):
    """A dense computation would exceed its element budget."""


class SequenceVector:
    """Finite real vector.

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
        return np.asarray(self.values, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"SequenceVector({self.values.tolist()!r})"

    @classmethod
    def _owning(cls, values: np.ndarray) -> "SequenceVector":
        """Wrap, without a copy, a fresh 1-d float array that owns its memory and that nothing else holds.

        Read-only from then on.  Every route of ``hankel_operator`` returns such an array.
        """
        vec = cls.__new__(cls)
        vec.values = values
        values.setflags(write=False)
        return vec


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

    The numbers live in a private writeable buffer, a copy of the array
    given; ``values`` is a read-only view of it.  Nothing writes the buffer
    after construction, which is what lets a thread's FFT plan slot keep the
    block spectra of one shape of the instance.  The buffer is writeable, not
    read-only, because ``np.correlate`` copies a read-only first operand
    (0.7-1.0 ms against 0.1 ms per 10^5 values, numpy 2.4), so the direct
    route of ``hankel_operator`` reads the buffer itself.
    """

    values: np.ndarray
    _buffer: np.ndarray = field(init=False, repr=False)

    # the last vector ``hilbert`` built, shared by every thread; at most one is held
    _last_hilbert: ClassVar["GeneratingVector | None"] = None

    def __post_init__(self):
        self._own(np.array(as_vector(self.values)))

    def _own(self, buffer: np.ndarray) -> None:
        values = buffer.view()
        values.setflags(write=False)
        object.__setattr__(self, "_buffer", buffer)
        object.__setattr__(self, "values", values)

    @classmethod
    def hilbert(cls, length: int) -> "GeneratingVector":
        """Read-only 1/(s+1) sequence of ``length``; the same instance while the length repeats.

        Every instance it builds views a prefix of one buffer of 1/(s+1),
        computed at a length L and reused for each length from L/2 to L; a
        length outside that range gets a new buffer of its own length.  The
        FFT plan slots hold a vector weakly, so the last one dies when dropped.
        The last vector is a class global, not per thread as the plan slots
        are: nothing writes a vector after construction, so one serves every
        thread, while every call of a plan writes its slot's work arrays.
        """
        if length < 1:
            raise ValueError("generating vector needs length >= 1")
        last = cls._last_hilbert
        if last is not None and len(last) == length:
            return last
        # drop the old vector, and its buffer unless it serves length, before allocating
        cls._last_hilbert = None
        full = last._buffer.base if last is not None and length <= last._buffer.base.size <= 2 * length else None
        del last
        if full is None:
            full = np.arange(1.0, length + 1.0)
            np.reciprocal(full, out=full)  # bit for bit 1.0 / np.arange(1, length + 1)
        gen = cls.__new__(cls)  # __init__ would copy the buffer
        gen._own(full[:length])
        cls._last_hilbert = gen
        return gen

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
    At k = 1 it returns x itself as a float array (``np.asarray``), not a copy.
    """
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError("convolution power needs k >= 1")
    y = x
    for _ in range(k - 1):
        y = np.convolve(y, x)
    return y


class HankelPlan:
    """A contraction x -> H x^{m-1} planned by ``hankel_operator``, whose docstring names its fields; call it on x."""

    __slots__ = ("route", "need", "y_len", "block", "step", "n_blocks", "_gen", "_head", "_order", "_n", "_n_out")

    def __init__(self, gen, order: int, n: int, out_len: int | None = None):
        gen = gen if isinstance(gen, GeneratingVector) else GeneratingVector(gen)
        n_out = n if out_len is None else int(out_len)
        need = generating_length(n, order, n_out)
        if gen.values.size < need:
            raise ValueError(f"generating vector too short: need {need}, have {gen.values.size}")
        y_len = need - n_out + 1
        self.need, self.y_len, self._order, self._n, self._n_out = need, y_len, order, n, n_out
        self._gen, self._head = gen, gen._buffer[:need]  # writeable, so np.correlate reads it without a copy
        self.block = self.step = self.n_blocks = None
        if need * y_len <= _FFT_PRODUCT_THRESHOLD:
            split = _SMALL_KERNEL < y_len <= 2 * _SMALL_KERNEL and n_out >= _SPLIT_MIN_ROWS
            self.route = "split" if split else "direct"
            return
        self.route, block = "fft", max(1024, 1 << (8 * y_len - 1).bit_length())
        if need <= block:  # one block over v[:need], at a length no larger than the power of two >= need
            block = _fast_length(need)
        step = block - y_len + 1  # row i < step of a block reads offsets i + s <= block - 1: no wrap-around
        self.block, self.step, self.n_blocks = block, step, -(-n_out // step)
        self._slot()

    def __call__(self, x) -> np.ndarray:
        xv = as_vector(x)
        if xv.size != self._n:
            raise ValueError(f"operator planned for vectors of length {self._n}, got {xv.size}")
        if self.route == "direct":
            return np.correlate(self._head, convolution_power(xv, self._order - 1), "valid")
        return self._fft(xv) if self.route == "fft" else self._split(convolution_power(xv, self._order - 1))

    def _split(self, y: np.ndarray) -> np.ndarray:
        head, n_out, first, rest = self._head, self._n_out, y[:_SMALL_KERNEL], y[_SMALL_KERNEL:]
        out = np.correlate(head[: n_out + _SMALL_KERNEL - 1], first, "valid")
        for start in range(0, n_out, _SPLIT_ROWS):
            stop = min(start + _SPLIT_ROWS, n_out)
            out[start:stop] += np.correlate(head[start + _SMALL_KERNEL : stop + self.y_len - 1], rest, "valid")
        return out

    def _slot(self):
        """This plan's arrays in this thread's slot; a miss transforms v into the slot."""
        slot = getattr(_plans, "slot", None)
        key = (self.need, self.block, self.step)
        if slot is not None and slot.gen() is self._gen and slot.key == key:
            return slot
        n_blocks, block, half = self.n_blocks, self.block, self.block // 2 + 1
        size = 4 * n_blocks * half + max(n_blocks * block, 2 * half)
        memory = slot.memory if slot is not None and slot.memory.size >= size else None
        _plans.slot = slot = None  # the old memory goes before new memory comes
        memory = np.empty(size) if memory is None else memory
        # the spectra, the product, then rfft(x), which the blocks' irfft overwrites once the product is made
        spectra, fy = memory[: 4 * n_blocks * half].view(complex).reshape(2, n_blocks, half)
        rest = memory[4 * n_blocks * half : size]
        spectra = _block_spectra(self._head, block, self.step, spectra)
        fx, blocks = rest[: 2 * half].view(complex), rest[: n_blocks * block].reshape(n_blocks, block)
        _plans.slot = slot = _Slot(weakref.ref(self._gen), key, spectra, fy, fx, blocks, memory)
        return slot

    def _fft(self, x: np.ndarray) -> np.ndarray:
        slot, block, step = self._slot(), self.block, self.step
        np.fft.rfft(x, block, out=slot.fx)
        np.conjugate(slot.fx, out=slot.fx)
        np.multiply(slot.spectra, slot.fx, out=slot.fy)  # fy = spectra * conj(fx)^(order-1)
        for _ in range(self._order - 2):
            np.multiply(slot.fy, slot.fx, out=slot.fy)
        np.fft.irfft(slot.fy, block, out=slot.blocks)
        whole, cut = divmod(self._n_out, step)  # rows that end by n_out, and the length of the last one's cut
        out = np.empty(self._n_out)
        out[: whole * step].reshape(whole, step)[:] = slot.blocks[:whole, :step]
        out[whole * step :] = slot.blocks[whole:, :cut].reshape(-1)  # no row when the rows end at n_out
        return out


def hankel_operator(gen, order: int, n: int, out_len: int | None = None) -> HankelPlan:
    """Plan the contraction of a Hankel tensor with generating sequence ``gen`` against x of length n.

    The returned ``HankelPlan``, called on x, returns
    out[i] = sum_s gen[i + s] * y[s] for 0-based i < out_len (default n), y
    the (order-1)-fold self-convolution of x; it raises ValueError on an x of
    another length, and the zero vector maps to exact zeros.  ``gen`` must
    hold the ``need`` = ``generating_length(n, order, out_len)`` values read,
    which raises ValueError on bad input.  The checks, the route and what the
    route reads of ``gen`` are fixed here, once, and stated as the plan's
    fields: ``route``, ``need``, ``y_len`` = len(y) and, on the FFT route
    only, the block length ``block`` (B), its ``step`` of outputs and
    ``n_blocks`` (None elsewhere).  Nothing assigns a field after planning.

    While need * len(y) <= ``_FFT_PRODUCT_THRESHOLD``, route "direct": one
    valid-mode correlation (out_len * len(y) multiply-adds) on a view of
    ``gen``, the route's only holding.  When 11 < len(y) <= 22 and
    out_len >= 1024, route "split", two: against y[:11] into the result, then
    against y[11:], added in blocks of ``_SPLIT_ROWS`` rows, so that
    ``np.correlate`` runs its unrolled loop for both pieces and not one BLAS
    dot per output (the 11-tap limit is numpy's ``small_correlate``, measured
    on numpy 2.4, timed in README); the one temporary is one block.  Else route
    "fft", overlap-save with X = max(1024, the power of two >= 8 len(y)): each
    block of B offsets yields B - len(y) + 1 outputs from one rfft(x, B) and
    the cached block spectra of ``gen``.  While need <= X,
    B = ``_fast_length(need)``, the smallest 2^a 3^b 5^c >= need: one block,
    the whole of v[:need], and one irfft.  Past X, B = X, a power of two.  Each
    call multiplies every block at once, runs one batched irfft and copies the
    first B - len(y) + 1 entries of each block into its result.  The spectra,
    the product (each n_blocks (B//2 + 1) complex) and rfft(x), whose memory
    the blocks' irfft overwrites, live in the calling thread's plan slot:
    about 3B doubles for one block, about three heads for many (250 MB at
    out_len 10^7), in memory that a larger plan frees before allocating its
    own and that lasts until the thread ends.  The plan fills the slot; a call
    that finds another plan there, or runs in another thread, transforms v
    into it again, so the bits never depend on it and plans may be called from
    several threads at once.  Besides these, pocketfft allocates about 2B
    doubles of scratch per transform, which ``tracemalloc`` does not see.  A
    raw array is wrapped in a throwaway ``GeneratingVector``.

    Each call returns a fresh array, not a view, which the caller owns and may overwrite.
    Any generating sequence is accepted; nothing here is specific to the
    Hilbert choice gen[s] = 1/(s+1).
    """
    return HankelPlan(gen, order, n, out_len)


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


def _block_spectra(v: np.ndarray, block: int, step: int, out: np.ndarray) -> np.ndarray:
    """rfft of each v[j*step : j*step + block], zero past the end of v, into row j of ``out``, made read-only.

    The rows cover the len(v) - block + step outputs of the correlation.
    One block transforms v itself, zero-padded by the transform.
    """
    if len(out) > 1:
        padded = np.zeros((len(out) - 1) * step + block)
        padded[:v.size] = v
        v = np.lib.stride_tricks.sliding_window_view(padded, block)[::step]
    np.fft.rfft(v.reshape(len(out), -1), block, out=out)
    out.setflags(write=False)
    return out


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
        return SequenceVector._owning(hankel_apply(gen, xv, self.order))

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
