"""Independent references for every output the workloads produce.

Nothing here imports the library: references are computed with numpy in
long double (``np.longdouble``) from the tensor's definition, with
``numpy.linalg.eigvalsh`` of the Hilbert matrix at m = 2, and with closed
forms of zeta(2), zeta(4), zeta(6) for the series constants.  Each check
returns a list of failure causes; an empty list means the output matched.

Allowances are rounding allowances stated next to each check, never solver
tolerances widened to make a result pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

LD = np.longdouble
EPS = float(np.finfo(float).eps)
SOLVER_TOL = 1e-10  # the CLI's default --tol, which every job uses
# direct long-double convolution below this many multiply-adds, long-double FFT above
DIRECT_LIMIT = 20_000_000
# the zeta values the infinite workload's exponents need
ZETA = {2.0: math.pi**2 / 6, 4.0: math.pi**4 / 90, 6.0: math.pi**6 / 945}


# -- long-double contraction -------------------------------------------------


def ld_power(x, k: int) -> np.ndarray:
    """k-fold self-convolution of x in long double.

    Direct summation while affordable; otherwise a long-double FFT, whose
    error (about eps_ld log2 N ||x||^k, eps_ld = 2^-64) is 2^-11 times the
    double-precision bound that ``apply_bound`` gates against.
    """
    x = np.asarray(x, dtype=LD)
    if k == 1:
        return x.copy()
    out_len = k * (x.size - 1) + 1
    if x.size * out_len <= DIRECT_LIMIT:
        y = x
        for _ in range(k - 1):
            y = np.convolve(y, x)
        return y
    size = 1 << (out_len - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) ** k, size)[:out_len]


def ld_hankel(y: np.ndarray, rows) -> np.ndarray:
    """sum_s y[s] / (i + s + 1) for each 0-based row index i, in long double."""
    rows = np.asarray(rows, dtype=LD)
    y = np.asarray(y, dtype=LD)
    s = np.arange(y.size, dtype=LD)
    if rows.size <= y.size:
        return np.array([np.sum(y / (i + s + 1)) for i in rows], dtype=LD)
    out = np.zeros(rows.size, dtype=LD)
    for j in range(y.size):
        out += y[j] / (rows + s[j] + 1)
    return out


def ld_contract(x, m: int, rows=None) -> np.ndarray:
    """(H x^{m-1})_i by direct sums in long double, at 0-based rows (default all)."""
    x = np.asarray(x, dtype=float)
    return ld_hankel(ld_power(x, m - 1), np.arange(x.size) if rows is None else rows)


# -- finite tensors: eigenvalues ---------------------------------------------


def hilbert_lambda_max(n: int) -> float:
    """Largest eigenvalue of the n x n Hilbert matrix (LAPACK)."""
    i = np.arange(n)
    return float(np.linalg.eigvalsh(1.0 / (i[:, None] + i[None, :] + 1.0))[-1])


def ld_h_bracket(m: int, n: int, rel: float = 1e-16, max_iter: int = 500):
    """Collatz-Wielandt bracket [lo, hi] for the largest H-eigenvalue, long double.

    Power iteration x <- (H x^{m-1})^{1/(m-1)}; every positive iterate gives
    min_i y_i / x_i^{m-1} <= lambda <= max_i y_i / x_i^{m-1}.
    """
    x = np.ones(n, dtype=LD)
    lo, hi = LD(0), LD(np.inf)
    for _ in range(max_iter):
        y = ld_contract(x, m)
        ratios = y / x ** (m - 1)
        lo, hi = max(lo, ratios.min()), min(hi, ratios.max())
        if hi - lo <= rel * hi:
            break
        x = y ** (LD(1) / (m - 1))
        x /= x.max()
    return float(lo), float(hi)


def ld_z_eigen(m: int, n: int, rel: float = 1e-17, max_iter: int = 5000):
    """Largest Z-eigenvalue by unshifted power iteration in long double.

    Returns (mu, residual) for the positive eigenpair the iteration reaches;
    the residual ||H x^{m-1} - mu x||_2 certifies mu as a Z-eigenvalue.
    """
    x = np.full(n, 1 / np.sqrt(LD(n)), dtype=LD)
    mu, res = LD(0), LD(np.inf)
    for _ in range(max_iter):
        y = ld_contract(x, m)
        mu = x @ y
        res = np.sqrt(np.sum((y - mu * x) ** 2))
        if res <= rel * mu:
            break
        x = y / np.sqrt(np.sum(y * y))
    return float(mu), float(res)


class EigenReference:
    """Reference H- and Z-values per (m, n), computed once per run."""

    def __init__(self):
        self._cache: dict[tuple[str, int, int], tuple[float, float]] = {}

    def interval(self, kind: str, m: int, n: int) -> tuple[float, float]:
        """Interval known to hold the true value (rounding aside)."""
        key = (kind, m, n)
        if key not in self._cache:
            if m == 2:
                lam = hilbert_lambda_max(n)
                # LAPACK's backward error is O(n eps ||H||)
                pad = 8 * n * EPS * lam
                self._cache[key] = (lam - pad, lam + pad)
            elif kind == "H":
                self._cache[key] = ld_h_bracket(m, n)
            else:
                mu, res = ld_z_eigen(m, n)
                self._cache[key] = (mu - res, mu + res)
        return self._cache[key]


def _miss(value: float, interval: tuple[float, float], allow: float) -> float:
    lo, hi = interval
    return max(lo - allow - value, value - hi - allow, 0.0)


def parse_rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def parse_vectors(stderr: str) -> dict[str, np.ndarray]:
    """``<label> vector: [...]`` lines that --show-vector writes to stderr."""
    out = {}
    for line in stderr.splitlines():
        label, sep, rest = line.partition(" vector: ")
        if sep:
            out[label.strip()] = np.array(json.loads(rest), dtype=float)
    return out


def check_bounds(rows: list[dict], m: int, ref: EigenReference, tol: float = SOLVER_TOL) -> list[str]:
    """``bounds`` rows: certified H/Z values and gaps against the reference."""
    causes = []
    for row in rows:
        kind, n = row["kind"], row["n"]
        if kind in ("H", "Z"):
            exponent = m - 1 if kind == "H" else m / 2
            bound = n**exponent * math.sin(math.pi / n)
            if abs(row["bound"] - bound) > 4 * EPS * bound:
                causes.append(f"{kind} n={n}: bound {row['bound']!r} is not n^{exponent} sin(pi/n)")
            if not row["certified"]:
                continue
            interval = ref.interval(kind, m, n)
            # the solver stops at an absolute width/residual of tol; its own
            # sums carry up to about m n eps |value| of rounding
            allow = tol + m * n * EPS * abs(row["value"])
            miss = _miss(row["value"], interval, allow)
            if miss > 0:
                causes.append(f"{kind} n={n}: value {row['value']!r} misses reference {interval} by {miss:.3g}")
        elif kind in ("H-gap", "Z-gap") and row["certified"]:
            # gaps of rho(F_n) = lambda_H^(1/(m-1)) and of rho(T_n) = mu_Z;
            # lambda >= 1, so the root shrinks differences and errors
            power = 1.0 / (m - 1) if kind == "H-gap" else 1.0
            (lo_a, hi_a), (lo_b, hi_b) = ref.interval(kind[0], m, n - 1), ref.interval(kind[0], m, n)
            ref_gap = (0.5 * (lo_b + hi_b)) ** power - (0.5 * (lo_a + hi_a)) ** power
            allow = 2 * tol + (hi_a - lo_a) + (hi_b - lo_b) + 2 * m * n * EPS * hi_b
            if abs(row["value"] - ref_gap) > allow:
                causes.append(f"{kind} n={n}: gap {row['value']!r} vs reference {ref_gap!r}")
    return causes


def check_spectrum(rows: list[dict], stderr: str, m: int, n: int, tol: float = SOLVER_TOL) -> list[str]:
    """``spectrum --show-vector``: eigen-residual of each converged pair, recomputed."""
    causes = []
    vectors = parse_vectors(stderr)
    lam_max = hilbert_lambda_max(n) if m == 2 else None
    for row in rows:
        kind = row["kind"]
        if not row["certified"]:
            continue
        x = vectors.get(kind)
        if x is None or x.size != n:
            causes.append(f"{kind}: no eigenvector on stderr to check")
            continue
        y = ld_contract(x, m)
        value = LD(row["value"])
        if kind == "H":
            residual = float(np.max(np.abs(y - value * LD(x) ** (m - 1))))
            scale = float(np.max(np.abs(y)))
        else:
            residual = float(np.sqrt(np.sum((y - value * LD(x)) ** 2)))
            scale = float(np.sqrt(np.sum(y * y)))
        # worst-case summation error of the solver's own double contraction
        allow = tol + (m * n) * EPS * scale
        if residual > allow:
            causes.append(f"{kind}: eigen-residual {residual:.3g} > {allow:.3g}")
        if lam_max is not None and abs(row["value"] - lam_max) > tol + 8 * n * EPS * lam_max:
            causes.append(f"{kind}: value {row['value']!r} vs eigvalsh {lam_max!r}")
    return causes


def apply_bound(x: np.ndarray, m: int) -> float:
    """A priori FFT error bound eps log2(N) ||v|| || |x|^{*(m-1)} || (ROADMAP item 4).

    N is the FFT size of the correlation; v the generating vector it reads.
    |x|^{*(m-1)} has no cancellation, so a double FFT computes it accurately.
    """
    a = np.abs(np.asarray(x, dtype=float))
    y_len = (m - 1) * (a.size - 1) + 1
    size = 1 << (a.size + 2 * y_len - 3).bit_length()
    ay = np.fft.irfft(np.fft.rfft(a, size) ** (m - 1), size)[:y_len] if m > 2 else a
    need = a.size + y_len - 1
    v_norm = math.sqrt(float(np.sum(1.0 / np.arange(1, need + 1) ** 2)))
    return EPS * math.log2(size) * v_norm * float(np.linalg.norm(ay))


def apply_errors(x: np.ndarray, m: int, rows: np.ndarray, out: np.ndarray) -> tuple[float, float, float]:
    """(max abs error, max error / max |reference|, bound) at the sampled rows."""
    ref = ld_contract(x, m, rows)
    err = float(np.max(np.abs(out.astype(LD) - ref)))
    return err, err / float(np.max(np.abs(ref))), apply_bound(x, m)


# -- infinite operators --------------------------------------------------------


def norm_constant(op: str, m: int, p: float) -> float:
    """l^1 -> l^p constant: zeta(p)^(1/p) for T, zeta(p/(m-1))^(1/p) for F."""
    return ZETA[p if op == "T" else p / (m - 1)] ** (1.0 / p)


def ld_operator_norm(op: str, x: np.ndarray, m: int, p: float, out_len: int) -> float:
    """Truncated ||T x||_p or ||F x||_p over the first out_len outputs, long double."""
    head = ld_hankel(ld_power(x, m - 1), np.arange(out_len))
    if op == "T":
        head = head * LD(np.abs(x).sum()) ** (2 - m)
    else:
        k = m - 1
        head = np.sign(head) * np.abs(head) ** (LD(1) / k)
    return float(np.sum(np.abs(head) ** LD(p)) ** (LD(1) / LD(p)))


def check_infinite(rows: list[dict], stderr: str, exit_code: int, meta: dict) -> tuple[list[str], list[str]]:
    """``infinite`` rows: constants, values and e1 enclosures, then the verdict.

    Returns the causes against the printed numbers and, apart, the cause
    against the verdict (exit 2 for a violation).  The reference verdict
    compares the certified lower end with C ||x||_1, because both operators
    are homogeneous of degree one in x.
    """
    causes = []
    m, p = meta["m"], meta["p"]
    vectors = parse_vectors(stderr)
    violation = False
    for row in rows:
        op = row["kind"][0]
        const = norm_constant(op, m, p)
        # operator_norm_constant sums 1e6 terms in double where no closed form exists
        if abs(row["bound"] - const) > 1e-12 * const:
            causes.append(f"{row['kind']}: constant {row['bound']!r} vs zeta form {const!r}")
        if meta.get("search"):
            x = vectors.get(row["kind"])
            if x is None:
                causes.append(f"{row['kind']}: no best vector on stderr to check")
                continue
            if abs(np.abs(x).sum() - 1.0) > 1e-12:
                causes.append(f"{row['kind']}: best vector is not on the unit l1 sphere")
        else:
            x = meta["x"]
        l1 = float(np.abs(x).sum())
        ref = ld_operator_norm(op, x, m, p, row["n"])
        # p-norm of 1e5 terms: a few hundred eps of relative rounding at most
        if abs(row["value"] - ref) > 1e-12 * ref:
            causes.append(f"{row['kind']}: value {row['value']!r} vs long-double {ref!r}")
        if ref > const * l1 * (1 + 1e-12):
            violation = True
        if not meta.get("search") and l1 == 1.0 and x.size == 1:
            upper = row["bound"] - row["slack"]
            # the e1 images are 1/i and i^(-1/(m-1)), whose norms are the constants
            allow = 64 * EPS * const
            if not row["value"] - allow <= const <= upper + allow:
                causes.append(f"{row['kind']}: e1 enclosure [{row['value']!r}, {upper!r}] excludes {const!r}")
    if (exit_code == 2) == violation:
        return causes, []
    verdict = "a violation" if exit_code == 2 else "no violation"
    return causes, [f"CLI reports {verdict}; judged against C*||x||_1 the reference says otherwise"]
