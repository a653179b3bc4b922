"""Machine-speed calibration for the timings.

The benchmark shares its machine, whose speed switches between a fast and a
slow state (up to 1.5x slower) in bursts of 0.1 to 0.5 s, so that runs minutes
apart differ by 20% or more.  A short, fixed kernel measures the speed the
machine runs at: a pure-Python loop and an FFT of 4096 doubles, about equal
in time.  Library work does not slow down exactly as the kernel does:
interpreter-bound solver work slows more than either half, FFT- and
memory-bound work less.  ``main`` below measures the difference for one job
of each kind; README.md gives the figures.  The loop alone under-corrected
the solver work that dominates the sweep workload; kernels of small numpy
calls or of memory copies each tracked one kind of work and not the other.

``SpeedSampler`` times that kernel every ``INTERVAL_S`` of wall time from a
SIGALRM handler, during the jobs as well as between them.  A job's time is
then reported at nominal speed:

    (raw - kernel time inside the job) * mean(NOMINAL_S / kernel_i)

over the kernels run during the job (widened to its neighbours for jobs
shorter than a few intervals).  At nominal speed this is the wall time.  The
kernel never calls the library, so no change to the library moves it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# kernel time at nominal speed: the fastest quarter of kernel times on a
# 2-core x86-64 VM
NOMINAL_S = 320e-6
MIN_SAMPLES = 5
_FFT_INPUT = np.random.default_rng(0).uniform(size=4096)


def _kernel() -> None:
    total = 0
    for i in range(3000):
        total += i * i
    np.fft.irfft(np.fft.rfft(_FFT_INPUT) ** 2)


class SpeedSampler:
    """Context manager sampling the kernel's time on a wall-clock timer.

    Samples go into preallocated arrays: a list growing inside the signal
    handler would take heap memory at random moments of the job and move
    its peak RSS.
    """

    def __init__(self, capacity: int = 20_000):
        self.starts = np.zeros(capacity)
        self.times = np.zeros(capacity)
        self.count = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self.count == self.starts.size:
            return
        start = time.perf_counter()
        _kernel()
        self.times[self.count] = time.perf_counter() - start
        self.starts[self.count] = start
        self.count += 1

    def __enter__(self):
        _kernel()  # its first FFT builds the transform plan
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> tuple[float, float]:
        """(actual / nominal machine speed, kernel time inside) over [start, end]."""
        starts, times = self.starts[: self.count], self.times[: self.count]
        lo, hi = np.searchsorted(starts, [start, end])
        inside = float(times[lo:hi].sum())
        pad = 0
        while hi - lo + 2 * pad < MIN_SAMPLES and (lo - pad > 0 or hi + pad < self.count):
            pad += 1
        window = times[max(0, lo - pad) : hi + pad]
        if window.size == 0:
            return 1.0, inside
        return float(np.mean(NOMINAL_S / window)), inside

    def rescale(self, start: float, end: float) -> float:
        """Time of the interval [start, end] at nominal speed."""
        factor, inside = self.speed(start, end)
        return (end - start - inside) * factor


def main(argv=None) -> int:
    """Does the rescaling hold for library work unlike the kernel?

    Runs two fixed jobs alternately for ``--seconds``: an FFT-heavy,
    memory-bound ``apply_fast`` at m = 3, n = 1e5 (arrays of 2^19 doubles)
    and an interpreter-bound Z solve at m = 3, n = 120.  Each job's runs are
    split at the median measured speed into a fast and a slow half; if the
    rescaling tracks the job's cost, the slow half's rescaled median matches
    the fast half's while its raw median does not.
    """
    import argparse
    import statistics
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from hilbert_tensors import HilbertTensor, z_spectral_radius

    big = HilbertTensor(3, 100_000)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, big.dim)
    small = HilbertTensor(3, 120)
    jobs = {
        "apply_fast m=3 n=1e5": lambda: big.apply_fast(x),
        "z_spectral_radius m=3 n=120": lambda: z_spectral_radius(small, max_iter=4000),
    }
    runs = {name: [] for name in jobs}  # (factor, raw, rescaled)
    with SpeedSampler() as sampler:
        stop = time.perf_counter() + args.seconds
        while time.perf_counter() < stop:
            for name, job in jobs.items():
                start = time.perf_counter()
                job()
                end = time.perf_counter()
                runs[name].append((sampler.speed(start, end)[0], end - start, sampler.rescale(start, end)))
    for name, rows in runs.items():
        rows.sort()  # by factor: the slowest machine state first
        half = len(rows) // 2
        slow, fast = rows[:half], rows[-half:]

        def med(part, k):
            return statistics.median(r[k] for r in part)

        print(f"{name}: {len(rows)} runs; speed factor fast half {med(fast, 0):.3f}, slow half {med(slow, 0):.3f}")
        print(f"  raw median      fast {med(fast, 1):.4f} s, slow {med(slow, 1):.4f} s, slow/fast {med(slow, 1) / med(fast, 1):.3f}")
        print(f"  rescaled median fast {med(fast, 2):.4f} s, slow {med(slow, 2):.4f} s, slow/fast {med(slow, 2) / med(fast, 2):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
