"""Job lists for the three workloads, generated from the workload seed.

A job is one operation a user would run: a CLI invocation (``argv``) or one
``HilbertTensor.apply_fast`` call (``apply``).  The seed picks dimensions
inside the stated bands, vectors and the CLI ``--seed``; the library only
ever sees the generated inputs.  Bands are kept narrow where the cost of a
job grows steeply with n, so that the seed varies the inputs without varying
the amount of work much (wall_s is compared across seeds).

Why each workload exists, and which ROADMAP items should move it, is in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# apply_fast calls per (m, n) in the scale workload
APPLY_CALLS = 8
APPLY_DIMS = (10_000, 100_000)
ORDERS = (2, 3, 4)


@dataclass
class Job:
    name: str
    argv: list[str] | None = None  # CLI job: hilbert_tensors.cli.run(argv)
    apply: tuple[int, np.ndarray] | None = None  # apply_fast job: (m, x)
    meta: dict = field(default_factory=dict)


def _fmt_vector(x: np.ndarray) -> str:
    # repr round-trips, so the CLI parses exactly the floats the checks use
    # a leading minus sign would read as an option, hence --x=<spec> below
    return ",".join(repr(float(v)) for v in x)


def sweep(seed: int) -> list[Job]:
    """``bounds`` for m=2, 3, 4 over small dimension ranges (direct-convolve path).

    The m=2 upper end is drawn from 38..42 and every lower end from {2, 3}.
    The m=3 and m=4 upper ends stay at 30 and 12: their cost grows like N^3,
    so a band there would make wall_s depend on the seed.
    """
    rng = np.random.default_rng([seed, 1])
    ranges = {
        2: (int(rng.integers(2, 4)), int(rng.integers(38, 43))),
        3: (int(rng.integers(2, 4)), 30),
        4: (int(rng.integers(2, 4)), 12),
    }
    jobs = [
        Job(
            f"bounds-m{m}-n{lo}..{hi}",
            argv=["bounds", "--m", str(m), "--n", f"{lo}..{hi}"],
            meta={"m": m},
        )
        for m, (lo, hi) in ranges.items()
    ]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def scale(seed: int) -> list[Job]:
    """``spectrum`` at the ROADMAP item 2 gate sizes plus large apply_fast calls.

    n is drawn from 990..1010 at m=2 and from 295..305 at m=3 and m=4.  The
    apply_fast vectors alternate between uniform(-1, 1) draws and seeded
    cosines, the cancellation-heavy input of ROADMAP item 4.
    """
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for m, (lo, hi) in ((2, (990, 1011)), (3, (295, 306)), (4, (295, 306))):
        n = int(rng.integers(lo, hi))
        jobs.append(
            Job(
                f"spectrum-m{m}-n{n}",
                argv=["spectrum", "--m", str(m), "--n", str(n), "--show-vector"],
                meta={"m": m, "n": n},
            )
        )
    for n in APPLY_DIMS:
        for m in ORDERS:
            for k in range(APPLY_CALLS):
                if k % 2 == 0:
                    x = rng.uniform(-1.0, 1.0, n)
                else:
                    freq, phase = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * np.pi)
                    x = np.cos(freq * np.arange(1, n + 1) + phase)
                jobs.append(Job(f"apply_fast-m{m}-n{n}-{k}", apply=(m, x), meta={"m": m, "n": n}))
    return jobs


def infinite(seed: int) -> list[Job]:
    """``infinite`` norm searches and single-vector certifications, m = 2, 3, 4.

    Every job uses the default ``--trunc``; searches use the default
    ``--trials``.  p = 2(m-1) is the canonical F exponent and the smallest
    even p valid for ``--op both``.  Per order there are two e1 jobs (T at
    p = 2, F at p = 2(m-1)) and two unnormalised seeded vectors, as users
    pass them:

    * ``heavy``: l1 norm L in [2.5, 4], at least 0.8 of the mass on the first
      coordinate, all entries positive.  Both operators are homogeneous of
      degree one and monotone on positive vectors, so ||T x||_p >= 0.8^(m-1) L
      ||T e1||_p > C and ||F x||_p >= 0.8 L ||F e1||_p > C, where C is the
      unit-sphere constant: the CLI, which compares against C instead of
      C ||x||_1, reports a violation, a false one, on every seed.
    * ``light``: l1 norm in [0.3, 0.9], mixed signs.  Here the norms stay
      below C ||x||_1 < C, so the CLI's verdict is right.
    """
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for m in ORDERS:
        p = 2 * (m - 1)
        jobs.append(
            Job(
                f"search-m{m}",
                argv=["infinite", "--search", "--op", "both", "--m", str(m), "--p", str(p),
                      "--seed", str(seed), "--show-vector"],
                meta={"m": m, "p": float(p), "search": True},
            )
        )
        for op, pp in (("T", 2), ("F", p)):
            jobs.append(
                Job(
                    f"e1-{op}-m{m}",
                    argv=["infinite", "--m", str(m), "--p", str(pp), "--op", op, "--x", "e1"],
                    meta={"m": m, "p": float(pp), "x": np.array([1.0])},
                )
            )
        for kind in ("heavy", "light"):
            support = int(rng.integers(3, 9))
            if kind == "heavy":
                u = rng.uniform(0.0, 1.0, support)
                u[0] = 0.0
                u *= rng.uniform(0.0, 0.2) / u.sum()
                u[0] = 1.0 - u.sum()
                x = rng.uniform(2.5, 4.0) * u
            else:
                u = rng.uniform(-1.0, 1.0, support)
                x = rng.uniform(0.3, 0.9) * u / np.abs(u).sum()
            jobs.append(
                Job(
                    f"{kind}-m{m}",
                    argv=["infinite", "--m", str(m), "--p", str(p), "--op", "both",
                          f"--x={_fmt_vector(x)}"],
                    meta={"m": m, "p": float(p), "x": x},
                )
            )
    return jobs


WORKLOADS = {"sweep": sweep, "scale": scale, "infinite": infinite}
