"""Report rows and their deterministic JSON / CSV emission.

Every row is a flat mapping with the fixed key order
(m, n, kind, value, bound, slack, certified, iterations).  Floats are
rendered with 17 significant digits; NaN and infinities are rendered like
None (JSON ``null``, an empty CSV cell).  Output is UTF-8 with LF line
endings, and serialization involves no timestamps or process state, so
identical rows give byte-identical files.

``slack`` is the signed margin of the inequality a row checks, with any
allowance already inside the row's ``bound``.  :func:`violated` is the one
verdict on a row: certified with negative slack.  The ``bounds`` and
``bench`` commands and ``scripts/verify_theorems.py`` judge their rows with
it; ``infinite`` rows are the one exception (see ``cli.cmd_infinite``).
:func:`sweep_rows` sets every bound and slack of the dimension sweep's
claims, the sine bounds from ``core.spectral_bound_h/z``.
"""

from __future__ import annotations

import math

from .core import spectral_bound_h, spectral_bound_z

ROW_KEYS = ("m", "n", "kind", "value", "bound", "slack", "certified", "iterations")

# the bound on the restricted residual of H-embed rows: solver noise on the embedded block
SLACK_NOISE = 1e-8


def make_row(m, n, kind, value, bound, slack, certified, iterations) -> dict:
    return dict(zip(ROW_KEYS, (m, n, kind, value, bound, slack, certified, iterations)))


def violated(row) -> bool:
    """Whether a row's certified claim failed: certified and slack < 0.

    A missing or NaN slack is no violation, and slack exactly 0 means the
    inequality holds with equality.
    """
    slack = row["slack"]
    return bool(row["certified"] and slack is not None and slack < 0)


def all_hold(rows, kind: str) -> bool:
    """Whether every row of the given kind has slack >= 0, certified or not (the printed monotonicity flags)."""
    return all(row["slack"] >= 0 for row in rows if row["kind"] == kind)


def sweep_rows(sweep) -> list[dict]:
    """The H, Z, H-gap, Z-gap and H-embed rows of an ``analysis.DimensionSweep``, in that order."""
    m = sweep.m
    rows = []
    for rep in sweep.bounds:
        cert, bound_h, bound_z = rep.certified, spectral_bound_h(m, rep.n), spectral_bound_z(m, rep.n)
        rows.append(make_row(m, rep.n, "H", rep.rho_h, bound_h, bound_h - rep.rho_h, cert, rep.iterations_h))
        rows.append(make_row(m, rep.n, "Z", rep.rho_z, bound_z, bound_z - rep.rho_z, cert, rep.iterations_z))
    mono = sweep.monotonicity
    if mono is not None:
        tol = mono.tolerance
        for kind, seq, bound in (("H-gap", mono.rho_h_seq, tol), ("Z-gap", mono.rho_z_seq, -2 * tol)):
            for n, a, b in zip(mono.dims[1:], seq, seq[1:]):
                rows.append(make_row(m, n, kind, b - a, bound, b - a - bound, mono.certified, None))
    for emb in sweep.embeddings:
        res = emb.restricted_residual
        rows.append(make_row(m, emb.k, "H-embed", res, SLACK_NOISE, SLACK_NOISE - res, emb.converged, None))
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, float):  # np.float64 too
        return "%.17g" % value if math.isfinite(value) else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _json_cell(value) -> str:
    """``_csv_cell`` as JSON: strings quoted and escaped, empty cells ``null``."""
    if isinstance(value, float):  # np.float64 too
        return "%.17g" % value if math.isfinite(value) else "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, bool):
        return "true" if value else "false"
    return "null" if value is None else str(value)


_JSON_LINE = "{" + ", ".join(f'"{k}": %s' for k in ROW_KEYS) + "}\n"


def to_json_lines(rows) -> str:
    """One JSON object per line, keys in ROW_KEYS order."""
    return "".join([_JSON_LINE % tuple([_json_cell(row.get(k)) for k in ROW_KEYS]) for row in rows])


def to_csv(rows) -> str:
    """Flattened CSV with a header row; empty cells for nulls."""
    lines = [",".join(ROW_KEYS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in ROW_KEYS))
    return "\n".join(lines) + "\n"


def render(rows, fmt: str) -> str:
    if fmt == "json":
        return to_json_lines(rows)
    if fmt == "csv":
        return to_csv(rows)
    raise ValueError(f"unknown format {fmt!r}")
