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
"""

from __future__ import annotations

import math

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


def sweep_rows(sweep) -> list[dict]:
    """The H, Z, H-gap, Z-gap and H-embed rows of an ``analysis.DimensionSweep``, in that order."""
    m = sweep.m
    rows = []
    for rep in sweep.bounds:
        cert = rep.certified
        rows.append(make_row(m, rep.n, "H", rep.rho_h, rep.bound_h, rep.slack_h, cert, rep.iterations_h))
        rows.append(make_row(m, rep.n, "Z", rep.rho_z, rep.bound_z, rep.slack_z, cert, rep.iterations_z))
    mono = sweep.monotonicity
    if mono is not None:
        tol = mono.tolerance
        for n, a, b in zip(mono.dims[1:], mono.rho_h_seq, mono.rho_h_seq[1:]):
            rows.append(make_row(m, n, "H-gap", b - a, tol, b - a - tol, mono.certified, None))
        for n, a, b in zip(mono.dims[1:], mono.rho_z_seq, mono.rho_z_seq[1:]):
            rows.append(make_row(m, n, "Z-gap", b - a, -2 * tol, b - a + 2 * tol, mono.certified, None))
    for emb in sweep.embeddings:
        res = emb.restricted_residual
        rows.append(make_row(m, emb.k, "H-embed", res, SLACK_NOISE, SLACK_NOISE - res, emb.converged, None))
    return rows


def _missing(value) -> bool:
    return value is None or (isinstance(value, float) and not math.isfinite(value))


def _csv_cell(value) -> str:
    if _missing(value):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _fmt(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _csv_cell(value) or "null"


def to_json_lines(rows) -> str:
    """One JSON object per line, keys in ROW_KEYS order."""
    lines = []
    for row in rows:
        body = ", ".join(f'"{k}": {_fmt(row.get(k))}' for k in ROW_KEYS)
        lines.append("{" + body + "}")
    return "\n".join(lines) + ("\n" if lines else "")


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
