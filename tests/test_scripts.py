import json
import os
import subprocess
import sys
from pathlib import Path

from hilbert_tensors import cli

ROOT = Path(__file__).resolve().parent.parent


def test_verify_theorems_smoke(tmp_path, capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_theorems.py"),
         "--orders", "2,3", "--max-dim", "4", "--trials", "10", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    lines = (tmp_path / "verification.json").read_text(encoding="utf-8").splitlines(keepends=True)
    kinds = [(row["m"], row["kind"]) for row in map(json.loads, lines)]
    sweep = ["H", "Z"] * 3 + ["H-gap"] * 3 + ["Z-gap"] * 3 + ["H-embed"] * 3
    assert kinds == (
        [(2, k) for k in sweep + ["pd-min-integral"] * 3]
        + [(3, k) for k in sweep]
        + [(2, "hilbert-ineq-ratio")] * 3
    )
    # the sweep rows are exactly what the bounds command prints
    for m, start in ((2, 0), (3, 18)):
        assert cli.run(["bounds", "--m", str(m), "--n", "1..4", "--max-iter", "100000"]) == 0
        assert "".join(lines[start:start + 15]) == capsys.readouterr().out
