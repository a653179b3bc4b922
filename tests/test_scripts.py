import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import hilbert_tensors
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


def test_verify_theorems_reports_failed_positive_definiteness(tmp_path, capsys, monkeypatch):
    orig = hilbert_tensors.check_positive_definite

    def failing_at_3(t, **kwargs):
        rep = orig(t, **kwargs)
        return dataclasses.replace(rep, all_positive=rep.n != 3)

    monkeypatch.setattr(hilbert_tensors, "check_positive_definite", failing_at_3)
    monkeypatch.setattr(sys, "argv", ["verify_theorems.py", "--orders", "2", "--max-dim", "4",
                                      "--trials", "10", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "verify_theorems.py"), run_name="__main__")
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "positive definiteness sampled over n=2..4: FAILED at n=3" in captured.out
    assert "sampled over n=2..4: ok" not in captured.out
    assert "1 check(s) FAILED" in captured.err
