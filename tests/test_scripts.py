import dataclasses
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hilbert_tensors
from hilbert_tensors import analysis, cli, reporting

ROOT = Path(__file__).resolve().parent.parent


def test_verify_theorems_smoke(tmp_path, capsys):
    # from a bare checkout: the script puts the checkout's src/ on its path, so it needs no PYTHONPATH or install
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_theorems.py"),
         "--orders", "2,3", "--max-dim", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    lines = (tmp_path / "verification.json").read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    kinds = [(row["m"], row["kind"]) for row in rows]
    sweep = ["H", "Z"] * 3 + ["H-gap"] * 3 + ["Z-gap"] * 3 + ["H-embed"] * 3
    assert kinds == (
        [(2, k) for k in sweep + ["pd-min-integral"] * 3]
        + [(3, k) for k in sweep]
        + [(2, "hilbert-ineq-ratio")] * 3
    )
    # no row is certified on zero evaluations: each inequality row has its solve's iterations,
    # and a positive-definiteness row, a closed form, has none
    assert all(row["iterations"] >= 1 for row in rows if row["kind"] == "hilbert-ineq-ratio")
    assert all(row["iterations"] is None for row in rows if row["kind"] == "pd-min-integral")
    # the sweep rows are exactly what the bounds command prints
    for m, start in ((2, 0), (3, 18)):
        assert cli.run(["bounds", "--m", str(m), "--n", "1..4"]) == 0
        assert "".join(lines[start:start + 15]) == capsys.readouterr().out


def test_verify_theorems_reports_failed_positive_definiteness(tmp_path, capsys, monkeypatch):
    orig = hilbert_tensors.check_positive_definite

    def failing_at_3(t, **kwargs):
        rep = orig(t, **kwargs)
        return dataclasses.replace(rep, min_form_lower=-1.0) if rep.n == 3 else rep

    monkeypatch.setattr(hilbert_tensors, "check_positive_definite", failing_at_3)
    code, out, err = run_verify_theorems(monkeypatch, capsys, "--orders", "2", "--max-dim", "4", "--out", str(tmp_path))
    assert code == 2
    assert "positive definiteness certified over n=2..4: FAILED at n=3" in out
    assert "certified over n=2..4: ok" not in out
    assert "1 check(s) FAILED" in err


def run_verify_theorems(monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", ["verify_theorems.py", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "verify_theorems.py"), run_name="__main__")
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_verify_theorems_unconverged_is_not_a_violation(tmp_path, capsys, monkeypatch):
    code, out, err = run_verify_theorems(monkeypatch, capsys, "--orders", "2", "--max-dim", "3",
                                         "--max-iter", "1", "--out", str(tmp_path))
    assert code == cli.EXIT_UNCONVERGED == 3
    assert "VIOLATION" not in out
    assert [line.split()[-1] for line in out.splitlines() if line.startswith("  n=")] == ["unconverged"] * 2
    assert "check(s) FAILED" in err


def test_verify_theorems_labels_monotonicity_and_embedding_claims(tmp_path, capsys, monkeypatch):
    code, out, err = run_verify_theorems(monkeypatch, capsys, "--orders", "2", "--max-dim", "3",
                                         "--max-iter", "1", "--out", str(tmp_path))
    lines = out.splitlines()
    (mono,) = [line for line in lines if line.startswith("  monotone:")]
    assert mono.split()[-1] == "unconverged"
    # n = 1 is exact after one iteration; the n = 2 eigenpair is not
    assert [line.split()[-1] for line in lines if line.startswith("  embedding ")] == ["ok", "unconverged"]
    # the inequality rows' one-iteration solves are unconverged too
    assert [line.split()[-1] for line in lines if line.startswith("  inequality ")] == ["unconverged"] * 2
    verdicts = [line.split()[-1] for line in lines
                if line.startswith(("  n=", "  monotone:", "  embedding ", "  inequality "))]
    assert f"{sum(v != 'ok' for v in verdicts)} check(s) FAILED" in err
    assert code == cli.EXIT_UNCONVERGED


def test_verify_theorems_counts_violated_inequality(tmp_path, capsys, monkeypatch):
    # a tripled order-2 tensor of dimension 4, in the exact apply the inequality certificate reads,
    # breaks the Hilbert inequality at n = 4 only
    orig = hilbert_tensors.HilbertTensor.apply_naive

    def tripled_at_4(self, x, exact=False):
        out = orig(self, x, exact)
        return [3 * v for v in out] if (self.order, self.dim) == (2, 4) else out

    monkeypatch.setattr(hilbert_tensors.HilbertTensor, "apply_naive", tripled_at_4)
    code, out, err = run_verify_theorems(monkeypatch, capsys, "--orders", "3", "--max-dim", "5",
                                         "--out", str(tmp_path))
    assert code == cli.EXIT_VIOLATION == 2
    assert "Traceback" not in err
    assert "1 check(s) FAILED" in err
    assert [line.endswith("VIOLATION") for line in out.splitlines() if "inequality n=" in line] == [
        False, False, True, False]
    rows = [json.loads(line) for line in (tmp_path / "verification.json").read_text().splitlines()]
    (row,) = [r for r in rows if r["kind"] == "hilbert-ineq-ratio" and r["n"] == 4]
    assert row["value"] > 1.0 and row["certified"] is True


def exit_code_of(path):
    """The exit code a report file implies on its own: 2 a row violated, else 0 all certified, else 3."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if any(reporting.violated(row) for row in rows):
        return 2
    return 0 if all(row["certified"] for row in rows) else 3


def force_embed_residual(monkeypatch):
    # the restricted residual of the n = 2 -> 3 embedding (length 2, tiny) forced past SLACK_NOISE
    orig = analysis.equation_residual

    def forced(kind, order, x, y, value):
        res = orig(kind, order, x, y, value)
        return 1.5e-8 if len(x) == 2 and res < 1e-10 else res

    monkeypatch.setattr(analysis, "equation_residual", forced)


def test_bounds_exits_2_on_a_certified_embed_residual_above_its_bound(capsys, monkeypatch):
    force_embed_residual(monkeypatch)
    code = cli.run(["bounds", "--m", "2", "--n", "1..3"])
    captured = capsys.readouterr()
    (row,) = [r for r in map(json.loads, captured.out.splitlines()) if r["kind"] == "H-embed" and r["n"] == 3]
    assert row["certified"] is True and row["slack"] == pytest.approx(-5e-9)
    assert "BOUND VIOLATION: m=2 n=3 kind=H-embed" in captured.err
    assert code == cli.EXIT_VIOLATION == 2


@pytest.mark.parametrize("argv,forced,expected", [
    (["--orders", "2,3", "--max-dim", "4"], False, 0),
    (["--orders", "2", "--max-dim", "3", "--max-iter", "1"], False, 3),
    (["--orders", "2", "--max-dim", "3"], True, 2),
], ids=["passing", "unconverged", "embed-violated"])
def test_verify_theorems_exit_code_follows_from_its_file(tmp_path, capsys, monkeypatch, argv, forced, expected):
    if forced:
        force_embed_residual(monkeypatch)
    code, out, _ = run_verify_theorems(monkeypatch, capsys, *argv, "--out", str(tmp_path))
    assert code == exit_code_of(tmp_path / "verification.json") == expected
    if forced:
        assert "  embedding n=2 into k=3: restricted residual 1.500e-08  VIOLATION" in out


@pytest.mark.parametrize("argv", [
    ["--orders", "1"],
    ["--orders", "2,x"],
    ["--max-dim", "1"],
    ["--tol", "0"],
    ["--tol", "nan"],
    ["--tol", "inf"],
    ["--max-iter", "0"],
    ["--format", "xml"],
    ["--trials", "0"],  # the sampling knobs are gone: no row can be certified on zero draws
    ["--seed", "0"],
])
def test_verify_theorems_usage_error_exits_1(tmp_path, capsys, monkeypatch, argv):
    out_dir = tmp_path / "out"
    code, out, err = run_verify_theorems(monkeypatch, capsys, *argv, "--out", str(out_dir))
    assert code == cli.EXIT_USAGE == 1
    assert argv[0] in err
    assert "Traceback" not in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_verify_theorems_out_through_a_file_exits_1(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
    code, stdout, err = run_verify_theorems(monkeypatch, capsys, "--orders", "2", "--max-dim", "2",
                                            "--out", str(tmp_path / out))
    assert code == cli.EXIT_USAGE == 1
    assert "--out names a file" in err
    assert "Traceback" not in err
    assert stdout == "" and (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"


def test_verify_theorems_labels_positive_definiteness_by_its_row(tmp_path, capsys, monkeypatch):
    # a lower end of exactly 0 (the float underflow of large n, forced at n = 3 through the inverse
    # norm the certificate reads) is a row with slack 0, which holds, like every other row
    orig = analysis._inverse_hilbert_norm
    monkeypatch.setattr(analysis, "_inverse_hilbert_norm", lambda n: 10**400 if n == 3 else orig(n))
    code, out, _ = run_verify_theorems(monkeypatch, capsys, "--orders", "2", "--max-dim", "4",
                                       "--out", str(tmp_path))
    assert code == exit_code_of(tmp_path / "verification.json") == 0
    rows = [json.loads(line) for line in (tmp_path / "verification.json").read_text().splitlines()]
    assert [r["value"] == 0.0 for r in rows if r["kind"] == "pd-min-integral"] == [False, True, False]
    assert "positive definiteness certified over n=2..4: ok" in out


def test_report_digests_repeat_their_lines():
    digests = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    # the list holds the pinned usage errors and the one-block FFT solves
    assert ["infinite", "--x", "e4611686018427387904"] in digests["ARGVS"]
    assert ["spectrum", "--m", "2", "--n", "1500", "--show-vector"] in digests["ARGVS"]
    argvs = [["spectrum", "--m", "3", "--n", "5"], ["bench", "--m", "2", "--n", "10", "--repeats", "1"],
             ["infinite", "--x", "e0"]]
    first = [digests["digest_line"](argv) for argv in argvs]
    assert first == [digests["digest_line"](argv) for argv in argvs]
    assert [line.split("\t")[:2] for line in first] == [
        ["spectrum --m 3 --n 5", "0"], ["bench --m 2 --n 10 --repeats 1", "0"], ["infinite --x e0", "1"]]


def test_report_digests_base_passes_only_on_exactly_the_expected_changes(tmp_path):
    digests = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    compare, read_expected = digests["compare"], digests["read_expected"]
    base = ["spectrum --m 3\t0\taaa", "bounds --n 2..5\t0\tbbb", "infinite --x e0\t1\tccc"]
    head = ["spectrum --m 3\t0\taaa", "bounds --n 2..5\t0\tBBB", "infinite --x e0\t2\tccc"]
    changed = ["bounds --n 2..5", "infinite --x e0"]
    assert compare(base, base, {}) == ([], [])
    assert compare(base, head, dict.fromkeys(changed, "cause")) == (changed, [])
    # a change that is not listed fails, and so does a listed argv that no longer changes
    assert compare(base, head, {"bounds --n 2..5": "cause"}) == (
        changed, ["changed but not in BYTES_EXPECTED: infinite --x e0"])
    assert compare(base, head, {**dict.fromkeys(changed, "cause"), "spectrum --m 3": "cause"}) == (
        changed, ["in BYTES_EXPECTED but unchanged: spectrum --m 3"])
    with pytest.raises(ValueError):
        compare(base, head[:2], {})

    expected = tmp_path / "BYTES_EXPECTED"
    expected.write_text("bounds --n 2..5\tone cause\n\ninfinite --x e0\tanother\n", encoding="utf-8")
    assert read_expected(expected) == {"bounds --n 2..5": "one cause", "infinite --x e0": "another"}
    expected.write_text("bounds --n 2..5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_expected(expected)
    # every committed entry names an argv of the list, or it could never differ
    listed = {shlex.join(argv) for argv in digests["ARGVS"]}
    assert set(read_expected(digests["EXPECTED"])) <= listed


def test_report_digests_hash_the_verification_file_once_per_argv_text():
    digests = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    texts = [shlex.join(argv) for argv in digests["ARGVS"]]
    assert len(set(texts)) == len(texts)  # BYTES_EXPECTED is keyed on argv text
    verify = "scripts/verify_theorems.py --orders 2,3,4 --max-dim 6 --out ."
    argv = digests["ARGVS"][texts.index(verify)]
    first = digests["digest_line"](argv)
    assert first == digests["digest_line"](argv)
    assert first.split("\t")[:2] == [verify, "0"]


def test_ci_runs_the_cli_only_on_digest_argvs():
    # a CLI check in the workflow would restate one that --base or tier-1 already makes, and weaker
    code = "\n".join(line.partition("#")[0] for line in
                     (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8").splitlines())
    assert "-m hilbert_tensors" not in code
    commands = [shlex.split(re.split(r"[<>|;&]", rest)[0]) for rest in re.findall(r"\bhilbert-tensors (.*)", code)]
    assert commands
    argvs = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))["ARGVS"]
    assert [shlex.join(argv) for argv in commands if argv not in argvs] == []
