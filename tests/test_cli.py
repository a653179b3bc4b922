import json
import math
import subprocess
import sys
import warnings

import pytest

from hilbert_tensors import HilbertTensor, analysis, cli, eigensolvers, infinite, reporting
from hilbert_tensors.reporting import ROW_KEYS, to_csv, to_json_lines


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out):
    return [json.loads(line) for line in out.splitlines() if line]


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_basic(capsys):
    code, out, err = run_cli(["spectrum", "--m", "2", "--n", "2"], capsys)
    assert code == 0
    rows = parse_rows(out)
    assert [row["kind"] for row in rows] == ["H", "Z"]
    for row in rows:
        assert tuple(row.keys()) == ROW_KEYS
        assert row["value"] == pytest.approx((4 + math.sqrt(13)) / 6, abs=1e-8)
        assert row["certified"] is True
    assert "bracket" in err


def test_spectrum_trivial(capsys):
    code, out, _ = run_cli(["spectrum", "--m", "2", "--n", "1"], capsys)
    assert code == 0
    assert all(row["value"] == pytest.approx(1.0) for row in parse_rows(out))


def test_spectrum_show_vector(capsys):
    _, _, err = run_cli(["spectrum", "--m", "3", "--n", "2", "--show-vector"], capsys)
    assert "H vector" in err and "Z vector" in err


def test_spectrum_usage_error_m0_direct(capsys):
    code, _, err = run_cli(["spectrum", "--m", "0", "--n", "2"], capsys)
    assert code == 1
    assert "order" in err


def test_spectrum_needs_a_single_dimension(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the dimension spec was checked")

    monkeypatch.setattr(analysis, "solve_dims", no_solve)
    code, out, err = run_cli(["spectrum", "--m", "2", "--n", "2,3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "hilbert-tensors: error: spectrum needs a single dimension, e.g. --n 4\n"


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.run(["spectrum", "--bogus"])
    assert exc.value.code == 1


def test_spectrum_nonconvergence_exit(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--m", "2", "--n", "6", "--max-iter", "2", "--tol", "1e-14"], capsys
    )
    assert code == 3
    assert any(row["certified"] is False for row in parse_rows(out))


# -- bounds -----------------------------------------------------------------------


def test_bounds_range(capsys):
    code, out, _ = run_cli(["bounds", "--m", "3", "--n", "2..4"], capsys)
    assert code == 0
    rows = parse_rows(out)
    bound_rows = [r for r in rows if r["kind"] in ("H", "Z")]
    assert len(bound_rows) == 6
    assert all(r["slack"] >= 0 for r in bound_rows)


def test_bounds_excludes_n1_from_bound_rows(capsys):
    code, out, _ = run_cli(["bounds", "--m", "2", "--n", "1..3"], capsys)
    assert code == 0
    rows = parse_rows(out)
    assert all(r["n"] >= 2 for r in rows if r["kind"] in ("H", "Z"))
    gap_rows = [r for r in rows if r["kind"] == "H-gap"]
    assert {r["n"] for r in gap_rows} == {2, 3}  # consecutive pairs (1,2), (2,3)
    embed_rows = [r for r in rows if r["kind"] == "H-embed"]
    assert all(r["value"] <= 1e-8 for r in embed_rows)


def test_bounds_single_dim(capsys):
    code, out, _ = run_cli(["bounds", "--m", "2", "--n", "2..2"], capsys)
    assert code == 0
    assert len(parse_rows(out)) == 2  # one H row, one Z row, no monotonicity


def test_bounds_nonconvergence_exit(capsys):
    code, _, _ = run_cli(
        ["bounds", "--m", "2", "--n", "5..6", "--max-iter", "2", "--tol", "1e-14"], capsys
    )
    assert code == 3


def test_bounds_violated_sine_bound_exits_2(capsys, monkeypatch):
    orig = analysis.spectral_bound_h
    monkeypatch.setattr(analysis, "spectral_bound_h", lambda m, n: orig(m, n) / 2)
    code, out, err = run_cli(["bounds", "--m", "2", "--n", "2..4"], capsys)
    assert code == cli.EXIT_VIOLATION == 2
    assert "BOUND VIOLATION: m=2 n=2 kind=H" in err
    assert [r["slack"] < 0 for r in parse_rows(out) if r["kind"] == "H"] == [True] * 3


def test_bounds_sine_bound_too_large_for_a_float_renders_null(capsys):
    code, out, err = run_cli(["bounds", "--m", "500", "--n", "5", "--max-iter", "50"], capsys)
    assert code == 3  # the solves are unconverged; no internal error
    assert "Traceback" not in err
    h_row, z_row = parse_rows(out)
    assert (h_row["kind"], h_row["bound"], h_row["slack"]) == ("H", None, None)
    assert z_row["kind"] == "Z" and z_row["bound"] == 5 ** 250.0 * math.sin(math.pi / 5)


def test_bounds_non_ascending_dims_usage_error(capsys):
    code, _, err = run_cli(["bounds", "--m", "2", "--n", "5,3"], capsys)
    assert code == 1
    assert "ascending" in err


@pytest.mark.parametrize(
    "spec, solved",
    [("2..5", [2, 3, 4, 5]), ("1..3", [1, 2, 3]), ("4", [4]), ("1", []), ("5,3", [])],
)
def test_bounds_solves_each_dimension_once(capsys, monkeypatch, spec, solved):
    calls = []
    for name in ("h_spectral_radius", "z_spectral_radius"):
        orig = getattr(eigensolvers, name)

        def counted(t, *args, _orig=orig, **kwargs):
            res = _orig(t, *args, **kwargs)
            calls.append((res.kind, t.dim))
            return res

        # every module that imported the solver by name gets the counting binding
        for modname, module in list(sys.modules.items()):
            if modname.startswith("hilbert_tensors") and getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(["bounds", "--m", "2", "--n", spec], capsys)
    assert code == (1 if spec == "5,3" else 0)
    assert sorted(calls) == sorted([("H", n) for n in solved] + [("Z", n) for n in solved])


def test_bounds_csv_format(capsys):
    code, out, _ = run_cli(["bounds", "--m", "2", "--n", "2..3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(ROW_KEYS)
    assert len(lines) >= 5


# -- infinite ---------------------------------------------------------------------


def test_infinite_e1(capsys):
    code, out, _ = run_cli(
        ["infinite", "--m", "2", "--p", "2", "--x", "e1", "--trunc", "100000"], capsys
    )
    assert code == 0
    row = parse_rows(out)[0]
    assert row["kind"] == "T"
    assert row["value"] == pytest.approx(1.28255, abs=1e-4)
    assert row["bound"] == pytest.approx(math.pi / math.sqrt(6), rel=1e-15)


def test_infinite_usage_error_names_constraint(capsys):
    code, _, err = run_cli(["infinite", "--m", "3", "--p", "1.5", "--op", "F"], capsys)
    assert code == 1
    assert "p > m-1 = 2" in err


def test_infinite_bad_op(capsys):
    code, _, err = run_cli(["infinite", "--op", "Q"], capsys)
    assert code == 1


def test_infinite_search(capsys):
    code, out, _ = run_cli(
        ["infinite", "--m", "2", "--p", "2", "--search", "--trials", "40", "--trunc", "2000"],
        capsys,
    )
    assert code == 0
    row = parse_rows(out)[0]
    assert row["kind"] == "T-search"
    assert row["value"] <= math.pi / math.sqrt(6) + 1e-9
    assert row["iterations"] == 40


def test_infinite_search_reports_gap_to_its_constant(capsys):
    code, out, err = run_cli(
        ["infinite", "--m", "3", "--p", "4", "--op", "F", "--search", "--trials", "6", "--trunc", "1000"],
        capsys,
    )
    assert code == 0
    [row] = parse_rows(out)
    gap = float(err.split("gap to constant=")[1].split()[0])
    assert gap == pytest.approx(row["bound"] - row["value"], abs=1e-3 * gap)
    assert row["bound"] == pytest.approx((math.pi**2 / 6) ** 0.25, rel=1e-15)


def test_infinite_search_computes_each_constant_once(capsys, monkeypatch):
    calls = []
    orig = infinite.operator_norm_constant

    def counted(operator, order, p):
        calls.append((operator, order, p))
        return orig(operator, order, p)

    monkeypatch.setattr(infinite, "operator_norm_constant", counted)
    code, _, _ = run_cli(
        ["infinite", "--m", "3", "--p", "4", "--op", "both", "--search", "--trials", "3", "--trunc", "100"],
        capsys,
    )
    assert code == 0
    assert calls == [("T", 3, 4.0), ("F", 3, 4.0)]


def test_infinite_both_ops(capsys):
    code, out, _ = run_cli(
        ["infinite", "--m", "3", "--p", "4", "--op", "both", "--trunc", "1000"], capsys
    )
    assert code == 0  # p = 4 satisfies both constraints (T: p > 1, F: p > 2)
    assert [r["kind"] for r in parse_rows(out)] == ["T", "F"]


def test_infinite_literal_vector(capsys):
    code, out, _ = run_cli(
        ["infinite", "--m", "2", "--p", "2", "--x", "0.5,0.5", "--trunc", "1000"], capsys
    )
    assert code == 0
    assert parse_rows(out)[0]["value"] < math.pi / math.sqrt(6)


def test_infinite_bound_scales_with_l1_norm(capsys):
    # ||T x||_2 <= (pi/sqrt6) ||x||_1, so a vector of l1 norm 3.1 is no violation
    code, out, err = run_cli(
        ["infinite", "--m", "2", "--p", "2", "--x", "3,0.1", "--trunc", "1000"], capsys
    )
    assert code == 0
    assert "VIOLATION" not in err
    assert parse_rows(out)[0]["bound"] == pytest.approx(math.pi / math.sqrt(6), rel=1e-15)


@pytest.mark.parametrize("x_spec", ["3,0.1", "0.3,0.01"])
def test_infinite_violation_of_scaled_bound_still_flagged(capsys, monkeypatch, x_spec):
    # with the constant halved, C/2 * ||x||_1 lies below the norm whether ||x||_1 > 1 or < 1
    orig = infinite.operator_norm_constant
    monkeypatch.setattr(infinite, "operator_norm_constant", lambda *a, **k: orig(*a, **k) / 2)
    code, _, err = run_cli(
        ["infinite", "--m", "2", "--p", "2", f"--x={x_spec}", "--trunc", "1000"], capsys
    )
    assert code == 2
    assert "NORM BOUND VIOLATION" in err


@pytest.mark.parametrize(
    "args",
    [
        # the p-th powers of the head overflow although the norm is about 1e4
        ["--m", "2", "--p", "100", "--x", "1e4", "--trunc", "10"],
        # the l1 norm itself overflows
        ["--m", "2", "--x", "1e308,1e308"],
        # the head overflows and tail^p would raise OverflowError in `upper`
        ["--m", "4", "--p", "6", "--op", "F", "--x", "1e110", "--trunc", "10"],
    ],
)
def test_non_finite_infinite_row_is_uncertified(capsys, args):
    code, out, err = run_cli(["infinite", *args], capsys)
    assert code == cli.EXIT_UNCONVERGED == 3
    [row] = parse_rows(out)
    assert row["value"] is None and row["slack"] is None
    assert row["certified"] is False
    assert "VIOLATION" not in err
    assert "internal error" not in err


# -- bench ------------------------------------------------------------------------


def test_bench_rows_and_table(capsys):
    code, out, err = run_cli(["bench", "--m", "3", "--n", "5,20", "--repeats", "1"], capsys)
    assert code == 0
    rows = parse_rows(out)
    assert [r["kind"] for r in rows] == ["bench", "bench"]
    assert all(r["value"] <= 1e-10 for r in rows)
    assert "naive" in err


def test_bench_runs_each_arm_repeats_times(capsys, monkeypatch):
    calls = {"apply_fast": 0, "apply_naive": 0}
    for name in calls:
        orig = getattr(HilbertTensor, name)

        def counted(self, x, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, x)

        monkeypatch.setattr(HilbertTensor, name, counted)
    code, out, _ = run_cli(["bench", "--m", "3", "--n", "10,40", "--repeats", "3"], capsys)
    assert code == 0
    assert calls == {"apply_fast": 6, "apply_naive": 6}
    assert [r["kind"] for r in parse_rows(out)] == ["bench", "bench"]


def test_bench_fast_only_over_budget(capsys):
    # 216^3 = 10,077,696 > core.MAX_DENSE_ELEMENTS = 10^7
    code, out, _ = run_cli(["bench", "--m", "3", "--n", "216", "--repeats", "1"], capsys)
    assert code == 0
    row = parse_rows(out)[0]
    assert row["kind"] == "bench-fast-only"
    assert row["value"] is None and row["certified"] is False


def test_dense_budget_reads_no_environment(capsys, monkeypatch):
    # HILBERT_MAX_ELEMENTS once overrode the budget; a report follows from its argv alone
    argv = ["bench", "--m", "3", "--n", "10", "--repeats", "1"]
    code, out, _ = run_cli(argv, capsys)
    monkeypatch.setenv("HILBERT_MAX_ELEMENTS", "10")
    assert run_cli(argv, capsys)[:2] == (code, out)
    assert [row["kind"] for row in parse_rows(out)] == ["bench"]
    assert HilbertTensor(2, 4).materialize_dense().shape == (4, 4)


# -- argument checks and exit codes -------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [["spectrum", "--m", "3", "--n", "60"], ["bounds", "--m", "4", "--n", "2..12"]],
)
def test_z_converges_at_gate_sizes(capsys, args):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    z_rows = [row for row in parse_rows(out) if row["kind"] == "Z"]
    assert z_rows and all(row["certified"] and row["iterations"] <= 50 for row in z_rows)


@pytest.mark.parametrize(
    "args, names",
    [
        (["spectrum", "--max-iter", "0"], "--max-iter"),
        (["spectrum", "--tol", "nan"], "--tol"),
        (["bench", "--repeats", "0"], "--repeats"),
        (["infinite", "--p", "nan"], "--p"),
        (["infinite", "--x", "0", "--trunc", "0"], "--trunc"),
        (["infinite", "--search", "--trials", "-1"], "--trials"),
        (["infinite", "--search", "--support", "0"], "--support"),
        (["infinite", "--x=1,nan"], "--x"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, args, names):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert names in err


@pytest.mark.parametrize(
    "args",
    [["infinite", "--tol", "1e-3"], ["infinite", "--n", "5"], ["bench", "--max-iter", "5"]],
)
def test_flag_the_command_never_reads_is_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.run(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_missing_out_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["spectrum", "--m", "2", "--n", "3", "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert not target.exists()
    assert "--out" in err
    # a directory is no file to write either; refused before any solve
    code, out, err = run_cli(["spectrum", "--m", "2", "--n", "3", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert "--out" in err
    assert "value=" not in err


def test_internal_fault_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("simulated fault")

    monkeypatch.setattr(infinite, "t_infinity", broken)
    code, out, err = run_cli(["infinite", "--m", "2", "--p", "2", "--trunc", "100"], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "hilbert-tensors: internal error: ValueError: simulated fault"


def test_overflow_rows_stay_json(capsys):
    code, out, _ = run_cli(["spectrum", "--m", "500", "--n", "5", "--max-iter", "50"], capsys)
    assert code == 3
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["kind"] for row in rows] == ["H", "Z"]
    # the solvers stop at the first non-finite iterate instead of spinning on
    assert all(row["certified"] is False and row["iterations"] < 50 for row in rows)


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--m", "500", "--n", "5", "--max-iter", "50"],
        ["infinite", "--m", "2", "--p", "100", "--x", "1e4", "--trunc", "10"],
        ["infinite", "--x", "1e308,1e308"],
        ["infinite", "--m", "4", "--p", "6", "--op", "F", "--x", "1e110", "--trunc", "10"],
    ],
)
def test_overflow_rows_come_without_numpy_warnings(capsys, args):
    code, out, _ = run_cli(args, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        strict_code, strict_out, _ = run_cli(args, capsys)
    assert code == strict_code == 3
    assert strict_out == out


# -- determinism ------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--m", "3", "--n", "3"],
        ["bounds", "--m", "2", "--n", "2..4"],
        ["infinite", "--m", "2", "--p", "2", "--search", "--trials", "30", "--trunc", "1000", "--seed", "11"],
        ["bench", "--m", "2", "--n", "4,8", "--repeats", "1"],
        ["bounds", "--m", "2", "--n", "2..3", "--format", "csv"],
    ],
)
def test_byte_identical_reruns(tmp_path, args):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert cli.run(args + ["--out", str(out_a)]) == 0
    assert cli.run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbert_tensors", "spectrum", "--m", "2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"kind": "H"' in proc.stdout


# -- serialization details -----------------------------------------------------------


def test_json_17_digit_floats():
    text = to_json_lines([{"m": 2, "n": 2, "kind": "H", "value": 1 / 3, "bound": None,
                           "slack": None, "certified": True, "iterations": 5}])
    assert '"value": 0.33333333333333331' in text
    assert text.endswith("\n")


def test_non_finite_floats_render_as_null():
    row = {"m": 2, "n": 2, "kind": "H", "value": math.nan, "bound": math.inf,
           "slack": -math.inf, "certified": False, "iterations": 1}
    assert json.loads(to_json_lines([row]))["value"] is None
    assert to_csv([row]).splitlines()[1] == "2,2,H,,,,false,1"


@pytest.mark.parametrize(
    "slack,certified,expected",
    [(None, True, False), (math.nan, True, False), (-1.0, False, False), (0.0, True, False),
     (-1e-300, True, True)],
    ids=["none", "nan", "uncertified", "equality", "tiny-negative"],
)
def test_violated_is_certified_with_negative_slack(slack, certified, expected):
    row = reporting.make_row(2, 3, "H", 1.0, 1.0, slack, certified, 1)
    assert reporting.violated(row) is expected


def test_csv_nulls_empty():
    text = to_csv([{"m": 2, "n": 2, "kind": "H", "value": 0.5, "bound": None,
                    "slack": None, "certified": False, "iterations": None}])
    assert text.splitlines()[1] == "2,2,H,0.5,,,false,"


@pytest.mark.parametrize("m, x", [("4", "1e-200"), ("4", "1e-120"), ("3", "1e-200"), ("3", "1e-320"), ("4", "1e150")])
def test_infinite_t_outside_the_float_range_is_certified(capsys, m, x):
    code, out, err = run_cli(["infinite", "--m", m, "--p", "2", "--op", "T", "--x", x], capsys)
    assert code == 0, err
    [row] = parse_rows(out)
    assert row["certified"] is True and 0.0 < row["value"] < 1.3 * float(x)
    upper = float(err.split("certified upper=")[1].split()[0])
    assert upper >= row["value"]


@pytest.mark.parametrize("m, p", [("2", "2"), ("3", "4"), ("4", "6")])
def test_infinite_search_both_is_t_then_f(capsys, m, p):
    # one shared candidate stream prints exactly the rows and lines of the two separate searches
    args = ["infinite", "--search", "--m", m, "--p", p, "--trials", "25", "--trunc", "500", "--seed", "4",
            "--show-vector"]
    both = run_cli(args + ["--op", "both"], capsys)
    t_code, t_out, t_err = run_cli(args + ["--op", "T"], capsys)
    f_code, f_out, f_err = run_cli(args + ["--op", "F"], capsys)
    assert both == (max(t_code, f_code), t_out + f_out, t_err + f_err)


def test_infinite_search_both_makes_one_head_per_candidate(capsys, monkeypatch):
    heads = []
    apply = infinite.apply_infinite

    def counted(x, order, out_len):
        heads.append(order)
        return apply(x, order, out_len)

    monkeypatch.setattr(infinite, "apply_infinite", counted)
    counts = {}
    for op in ("T", "F", "both"):
        heads.clear()
        code, _, err = run_cli(["infinite", "--search", "--op", op, "--m", "3", "--p", "4", "--trials", "20",
                                "--trunc", "500"], capsys)
        assert code == 0, err
        counts[op] = len(heads)
    evaluations = int(err.split("evaluations=")[1].split()[0])
    assert counts == {"T": evaluations, "F": evaluations, "both": evaluations}


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--n", "x"],
        ["bounds", "--n", "5..2"],
        ["bounds", "--n", "0"],
        ["infinite", "--x", "e0"],
        ["infinite", "--x=1,,2"],
    ],
)
def test_library_rule_in_validate_is_usage_error(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == cli.EXIT_USAGE == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("hilbert-tensors: error: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_holds_the_stdout_report(capsys, tmp_path, fmt):
    args = ["bounds", "--m", "2", "--n", "2..3", "--format", fmt]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out
    target = tmp_path / "report.txt"
    code, file_out, _ = run_cli(args + ["--out", str(target)], capsys)
    assert code == 0
    assert file_out == ""
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("m, p", [("2", "2"), ("3", "4")])
def test_search_show_vector_prints_each_best_vector(capsys, m, p):
    args = ["infinite", "--search", "--op", "both", "--m", m, "--p", p, "--trials", "12", "--support", "5",
            "--trunc", "200", "--seed", "4", "--show-vector"]
    code, _, err = run_cli(args, capsys)
    assert code == 0
    for op in ("T", "F"):
        (line,) = [line for line in err.splitlines() if line.startswith(f"{op}-search vector: ")]
        vector = json.loads(line.split(": ", 1)[1])
        rep = infinite.norm_search(int(m), float(p), 12, 5, 200, 4, operator=op)
        assert vector == rep.best_vector
        assert math.fsum(abs(v) for v in vector) == pytest.approx(1.0, abs=1e-15)


def test_bounds_prints_its_monotonicity_verdict(capsys):
    mono = analysis.dimension_sweep(3, [2, 3, 4]).monotonicity
    code, _, err = run_cli(["bounds", "--m", "3", "--n", "2..4"], capsys)
    assert code == 0
    assert (
        f"monotonicity m=3: strict_h={mono.strict_h} nondecreasing_z={mono.nondecreasing_z} "
        f"certified={mono.certified}"
    ) in err.splitlines()
    assert mono.strict_h and mono.nondecreasing_z and mono.certified


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--n", "1..10000000000000000000"], "spectrum needs a single dimension, e.g. --n 4"),
        (["bounds", "--n", "0..10000000000000000000"], "dimensions must be >= 1"),
    ],
)
def test_huge_dimension_range_is_checked_by_its_ends(capsys, args, message):
    # refused before the range is built: building it raises OverflowError (exit 4)
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (1, "", f"hilbert-tensors: error: {message}\n")


def test_one_dimension_range_is_a_single_dimension(capsys):
    code, out, _ = run_cli(["spectrum", "--m", "2", "--n", "3..3"], capsys)
    assert code == 0
    assert [row["n"] for row in parse_rows(out)] == [3, 3]


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--m", "2", "--n", "10000000000000000000"],
        ["bounds", "--m", "2", "--n", "1..10000000000000000000"],
    ],
)
def test_dimension_past_numpys_index_limit_is_a_usage_error(capsys, args):
    # was exit 4: numpy's "Maximum allowed dimension exceeded", and OverflowError from building the range
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err == (
        "hilbert-tensors: error: --m 2 --n 10000000000000000000 needs a generating vector of "
        "19999999999999999999 entries, more than numpy can allocate\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        # numpy indexes these generating vectors but refuses to allocate them as float64
        ["spectrum", "--m", "2", "--n", "1152921504606846976"],
        ["spectrum", "--m", "2", "--n", "4611686018427387904"],
        ["bounds", "--m", "2", "--n", "1..4611686018427387904"],
        # the infinite head: support len(--x), or --support under --search
        ["infinite", "--trunc", "10000000000000000000"],
        ["infinite", "--x", "0", "--trunc", "10000000000000000000"],
        ["infinite", "--search", "--support", "4611686018427387904", "--trials", "0"],
    ],
)
def test_head_past_numpys_allocation_limit_is_a_usage_error(capsys, args):
    # was exit 4: "array is too big", "Maximum allowed size exceeded" or MemoryError
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("hilbert-tensors: error: --m 2 ")
    assert line.endswith("more than numpy can allocate")
