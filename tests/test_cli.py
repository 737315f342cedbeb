"""Command-line interface: determinism, schemas, exit codes."""

import csv
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pgrv import cli
from pgrv.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from pgrv.density import trunc_lookup
from pgrv.pg import SADDLE_MIN_SIZE, PgParams, pg_mean, pg_var

from trunc_table_oracle import solve_trunc_point


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_byte_identical_reruns(self, capsys):
        args = ["sample", "--b", "1", "--z", "0", "--n", "3", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    def test_mean_at_scale(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--b", "1", "--z", "0", "--n", "100000", "--seed", "7"],
            capsys)
        assert code == EXIT_OK
        draws = np.array([float(v) for v in out.split()])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.25) < 4 * se

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--b", "2", "--n", "4", "--format", "csv"], capsys)
        lines = out.splitlines()
        assert code == EXIT_OK and lines[0] == "draw" and len(lines) == 5

    def test_method_shape_mismatch_exits_usage(self, capsys):
        code, _, err = run_cli(
            ["sample", "--b", "0.5", "--method", "saddlepoint", "--n", "1"],
            capsys)
        assert code == EXIT_USAGE
        assert "saddlepoint" in err

    def test_arithmetic_failure_exits_numerical(self, capsys, monkeypatch):
        # an ArithmeticError inside a sampler is a numerical failure, not
        # exit 1
        from pgrv import devroye

        def divide_by_zero(*args, **kwargs):
            return 1.0 / 0.0

        monkeypatch.setattr(devroye, "sample_jstar_int_batch", divide_by_zero)
        code, _, err = run_cli(
            ["sample", "--b", "1", "--z", "1", "--n", "5"], capsys)
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical failure:")

    def test_unknown_flag_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--b", "1", "--bogus"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "draws.txt"
        code, out, _ = run_cli(
            ["sample", "--b", "1", "--n", "2", "--out", str(path)], capsys)
        assert code == EXIT_OK and out == ""
        assert len(path.read_text().splitlines()) == 2


class TestTable:
    """``pgrv table`` prints the one table that trunc_lookup reads."""

    def test_unit_row_six_decimals(self, capsys):
        code, out, _ = run_cli(["table"], capsys)
        assert code == EXIT_OK
        first = out.splitlines()[1].split(",")
        assert first[0] == "1"
        assert f"{float(first[1]):.6f}" == "0.636620"

    def test_row_count(self, capsys):
        code, out, _ = run_cli(["table"], capsys)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 1201 + 32

    def test_prints_the_shipped_file(self, capsys):
        code, out, _ = run_cli(["table"], capsys)
        assert code == EXIT_OK
        shipped = Path(cli.__file__).with_name("trunc_table.csv")
        assert out == shipped.read_text()

    def test_round_trip_reproduces_lookups(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, _, _ = run_cli(["table", "--out", str(path)], capsys)
        assert code == EXIT_OK
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["h", "t"] and len(rows) == 1 + 1201 + 32
        for h, t in rows[1:]:
            assert float(t) == trunc_lookup(float(h))
            assert float(t) == solve_trunc_point(float(h))

    def test_grid_flags_exit_usage(self, capsys):
        # the table is fixed: there is no grid to choose
        with pytest.raises(SystemExit) as exc:
            main(["table", "--step", "0.1"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_seed_flag_exits_usage(self, capsys):
        # the table is deterministic: a seed would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["table", "--seed", "5"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestBench:
    def test_small_grid_schema_and_pivot(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            ["bench", "--grid-b", "1,3", "--grid-z", "0,1", "--n", "500",
             "--reps", "1", "--seed", "3", "--out", str(path)], capsys)
        assert code == EXIT_OK
        rows = list(csv.DictReader(path.open()))
        assert rows and list(rows[0]) == [
            "method", "b", "z", "n_draws", "setup_seconds", "wall_seconds",
            "draws_per_sec", "sample_mean", "sample_var", "seed"]
        # devroye, alternate, gamma-sum at both shapes
        assert len(rows) == 3 * 2 * 2
        for r in rows:
            p = PgParams(float(r["b"]), float(r["z"]))
            se = np.sqrt(float(r["sample_var"]) / int(r["n_draws"]))
            assert abs(float(r["sample_mean"]) - pg_mean(p)) < 5 * se
        # pivot table on stdout: header + one row per b
        pivot = [line for line in out.splitlines() if line]
        assert pivot[0].startswith("b,z=0,z=1")
        assert len(pivot) == 3

    def test_empty_grid_usage_error(self, capsys):
        code, _, _ = run_cli(["bench", "--grid-b", ""], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_draw_count_below_one_exits_usage(self, n, capsys):
        # zero draws would time nothing and print NaN moment columns
        code, out, err = run_cli(
            ["bench", "--grid-b", "1", "--grid-z", "0", "--n", n,
             "--reps", "1"], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "--n" in err

    @pytest.mark.parametrize("reps", ["0", "-4"])
    def test_reps_below_one_exits_usage(self, reps, capsys):
        # zero repetitions would time nothing
        code, out, err = run_cli(
            ["bench", "--grid-b", "1", "--grid-z", "0", "--n", "10",
             "--reps", reps], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "--reps" in err


class TestValidate:
    def test_fast_suites_pass(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--suites", "cgf,conjecture,envelope", "--n", "1000"],
            capsys)
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "test", "b", "z", "statistic",
                           "threshold", "pass"]
        assert all(r[-1] == "pass" for r in rows[1:])

    def test_moment_suite_small(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--suites", "moments", "--n", "20000", "--seed",
             "1"], capsys)
        assert code == EXIT_OK

    def test_saddle_allowance_only_where_saddle_ran(self, capsys):
        # b = 50 runs the saddlepoint only for batches of SADDLE_MIN_SIZE
        # or more; the 1% mean allowance goes with that route
        for n, allow in ((50, 0.0), (SADDLE_MIN_SIZE, 0.01)):
            _, out, _ = run_cli(
                ["validate", "--suites", "moments", "--n", str(n)], capsys)
            rows = [r for r in csv.DictReader(io.StringIO(out))
                    if r["test"] == "mean" and float(r["b"]) == 50.0]
            assert len(rows) == 2
            for row in rows:
                p = PgParams(50.0, float(row["z"]))
                want = 4.0 * np.sqrt(pg_var(p) / n) + allow * pg_mean(p)
                assert float(row["threshold"]) == pytest.approx(want,
                                                                rel=1e-5)

    def test_fault_injection_fails_and_names_record(self, capsys,
                                                    monkeypatch):
        # a wrong exact mean must surface as a failing record: the
        # harness cannot silently pass
        monkeypatch.setattr(cli, "pg_mean", lambda p: 2.0 * pg_mean(p))
        code, out, err = run_cli(
            ["validate", "--suites", "moments", "--n", "2000"], capsys)
        assert code == EXIT_VALIDATION
        assert "FAIL" in out
        assert "FAILED: moments/" in err

    def test_domination_suite_reports_both_ratios_per_shape(self, capsys):
        code, out, _ = run_cli(["validate", "--suites", "domination"], capsys)
        assert code == EXIT_OK
        rows = [r for r in csv.reader(io.StringIO(out))][1:]
        # one left-kernel and one right-kernel ratio row per shape in
        # {1.0, 1.1, ..., 4.0} and {16, 64}, then the far right tail, x
        # in [20, 200] and at 400, 600 and 1,000, for h in {1, 2.5, 4},
        # and x = 20h and 25h for h in {16, 64}
        assert len(rows) == 2 * 31 + 2 * 2 + 2 * 5
        assert [float(r[2]) for r in rows[62:66]] == [16.0, 16.0, 64.0, 64.0]
        tests = {r[1] for r in rows}
        assert tests == {"max-f-over-left-kernel", "max-f-over-right-kernel",
                         "max-f-over-right-kernel-far-tail",
                         "min-f-over-right-kernel-far-tail"}
        assert all(float(r[4]) <= 1.0 + 1e-9 for r in rows)
        far = [r for r in rows if r[1].endswith("far-tail")]
        assert [float(r[2]) for r in far] == [1.0, 1.0, 2.5, 2.5, 4.0, 4.0,
                                              16.0, 16.0, 64.0, 64.0]
        assert all(r[6] == "pass" for r in far)

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(["validate", "--suites", "nope"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("suites", [",", ""])
    def test_empty_suite_list_usage_error(self, suites, capsys):
        # a list that names no suite would check nothing and exit 0
        code, out, err = run_cli(["validate", "--suites", suites], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "--suites" in err

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_draw_count_below_two_exits_usage(self, n, capsys):
        # one draw has no sample variance: the input is at fault, not
        # the sampler
        code, out, err = run_cli(
            ["validate", "--suites", "moments", "--n", n], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "FAILED" not in err and "--n" in err

    def test_ks_without_scipy_exits_usage(self, capsys, monkeypatch):
        # scipy is an optional extra: without it the KS suite is refused
        # before the moment suite runs, and no row is printed
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        code, out, err = run_cli(
            ["validate", "--suites", "moments,ks", "--n", "100"], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "pip install 'pgrv[validate]'" in err


@pytest.mark.parametrize("argv", [["sample", "--b", "1", "--n", "3"],
                                  ["validate", "--suites", "cgf"],
                                  ["table"]])
@pytest.mark.parametrize("missing_dir", [True, False])
def test_unusable_out_exits_usage(argv, missing_dir, tmp_path, capsys):
    # a path in a missing directory, or a directory: exit 1 is kept for
    # failed validation, so this is a usage error, not a traceback
    out = tmp_path / "missing" / "out.csv" if missing_dir else tmp_path
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == EXIT_USAGE
    assert stdout == "" and err.startswith("error: ")


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pgrv.cli", "sample", "--b", "1", "--n", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1
