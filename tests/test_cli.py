"""Tests for the command-line interface: flags, CSV formats, exit codes."""

import numpy as np
import pytest

from conftest import oracle
from voigt2dom import fadsamp
from voigt2dom.cli import BenchSpec, main, run_benchmark
from voigt2dom.exceptions import VoigtError


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestEval:
    def test_twodom_both_parts(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main([
            "eval", "--algo", "twodom", "--y", "1e-8",
            "--x-range", "-5:5:1001", "--part", "both", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "re", "im"]
        assert len(rows) == 1001
        mid = rows[500]
        assert float(mid[0]) == 0.0
        ref = oracle(0.0 + 1e-8j)[0]
        assert abs(float(mid[1]) - ref.real) <= 2.5e-13

    def test_cf_single_row(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main([
            "eval", "--algo", "cf", "--y", "1",
            "--x-range", "100:100:1", "--part", "both", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        got = complex(float(rows[0][1]), float(rows[0][2]))
        ref = oracle(100 + 1j)[0]
        assert abs(got - ref) / abs(ref) < 1e-13

    def test_part_headers(self, tmp_path):
        for part, header in (("re", ["x", "k"]), ("im", ["x", "l"])):
            out = tmp_path / f"{part}.csv"
            rc = main([
                "eval", "--algo", "fadsamp", "--y", "0.5",
                "--x-range", "0:1:5", "--part", part, "--out", str(out),
            ])
            assert rc == 0
            got, rows = read_csv(out)
            assert got == header
            assert len(rows) == 5

    def test_missing_y_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", "fadsamp", "--x-range", "0:1:5",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_x_range_and_input_conflict(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("x\n1.0\n2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", "fadsamp", "--y", "1",
                  "--x-range", "0:1:5", "--input", str(src),
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", "fadsamp", "--y", "1",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_input_csv(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("x,ignored\n0.5,9\n1.5,9\n-2.0,9\n")
        out = tmp_path / "o.csv"
        rc = main(["eval", "--algo", "fadsamp", "--y", "1",
                   "--input", str(src), "--part", "both", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        xs = np.array([float(r[0]) for r in rows])
        assert np.array_equal(xs, [0.5, 1.5, -2.0])

    def test_bad_x_range_format(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", "fadsamp", "--y", "1",
                  "--x-range", "0:1", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_opt_part_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", "twodom", "--y", "1", "--opt", "1",
                  "--x-range", "0:1:5", "--part", "im",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_opt_real_projection(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["eval", "--algo", "twodom", "--y", "1", "--opt", "1",
                   "--x-range", "0:2:5", "--part", "re", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "k"]
        assert len(rows) == 5

    def test_round_trip_identical_bits(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["eval", "--algo", "fadsamp", "--y", "0.3",
              "--x-range", "-3:3:101", "--part", "both", "--out", str(out)])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        xs, re, im = data[:, 0], data[:, 1], data[:, 2]
        again = fadsamp(xs + 1j * 0.3)
        assert np.array_equal(again.real, re)
        assert np.array_equal(again.imag, im)

    def test_math_error_exit_code(self, tmp_path, capsys):
        rc = main(["eval", "--algo", "wtrap", "--y", "-1",
                   "--x-range", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestErrmap:
    def test_absolute_map_small_y(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["errmap", "--algo", "twodom",
                   "--x-range", "-5:5:1001", "--y-range", "1e-8:1e-8:1",
                   "--metric", "abs", "--part", "re", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("max_err=")
        assert float(printed.split("=", 1)[1]) <= 2.5e-13
        header, rows = read_csv(out)
        assert header == ["x", "y", "err"]
        assert len(rows) == 1001

    def test_relative_map_prints_max(self, tmp_path, capsys):
        rc = main(["errmap", "--algo", "wtrap",
                   "--x-range", "0:10:50", "--y-range", "1e-4:10:5",
                   "--metric", "rel", "--part", "im",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        val = float(capsys.readouterr().out.split("=", 1)[1])
        assert val < 1e-12

    def test_relative_map_imag_full_grid(self, tmp_path, capsys):
        rc = main(["errmap", "--algo", "twodom",
                   "--x-range", "0:50:1000", "--y-range", "1e-8:50:200",
                   "--metric", "rel", "--part", "im",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        val = float(capsys.readouterr().out.split("=", 1)[1])
        assert val <= 1e-10


class TestBench:
    def test_spec_defaults_mirror_protocol(self):
        spec = BenchSpec()
        assert spec.point_count == 10_000_000
        assert spec.x_half_ranges == (10.0, 100.0, 1000.0)
        assert spec.y == 1e-8
        assert spec.repeats == 10

    def test_spec_validation(self):
        with pytest.raises(VoigtError):
            BenchSpec(repeats=0)
        with pytest.raises(VoigtError):
            BenchSpec(point_count=0)
        with pytest.raises(VoigtError):
            BenchSpec(algorithms=("nope",))

    def test_small_run_and_csv(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--points", "2000", "--repeats", "1",
                   "--ranges", "10,100", "--algos", "fadsamp,twodom",
                   "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "fadsamp" in table and "twodom" in table
        header, rows = read_csv(out)
        assert header == ["algorithm", "half_range", "points", "repeats", "mean_seconds"]
        assert len(rows) == 4
        assert all(float(r[4]) >= 0 for r in rows)

    def test_zero_repeats_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--points", "100", "--repeats", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_range_usage_error(self, bad):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--points", "10", "--repeats", "1", "--ranges", bad])
        assert exc.value.code == 2

    def test_value_determinism(self):
        xs = np.linspace(-10, 10, 5000)
        a = fadsamp(xs + 1j * 1e-8)
        b = fadsamp(xs + 1j * 1e-8)
        assert np.array_equal(a, b)

    def test_run_benchmark_rows(self):
        spec = BenchSpec(point_count=1000, repeats=1,
                         x_half_ranges=(10.0,), algorithms=("wtrap",))
        rows = run_benchmark(spec)
        assert len(rows) == 1
        assert rows[0][0] == "wtrap" and rows[0][2] > 0

