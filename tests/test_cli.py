"""Tests for the command-line interface: flags, CSV formats, exit codes."""

import warnings

import numpy as np
import pytest

from conftest import oracle
from voigt2dom import TwoDomainConfig, evaluate, fadsamp
from voigt2dom.cli import BenchSpec, main, part_error, run_benchmark
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

    @pytest.mark.parametrize("algo", ["fadsamp", "wtrap", "cf"])
    def test_opt_part_conflict_for_every_algo(self, algo, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--algo", algo, "--y", "1", "--opt", "1",
                  "--x-range", "0:1:5", "--part", "im",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_input_csv_without_numbers(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("x,ignored\n\n# a comment\n")
        rc = main(["eval", "--algo", "fadsamp", "--y", "1",
                   "--input", str(src), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "no numeric x values" in capsys.readouterr().err

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

    def test_enhanced_density_rows(self, tmp_path):
        rows = {}
        for density in ("basic", "enhanced"):
            out = tmp_path / f"{density}.csv"
            rc = main(["eval", "--algo", "twodom", "--density", density, "--y", "1e-3",
                       "--x-range", "-40:40:801", "--part", "both", "--out", str(out)])
            assert rc == 0
            rows[density] = np.loadtxt(out, delimiter=",", skiprows=1)
        xs, re, im = rows["enhanced"].T
        want = evaluate(xs, 1e-3, 3, TwoDomainConfig(density="enhanced"))
        assert np.array_equal(want.real, re)
        assert np.array_equal(want.imag, im)
        assert not np.array_equal(rows["basic"], rows["enhanced"])

    def test_math_error_exit_code(self, tmp_path, capsys):
        rc = main(["eval", "--algo", "wtrap", "--y", "-1",
                   "--x-range", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestPartError:
    @staticmethod
    def values():
        """Seeded values and references whose parts include +0.0 and -0.0,
        with a value part equal to a zero reference part."""
        rng = np.random.default_rng(7)
        ref = rng.normal(size=200) + 1j * rng.normal(size=200)
        ref.real[:20], ref.real[20:40] = 0.0, -0.0
        ref.imag[40:60], ref.imag[60:80] = 0.0, -0.0
        vals = ref * (1.0 + 1e-14 * rng.normal(size=200)) + 1e-15 * rng.normal(size=200)
        vals[:10] = ref[:10]
        vals[40:50] = ref[40:50]
        return vals, ref

    @pytest.mark.parametrize("metric", ["abs", "rel"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_matches_the_masked_formula(self, part, metric):
        vals, ref = self.values()
        before = vals.tobytes(), ref.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = part_error(vals, ref, part, metric)
        a, b = (vals.real, ref.real) if part == "re" else (vals.imag, ref.imag)
        diff = np.abs(a - b)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = diff if metric == "abs" else np.where(b != 0, diff / np.abs(b), diff)
        assert err.dtype == np.float64 and np.array_equal(err.view(np.uint64), want.view(np.uint64))
        assert (vals.tobytes(), ref.tobytes()) == before


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

    # README's enhanced-density figures over the same region
    @pytest.mark.parametrize("part, bound", [("re", 3.1e-13), ("im", 1.1e-12)])
    def test_enhanced_density_map(self, part, bound, tmp_path, capsys):
        rc = main(["errmap", "--algo", "twodom", "--density", "enhanced",
                   "--x-range", "0:50:50", "--y-range", "1e-8:50:5",
                   "--metric", "rel", "--part", part, "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        assert float(capsys.readouterr().out.split("=", 1)[1]) <= bound


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



class TestUsageErrors:
    """Each rejected flag value exits 2 with its own message."""

    CASES = {
        "opt 2 part re": (["eval", "--algo", "twodom", "--y", "1", "--opt", "2",
                           "--part", "re", "--x-range", "0:1:5", "--out", "o.csv"],
                          "--opt 2 produces the imaginary part only"),
        "zero points": (["eval", "--algo", "fadsamp", "--y", "1",
                         "--x-range", "0:1:0", "--out", "o.csv"], "N must be >= 1"),
        "trailing x-range": (["eval", "--algo", "fadsamp", "--y", "1",
                              "--out", "o.csv", "--x-range"], "expected one argument"),
        "log y-range from 0": (["errmap", "--algo", "fadsamp", "--x-range", "0:1:5",
                                "--y-range", "0:1:5", "--out", "m.csv"],
                               "log spacing needs positive bounds"),
        "empty ranges": (["bench", "--points", "10", "--repeats", "1", "--ranges", ""],
                         "x_half_ranges must be a non-empty sequence"),
        "non-numeric range": (["bench", "--points", "10", "--repeats", "1",
                               "--ranges", "1,x"], "bad list"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_message(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, message = self.CASES[case]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
