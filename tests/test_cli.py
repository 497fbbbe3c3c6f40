import json
import math

import pytest

import esdurate.esdu
from esdurate.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    MAX_GRID_POINTS,
    UsageError,
    _parse_grid,
    canonical_json,
    main,
)

TS = ["--timestamp", "2000-01-01T00:00:00Z"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestP2pBounds:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, ["p2p-bounds", "--peak-db", "0", "--delta0", "0.5"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert int(row["K"]) == 3
        assert float(row["f_lower"]) == pytest.approx(0.0743957727703369, abs=1e-9)
        assert float(row["g_upper"]) == pytest.approx(0.115016970696966, abs=1e-9)
        assert float(row["mi_exact"]) == pytest.approx(0.111166693415685, abs=1e-4)
        assert float(row["h_input"]) == pytest.approx(math.log2(3), abs=1e-12)

    def test_db_range_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["p2p-bounds", "--peak-db", "0:2", "--delta0", "1"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [float(r["A_over_sigma_db"]) for r in rows] == [0.0, 1.0, 2.0]

    def test_10db_row(self, capsys):
        code, out, _ = run_cli(capsys, ["p2p-bounds", "--peak-db", "10", "--delta0", "0.5"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert int(row["K"]) == 21
        assert float(row["mi_exact"]) == pytest.approx(1.5908218306, abs=1e-4)

    def test_zero_peak_row_collapses(self, capsys):
        code, out, _ = run_cli(capsys, ["p2p-bounds", "--peak", "0"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        for col in ("c_lower", "c_upper", "e_cap", "f1", "f2", "f3", "f_lower", "g_upper", "mi_exact"):
            assert float(row[col]) == 0.0
        assert row["owb"] == ""

    def test_peak_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, ["p2p-bounds", "--peak", "1", "--peak-db", "0"])
        assert code == EXIT_USAGE
        assert "exactly one" in err
        code, _, _ = run_cli(capsys, ["p2p-bounds"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--peak-db", "10", "--delta0", "0"], "--delta0"),
            (["--peak-db", "10", "--delta0", "-1"], "--delta0"),
            (["--peak-db", "10", "--sigma", "0"], "--sigma"),
            (["--peak-db", "nan"], "--peak-db"),
            (["--peak-db", "0:1:nan"], "--peak-db"),
            (["--peak-db", "0:inf"], "--peak-db"),
            (["--peak", "-1"], "--peak"),
            (["--peak-db", "30", "--delta0", "1e-9"], "--delta0"),
            (["--peak-db", "0:1e9:1e-3"], "--peak-db"),
        ],
    )
    def test_invalid_input_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, ["p2p-bounds", *argv] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err

    def test_csv_shape(self, capsys):
        _, out, _ = run_cli(capsys, ["p2p-bounds", "--peak-db", "5"] + TS)
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: {")
        assert lines[1].startswith("A_over_sigma_db,K,c_lower,")
        assert "\r" not in out
        # 15 significant digits survive the round trip
        _, rows = parse_csv(out)
        value = rows[0]["mi_exact"]
        assert float(value) == float(f"{float(value):.15g}")


class TestGrid:
    def test_range_length_cap(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}", "--x")) == MAX_GRID_POINTS
        with pytest.raises(UsageError, match="--x"):
            _parse_grid(f"0:{MAX_GRID_POINTS}", "--x")

    def test_overflowing_ranges(self):
        with pytest.raises(UsageError, match="--x"):
            _parse_grid("-1e308:1e308", "--x")
        assert _parse_grid("1e308:-1e308", "--x") == []


class TestEsduRate:
    def test_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["esdu-rate", "--span", "1", "--levels", "3", "--mc-samples", "20000", "--seed", "9"] + TS,
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["xi"]) == pytest.approx(0.5350582324227684, abs=1e-9)
        assert float(row["f_lower"]) == pytest.approx(0.0743957727703369, abs=1e-9)
        est = float(row["mi_mc"])
        se = float(row["mi_mc_stderr"])
        assert abs(est - float(row["mi_exact"])) <= 4 * se

    def test_degenerate_input(self, capsys):
        code, out, _ = run_cli(capsys, ["esdu-rate", "--span", "0", "--levels", "1"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["xi"] == row["owb"] == ""
        assert float(row["f_lower"]) == 0.0
        assert float(row["g_upper"]) == 0.0

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--levels", "100000000"], "--levels"),
            (["--levels", "21", "--mc-samples", "100000000000"], "--mc-samples"),
        ],
    )
    def test_oversized_input_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, ["esdu-rate", "--span", "10", *argv] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err


class TestBcRegion:
    ARGS = ["bc-inner", "--peak-db", "15", "--sigma2-ratio", "2", "--delta0-grid", "3"] + TS

    def test_analytic_csv_vertices(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["r1", "r2"]
        points = [(float(r["r1"]), float(r["r2"])) for r in rows]
        assert points[0] == (0.0, 0.0)
        assert any(abs(x - 0.614593593172419) < 1e-6 and abs(y - 1.84936562997861) < 1e-6 for x, y in points)

    def test_json_provenance_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS[:-2] + ["--format", "json"] + TS)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["manifest"]["command"] == "bc-inner"
        vertices = doc["data"]["vertices"]
        origins = [v["origin"] for v in vertices if v["origin"] is not None]
        assert {(o["k1"], o["k2"]) for o in origins} >= {(2, 6), (5, 3), (12, 1)}
        assert all(o["delta0"] == 3.0 for o in origins)
        # parsing and re-emitting reproduces the bytes exactly
        assert canonical_json(doc) == out

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS)
        assert first == second
        _, j1, _ = run_cli(capsys, self.ARGS[:-2] + ["--format", "json"] + TS)
        _, j2, _ = run_cli(capsys, self.ARGS[:-2] + ["--format", "json"] + TS)
        assert j1 == j2

    def test_empty_grid_warns(self, capsys):
        code, out, err = run_cli(
            capsys, ["bc-inner", "--peak-db", "15", "--sigma2", "2", "--delta0-grid", ""] + TS
        )
        assert code == EXIT_OK
        assert "warning" in err
        _, rows = parse_csv(out)
        assert [(float(r["r1"]), float(r["r2"])) for r in rows] == [(0.0, 0.0)]

    def test_oversized_alphabet_names_the_flag(self, capsys):
        code, _, err = run_cli(
            capsys, ["bc-inner", "--peak-db", "30", "--sigma2-ratio", "2", "--delta0-grid", "1e-9"] + TS
        )
        assert code == EXIT_USAGE
        assert "--delta0-grid" in err

    @pytest.mark.parametrize("grid", ["0:1e9:1e-3", "0.02:2:0.02"])
    def test_oversized_sweep_names_the_flag(self, capsys, grid):
        # a grid range too long; a grid whose sweep has too many cells
        code, out, err = run_cli(
            capsys, ["bc-inner", "--peak-db", "30", "--sigma2-ratio", "2", "--delta0-grid", grid] + TS
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--delta0-grid" in err

    def test_sigma2_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, ["bc-inner", "--peak-db", "15", "--sigma2", "2", "--sigma2-ratio", "2"]
        )
        assert code == EXIT_USAGE
        assert "exactly one" in err

    def test_outer_region_constraint(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bc-outer", "--peak-db", "15", "--sigma2-ratio", "2", "--rho-steps", "101"] + TS
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        sums = [float(r["r1"]) + float(r["r2"]) for r in rows]
        assert max(sums) <= 3.11299800861738 + 1e-9

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "region.csv"
        code, out, _ = run_cli(capsys, self.ARGS + ["--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# manifest: {")


class TestVerifyCommand:
    FAST = ["--peak-db-grid", "0,10", "--sigma-ratios", "2", "--delta0-grid", "1,3",
            "--rho-steps", "51", "--quad-tol", "1e-8"] + TS

    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"] + self.FAST)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["data"]["summary"]["passed"] is True
        assert doc["data"]["summary"]["total"] > 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        true_bound = esdurate.esdu.f_lower
        monkeypatch.setattr(esdurate.esdu, "f_lower", lambda inp, s: true_bound(inp, s) + 0.1)
        code, out, _ = run_cli(capsys, ["verify"] + self.FAST)
        assert code == EXIT_VERIFICATION
        doc = json.loads(out)
        assert doc["data"]["summary"]["failures"] > 0

    def test_empty_grid_warns(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--peak-db-grid", ""] + TS)
        assert code == EXIT_OK
        assert "warning" in err
        assert json.loads(out)["data"]["summary"]["total"] == 0

    @pytest.mark.parametrize("flag", ["--peak-db-grid", "--sigma-ratios", "--delta0-grid"])
    def test_oversized_grid_names_the_flag(self, capsys, flag):
        code, out, err = run_cli(capsys, ["verify", flag, "0:1e9:1e-3"] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err


class TestParser:
    def test_unknown_flag_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["p2p-bounds", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_command_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


class TestNumericalFailure:
    def test_convergence_error_exit_code(self, capsys, monkeypatch):
        from esdurate.oracle import ConvergenceError

        def broken(*args, **kwargs):
            raise ConvergenceError("entropy integral did not converge", 0.1, 0.2)

        monkeypatch.setattr("esdurate.cli.mi_discrete", broken)
        code, _, err = run_cli(capsys, ["esdu-rate", "--span", "1", "--levels", "3"] + TS)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err

    def test_tolerance_below_roundoff_fails_fast(self, capsys):
        code, out, err = run_cli(
            capsys, ["esdu-rate", "--span", "10", "--levels", "21", "--quad-tol", "1e-30"] + TS
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "round-off" in err
