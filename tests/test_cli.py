import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import esdurate.cli
import esdurate.esdu
from esdurate.esdu import EsduInput, f1, f2, f3, f_lower, g_upper, owb
from esdurate.oracle import TOLERANCE, mi_discrete
from esdurate.region import BcChannel, SplitConfig, exact_inner_point
from esdurate.uniform import P2pChannel, c_lower, c_upper, e_cap
from esdurate.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    MAX_GRID_POINTS,
    UsageError,
    _parse_grid,
    build_manifest,
    build_parser,
    canonical_json,
    main,
)

TS = ["--timestamp", "2000-01-01T00:00:00Z"]


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one command; argparse's usage errors
    raise SystemExit, which is turned back into the code a shell would see."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
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

    def test_grid_that_starts_with_a_minus_sign_takes_the_equals_form(self, capsys):
        code, out, _ = run_cli(capsys, ["p2p-bounds", "--peak-db=-10:0:5", "--delta0", "1"] + TS)
        assert code == EXIT_OK
        assert [float(r["A_over_sigma_db"]) for r in parse_csv(out)[1]] == [-10.0, -5.0, 0.0]
        # argparse takes a separate -10:0:5 for an option; the help says so
        code, _, err = run_cli(capsys, ["p2p-bounds", "--peak-db", "-10:0:5"])
        assert code == EXIT_USAGE and "--peak-db expected one argument" in err
        for command, flag in (("p2p-bounds", "--peak-db"), ("verify", "--peak-db-grid")):
            code, out, _ = run_cli(capsys, [command, "--help"])
            assert code == EXIT_OK and f"the = form: {flag}=-" in " ".join(out.split())

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
        assert "--peak-db not allowed with argument --peak" in err
        code, _, err = run_cli(capsys, ["p2p-bounds"])
        assert code == EXIT_USAGE
        assert "one of the arguments --peak --peak-db is required" in err

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
            (["--peak-db", "3100"], "--peak-db"),
            (["--peak-db", "300", "--sigma", "1e10"], "--peak-db"),
            # K = 10,001 levels, but 1e6 noise widths wide
            (["--peak-db", "60", "--delta0", "100"], "--peak-db"),
        ],
    )
    def test_invalid_input_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, ["p2p-bounds", *argv] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err

    def test_table_is_one_batch_equal_to_its_rows(self, capsys, monkeypatch):
        calls = []
        inner = esdurate.cli.mi_discrete
        monkeypatch.setattr(esdurate.cli, "mi_discrete", lambda *a: calls.append(a) or inner(*a))
        argv = ["p2p-bounds", "--peak-db=-3,0,7.5,20", "--delta0", "0.5", "--sigma", "1.5", "--format", "json"]
        code, out, _ = run_cli(capsys, argv + TS)
        assert code == EXIT_OK
        assert len(calls) == 1
        rows = json.loads(out)["data"]["rows"]
        assert [row[0] for row in rows] == [-3, 0, 7.5, 20]
        for db, levels, *rates, entropy in rows:
            peak = esdurate.cli._peak_from_db(db, 1.5, "--peak-db")
            ch, inp = P2pChannel(peak, 1.5), EsduInput(peak, levels)
            alone = [bound(ch) for bound in (c_lower, c_upper, e_cap)]
            alone += [bound(inp, 1.5) for bound in (f1, f2, f3, f_lower, g_upper, owb)]
            # bit for bit: JSON prints every float exactly
            assert rates == alone + [inner(inp, 1.5, TOLERANCE)]
            assert entropy == math.log2(levels)

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

    @pytest.mark.parametrize(
        "span,levels,seed,mi_mc,stderr",
        [
            # the benchmark's p2p-large-k esdu-rate command at seeds 0, 1 and 7
            ("10.979", "20", "643673373", "0x1.b4c4a8da0268cp+0", "0x1.40e0a6ff651f7p-11"),
            ("13.002", "21", "1770595553", "0x1.e91bb67061646p+0", "0x1.29bbdfbdcab10p-11"),
            ("9.865", "22", "1141701475", "0x1.927cea53f0340p+0", "0x1.5204c46e9afc6p-11"),
        ],
    )
    def test_monte_carlo_values_are_pinned(self, capsys, span, levels, seed, mi_mc, stderr):
        # recorded when each block's indices came from rng.choice
        argv = ["esdu-rate", "--span", span, "--levels", levels, "--mc-samples", "1000000", "--seed", seed]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"] + TS)
        assert code == EXIT_OK
        data = json.loads(out)["data"]
        row = dict(zip(data["columns"], data["rows"][0]))
        assert (row["mi_mc"].hex(), row["mi_mc_stderr"].hex()) == (mi_mc, stderr)

    def test_monte_carlo_on_a_wide_alphabet_is_pinned(self, capsys):
        # each sample's window holds about 160 of the 2001 atoms, so the
        # density sorts the samples and each block reads the run its windows span
        argv = ["esdu-rate", "--span", "1000", "--levels", "2001", "--mc-samples", "100000", "--seed", "7"]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"] + TS)
        assert code == EXIT_OK
        data = json.loads(out)["data"]
        row = dict(zip(data["columns"], data["rows"][0]))
        assert (row["mi_mc"].hex(), row["mi_mc_stderr"].hex()) == ("0x1.fb02f2804e95cp+2", "0x1.c548d2a2ff65dp-13")

    @pytest.mark.parametrize("sigma", ["5e+307", "1e+308"])
    def test_monte_carlo_samples_that_overflow_name_the_flag(self, capsys, sigma):
        argv = ["esdu-rate", "--span", "1", "--levels", "2", "--sigma", sigma, "--mc-samples", "10000"]
        code, out, err = run_cli(capsys, argv + TS)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"esdurate: error: --sigma {sigma}: a sample X + Z overflows float64 at sigma = {float(sigma)!r}\n"

    def test_monte_carlo_on_an_underflowing_span(self, capsys):
        # 5e-324/5 rounds to 0: the levels coincide, for the sampler as for the quadrature
        argv = ["esdu-rate", "--span", "5e-324", "--levels", "6", "--mc-samples", "10000"]
        code, out, err = run_cli(capsys, argv + TS)
        assert (code, err) == (EXIT_OK, "")
        _, rows = parse_csv(out)
        row = rows[0]
        assert abs(float(row["mi_mc"]) - float(row["mi_exact"])) <= 5 * float(row["mi_mc_stderr"])

    def test_degenerate_input(self, capsys):
        code, out, _ = run_cli(capsys, ["esdu-rate", "--span", "0", "--levels", "1"] + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["xi"] == row["owb"] == ""
        assert float(row["f_lower"]) == 0.0
        assert float(row["g_upper"]) == 0.0

    def test_widest_three_level_input_settles_or_fails_within_bounded_memory(self, capsys):
        # 99,999 noise widths between three atoms, the integers 0, 1, 2 at a
        # noise width of 2e-5: the trapezoid rule takes the edge and the half
        # period in 71,975 and 71,951 nodes at a 0.695-sigma step
        argv = ["esdu-rate", "--span", "99999", "--levels", "3"] + TS
        run_cli(capsys, argv)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        if code == EXIT_OK:
            assert float(parse_csv(out)[1][0]["mi_exact"]) == pytest.approx(math.log2(3), abs=TOLERANCE)
        assert peak < 24e6

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--span", "1e308"], "--span 1e+308 with --sigma 1: span/sigma = 1e+308 is more than the 100000"),
            (["--span", "10", "--sigma", "1e-300"], "--span 10 with --sigma 1e-300: span/sigma = 1e+301"),
            (["--span", "10", "--sigma", "0"], "--sigma must be finite and > 0, got 0.0"),
        ],
    )
    def test_too_wide_input_fails_before_the_oracle(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(esdurate.cli, "mi_discrete", lambda *a, **k: pytest.fail("oracle ran"))
        code, out, err = run_cli(capsys, ["esdu-rate", "--levels", "3", *argv] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err


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
        assert doc["manifest"]["quadrature"] == {"absolute_tolerance": 1e-10, "support_padding": 7.9375}
        # the bytes too: an int and a float
        assert '"schema_version": 5,' in out and '"support_padding": 7.9375\n' in out
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

    @pytest.mark.parametrize("command", ["bc-inner", "bc-outer"])
    def test_overflowing_peak_names_the_flag(self, capsys, command):
        code, out, err = run_cli(capsys, [command, "--peak-db", "3100", "--sigma2-ratio", "2"] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--peak-db 3100" in err

    @pytest.mark.parametrize("command", ["bc-outer"])
    def test_rho_steps_below_two_names_the_flag(self, capsys, command):
        code, out, err = run_cli(capsys, [command, "--peak-db", "10", "--sigma2-ratio", "2", "--rho-steps", "1"] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--rho-steps must be >= 2, got 1" in err

    @pytest.mark.parametrize("command", ["bc-inner", "bc-outer"])
    @pytest.mark.parametrize("peak", [["--peak", "1e200"], ["--peak-db", "2000"]], ids=["peak", "peak-db"])
    def test_peak_too_large_for_float64_names_the_flag(self, capsys, command, peak):
        argv = [command, *peak, "--sigma2-ratio", "2", "--delta0-grid", "1e200"]
        code, out, err = run_cli(capsys, argv + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{peak[0]} with --sigma1 1: peak 1e+200 overflows float64" in err
        assert "(overflow encountered in multiply)" in err

    RATIO_RULE = "--sigma2-ratio must be >= 1 and give a finite sigma2"

    @pytest.mark.parametrize("command", ["bc-inner", "bc-outer"])
    @pytest.mark.parametrize(
        "sigmas,message",
        [
            (["--sigma2-ratio", "0.5"], f"{RATIO_RULE} with --sigma1 1, got 0.5"),
            (["--sigma2-ratio", "nan"], f"{RATIO_RULE} with --sigma1 1, got nan"),
            (["--sigma1", "1e300", "--sigma2-ratio", "1e10"], f"{RATIO_RULE} with --sigma1 1e+300, got 10000000000.0"),
            (["--sigma1", "2", "--sigma2", "1"], "--sigma2 must be finite and >= --sigma1 2, got 1.0"),
            (["--sigma2", "inf"], "--sigma2 must be finite and >= --sigma1 1, got inf"),
            (["--sigma1", "0", "--sigma2-ratio", "2"], "--sigma1 must be finite and > 0, got 0.0"),
            (["--sigma1", "-1", "--sigma2", "1"], "--sigma1 must be finite and > 0, got -1.0"),
        ],
    )
    def test_invalid_sigma_names_the_flag(self, capsys, monkeypatch, command, sigmas, message):
        for name in ("sweep_inner", "outer_region"):
            monkeypatch.setattr(esdurate.cli, name, lambda *a, **k: pytest.fail("region computed"))
        code, out, err = run_cli(capsys, [command, "--peak-db", "10", *sigmas] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_exact_sweep_too_wide_names_the_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(esdurate.cli, "sweep_inner", lambda *a, **k: pytest.fail("sweep ran"))
        argv = ["bc-inner", "--mode", "exact", "--peak-db", "60", "--sigma2-ratio", "2", "--delta0-grid", "100"]
        code, out, err = run_cli(capsys, argv + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--peak-db with --sigma1 1: span/sigma = 1e+06" in err

    @pytest.mark.parametrize(
        "sigma1,entry,message",
        [
            # the entry the user typed, not its product with --sigma1
            ("2", "-1", "--delta0-grid entry -1: spacing must be finite and > 0, got -1.0\n"),
            ("1e-300", "1e-30", "--delta0-grid entry 1e-30: spacing 1e-30 * sigma1 1e-300 underflows to 0"),
            ("1e10", "1e300", "--delta0-grid entry 1e+300: spacing 1e+300 * sigma1 1e+10 overflows"),
        ],
    )
    def test_spacing_target_is_checked_before_scaling(self, capsys, sigma1, entry, message):
        argv = ["bc-inner", "--peak-db", "10", "--sigma1", sigma1, "--sigma2-ratio", "2", "--delta0-grid", entry]
        code, out, err = run_cli(capsys, argv + TS)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_sigma2_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, ["bc-inner", "--peak-db", "15", "--sigma2", "2", "--sigma2-ratio", "2"]
        )
        assert code == EXIT_USAGE
        assert "--sigma2-ratio not allowed with argument --sigma2" in err
        code, _, err = run_cli(capsys, ["bc-outer", "--peak-db", "15"])
        assert code == EXIT_USAGE
        assert "one of the arguments --sigma2 --sigma2-ratio is required" in err

    def test_outer_region_constraint(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bc-outer", "--peak-db", "15", "--sigma2-ratio", "2", "--rho-steps", "101"] + TS
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        sums = [float(r["r1"]) + float(r["r2"]) for r in rows]
        assert max(sums) <= 3.11299800861738 + 1e-9


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

    def test_inputs_far_narrower_than_the_noise_pass(self, capsys):
        # at 1e-20 and 1e-11 noise widths the uniform density's difference of
        # tail probabilities cancels; its series must settle the integral
        argv = ["verify", "--peak-db-grid=-200,-110", "--delta0-grid", "3", "--sigma-ratios", "2"]
        code, out, _ = run_cli(capsys, argv + TS)
        assert code == EXIT_OK
        assert json.loads(out)["data"]["summary"] == {"failures": 0, "passed": True, "total": 12}

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            # 60 dB at the default spacing 0.5 needs 2,000,001 levels
            (["--peak-db-grid", "0,60"], "--peak-db-grid entry 60 with --delta0-grid entry 0.5:"),
            (["--delta0-grid", "1,1e-9"], "--peak-db-grid entry 0 with --delta0-grid entry 1e-09:"),
            (["--peak-db-grid", "0,3100"], "--peak-db-grid 3100:"),
            (["--sigma-ratios", "2,0.5"], "--sigma-ratios entry 0.5: sigma2/sigma1 must be >= 1"),
            (["--rho-steps", "1"], "--rho-steps must be >= 2, got 1"),
            (["--peak-db-grid", "0,60", "--delta0-grid", "100"], "--peak-db-grid entry 60: span/sigma = 1e+06"),
        ],
    )
    def test_rejects_grids_before_any_check_runs(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(esdurate.cli, "run_verification", lambda *a, **k: pytest.fail("checks ran"))
        code, out, err = run_cli(capsys, ["verify", *argv] + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err


BASE_ARGV = {
    "p2p-bounds": ["--peak-db", "5"],
    "esdu-rate": ["--span", "2", "--levels", "3"],
    "bc-inner": ["--peak-db", "10", "--sigma2-ratio", "2"],
    "bc-outer": ["--peak-db", "10", "--sigma2-ratio", "2"],
    "verify": [],
}
QUAD_TOL_RULE = "absolute_tolerance must be finite and > 0"
#: bc-outer runs no quadrature and takes no --quad-tol; bc-inner samples no
#: rho and takes no --rho-steps
REMOVED = {("bc-outer", "--quad-tol"), ("bc-inner", "--rho-steps")}


def rejected(command, flag, text, message):
    """The error for `flag text` given to `command`: `message`, or argparse's
    for a flag the command does not take."""
    return f"unrecognized arguments: {flag} {text}" if (command, flag) in REMOVED else message


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["esdu-rate", "--span", "3", "--levels", "0"],
             "--span 3 with --levels 0: levels must be an integer >= 1"),
            (["esdu-rate", "--span", "-1", "--levels", "3"],
             "--span -1 with --levels 3: span must be finite and >= 0"),
            (["esdu-rate", "--span", "nan", "--levels", "3"],
             "--span nan with --levels 3: span must be finite and >= 0"),
            (["esdu-rate", "--span", "2", "--levels", "1"],
             "--span 2 with --levels 1: a single-level input has no extent"),
            (["esdu-rate", "--span", "2", "--levels", "3", "--mc-samples", "9999"],
             "--mc-samples must be >= 10000, got 9999"),
            (["esdu-rate", "--span", "2", "--levels", "3", "--mc-samples", "-5"],
             "--mc-samples must be >= 10000, got -5"),
            (["esdu-rate", "--span", "2", "--levels", "3", "--mc-samples", "10000", "--seed", "-1"],
             "--seed must be >= 0, got -1"),
            *[([command, *BASE_ARGV[command], "--quad-tol", tol],
               rejected(command, "--quad-tol", tol, f"--quad-tol {value}: {QUAD_TOL_RULE}"))
              for command in BASE_ARGV for tol, value in (("0", "0.0"), ("nan", "nan"))],
            *[([command, "--peak", peak, "--sigma2-ratio", "2"], f"--peak must be finite and >= 0, got {value}")
              for command in ("bc-inner", "bc-outer") for peak, value in (("-1", "-1.0"), ("nan", "nan"))],
            # each suite judges at its own fixed tolerance; no flag moves the pass line
            (["verify", "--sandwich-tol", "1e-6"], "unrecognized arguments: --sandwich-tol 1e-6"),
            *[([command, *BASE_ARGV[command], "--rho-steps", steps],
               rejected(command, "--rho-steps", steps, f"--rho-steps must be at most 100000, got {steps}"))
              for command in ("bc-inner", "bc-outer", "verify") for steps in ("100001", "100000000")],
            *[([command, *BASE_ARGV[command], "--delta0-grid", f"1,{entry}"], f"--delta0-grid entry {entry}: ")
              for command in ("bc-inner", "bc-outer") for entry in ("-1", "0")],
            # a flag's domain no longer depends on another flag being given
            (["p2p-bounds", "--peak-db", "5", "--sigma", "inf"], "--sigma must be finite and > 0, got inf"),
            (["p2p-bounds", "--peak", "inf"], "--peak must be finite and >= 0, got inf"),
            (["esdu-rate", "--span", "2", "--levels", "3", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["esdu-rate", "--span", "2", "--levels", "100001"], "--levels must be at most 100000, got 100001"),
            (["esdu-rate", "--span", "2", "--levels", "2.5"], "--levels invalid int value: '2.5'"),
            (["p2p-bounds", "--peak-db", "5", "--delta0", "abc"], "--delta0 invalid float value: 'abc'"),
            (["bc-inner", "--peak-db", "10", "--sigma2-ratio", "x"], "--sigma2-ratio invalid float value: 'x'"),
            # the bare floats are worded as every converter words a value it cannot parse
            (["esdu-rate", "--span", "x", "--levels", "3"], "--span invalid float value: 'x'"),
            (["bc-outer", "--peak-db", "ten", "--sigma2-ratio", "2"], "--peak-db invalid float value: 'ten'"),
            (["bc-inner", "--peak-db", "10", "--sigma2", "1e"], "--sigma2 invalid float value: '1e'"),
            (["p2p-bounds", "--peak-db", "1,x"], "--peak-db: bad grid '1,x'; expected numbers"),
            (["p2p-bounds", "--peak-db", "0:10:0"],
             "--peak-db: bad range '0:10:0'; expected start:stop[:step] with step > 0"),
        ],
    )
    def test_names_the_flag_before_any_work(self, capsys, monkeypatch, argv, message):
        for name in ("mi_discrete", "mi_monte_carlo", "sweep_inner", "outer_region", "run_verification"):
            monkeypatch.setattr(esdurate.cli, name, lambda *a, **k: pytest.fail(f"{name} ran"))
        code, out, err = run_cli(capsys, argv + TS)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("span,levels,sigma", [("10", "21", "1"), ("3.7", "8", "0.3"), ("0", "5", "1")])
    def test_esdu_rate_is_the_exact_sweep_rate(self, capsys, span, levels, sigma):
        # one path for the exact rate of an ESDU input: with k2 = 1, r1 of a
        # split is the rate of user 1's alphabet at sigma1
        code, out, _ = run_cli(capsys, ["esdu-rate", "--span", span, "--levels", levels, "--sigma", sigma,
                                        "--format", "json"] + TS)
        assert code == EXIT_OK
        doc = json.loads(out)["data"]
        mi = doc["rows"][0][doc["columns"].index("mi_exact")]
        ch = BcChannel(float(span), float(sigma), float(sigma))
        assert mi == exact_inner_point(ch, SplitConfig(int(levels), 1)).r1


class TestManifest:
    #: each command's parameters, and whether it records the quadrature
    SCHEMA = {
        "p2p-bounds": ({"peak", "peak_db", "sigma", "delta0", "quad_tol", "format"}, True),
        "esdu-rate": ({"span", "levels", "sigma", "quad_tol", "mc_samples", "format"}, True),
        "bc-inner": ({"peak", "sigma1", "sigma2", "mode", "delta0_grid", "quad_tol", "format"}, True),
        "bc-outer": ({"peak", "sigma1", "sigma2", "mode", "delta0_grid", "rho_steps", "format"}, False),
        "verify": ({"peak_db_grid", "sigma_ratios", "delta0_grid", "quad_tol", "rho_steps"}, True),
    }

    @pytest.mark.parametrize("command", list(SCHEMA))
    def test_parameters_and_quadrature_by_command(self, capsys, command):
        argv = [command, *BASE_ARGV[command]] + (
            ["--peak-db-grid", "0", "--sigma-ratios", "2", "--delta0-grid", "3", "--rho-steps", "11"]
            if command == "verify" else ["--format", "json"]
        )
        code, out, _ = run_cli(capsys, argv + TS)
        assert code == EXIT_OK
        manifest = json.loads(out)["manifest"]
        keys, quadrature = self.SCHEMA[command]
        assert manifest["schema_version"] == 5
        assert set(manifest["parameters"]) == keys
        assert ("quadrature" in manifest) == quadrature
        assert manifest["timestamp"] == TS[1]

    def test_verify_manifest_records_the_rho_steps(self, capsys):
        # the containment margins depend on --rho-steps, so the manifest must too
        argv = ["verify", "--peak-db-grid", "0", "--sigma-ratios", "2", "--delta0-grid", "3"] + TS
        manifests = []
        for steps in ("11", "201"):
            code, out, _ = run_cli(capsys, argv + ["--rho-steps", steps])
            assert code == EXIT_OK
            manifests.append(json.loads(out)["manifest"])
        assert [m["parameters"]["rho_steps"] for m in manifests] == [11, 201]
        assert manifests[0] != manifests[1]

    @pytest.mark.parametrize(
        "stamp", ["", "2000-01-01", "2000-01-01 00:00:00Z", "2000-01-01T00:00:00+00:00", "2000-1-1T0:0:0Z",
                  "2000-13-01T00:00:00Z"],
    )
    def test_timestamp_must_be_the_manifest_form(self, capsys, stamp):
        code, out, err = run_cli(capsys, ["p2p-bounds", "--peak-db", "5", "--timestamp", stamp])
        assert (code, out) == (EXIT_USAGE, "")
        assert f"--timestamp must be a UTC time like 2000-01-01T00:00:00Z, got {stamp!r}" in err

    def test_pinned_timestamp_round_trips(self, capsys):
        argv = ["esdu-rate", "--span", "2", "--levels", "3", "--timestamp", "2031-12-31T23:59:59Z"]
        _, first, _ = run_cli(capsys, argv)
        assert json.loads(first.splitlines()[0][len("# manifest: "):])["timestamp"] == "2031-12-31T23:59:59Z"
        assert run_cli(capsys, argv) == (EXIT_OK, first, "")
        # a library caller's pin is kept as given, even an empty one
        assert build_manifest("esdu-rate", {}, timestamp="")["timestamp"] == ""


DOCUMENTS = {
    "p2p-bounds": ["p2p-bounds", "--peak-db", "0:20:10"],
    "esdu-rate": ["esdu-rate", "--span", "6", "--levels", "7", "--mc-samples", "10000"],
    "bc-inner": ["bc-inner", "--peak-db", "15", "--sigma2-ratio", "2", "--delta0-grid", "3"],
    "bc-outer": ["bc-outer", "--peak-db", "15", "--sigma2-ratio", "2", "--rho-steps", "11"],
}


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        [[*argv, "--format", fmt] for argv in DOCUMENTS.values() for fmt in ("csv", "json")]
        + [["verify", *TestVerifyCommand.FAST]],
        ids=[f"{name}-{fmt}" for name in DOCUMENTS for fmt in ("csv", "json")] + ["verify"],
    )
    def test_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, expected, err = run_cli(capsys, argv + TS)
        assert (code, err) == (EXIT_OK, "")
        target = tmp_path / "document"
        assert run_cli(capsys, [*argv, "--out", str(target)] + TS) == (EXIT_OK, "", "")
        assert target.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("argv", [["bc-inner", "--peak-db", "10", "--sigma2-ratio", "2"],
                                      ["verify", *TestVerifyCommand.FAST]], ids=["bc-inner", "verify"])
    def test_unopenable_out_path_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, [*argv, "--out", str(target)] + TS)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"esdurate: error: --out {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_device_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, DOCUMENTS["p2p-bounds"] + ["--out", "/dev/full"] + TS)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "esdurate: error: --out /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_an_output_error(self):
        src = str(Path(esdurate.cli.__file__).resolve().parents[1])
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "esdurate.cli", *DOCUMENTS["p2p-bounds"]], stdout=full,
                                  stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"esdurate: error: stdout: No space left on device\n")

    def test_closed_stdout_exits_quietly(self):
        # 240 kB of vertices, more than a pipe holds: the command is still
        # writing when its reader leaves after the first line, as `| head -1` does
        src = str(Path(esdurate.cli.__file__).resolve().parents[1])
        argv = ["bc-outer", "--peak-db", "30", "--sigma2-ratio", "2", "--rho-steps", "100000"]
        proc = subprocess.Popen([sys.executable, "-m", "esdurate.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline().startswith(b"# manifest: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_BROKEN_PIPE, b"")


class TestStartup:
    def test_commands_start_without_numpy_random(self):
        # numpy.random costs every command about 6 MB of RSS and 15 ms of
        # import; only a Monte Carlo call needs it, and loads it when called.
        # numpy 1.x imports numpy.random with numpy itself, so what is
        # checked is that esdurate adds no import of numpy.random of its own
        src = str(Path(esdurate.cli.__file__).resolve().parents[1])
        code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; import esdurate.cli; "
                "esdurate.cli.build_parser(); sys.exit(not eager and 'numpy.random' in sys.modules)")
        fresh = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=False)
        assert fresh.returncode == 0


class TestParser:
    def test_every_numeric_flag_checks_its_domain(self):
        # a bare float or int type takes nan, inf or any integer; each numeric
        # flag names its domain through one of the cli converters instead,
        # but for the floats whose command checks them against another flag
        checked_by_command = {"span", "peak_db", "sigma2", "sigma2_ratio"}
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        numeric = 0
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                if action.type is None and isinstance(action.default, (int, float)):
                    pytest.fail(f"{command} {action.dest}: a numeric default with no type")
                assert action.type is not int, f"{command} {action.dest} has a bare int"
                assert action.type is not float or action.dest in checked_by_command, (
                    f"{command} {action.dest} has a bare float"
                )
                numeric += action.type is not None
        assert numeric >= 20

    def test_unknown_flag_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["p2p-bounds", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_command_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_commands_in_one_process_share_no_state(self, capsys):
        channel = ["--peak-db", "10", "--sigma2-ratio", "3", "--delta0-grid", "1,3", "--format", "json"] + TS
        with pytest.raises(SystemExit) as exc:
            main(["bc-inner", *channel, "--mode", "fast"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        code, exact, _ = run_cli(capsys, ["bc-inner", "--mode", "exact", *channel])
        assert code == EXIT_OK and json.loads(exact)["manifest"]["parameters"]["mode"] == "exact"
        # no flag value carries over: without --mode the sweep is analytic again
        code, analytic, _ = run_cli(capsys, ["bc-inner", *channel])
        assert code == EXIT_OK and json.loads(analytic)["manifest"]["parameters"]["mode"] == "analytic"
        assert run_cli(capsys, ["bc-inner", *channel]) == (EXIT_OK, analytic, "")
        # and a fresh interpreter prints the same bytes
        src = str(Path(esdurate.cli.__file__).resolve().parents[1])
        fresh = subprocess.run([sys.executable, "-m", "esdurate.cli", "bc-inner", *channel],
                               capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=False)
        assert (fresh.returncode, fresh.stdout) == (EXIT_OK, analytic.encode("utf-8"))


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

    @pytest.mark.parametrize("span,levels", [("0.001", "2"), ("1e-7", "21")])
    def test_narrow_input_settles_at_a_tight_tolerance(self, capsys, span, levels):
        # in noise widths the integral's round-off level does not grow with sigma/span
        code, out, err = run_cli(capsys, ["esdu-rate", "--span", span, "--levels", levels, "--quad-tol", "1e-13"] + TS)
        assert (code, err) == (EXIT_OK, "")
        assert float(out.splitlines()[-1].split(",")[0]) == float(span)

    def test_failure_prints_its_estimates_as_plain_floats(self, capsys):
        code, out, err = run_cli(
            capsys, ["esdu-rate", "--span", "10", "--levels", "21", "--quad-tol", "1e-16"] + TS
        )
        assert (code, out) == (EXIT_NUMERICAL, "")
        # the estimates are bits of h(Y/sigma), the output in noise widths:
        # its rate 1.5908218306329 plus h(Z/sigma) = 0.5*log2(2*pi*e) = 2.0471
        assert err == (
            "esdurate: numerical failure: entropy integral cannot reach absolute tolerance 1e-16: its error "
            "estimate is at the round-off level (last estimates 3.637917415813595 -> 3.6379174158135976)\n"
        )
        assert "np.float64" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["esdu-rate", "--span", "0", "--levels", "1", "--sigma", "2"],
            ["bc-inner", "--mode", "exact", "--peak-db", "3", "--sigma2-ratio", "2", "--delta0-grid", "3"],
        ],
        ids=["esdu-rate", "bc-inner"],
    )
    def test_one_atom_rates_need_no_integral(self, capsys, argv):
        # h(Y) = h(Z) of one atom sits at the round-off level of 3e-14 at
        # sigma 2: its rate is 0 by definition, not a failing integral
        code, _, err = run_cli(capsys, argv + ["--quad-tol", "3e-14"] + TS)
        assert (code, err) == (EXIT_OK, "")


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [["esdu-rate", "--span", "1e-320", "--levels", "6"], ["p2p-bounds", "--peak", "1e-320"]],
        ids=["esdu-rate", "p2p-bounds"],
    )
    def test_non_finite_cell_is_null_in_json_and_inf_in_csv(self, capsys, argv):
        # owb of a subnormal span is -inf
        code, out, _ = run_cli(capsys, argv + ["--format", "json"] + TS)
        assert code == EXIT_OK
        data = json.loads(out, parse_constant=_reject_constant)["data"]
        assert data["rows"][0][data["columns"].index("owb")] is None
        code, out, _ = run_cli(capsys, argv + TS)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["owb"] == "-inf"
