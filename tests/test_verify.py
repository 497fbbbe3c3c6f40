import pytest

import esdurate.esdu
from esdurate.esdu import EsduInput, alphabet_size, f_lower, g_upper, owb
from esdurate.oracle import mi_discrete
from esdurate.special import db_to_amplitude_ratio
from esdurate.verify import CheckResult, run_verification

FAST_QUAD_TOL = 1e-8


def test_small_grid_passes():
    report = run_verification([0.0, 10.0], [2.0], [1.0, 3.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    assert report["summary"]["passed"]
    assert report["summary"]["failures"] == 0
    assert report["summary"]["total"] == len(report["checks"])
    suites = {c["suite"] for c in report["checks"]}
    assert suites == {"sandwich", "dominance", "containment"}


def test_perturbed_lower_bound_breaks_the_sandwich(monkeypatch):
    true_bound = esdurate.esdu.f_lower
    monkeypatch.setattr(esdurate.esdu, "f_lower", lambda inp, sigma: true_bound(inp, sigma) + 0.1)
    report = run_verification([10.0], [2.0], [1.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    assert not report["summary"]["passed"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing
    assert all(c["suite"] == "sandwich" for c in failing)


def test_empty_grid_reports_warning():
    report = run_verification([], [2.0], [1.0])
    assert report["summary"]["total"] == 0
    assert report["summary"]["passed"]
    assert "warning" in report


def test_checks_run_in_grid_order():
    report = run_verification([0.0, 10.0], [2.0], [1.0, 3.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    cells = []
    for db in (0.0, 10.0):
        levels = [alphabet_size(db_to_amplitude_ratio(db), delta0) for delta0 in (1.0, 3.0)]
        cells.append([f"@ {db:g} dB, delta0={delta0:g}, K={k}" for delta0, k in zip((1, 3), levels)])
    expected = []
    for db, where in zip((0, 10), cells):
        expected += [f"uniform lower @ {db} dB", f"uniform upper @ {db} dB"]
        expected += [f"esdu {side} {w}" for w in where for side in ("lower", "upper")]
    expected += [f"f_lower vs owb {w}" for where in cells for w in where]
    expected += [f"inner in outer @ {db} dB, sigma2/sigma1=2" for db in (0, 10)]
    assert [c["label"] for c in report["checks"]] == expected


def test_empty_delta0_grid_runs_only_the_uniform_sandwich_and_containment():
    report = run_verification([0.0, 10.0], [2.0], [], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    assert [c["label"] for c in report["checks"]] == [
        "uniform lower @ 0 dB", "uniform upper @ 0 dB", "uniform lower @ 10 dB", "uniform upper @ 10 dB",
        "inner in outer @ 0 dB, sigma2/sigma1=2", "inner in outer @ 10 dB, sigma2/sigma1=2",
    ]
    assert report["summary"]["passed"]


def test_one_cell_grid_equals_the_calls_on_its_input():
    # the batch over the grid gives each cell the bits of its own calls
    report = run_verification([10.0], [2.0], [3.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    peak = db_to_amplitude_ratio(10.0)
    inp = EsduInput(peak, alphabet_size(peak, 3.0))
    rate = mi_discrete(inp, 1.0, FAST_QUAD_TOL)
    margins = {c["label"]: c["margin"] for c in report["checks"]}
    where = f"@ 10 dB, delta0=3, K={inp.levels}"
    assert margins[f"esdu lower {where}"] == rate - f_lower(inp, 1.0)
    assert margins[f"esdu upper {where}"] == g_upper(inp, 1.0) - rate
    assert margins[f"f_lower vs owb {where}"] == f_lower(inp, 1.0) - owb(inp, 1.0)
    assert [c["suite"] for c in report["checks"]] == ["sandwich"] * 4 + ["dominance", "containment"]


def test_margins_are_reported():
    report = run_verification([10.0], [2.0], [3.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    for check in report["checks"]:
        assert check["margin"] >= -check["tolerance"]
        assert check["label"]


@pytest.mark.parametrize("margin,passed", [(1e-6, True), (0.0, True), (-1e-6, True), (-1.000001e-6, False)])
def test_verdict_follows_the_margin(margin, passed):
    assert CheckResult("suite", "label", margin, 1e-6).passed is passed
