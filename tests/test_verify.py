import pytest

import esdurate.esdu
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


def test_margins_are_reported():
    report = run_verification([10.0], [2.0], [3.0], quad_tol=FAST_QUAD_TOL, rho_steps=51)
    for check in report["checks"]:
        assert check["margin"] >= -check["tolerance"]
        assert check["label"]


@pytest.mark.parametrize("margin,passed", [(1e-6, True), (0.0, True), (-1e-6, True), (-1.000001e-6, False)])
def test_verdict_follows_the_margin(margin, passed):
    assert CheckResult("suite", "label", margin, 1e-6).passed is passed
