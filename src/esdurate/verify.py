"""Self-validation suites: the bound sandwich against the exact-rate oracle,
dominance over the classical comparison bound, and inner-within-outer region
containment.

Bound functions are called through their module namespaces on purpose: a test
harness can substitute a deliberately broken bound and watch the right suite
fail.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import esdu, oracle, region, uniform
from .special import db_to_amplitude_ratio

#: Tolerance of each suite: the most a margin may fall below 0.
SANDWICH_TOL = 1e-6
DOMINANCE_TOL = 1e-9
CONTAINMENT_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """One check's margin (>= 0 when the checked inequality holds) and its
    verdict: passed when the margin is at least -tolerance."""

    suite: str
    label: str
    margin: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.margin >= -self.tolerance)


def _esdu_cells(db_grid, delta0_grid) -> tuple[esdu.EsduInput, list[str]]:
    """The ESDU input at sigma 1 of every (dB, delta0) cell, dB by dB in grid
    order, as one batch, and the label of each cell."""
    peaks, levels, labels = [], [], []
    for db in db_grid:
        peak = db_to_amplitude_ratio(db)
        for delta0 in delta0_grid:
            peaks.append(peak)
            levels.append(esdu.alphabet_size(peak, delta0))
            labels.append(f"@ {db:g} dB, delta0={delta0:g}, K={levels[-1]}")
    return esdu.EsduInput(np.array(peaks, dtype=float), np.array(levels, dtype=np.int64)), labels


def sandwich_checks(db_grid, inp, labels, lower, quad_tol: float = oracle.TOLERANCE) -> list[CheckResult]:
    """The continuous-uniform sandwich c_lower <= exact rate <= e_cap at each
    peak, then f_lower (given as lower) <= exact rate <= g_upper for that
    peak's ESDU cells: inp and labels as _esdu_cells gives them.  One
    mi_discrete and one g_upper call take every cell."""
    rate = oracle.mi_discrete(inp, 1.0, quad_tol)
    low, high = (rate - lower).tolist(), (esdu.g_upper(inp, 1.0) - rate).tolist()
    per_db = len(labels) // max(1, len(db_grid))
    results = []
    for i, db in enumerate(db_grid):
        ch = uniform.P2pChannel(db_to_amplitude_ratio(db), 1.0)
        rate_u = oracle.mi_uniform(ch, quad_tol)
        for name, margin in (
            ("uniform lower", rate_u - uniform.c_lower(ch)),
            ("uniform upper", uniform.e_cap(ch) - rate_u),
        ):
            results.append(CheckResult("sandwich", f"{name} @ {db:g} dB", margin, SANDWICH_TOL))
        for j in range(i * per_db, (i + 1) * per_db):
            for name, margin in (("esdu lower", low[j]), ("esdu upper", high[j])):
                results.append(CheckResult("sandwich", f"{name} {labels[j]}", margin, SANDWICH_TOL))
    return results


def dominance_checks(inp, labels, lower) -> list[CheckResult]:
    """f_lower (given as lower) >= owb wherever owb is defined, for the ESDU
    cells inp and labels as _esdu_cells gives them."""
    margins = (lower - esdu.owb(inp, 1.0)).tolist()
    return [CheckResult("dominance", f"f_lower vs owb {where}", m, DOMINANCE_TOL) for m, where in zip(margins, labels)]


def containment_checks(db_grid, sigma_ratios, delta0_grid, rho_steps: int = region.RHO_STEPS) -> list[CheckResult]:
    """The analytic inner region lies inside the outer bound: each channel's
    margin is region.containment_margin(inner, outer), at most 0 and 0
    exactly when inner lies inside."""
    results = []
    for db in db_grid:
        peak = db_to_amplitude_ratio(db)
        for ratio in sigma_ratios:
            ch = region.BcChannel(peak, 1.0, float(ratio))
            inner = region.sweep_inner(ch, delta0_grid, "analytic")
            outer = region.outer_region(ch, rho_steps)
            worst = region.containment_margin(inner, outer)
            label = f"inner in outer @ {db:g} dB, sigma2/sigma1={ratio:g}"
            results.append(CheckResult("containment", label, worst, CONTAINMENT_TOL))
    return results


def run_verification(
    db_grid, sigma_ratios, delta0_grid, *, quad_tol: float = oracle.TOLERANCE, rho_steps: int = region.RHO_STEPS
) -> dict:
    """Run all three suites and fold the results into a report dictionary;
    quad_tol is the oracle's tolerance, rho_steps the outer bound's."""
    db_grid = list(db_grid)
    sigma_ratios = list(sigma_ratios)
    delta0_grid = list(delta0_grid)
    checks: list[CheckResult] = []
    warning = None
    if not db_grid:
        warning = "empty peak grid: no checks were run"
    else:
        inp, labels = _esdu_cells(db_grid, delta0_grid)
        lower = esdu.f_lower(inp, 1.0)
        checks.extend(sandwich_checks(db_grid, inp, labels, lower, quad_tol))
        checks.extend(dominance_checks(inp, labels, lower))
        checks.extend(containment_checks(db_grid, sigma_ratios, delta0_grid, rho_steps))
    failures = sum(1 for c in checks if not c.passed)
    report = {
        "checks": [asdict(c) for c in checks],
        "summary": {
            "total": len(checks),
            "failures": failures,
            "passed": failures == 0,
        },
    }
    if warning is not None:
        report["warning"] = warning
    return report
