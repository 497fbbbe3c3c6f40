"""Self-validation suites: the bound sandwich against the exact-rate oracle,
dominance over the classical comparison bound, and inner-within-outer region
containment.

Bound functions are called through their module namespaces on purpose: a test
harness can substitute a deliberately broken bound and watch the right suite
fail.
"""

from dataclasses import asdict, dataclass, field

from . import esdu, oracle, region, uniform
from .special import db_to_amplitude_ratio


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


def sandwich_checks(
    db_grid, delta0_grid, tolerance: float = 1e-6, quad_tol: float = oracle.TOLERANCE
) -> list[CheckResult]:
    """f_lower <= exact rate <= g_upper for the swept ESDU inputs, plus the
    continuous-uniform sandwich c_lower <= exact rate <= e_cap."""
    results = []
    for db in db_grid:
        peak = db_to_amplitude_ratio(db)
        ch = uniform.P2pChannel(peak, 1.0)
        rate_u = oracle.mi_uniform(ch, quad_tol)
        for name, margin in (
            ("uniform lower", rate_u - uniform.c_lower(ch)),
            ("uniform upper", uniform.e_cap(ch) - rate_u),
        ):
            results.append(CheckResult("sandwich", f"{name} @ {db:g} dB", margin, tolerance))
        for delta0 in delta0_grid:
            levels = esdu.alphabet_size(peak, delta0)
            inp = esdu.EsduInput(peak, levels)
            rate = oracle.mi_discrete(inp, 1.0, quad_tol)
            low = esdu.f_lower(inp, 1.0)
            high = esdu.g_upper(inp, 1.0)
            where = f"@ {db:g} dB, delta0={delta0:g}, K={levels}"
            for name, margin in (("esdu lower", rate - low), ("esdu upper", high - rate)):
                results.append(CheckResult("sandwich", f"{name} {where}", margin, tolerance))
    return results


def dominance_checks(db_grid, delta0_grid, tolerance: float = 1e-9) -> list[CheckResult]:
    """f_lower >= owb wherever owb is defined."""
    results = []
    for db in db_grid:
        peak = db_to_amplitude_ratio(db)
        for delta0 in delta0_grid:
            levels = esdu.alphabet_size(peak, delta0)
            inp = esdu.EsduInput(peak, levels)
            margin = esdu.f_lower(inp, 1.0) - esdu.owb(inp, 1.0)
            label = f"f_lower vs owb @ {db:g} dB, delta0={delta0:g}, K={levels}"
            results.append(CheckResult("dominance", label, margin, tolerance))
    return results


def containment_checks(
    db_grid, sigma_ratios, delta0_grid, tolerance: float = 1e-6, rho_steps: int = region.RHO_STEPS
) -> list[CheckResult]:
    """Every analytic inner-bound vertex lies inside the outer bound."""
    results = []
    for db in db_grid:
        peak = db_to_amplitude_ratio(db)
        for ratio in sigma_ratios:
            ch = region.BcChannel(peak, 1.0, float(ratio))
            inner = region.sweep_inner(ch, delta0_grid, "analytic")
            outer = region.outer_region(ch, rho_steps)
            worst = min(region.region_margin(outer, v) for v in inner.vertices)
            label = f"inner in outer @ {db:g} dB, sigma2/sigma1={ratio:g}"
            results.append(CheckResult("containment", label, worst, tolerance))
    return results


def run_verification(
    db_grid,
    sigma_ratios,
    delta0_grid,
    *,
    sandwich_tol: float = 1e-6,
    dominance_tol: float = 1e-9,
    containment_tol: float = 1e-6,
    quad_tol: float = oracle.TOLERANCE,
    rho_steps: int = region.RHO_STEPS,
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
        checks.extend(sandwich_checks(db_grid, delta0_grid, sandwich_tol, quad_tol))
        checks.extend(dominance_checks(db_grid, delta0_grid, dominance_tol))
        checks.extend(containment_checks(db_grid, sigma_ratios, delta0_grid, containment_tol, rho_steps))
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
