"""Acceptance gate: every criterion the package must meet, each printing one
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are fixed here and nowhere else; the reference numbers live in
anchors.py and in the frozen constants below.
"""

import json
import math
import time

from esdurate.cli import main
from esdurate.esdu import EsduInput, f_lower, g_upper, owb
from esdurate.oracle import DiscreteInput, mi_discrete, mi_monte_carlo
from esdurate.region import (
    BcChannel,
    containment_margin,
    outer_region,
    split_schedule,
    sweep_inner,
    analytic_inner_point,
)
from esdurate.special import db_to_amplitude_ratio
from esdurate.uniform import P2pChannel, c_lower, c_upper

from anchors import C_LOWER_DB, C_UPPER_DB

QUAD_TOL = 1e-10


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def swept_input(db: float, delta0: float) -> EsduInput:
    peak = db_to_amplitude_ratio(db)
    return EsduInput(peak, max(2, math.ceil(peak / delta0) + 1))


def test_criterion_1_uniform_bound_series():
    start = time.monotonic()
    worst = 0.0
    for db in range(21):
        ch = P2pChannel(db_to_amplitude_ratio(db), 1.0)
        worst = max(worst, abs(c_lower(ch) - C_LOWER_DB[db]), abs(c_upper(ch) - C_UPPER_DB[db]))
    elapsed = time.monotonic() - start
    report(
        "criterion 1: uniform-input bound series at 0..20 dB within 1e-9",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst |err| = {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_esdu_bound_anchors():
    start = time.monotonic()
    errors = [
        abs(f_lower(swept_input(0, 0.5), 1.0) - 0.0743957727703369),
        abs(g_upper(swept_input(0, 0.5), 1.0) - 0.115016970696966),
    ]
    err_10db = abs(g_upper(EsduInput(10.0, 21), 1.0) - 1.67332689560707)
    elapsed = time.monotonic() - start
    report(
        "criterion 2: ESDU bound anchors (0 dB within 1e-9, 10 dB within 1e-6)",
        max(errors) <= 1e-9 and err_10db <= 1e-6 and elapsed < 1.0,
        f"errs = {errors[0]:.2e}/{errors[1]:.2e}/{err_10db:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_exact_rate_anchors():
    start = time.monotonic()
    e1 = abs(mi_discrete(EsduInput(1.0, 3), 1.0, QUAD_TOL) - 0.111166693415685)
    e2 = abs(mi_discrete(EsduInput(10.0, 21), 1.0, QUAD_TOL) - 1.59082183063296)
    elapsed = time.monotonic() - start
    report(
        "criterion 3: exact-rate oracle anchors within 1e-4",
        max(e1, e2) <= 1e-4 and elapsed < 10.0,
        f"errs = {e1:.2e}/{e2:.2e}, {elapsed:.2f} s",
    )


def test_criterion_4_sandwich_full_grid():
    start = time.monotonic()
    worst = math.inf
    for db in range(21):
        for delta0 in (0.5, 1.0, 3.0, 6.0):
            inp = swept_input(db, delta0)
            rate = mi_discrete(inp, 1.0, QUAD_TOL)
            worst = min(worst, rate - f_lower(inp, 1.0), g_upper(inp, 1.0) - rate)
    elapsed = time.monotonic() - start
    report(
        "criterion 4: lower <= exact <= upper on 0..20 dB x 4 spacings, margin >= -1e-6",
        worst >= -1e-6 and elapsed < 120.0,
        f"worst margin = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_owb_dominance():
    start = time.monotonic()
    worst = math.inf
    for db in range(21):
        for delta0 in (0.5, 1.0, 3.0, 6.0):
            inp = swept_input(db, delta0)
            worst = min(worst, f_lower(inp, 1.0) - owb(inp, 1.0))
    elapsed = time.monotonic() - start
    report(
        "criterion 5: f_lower >= owb everywhere it is defined, margin >= -1e-9",
        worst >= -1e-9 and elapsed < 1.0,
        f"worst margin = {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_6_inner_sweep_anchors():
    start = time.monotonic()
    ch = BcChannel(db_to_amplitude_ratio(15.0), 1.0, 2.0)
    points = [
        analytic_inner_point(ch, _split(k1, k2))
        for k1, k2 in split_schedule(ch.peak, [3.0], ch.sigma1)[["k1", "k2"]].tolist()
    ]
    targets = [
        (0.614593593172419, 1.84936562997861),
        (1.56038369189476, 1.2086163461867),
        (3.06182819782385, 0.0),
    ]
    worst = max(
        min(max(abs(p.r1 - tx), abs(p.r2 - ty)) for p in points) for tx, ty in targets
    )
    elapsed = time.monotonic() - start
    report(
        "criterion 6: analytic sweep emits the three 15 dB anchor points within 1e-3",
        worst <= 1e-3 and elapsed < 5.0,
        f"worst point error = {worst:.2e}, {elapsed:.2f} s",
    )


def _split(k1: int, k2: int):
    from esdurate.region import SplitConfig

    return SplitConfig(k1, k2)


def test_criterion_7_region_ordering():
    start = time.monotonic()
    grid = (2.0, 3.0, 6.0)
    margins = {}
    for db in (10.0, 15.0, 20.0):
        for ratio in (2.0, 10.0):
            ch = BcChannel(db_to_amplitude_ratio(db), 1.0, ratio)
            analytic = sweep_inner(ch, grid, "analytic")
            exact = sweep_inner(ch, grid, "exact", QUAD_TOL)
            outer = outer_region(ch, 201)
            for name, inner, reg in (
                ("analytic in exact", analytic, exact),
                ("analytic in outer", analytic, outer),
                ("exact in outer", exact, outer),
            ):
                margins[db, ratio, name] = containment_margin(inner, reg)
    elapsed = time.monotonic() - start
    worst = min(margins, key=margins.get)
    report(
        "criterion 7: analytic within exact within outer at 6 channel configs, tol 1e-6",
        margins[worst] >= -1e-6 and elapsed < 300.0,
        f"worst margin {margins[worst]:.2e} at {worst}, {elapsed:.1f} s",
    )


def test_criterion_8_monte_carlo_cross_validation():
    start = time.monotonic()
    grid = [(db, levels) for db in (0.0, 7.0, 13.0, 20.0) for levels in (2, 5, 21)]
    worst_ratio = 0.0
    for i, (db, levels) in enumerate(grid):
        inp = EsduInput(db_to_amplitude_ratio(db), levels)
        exact = mi_discrete(inp, 1.0, QUAD_TOL)
        est = mi_monte_carlo(DiscreteInput.from_esdu(inp), 1.0, 1_000_000, seed=1000 + i)
        worst_ratio = max(worst_ratio, abs(est.value - exact) / est.standard_error)
    elapsed = time.monotonic() - start
    report(
        "criterion 8: quadrature and Monte Carlo agree within 4 standard errors on 12 points",
        worst_ratio <= 4.0 and elapsed < 60.0,
        f"worst deviation = {worst_ratio:.2f} se, {elapsed:.1f} s",
    )


def test_criterion_9_deterministic_region_output(capsys):
    argv = [
        "bc-inner", "--peak-db", "15", "--sigma2-ratio", "2", "--delta0-grid", "3",
        "--timestamp", "2000-01-01T00:00:00Z",
    ]
    outputs = []
    for fmt in ("csv", "json"):
        for _ in range(2):
            assert main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    same = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    json.loads(outputs[2])  # json output parses
    with capsys.disabled():
        report("criterion 9: identical manifests give byte-identical region output", same)
