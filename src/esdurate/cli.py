"""Command-line interface: bound tables, broadcast-channel regions, and the
self-verification report, emitted as deterministic CSV or JSON.

Numeric fields are printed with 15 significant digits, rows end with LF, and
reruns with an identical manifest (use --timestamp to pin the only
non-deterministic field) produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .esdu import MAX_LEVELS, EsduInput, alphabet_size, f1, f2, f3, f_lower, g_upper, owb, xi
from .oracle import (
    MAX_REFINEMENTS, MC_GENERATOR, MIN_MC_SAMPLES, SUPPORT_PADDING, ConvergenceError, DiscreteInput,
    QuadratureSpec, _padded_support, mi_discrete, mi_monte_carlo,
)
from .region import (
    MAX_RHO_STEPS, BcChannel, RateRegion, SweepConfig, SweepLimitError, outer_region, sweep_alphabet_sizes,
    sweep_inner,
)
from .special import db_to_amplitude_ratio
from .uniform import P2pChannel, c_lower, c_upper, e_cap
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

SCHEMA_VERSION = 1

#: Most points a start:stop[:step] grid range expands to: 500 times the 20 of
#: the default --delta0-grid.
MAX_GRID_POINTS = 10_000
#: Most --mc-samples: 10 times the 1e6 of the documented cross-check, about
#: 80 MB per float64 array of samples.
MAX_MC_SAMPLES = 10_000_000


class _CliParser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """The one JSON serialization used everywhere, so emitted documents
    round-trip to identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_manifest(command: str, parameters: dict, *, quadrature: QuadratureSpec | None = None,
                   seed: int | None = None, timestamp: str | None = None) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "esdurate",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "timestamp": timestamp or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    if quadrature is not None:
        manifest["quadrature"] = {
            "absolute_tolerance": quadrature.absolute_tolerance,
            "support_padding": SUPPORT_PADDING,
            "max_refinements": MAX_REFINEMENTS,
        }
    if seed is not None:
        manifest["seed"] = seed
        manifest["rng"] = MC_GENERATOR
    return manifest


def emit_csv(manifest: dict, columns: list[str], rows: list[list], stream) -> None:
    stream.write(f"# manifest: {_compact_json(manifest)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def emit_table(manifest: dict, columns: list[str], rows: list[list], fmt: str, stream) -> None:
    if fmt == "csv":
        emit_csv(manifest, columns, rows, stream)
    else:
        stream.write(canonical_json({"manifest": manifest, "data": {"columns": columns, "rows": rows}}))


def region_document(manifest: dict, reg: RateRegion) -> dict:
    vertices = []
    origins = reg.origins or (None,) * len(reg.vertices)
    for v, origin in zip(reg.vertices, origins):
        entry = {"r1": v.r1, "r2": v.r2}
        entry["origin"] = (
            None if origin is None else {"delta0": origin.delta0, "k1": origin.k1, "k2": origin.k2}
        )
        vertices.append(entry)
    return {"manifest": manifest, "data": {"vertices": vertices}}


def emit_region(manifest: dict, reg: RateRegion, fmt: str, stream) -> None:
    if fmt == "csv":
        rows = [[v.r1, v.r2] for v in reg.vertices]
        emit_csv(manifest, ["r1", "r2"], rows, stream)
    else:
        stream.write(canonical_json(region_document(manifest, reg)))


def _parse_grid(text: str, flag: str) -> list[float]:
    """Comma list ("0,5,10") or colon range ("0:20" or "0:20:2"), inclusive,
    of finite numbers, a range of at most MAX_GRID_POINTS; errors name `flag`."""
    text = text.strip()
    if not text:
        return []
    parts = text.split(":") if ":" in text else text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag}: bad grid {text!r}; expected numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag}: grid {text!r} must hold finite numbers")
    if ":" not in text:
        return values
    if len(values) == 2:
        start, stop, step = values[0], values[1], 1.0
    elif len(values) == 3:
        start, stop, step = values
    else:
        raise UsageError(f"{flag}: bad range {text!r}; expected start:stop[:step]")
    if step <= 0:
        raise UsageError(f"{flag}: range step must be > 0")
    span = (stop - start) / step + 1e-9  # point count minus one, before flooring
    if not span < MAX_GRID_POINTS:
        raise UsageError(f"{flag}: range {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(max(span, -1.0)) + 1)]


def _one_of(args, first: str, second: str) -> str:
    """Which of the two flags was given; giving both or neither is an error."""
    given = [flag for flag in (first, second) if getattr(args, flag[2:].replace("-", "_")) is not None]
    if len(given) != 1:
        raise UsageError(f"exactly one of {first} and {second} is required")
    return given[0]


def _peak_from_db(db: float, sigma: float, flag: str) -> float:
    """The peak amplitude db dB above sigma; a usage error naming `flag` if not finite."""
    try:
        peak = db_to_amplitude_ratio(db) * sigma
    except OverflowError:
        peak = math.inf
    if not math.isfinite(peak):
        raise UsageError(f"{flag} {db:g}: peak amplitude must be finite, got {peak!r}")
    return peak


def _check_sweep(peak: float, delta0_grid, sigma1: float, context: str = "") -> None:
    """Usage error naming --delta0-grid, after `context`, for a sweep over its caps."""
    try:
        sweep_alphabet_sizes(peak, delta0_grid, sigma1)
    except SweepLimitError as exc:
        entry = "" if exc.delta0 is None else f" entry {exc.delta0:g}"
        raise UsageError(f"{context}--delta0-grid{entry}: {exc}") from None


def _check_span(span: float, sigma: float, flags: str) -> None:
    """Usage error naming `flags` for an input wider than the oracle integrates."""
    try:
        _padded_support(0.0, span, sigma)
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _check_rho_steps(rho_steps: int) -> None:
    if rho_steps < 2:
        raise UsageError(f"--rho-steps must be >= 2, got {rho_steps}")
    if rho_steps > MAX_RHO_STEPS:
        raise UsageError(f"--rho-steps must be at most {MAX_RHO_STEPS}, got {rho_steps}")


def _quadrature(args) -> QuadratureSpec:
    """The oracle tolerance of --quad-tol; a usage error naming it if invalid."""
    try:
        return QuadratureSpec(absolute_tolerance=args.quad_tol)
    except ValueError as exc:
        raise UsageError(f"--quad-tol {args.quad_tol!r}: {exc}") from None


def _resolve_peak(args, sigma_ref: float) -> float:
    if _one_of(args, "--peak", "--peak-db") == "--peak":
        if not (math.isfinite(args.peak) and args.peak >= 0.0):
            raise UsageError(f"--peak must be finite and >= 0, got {args.peak!r}")
        return args.peak
    return _peak_from_db(args.peak_db, sigma_ref, "--peak-db")


def _resolve_sigmas(args) -> tuple[float, float]:
    """(sigma1, sigma2) from the flags; a usage error naming the flag at fault
    unless sigma1 is finite and > 0 and sigma1 <= sigma2 < inf."""
    sigma1 = args.sigma1
    if not (math.isfinite(sigma1) and sigma1 > 0.0):
        raise UsageError(f"--sigma1 must be finite and > 0, got {sigma1!r}")
    if _one_of(args, "--sigma2", "--sigma2-ratio") == "--sigma2":
        if not (sigma1 <= args.sigma2 < math.inf):
            raise UsageError(f"--sigma2 must be finite and >= --sigma1 {sigma1:g}, got {args.sigma2!r}")
        return sigma1, args.sigma2
    ratio = args.sigma2_ratio
    if not (1.0 <= ratio < math.inf and ratio * sigma1 < math.inf):
        raise UsageError(
            f"--sigma2-ratio must be >= 1 and give a finite sigma2 with --sigma1 {sigma1:g}, got {ratio!r}"
        )
    return sigma1, ratio * sigma1


def _write(args, writer) -> None:
    if not args.out:
        writer(sys.stdout)
        return
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        writer(handle)


# ---------------------------------------------------------------- commands

def cmd_p2p_bounds(args) -> int:
    quad = _quadrature(args)
    sigma = args.sigma
    for flag, value in (("--sigma", sigma), ("--delta0", args.delta0)):
        if not (math.isfinite(value) and value > 0.0):
            raise UsageError(f"{flag} must be finite and > 0, got {value!r}")
    peak_flag = _one_of(args, "--peak", "--peak-db")
    if peak_flag == "--peak":
        peaks = [(10.0 * math.log10(args.peak / sigma) if args.peak > 0 else -math.inf, args.peak)]
    else:
        peaks = [(db, _peak_from_db(db, sigma, "--peak-db")) for db in _parse_grid(args.peak_db, "--peak-db")]

    columns = [
        "A_over_sigma_db", "K", "c_lower", "c_upper", "e_cap",
        "f1", "f2", "f3", "f_lower", "g_upper", "owb", "mi_exact", "h_input",
    ]
    rows = []
    for db, peak in peaks:
        try:
            levels = alphabet_size(peak, args.delta0 * sigma)
        except ValueError as exc:
            raise UsageError(f"{peak_flag} with --delta0 {args.delta0:g}: {exc}") from None
        _check_span(peak, sigma, f"{peak_flag} with --sigma {sigma:g}")
        if peak == 0.0:
            # a zero-peak channel carries nothing; every rate column collapses
            rows.append([db, levels, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None, 0.0,
                         math.log2(levels)])
            continue
        ch = P2pChannel(peak, sigma)
        inp = EsduInput(peak, levels)
        mi = mi_discrete(inp, sigma, quad)
        rows.append([
            db, levels, c_lower(ch), c_upper(ch), e_cap(ch),
            f1(inp, sigma), f2(inp, sigma), f3(inp, sigma), f_lower(inp, sigma),
            g_upper(inp, sigma), owb(inp, sigma), mi, math.log2(levels),
        ])

    manifest = build_manifest(
        "p2p-bounds",
        {
            "peak": args.peak, "peak_db": args.peak_db, "sigma": sigma,
            "delta0": args.delta0, "quad_tol": args.quad_tol, "format": args.format,
        },
        quadrature=quad,
        timestamp=args.timestamp,
    )
    _write(args, lambda s: emit_table(manifest, columns, rows, args.format, s))
    return EXIT_OK


def cmd_esdu_rate(args) -> int:
    if args.levels > MAX_LEVELS:
        raise UsageError(f"--levels must be at most {MAX_LEVELS}, got {args.levels}")
    if args.mc_samples is not None:
        if not MIN_MC_SAMPLES <= args.mc_samples <= MAX_MC_SAMPLES:
            raise UsageError(f"--mc-samples must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}], got {args.mc_samples}")
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
    quad = _quadrature(args)
    sigma = args.sigma
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise UsageError(f"--sigma must be finite and > 0, got {sigma!r}")
    try:
        inp = EsduInput(args.span, args.levels)
    except ValueError as exc:
        raise UsageError(f"--span {args.span:g} with --levels {args.levels}: {exc}") from None
    _check_span(inp.span, sigma, f"--span {inp.span:g} with --sigma {sigma:g}")
    degenerate = inp.levels < 2 or inp.span == 0.0
    mi = mi_discrete(inp, sigma, quad)
    columns = ["span", "levels", "sigma", "xi", "f1", "f2", "f3", "f_lower", "owb",
               "g_upper", "mi_exact"]
    row = [
        inp.span, inp.levels, sigma,
        None if degenerate else xi(inp, sigma),
        None if degenerate else f1(inp, sigma),
        None if degenerate else f2(inp, sigma),
        None if degenerate else f3(inp, sigma),
        f_lower(inp, sigma),
        None if degenerate else owb(inp, sigma),
        g_upper(inp, sigma),
        mi,
    ]
    seed = None
    if args.mc_samples is not None:
        seed = args.seed
        est = mi_monte_carlo(DiscreteInput.from_esdu(inp), sigma, args.mc_samples, seed)
        columns += ["mi_mc", "mi_mc_stderr"]
        row += [est.value, est.standard_error]
    manifest = build_manifest(
        "esdu-rate",
        {
            "span": inp.span, "levels": inp.levels, "sigma": sigma,
            "quad_tol": args.quad_tol, "mc_samples": args.mc_samples,
            "format": args.format,
        },
        quadrature=quad,
        seed=seed,
        timestamp=args.timestamp,
    )
    _write(args, lambda s: emit_table(manifest, columns, [row], args.format, s))
    return EXIT_OK


def _bc_common(args) -> tuple[BcChannel, SweepConfig]:
    _check_rho_steps(args.rho_steps)
    sigma1, sigma2 = _resolve_sigmas(args)
    peak = _resolve_peak(args, sigma1)
    ch = BcChannel(peak, sigma1, sigma2)
    quad = _quadrature(args)
    grid = tuple(_parse_grid(args.delta0_grid, "--delta0-grid"))
    cfg = SweepConfig(delta0_grid=grid, rho_steps=args.rho_steps, quadrature=quad)
    return ch, cfg


def cmd_bc_region(args, mode: str) -> int:
    ch, cfg = _bc_common(args)
    peak_flag = f"{_one_of(args, '--peak', '--peak-db')} with --sigma1 {ch.sigma1:g}"
    if mode in ("analytic", "exact"):
        if not cfg.delta0_grid:
            print("warning: empty delta0 grid; region degenerates to {(0,0)}", file=sys.stderr)
        _check_sweep(ch.peak, cfg.delta0_grid, ch.sigma1)
        if mode == "exact":
            _check_span(ch.peak, ch.sigma1, peak_flag)
    try:
        reg = outer_region(ch, cfg) if mode == "outer" else sweep_inner(ch, cfg, mode)
    except FloatingPointError as exc:
        # the closed-form bounds square ratios of the peak to the noise widths
        raise UsageError(f"{peak_flag}: peak {ch.peak:g} overflows float64 in the bound arithmetic ({exc})") from None
    manifest = build_manifest(
        "bc-inner" if mode in ("analytic", "exact") else "bc-outer",
        {
            "peak": ch.peak, "sigma1": ch.sigma1, "sigma2": ch.sigma2, "mode": mode,
            "delta0_grid": list(cfg.delta0_grid), "rho_steps": cfg.rho_steps,
            "quad_tol": cfg.quadrature.absolute_tolerance, "format": args.format,
        },
        quadrature=cfg.quadrature,
        timestamp=args.timestamp,
    )
    _write(args, lambda s: emit_region(manifest, reg, args.format, s))
    return EXIT_OK


def cmd_verify(args) -> int:
    quad = _quadrature(args)
    for flag in ("--sandwich-tol", "--dominance-tol", "--containment-tol"):
        tolerance = getattr(args, flag[2:].replace("-", "_"))
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise UsageError(f"{flag} must be finite and >= 0, got {tolerance!r}")
    db_grid = _parse_grid(args.peak_db_grid, "--peak-db-grid")
    sigma_ratios = _parse_grid(args.sigma_ratios, "--sigma-ratios")
    delta0_grid = _parse_grid(args.delta0_grid, "--delta0-grid")
    _check_rho_steps(args.rho_steps)
    for ratio in sigma_ratios:  # the containment suite's sigma2 at sigma1 = 1
        if not ratio >= 1.0:
            raise UsageError(f"--sigma-ratios entry {ratio:g}: sigma2/sigma1 must be >= 1")
    for db in db_grid:  # every suite sweeps these alphabets at sigma 1
        peak = _peak_from_db(db, 1.0, "--peak-db-grid")
        _check_sweep(peak, delta0_grid, 1.0, f"--peak-db-grid entry {db:g} with ")
        _check_span(peak, 1.0, f"--peak-db-grid entry {db:g}")
    report = run_verification(
        db_grid, sigma_ratios, delta0_grid,
        sandwich_tol=args.sandwich_tol, dominance_tol=args.dominance_tol,
        containment_tol=args.containment_tol, quad=quad, rho_steps=args.rho_steps,
    )
    manifest = build_manifest(
        "verify",
        {
            "peak_db_grid": args.peak_db_grid, "sigma_ratios": args.sigma_ratios,
            "delta0_grid": args.delta0_grid, "sandwich_tol": args.sandwich_tol,
            "dominance_tol": args.dominance_tol, "containment_tol": args.containment_tol,
            "quad_tol": args.quad_tol,
        },
        quadrature=quad,
        timestamp=args.timestamp,
    )
    if "warning" in report:
        print(f"warning: {report['warning']}", file=sys.stderr)
    _write(args, lambda s: s.write(canonical_json({"manifest": manifest, "data": report})))
    return EXIT_OK if report["summary"]["passed"] else EXIT_VERIFICATION


# ---------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write to this file instead of stdout")
    parser.add_argument("--timestamp", help="pin the manifest timestamp (ISO 8601)")
    parser.add_argument("--quad-tol", type=float, default=1e-10,
                        help="absolute tolerance of the exact-rate quadrature")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="esdurate",
        description="Rate bounds and rate regions for peak-constrained Gaussian channels "
                    "with evenly spaced discrete uniform inputs.",
    )
    parser.add_argument("--version", action="version", version=f"esdurate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p2p = sub.add_parser("p2p-bounds", help="bound table for the point-to-point channel")
    p2p.add_argument("--peak", type=float, help="peak amplitude A (linear)")
    p2p.add_argument("--peak-db", help="A/sigma in dB; comma list or start:stop[:step]")
    p2p.add_argument("--sigma", type=float, default=1.0)
    p2p.add_argument("--delta0", type=float, default=0.5,
                     help="target level spacing in sigma units (picks K)")
    _add_common(p2p)
    p2p.set_defaults(func=cmd_p2p_bounds)

    esdu_p = sub.add_parser("esdu-rate", help="bounds and exact rate of one ESDU input")
    esdu_p.add_argument("--span", type=float, required=True)
    esdu_p.add_argument("--levels", type=int, required=True)
    esdu_p.add_argument("--sigma", type=float, default=1.0)
    esdu_p.add_argument("--mc-samples", type=int, help="add a Monte-Carlo cross-check column")
    esdu_p.add_argument("--seed", type=int, default=0)
    _add_common(esdu_p)
    esdu_p.set_defaults(func=cmd_esdu_rate)

    def add_bc_flags(p, inner: bool):
        p.add_argument("--peak", type=float, help="peak amplitude A (linear)")
        p.add_argument("--peak-db", type=float, help="A/sigma1 in dB")
        p.add_argument("--sigma1", type=float, default=1.0)
        p.add_argument("--sigma2", type=float)
        p.add_argument("--sigma2-ratio", type=float, help="sigma2 as a multiple of sigma1")
        p.add_argument("--delta0-grid", default="0.5:10:0.5",
                       help="spacing targets in sigma1 units; comma list or range")
        p.add_argument("--rho-steps", type=int, default=201)
        if inner:
            p.add_argument("--mode", choices=("analytic", "exact"), default="analytic")
        _add_common(p)

    bci = sub.add_parser("bc-inner", help="broadcast-channel inner-bound region")
    add_bc_flags(bci, inner=True)
    bci.set_defaults(func=lambda a: cmd_bc_region(a, a.mode))

    bco = sub.add_parser("bc-outer", help="broadcast-channel outer-bound region")
    add_bc_flags(bco, inner=False)
    bco.set_defaults(func=lambda a: cmd_bc_region(a, "outer"))

    ver = sub.add_parser("verify", help="run the sandwich/dominance/containment suites")
    ver.add_argument("--peak-db-grid", default="0,5,10,15,20")
    ver.add_argument("--sigma-ratios", default="2,10")
    ver.add_argument("--delta0-grid", default="0.5,1,3,6")
    ver.add_argument("--rho-steps", type=int, default=201)
    ver.add_argument("--sandwich-tol", type=float, default=1e-6)
    ver.add_argument("--dominance-tol", type=float, default=1e-9)
    ver.add_argument("--containment-tol", type=float, default=1e-6)
    ver.add_argument("--out", help="write to this file instead of stdout")
    ver.add_argument("--timestamp", help="pin the manifest timestamp (ISO 8601)")
    ver.add_argument("--quad-tol", type=float, default=1e-10)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"esdurate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"esdurate: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
