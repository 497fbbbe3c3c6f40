"""Command-line interface: bound tables, broadcast-channel regions, and the
self-verification report, emitted as deterministic CSV or JSON.

Numeric fields are printed with 15 significant digits, rows end with LF, and
reruns with an identical manifest (use --timestamp to pin the only
non-deterministic field) produce byte-identical output.

Exit codes: 0 success, 1 usage or output error, 2 numerical failure, 3
verification failure, 141 (128 + SIGPIPE, as a shell reports it) when
stdout is closed before the output is written.
"""

import argparse
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import __version__
from .esdu import MAX_LEVELS, EsduInput, alphabet_size, f1, f2, f3, f_lower, g_upper, owb, xi
from .oracle import (
    MC_GENERATOR, MIN_MC_SAMPLES, TOLERANCE, ConvergenceError, DiscreteInput, _check_span_cap, _check_tolerance,
    mi_discrete, mi_monte_carlo, support_padding,
)
from .region import (
    DEFAULT_DELTA0_GRID, MAX_RHO_STEPS, RHO_STEPS, BcChannel, SweepLimitError, outer_region,
    sweep_alphabet_sizes, sweep_inner,
)
from .special import db_to_amplitude_ratio
from .uniform import P2pChannel, c_lower, c_upper, e_cap
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3
EXIT_BROKEN_PIPE = 141

SCHEMA_VERSION = 5
#: The form of the manifest timestamp, and the one --timestamp accepts.
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

#: Most points a start:stop[:step] grid range expands to: 500 times the 20 of
#: the default --delta0-grid.
MAX_GRID_POINTS = 10_000
#: Most --mc-samples: 10 times the 1e6 of the documented cross-check.  The
#: samples are drawn and evaluated 100,000 at a time, so this bounds run time,
#: not memory: about 1.2 s as a process at 21 levels, but each sample costs
#: about 37 us at --levels 100000 --span 99999 (1.1 s for 3e4 samples
#: in-process), so a run there at the cap takes about 6 min (2-vCPU Xeon VM).
MAX_MC_SAMPLES = 10_000_000


class _CliParser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors with exit code 1, and words
    argparse's "argument --flag: problem" as "--flag problem", as the
    commands word theirs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        message = re.sub(r"^argument (--[\w-]+): ", r"\1 ", message)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- flag domains
# Each argparse type checks one flag's domain, so a bad value exits 1 naming
# its flag before any work. A check that needs a second flag stays in the
# command: sigma2 against sigma1, a span with its levels, a dB figure turned
# into a peak, and the grid and sweep caps; those flags take a bare float.

def _parsed(parse, text: str):
    """parse(text), worded as argparse words a bare float or int it cannot parse."""
    try:
        return parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None


def _finite(*, strict: bool):
    """A finite float > 0 (strict) or >= 0."""
    def convert(text: str) -> float:
        value = _parsed(float, text)
        if not (math.isfinite(value) and (value > 0.0 if strict else value >= 0.0)):
            raise argparse.ArgumentTypeError(f"must be finite and {'>' if strict else '>='} 0, got {value!r}")
        return value
    return convert


_positive = _finite(strict=True)
_nonnegative = _finite(strict=False)


def _integer(low: float = -math.inf, high: float = math.inf):
    """An integer in [low, high]; its error names the bound the value crosses."""
    def convert(text: str) -> int:
        value = _parsed(int, text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return convert


def _tolerance(text: str) -> float:
    """An absolute tolerance that oracle._check_tolerance accepts."""
    value = _parsed(float, text)
    try:
        _check_tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r}: {exc}") from None
    return value


def _timestamp(text: str) -> str:
    """A UTC time written exactly as the manifest writes one."""
    try:
        if datetime.strptime(text, TIMESTAMP_FORMAT).strftime(TIMESTAMP_FORMAT) == text:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a UTC time like 2000-01-01T00:00:00Z, got {text!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def canonical_json(obj) -> str:
    """The one JSON serialization used everywhere, so emitted documents
    round-trip to identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_manifest(command: str, parameters: dict, *, quad_tol: float | None = None,
                   seed: int | None = None, timestamp: str | None = None) -> dict:
    """The run manifest; `quadrature` only with a quad_tol, `seed` and `rng`
    only with a seed, and the current UTC time unless a timestamp is given."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "esdurate",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "timestamp": datetime.now(timezone.utc).strftime(TIMESTAMP_FORMAT) if timestamp is None else timestamp,
    }
    if quad_tol is not None:
        manifest["quadrature"] = {"absolute_tolerance": quad_tol, "support_padding": support_padding(quad_tol)}
    if seed is not None:
        manifest["seed"] = seed
        manifest["rng"] = MC_GENERATOR
    return manifest


def _table(columns: list[str], rows: list[list]) -> dict:
    """The JSON data of a table.  CSV prints a non-finite cell as _fmt does
    (-inf); JSON has no such numbers (RFC 8259), so here it is null."""
    rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
    return {"columns": columns, "rows": rows}


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
    step = values[2] if len(values) == 3 else 1.0
    if len(values) not in (2, 3) or not step > 0:
        raise UsageError(f"{flag}: bad range {text!r}; expected start:stop[:step] with step > 0")
    start, stop = values[:2]
    span = (stop - start) / step + 1e-9  # point count minus one, before flooring
    if not span < MAX_GRID_POINTS:
        raise UsageError(f"{flag}: range {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(max(span, -1.0)) + 1)]


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
        _check_span_cap(0.0, span, sigma)
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _bc_channel(args) -> tuple[BcChannel, str]:
    """The channel of the flags, and its peak flag as errors name it; a usage
    error naming the flag at fault unless sigma1 <= sigma2 < inf and the peak
    is finite."""
    sigma1 = args.sigma1
    if args.sigma2 is not None:
        sigma2 = args.sigma2
        if not (sigma1 <= sigma2 < math.inf):
            raise UsageError(f"--sigma2 must be finite and >= --sigma1 {sigma1:g}, got {sigma2!r}")
    else:
        ratio = args.sigma2_ratio
        sigma2 = ratio * sigma1
        if not (1.0 <= ratio < math.inf and sigma2 < math.inf):
            raise UsageError(
                f"--sigma2-ratio must be >= 1 and give a finite sigma2 with --sigma1 {sigma1:g}, got {ratio!r}"
            )
    if args.peak is not None:
        flag, peak = "--peak", args.peak
    else:
        flag, peak = "--peak-db", _peak_from_db(args.peak_db, sigma1, "--peak-db")
    return BcChannel(peak, sigma1, sigma2), f"{flag} with --sigma1 {sigma1:g}"


def _write(args, manifest: dict, data, rows=()) -> None:
    """The one output path: write a document to --out, or else to stdout.  CSV is
    the `# manifest:` line, then `rows`, column names first, each cell through
    _fmt, a line at a time; JSON is canonical_json of the manifest and `data`.
    An OSError at open, write or close of --out is a usage error naming it."""
    if args.format == "json":
        lines = [canonical_json({"manifest": manifest, "data": data})]
    else:
        manifest_line = f"# manifest: {json.dumps(manifest, sort_keys=True, separators=(',', ':'))}\n"
        lines = chain([manifest_line], (",".join(map(_fmt, row)) + "\n" for row in rows))
    if not args.out:
        sys.stdout.writelines(lines)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(lines)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc.strerror}") from None


# ---------------------------------------------------------------- commands

def cmd_p2p_bounds(args) -> int:
    sigma = args.sigma
    if args.peak is not None:
        peak_flag = "--peak"
        peaks = [(10.0 * math.log10(args.peak / sigma) if args.peak > 0 else -math.inf, args.peak)]
    else:
        peak_flag = "--peak-db"
        peaks = [(db, _peak_from_db(db, sigma, "--peak-db")) for db in _parse_grid(args.peak_db, "--peak-db")]

    columns = [
        "A_over_sigma_db", "K", "c_lower", "c_upper", "e_cap",
        "f1", "f2", "f3", "f_lower", "g_upper", "owb", "mi_exact", "h_input",
    ]
    sizes = []
    for _, peak in peaks:
        try:
            sizes.append(alphabet_size(peak, args.delta0 * sigma))
        except ValueError as exc:
            raise UsageError(f"{peak_flag} with --delta0 {args.delta0:g}: {exc}") from None
        _check_span(peak, sigma, f"{peak_flag} with --sigma {sigma:g}")
    # every nonzero-peak row as one batch: one mi_discrete call and one call per bound
    live = [i for i, (_, peak) in enumerate(peaks) if peak > 0.0]
    ch = P2pChannel(np.array([peaks[i][1] for i in live]), sigma)
    inp = EsduInput(ch.peak, np.array([sizes[i] for i in live], dtype=np.int64))
    batch = [bound(ch) for bound in (c_lower, c_upper, e_cap)]
    batch += [bound(inp, sigma) for bound in (f1, f2, f3, f_lower, g_upper, owb)]
    batch.append(mi_discrete(inp, sigma, args.quad_tol))
    rates = dict(zip(live, zip(*(column.tolist() for column in batch))))
    # a zero-peak channel carries nothing; every rate column collapses
    collapsed = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None, 0.0)
    rows = [[db, k, *rates.get(i, collapsed), math.log2(k)] for i, ((db, _), k) in enumerate(zip(peaks, sizes))]

    parameters = {"peak": args.peak, "peak_db": args.peak_db, "sigma": sigma, "delta0": args.delta0,
                  "quad_tol": args.quad_tol, "format": args.format}
    manifest = build_manifest("p2p-bounds", parameters, quad_tol=args.quad_tol, timestamp=args.timestamp)
    _write(args, manifest, _table(columns, rows), [columns, *rows])
    return EXIT_OK


def cmd_esdu_rate(args) -> int:
    sigma = args.sigma
    try:
        inp = EsduInput(args.span, args.levels)
    except ValueError as exc:
        raise UsageError(f"--span {args.span:g} with --levels {args.levels}: {exc}") from None
    _check_span(inp.span, sigma, f"--span {inp.span:g} with --sigma {sigma:g}")
    degenerate = inp.levels < 2 or inp.span == 0.0
    mi = mi_discrete(inp, sigma, args.quad_tol)
    columns = ["span", "levels", "sigma", "xi", "f1", "f2", "f3", "f_lower", "owb",
               "g_upper", "mi_exact"]
    # xi, f1-f3 and owb are undefined for one level or a zero span
    bounds = [None if degenerate and bound not in (f_lower, g_upper) else bound(inp, sigma)
              for bound in (xi, f1, f2, f3, f_lower, owb, g_upper)]
    row = [inp.span, inp.levels, sigma, *bounds, mi]
    if args.mc_samples is not None:
        est = mi_monte_carlo(DiscreteInput.from_esdu(inp), sigma, args.mc_samples, args.seed)
        columns += ["mi_mc", "mi_mc_stderr"]
        row += [est.value, est.standard_error]
    parameters = {"span": inp.span, "levels": inp.levels, "sigma": sigma, "quad_tol": args.quad_tol,
                  "mc_samples": args.mc_samples, "format": args.format}
    manifest = build_manifest("esdu-rate", parameters, quad_tol=args.quad_tol,
                              seed=None if args.mc_samples is None else args.seed, timestamp=args.timestamp)
    _write(args, manifest, _table(columns, [row]), [columns, row])
    return EXIT_OK


def cmd_bc_region(args, mode: str) -> int:
    ch, peak_flag = _bc_channel(args)
    grid = _parse_grid(args.delta0_grid, "--delta0-grid")
    if mode == "outer":
        # the outer bound takes no sweep; the grid only goes into the manifest
        for delta0 in grid:
            if not delta0 > 0.0:
                raise UsageError(f"--delta0-grid entry {delta0:g}: spacing targets must be > 0")
    else:
        if not grid:
            print("warning: empty delta0 grid; region degenerates to {(0,0)}", file=sys.stderr)
        _check_sweep(ch.peak, grid, ch.sigma1)
        if mode == "exact":
            _check_span(ch.peak, ch.sigma1, peak_flag)
    try:
        reg = outer_region(ch, args.rho_steps) if mode == "outer" else sweep_inner(ch, grid, mode, args.quad_tol)
    except FloatingPointError as exc:
        # the closed-form bounds square ratios of the peak to the noise widths
        raise UsageError(f"{peak_flag}: peak {ch.peak:g} overflows float64 in the bound arithmetic ({exc})") from None
    parameters = {"peak": ch.peak, "sigma1": ch.sigma1, "sigma2": ch.sigma2, "mode": mode,
                  "delta0_grid": grid, "format": args.format}
    if mode == "outer":  # rho samples, and no quadrature
        parameters["rho_steps"] = args.rho_steps
        quad_tol = None
    else:
        parameters["quad_tol"] = quad_tol = args.quad_tol
    manifest = build_manifest("bc-outer" if mode == "outer" else "bc-inner", parameters,
                              quad_tol=quad_tol, timestamp=args.timestamp)
    origins = reg.origins or (None,) * len(reg.vertices)
    vertices = [{"r1": v.r1, "r2": v.r2, "origin": None if o is None else {"delta0": o.delta0, "k1": o.k1, "k2": o.k2}}
                for v, o in zip(reg.vertices, origins)]
    _write(args, manifest, {"vertices": vertices}, [["r1", "r2"], *([v.r1, v.r2] for v in reg.vertices)])
    return EXIT_OK


def cmd_verify(args) -> int:
    db_grid = _parse_grid(args.peak_db_grid, "--peak-db-grid")
    sigma_ratios = _parse_grid(args.sigma_ratios, "--sigma-ratios")
    delta0_grid = _parse_grid(args.delta0_grid, "--delta0-grid")
    for ratio in sigma_ratios:  # the containment suite's sigma2 at sigma1 = 1
        if not ratio >= 1.0:
            raise UsageError(f"--sigma-ratios entry {ratio:g}: sigma2/sigma1 must be >= 1")
    for db in db_grid:  # every suite sweeps these alphabets at sigma 1
        peak = _peak_from_db(db, 1.0, "--peak-db-grid")
        _check_sweep(peak, delta0_grid, 1.0, f"--peak-db-grid entry {db:g} with ")
        _check_span(peak, 1.0, f"--peak-db-grid entry {db:g}")
    report = run_verification(db_grid, sigma_ratios, delta0_grid, quad_tol=args.quad_tol, rho_steps=args.rho_steps)
    parameters = {"peak_db_grid": args.peak_db_grid, "sigma_ratios": args.sigma_ratios,
                  "delta0_grid": args.delta0_grid, "quad_tol": args.quad_tol, "rho_steps": args.rho_steps}
    manifest = build_manifest("verify", parameters, quad_tol=args.quad_tol, timestamp=args.timestamp)
    if "warning" in report:
        print(f"warning: {report['warning']}", file=sys.stderr)
    _write(args, manifest, report)
    return EXIT_OK if report["summary"]["passed"] else EXIT_VERIFICATION


# ---------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser, *, formats: bool = True, quad_tol: bool = True) -> None:
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write to this file instead of stdout")
    parser.add_argument("--timestamp", type=_timestamp,
                        help="pin the manifest timestamp, as YYYY-MM-DDTHH:MM:SSZ (UTC)")
    if quad_tol:
        parser.add_argument("--quad-tol", type=_tolerance, default=TOLERANCE,
                            help="absolute tolerance of the exact-rate quadrature, in bits; below about "
                                 "2e-14 the integral reaches its round-off level and the command exits 2")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="esdurate",
        description="Rate bounds and rate regions for peak-constrained Gaussian channels "
                    "with evenly spaced discrete uniform inputs.",
    )
    parser.add_argument("--version", action="version", version=f"esdurate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    rho_steps = _integer(2, MAX_RHO_STEPS)

    p2p = sub.add_parser("p2p-bounds", help="bound table for the point-to-point channel")
    peak = p2p.add_mutually_exclusive_group(required=True)
    peak.add_argument("--peak", type=_nonnegative, help="peak amplitude A (linear)")
    peak.add_argument("--peak-db", help="A/sigma in dB; comma list or start:stop[:step] "
                      "(a grid that starts with a minus sign needs the = form: --peak-db=-10:0:5)")
    p2p.add_argument("--sigma", type=_positive, default=1.0)
    p2p.add_argument("--delta0", type=_positive, default=0.5,
                     help="target level spacing in sigma units (picks K)")
    _add_common(p2p)
    p2p.set_defaults(func=cmd_p2p_bounds)

    esdu_p = sub.add_parser("esdu-rate", help="bounds and exact rate of one ESDU input")
    esdu_p.add_argument("--span", type=float, required=True)
    esdu_p.add_argument("--levels", type=_integer(high=MAX_LEVELS), required=True)
    esdu_p.add_argument("--sigma", type=_positive, default=1.0)
    esdu_p.add_argument("--mc-samples", type=_integer(MIN_MC_SAMPLES, MAX_MC_SAMPLES),
                        help="add a Monte-Carlo cross-check column")
    esdu_p.add_argument("--seed", type=_integer(0), default=0)
    _add_common(esdu_p)
    esdu_p.set_defaults(func=cmd_esdu_rate)

    def add_bc_flags(p):
        peak = p.add_mutually_exclusive_group(required=True)
        peak.add_argument("--peak", type=_nonnegative, help="peak amplitude A (linear)")
        peak.add_argument("--peak-db", type=float, help="A/sigma1 in dB")
        p.add_argument("--sigma1", type=_positive, default=1.0)
        sigma2 = p.add_mutually_exclusive_group(required=True)
        sigma2.add_argument("--sigma2", type=float)
        sigma2.add_argument("--sigma2-ratio", type=float, help="sigma2 as a multiple of sigma1")
        p.add_argument("--delta0-grid", default=",".join(map(str, DEFAULT_DELTA0_GRID)),
                       help="spacing targets in sigma1 units; comma list or range")

    bci = sub.add_parser("bc-inner", help="broadcast-channel inner-bound region")
    add_bc_flags(bci)
    bci.add_argument("--mode", choices=("analytic", "exact"), default="analytic")
    _add_common(bci)
    bci.set_defaults(func=lambda a: cmd_bc_region(a, a.mode))

    bco = sub.add_parser("bc-outer", help="broadcast-channel outer-bound region")
    add_bc_flags(bco)
    bco.add_argument("--rho-steps", type=rho_steps, default=RHO_STEPS,
                     help="power splits rho sampled on the outer boundary")
    _add_common(bco, quad_tol=False)
    bco.set_defaults(func=lambda a: cmd_bc_region(a, "outer"))

    ver = sub.add_parser("verify", help="run the sandwich/dominance/containment suites")
    ver.add_argument("--peak-db-grid", default="0,5,10,15,20",
                     help="A/sigma1 in dB; comma list or start:stop[:step] "
                     "(a grid that starts with a minus sign needs the = form: --peak-db-grid=-5,0)")
    ver.add_argument("--sigma-ratios", default="2,10")
    ver.add_argument("--delta0-grid", default="0.5,1,3,6")
    ver.add_argument("--rho-steps", type=rho_steps, default=RHO_STEPS)
    _add_common(ver, formats=False)
    ver.set_defaults(func=cmd_verify, format="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except OSError as exc:
        # the reader left (say, `| head -1`) or stdout failed (a full disk): send what
        # is still buffered to devnull, so the interpreter's own flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"esdurate: error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError) as exc:
        print(f"esdurate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"esdurate: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
