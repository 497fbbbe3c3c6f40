"""Output checks: the paper's invariants on every command's output, and
agreement with values recorded from the seed commit (reference.json).

The checks parse what the CLI printed and use none of esdurate's own
geometry or bound code, so a defect in the package cannot mark its own
output as correct.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: f_lower <= mi_exact <= g_upper, as verify's default sandwich tolerance (bits).
SANDWICH_TOL = 1e-6
#: f_lower >= owb, as verify's default dominance tolerance (bits).
DOMINANCE_TOL = 1e-9
#: Region containment, as verify's default containment tolerance (bits).
CONTAINMENT_TOL = 1e-6
#: Monte-Carlo agreement, in standard errors of the estimate.
MC_SIGMAS = 5.0
#: Agreement with the recorded seed-commit values, the oracle-vs-scipy test
#: tolerance (bits).
REFERENCE_TOL = 1e-9

#: Failures present at the seed commit, by (check, command key).  They still
#: count as failed commands; they only keep ``correct`` true while nothing
#: else fails.  30 dB, sigma2/sigma1 = 2: the analytic vertex (k1=7, k2=286)
#: lies 7.6e-3 bits outside the 201-step outer region, whose sampled rho grid
#: is not conservative at high SNR.
KNOWN_FAILURES = {
    ("containment", "bc-inner --peak-db 30 --sigma2-ratio 2 --format json"),
}


def command_key(argv) -> str:
    """The argv without the pinned timestamp, as one string."""
    argv = list(argv)
    if "--timestamp" in argv:
        at = argv.index("--timestamp")
        del argv[at : at + 2]
    return " ".join(argv)


def _flag(argv, name, default=None):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


# ------------------------------------------------------------------ parsing

def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest: "):
        raise ValueError("not an esdurate CSV table")
    json.loads(lines[0][len("# manifest: "):])
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells for {len(columns)} columns")
        rows.append({c: (float(v) if v else None) for c, v in zip(columns, cells)})
    return rows


def parse_region(text: str) -> list[tuple[float, float]]:
    doc = json.loads(text)
    return [(float(v["r1"]), float(v["r2"])) for v in doc["data"]["vertices"]]


# ----------------------------------------------------------------- geometry

def _segment_distance(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    length_sq = dx * dx + dy * dy
    t = 0.0 if length_sq == 0.0 else max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length_sq))
    return math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))


def polygon_margin(polygon, p) -> float:
    """Signed distance of p inside a convex counter-clockwise polygon:
    >= 0 inside, the negated distance outside.  Polygons of fewer than three
    vertices are treated as a point or segment."""
    if len(polygon) < 3:
        pairs = zip(polygon, polygon[1:]) if len(polygon) == 2 else [(polygon[0], polygon[0])]
        return -min(_segment_distance(p, a, b) for a, b in pairs)
    worst = math.inf
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        ex, ey = x2 - x1, y2 - y1
        norm = math.hypot(ex, ey)
        if norm > 0.0:
            worst = min(worst, (ex * (p[1] - y1) - ey * (p[0] - x1)) / norm)
    if worst < 0.0:
        # the edge distance underestimates the distance near a vertex
        worst = -min(_segment_distance(p, a, b) for a, b in zip(polygon, polygon[1:] + polygon[:1]))
    return worst


def containment_margin(inner, outer) -> float:
    """Smallest margin of inner's vertices in outer (>= 0: inner inside)."""
    return min(polygon_margin(outer, v) for v in inner)


# ------------------------------------------------------------ the invariants

def _sandwich(row, problems, where):
    low, exact, high = row["f_lower"], row["mi_exact"], row["g_upper"]
    if not exact - low >= -SANDWICH_TOL:
        problems.append(("sandwich", f"{where}: f_lower {low!r} > mi_exact {exact!r}"))
    if not high - exact >= -SANDWICH_TOL:
        problems.append(("sandwich", f"{where}: mi_exact {exact!r} > g_upper {high!r}"))
    if row.get("owb") is not None and not low - row["owb"] >= -DOMINANCE_TOL:
        problems.append(("dominance", f"{where}: owb {row['owb']!r} > f_lower {low!r}"))


def _check_p2p(argv, text, problems):
    rows = parse_csv(text)
    requested = [float(d) for d in _flag(argv, "--peak-db").split(",")]
    if [row["A_over_sigma_db"] for row in rows] != requested:
        problems.append(("rows", f"rows for {[r['A_over_sigma_db'] for r in rows]}, asked {requested}"))
    for row in rows:
        _sandwich(row, problems, f"{row['A_over_sigma_db']:g} dB, K={row['K']:g}")


def _check_esdu_rate(argv, text, problems):
    (row,) = parse_csv(text)
    _sandwich(row, problems, f"K={row['levels']:g}")
    if "mi_mc" in row:
        gap = abs(row["mi_mc"] - row["mi_exact"])
        if not gap <= MC_SIGMAS * row["mi_mc_stderr"]:
            problems.append(("monte-carlo", f"|mi_mc - mi_exact| = {gap!r} > {MC_SIGMAS:g} stderr"))


def _check_verify(argv, text, problems):
    report = json.loads(text)["data"]
    checks = report["checks"]
    failing = [c["label"] for c in checks if not c["passed"]]
    summary = report["summary"]
    if summary["total"] != len(checks) or summary["failures"] != len(failing):
        problems.append(("verify", "summary disagrees with the checks it lists"))
    for check in checks:
        if check["passed"] != (check["margin"] >= -check["tolerance"]):
            problems.append(("verify", f"{check['label']}: verdict disagrees with its margin"))
    if failing:
        problems.append(("verify", f"{len(failing)} failing checks, first {failing[0]!r}"))


def _check_region(argv, text, problems):
    vertices = parse_region(text)
    if not vertices or vertices[0] != (0.0, 0.0):
        problems.append(("region", "region does not start at the origin"))
    if any(r1 < 0.0 or r2 < 0.0 for r1, r2 in vertices):
        problems.append(("region", "negative rate in a vertex"))


_CHECKS = {
    "p2p-bounds": _check_p2p,
    "esdu-rate": _check_esdu_rate,
    "verify": _check_verify,
    "bc-inner": _check_region,
    "bc-outer": _check_region,
}


def _channel(argv) -> tuple:
    return (_flag(argv, "--peak-db"), _flag(argv, "--sigma2-ratio"))


def check_commands(results, run_aux) -> list[list[tuple[str, str]]]:
    """Problems found in each command's output, as (check, detail) pairs.

    ``run_aux(argv)`` runs a command the checks need but the workload does not
    time: the analytic inner region that an exact one must contain.
    """
    problems = [[] for _ in results]
    regions = {}
    for index, result in enumerate(results):
        argv = result.argv
        if result.exit_code != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            problems[index].append(("exit", f"exit code {result.exit_code}: {tail[0]}"))
            continue
        try:
            _CHECKS[argv[0]](argv, result.stdout, problems[index])
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            problems[index].append(("parse", f"{type(exc).__name__}: {exc}"))
            continue
        if argv[0] in ("bc-inner", "bc-outer"):
            mode = "outer" if argv[0] == "bc-outer" else _flag(argv, "--mode", "analytic")
            regions[(_channel(argv), mode)] = (index, parse_region(result.stdout))

    for (channel, mode), (index, vertices) in regions.items():
        if mode == "analytic" and (channel, "outer") in regions:
            margin = containment_margin(vertices, regions[(channel, "outer")][1])
            if margin < -CONTAINMENT_TOL:
                problems[index].append(("containment", f"analytic inner outside outer by {-margin:.3g} bits"))
        if mode == "exact":
            argv = list(results[index].argv)
            argv[argv.index("--mode") + 1] = "analytic"
            aux = run_aux(argv)
            if aux.exit_code != 0:
                problems[index].append(("containment", f"analytic counterpart exit code {aux.exit_code}"))
                continue
            margin = containment_margin(parse_region(aux.stdout), vertices)
            if margin < -CONTAINMENT_TOL:
                problems[index].append(("containment", f"analytic inner outside exact by {-margin:.3g} bits"))
    return problems


# ---------------------------------------------------------------- reference

def reference_items(result) -> dict:
    """The recordable values of one command's output, keyed so that the same
    quantity gets the same key in any workload list."""
    argv = result.argv
    key = command_key(argv)
    if argv[0] == "p2p-bounds":
        delta0 = _flag(argv, "--delta0", "0.5")
        return {f"p2p-bounds --delta0 {delta0} @ {row['A_over_sigma_db']!r} dB": row
                for row in parse_csv(result.stdout)}
    if argv[0] == "esdu-rate":
        return {key: parse_csv(result.stdout)[0]}
    if argv[0] == "verify":
        checks = json.loads(result.stdout)["data"]["checks"]
        return {key: {c["label"]: c["margin"] for c in checks}}
    return {key: [list(v) for v in parse_region(result.stdout)]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _disagreement(recorded, actual) -> str | None:
    if isinstance(recorded, list):
        actual = [tuple(v) for v in actual]
        recorded = [tuple(v) for v in recorded]
        gap = max(-containment_margin(actual, recorded), -containment_margin(recorded, actual))
        return None if gap <= REFERENCE_TOL else f"region differs by {gap:.3g} bits"
    if recorded.keys() != actual.keys():
        return f"fields {sorted(actual)} differ from recorded {sorted(recorded)}"
    for name, value in recorded.items():
        new = actual[name]
        if (value is None) != (new is None) or (value is not None and not abs(new - value) <= REFERENCE_TOL):
            return f"{name} = {new!r}, recorded {value!r}"
    return None


def check_reference(results, problems, reference) -> int:
    """Compare every recorded quantity present in the outputs; returns how
    many were compared and appends a problem per disagreement."""
    compared = 0
    for index, result in enumerate(results):
        if result.exit_code != 0 or any(check == "parse" for check, _ in problems[index]):
            continue
        for key, actual in reference_items(result).items():
            if key in reference:
                compared += 1
                detail = _disagreement(reference[key], actual)
                if detail is not None:
                    problems[index].append(("reference", f"{key}: {detail}"))
    return compared


def is_known(argv, problems) -> bool:
    key = command_key(argv)
    return all((check, key) in KNOWN_FAILURES for check, _ in problems)
