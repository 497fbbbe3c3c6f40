"""Rate-region machinery for the two-user peak-constrained Gaussian broadcast
channel.

A superposition split (k1, k2) assigns user 1 a fine sub-alphabet of k1 levels
and user 2 a coarse sub-alphabet of k2 levels whose level-wise sums tile the
composite ESDU alphabet of K = k1*k2 levels exactly.  Inner-bound points come
either from the closed-form bounds (analytic mode) or from the quadrature
oracle (exact mode); the outer bound intersects a hull of auxiliary-parameter
rectangles with per-user and sum-rate capacity caps.  Regions are convex
polygons anchored at the origin, listed counter-clockwise from (0, 0).
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

from .esdu import EsduInput, alphabet_size, f_lower, g_upper
from .oracle import ConvergenceError, DiscreteInput, QuadratureSpec, mi_discrete
from .uniform import P2pChannel, c_upper

DEFAULT_DELTA0_GRID = tuple(0.5 * i for i in range(1, 21))
#: Most cells split_schedule enumerates: nearly 14 times the 7,221 of the
#: default grid at 30 dB.
MAX_SWEEP_CELLS = 100_000

_Rate = Callable[[EsduInput, float], float]


@dataclass(frozen=True)
class BcChannel:
    """Broadcast channel: one peak-limited input, two Gaussian noise levels.

    Receiver 1 is the stronger one; sigma1 <= sigma2 is required (equality is
    the degenerate symmetric case).
    """

    peak: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak) and self.peak >= 0.0):
            raise ValueError(f"peak must be finite and >= 0, got {self.peak!r}")
        for name, value in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.sigma1 > self.sigma2:
            raise ValueError("sigma1 must not exceed sigma2")


@dataclass(frozen=True)
class SplitConfig:
    """Level split (k1, k2) of a composite alphabet of k1*k2 >= 2 levels."""

    k1: int
    k2: int

    def __post_init__(self) -> None:
        for name, value in (("k1", self.k1), ("k2", self.k2)):
            if not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.k1 * self.k2 < 2:
            raise ValueError("the composite alphabet needs k1*k2 >= 2 levels")

    @property
    def total_levels(self) -> int:
        return self.k1 * self.k2

    def user1_input(self, peak: float) -> EsduInput:
        """Fine sub-alphabet: k1 levels at the composite spacing."""
        span = (self.k1 - 1) * peak / (self.total_levels - 1)
        return EsduInput(span, self.k1)

    def user2_input(self, peak: float) -> EsduInput:
        """Coarse sub-alphabet: k2 levels strided by k1 composite spacings."""
        span = (self.k2 - 1) * self.k1 * peak / (self.total_levels - 1)
        return EsduInput(span, self.k2)

    def composite_input(self, peak: float) -> EsduInput:
        return EsduInput(peak, self.total_levels)


@dataclass(frozen=True)
class RatePair:
    """Nonnegative rate pair in bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError(f"rates must be nonnegative, got ({self.r1!r}, {self.r2!r})")


@dataclass(frozen=True)
class SplitOrigin:
    """Sweep cell that produced a region vertex: spacing target (in sigma1
    units) and the level split."""

    delta0: float
    k1: int
    k2: int


@dataclass(frozen=True)
class RateRegion:
    """Convex achievable region.

    vertices run counter-clockwise starting at the origin: (0,0), the r1-axis
    intercept, the frontier, and finally the r2-axis intercept.  origins, when
    present, aligns with vertices and names the sweep cell behind each one
    (None for synthetic vertices such as the origin and axis projections).
    """

    vertices: tuple[RatePair, ...]
    origins: tuple[SplitOrigin | None, ...] | None = None


@dataclass(frozen=True)
class SweepConfig:
    """Sweep policy: spacing targets (multiples of sigma1), the resolution of
    the outer bound's auxiliary-parameter grid, and quadrature controls for
    exact mode."""

    delta0_grid: tuple[float, ...] = DEFAULT_DELTA0_GRID
    rho_steps: int = 201
    quadrature: QuadratureSpec = QuadratureSpec()

    def __post_init__(self) -> None:
        grid = tuple(float(d) for d in self.delta0_grid)
        if any(not (math.isfinite(d) and d > 0.0) for d in grid):
            raise ValueError("delta0_grid entries must be finite and > 0")
        object.__setattr__(self, "delta0_grid", grid)
        if self.rho_steps < 2:
            raise ValueError("rho_steps must be >= 2")


def analytic_inner_point(ch: BcChannel, split: SplitConfig) -> RatePair:
    """Analytic superposition point for one split: _superposition_point with
    the closed-form lower bound f_lower and upper bound g_upper."""
    return _superposition_point(ch, split, f_lower, g_upper)


def exact_inner_point(
    ch: BcChannel,
    split: SplitConfig,
    quad: QuadratureSpec | None = None,
    rates: dict[tuple[EsduInput, float], float] | None = None,
) -> RatePair:
    """Oracle version of analytic_inner_point with exact mutual informations.

    rates, when given, holds mi_discrete per (input, sigma) and is filled in
    place, so splits that share a sub-alphabet or a composite alphabet reuse
    its rate; sweep_inner passes one dictionary per sweep.
    """
    quad = quad if quad is not None else QuadratureSpec()
    rates = rates if rates is not None else {}

    def rate(inp: EsduInput, sigma: float) -> float:
        key = (inp, sigma)
        if key not in rates:
            rates[key] = mi_discrete(DiscreteInput.from_esdu(inp), sigma, quad)
        return rates[key]

    return _superposition_point(ch, split, rate, rate)


def _superposition_point(ch: BcChannel, split: SplitConfig, lower: _Rate, upper: _Rate) -> RatePair:
    """Superposition point of one split from rates of (input, sigma).

    User 1 gets the lower rate of its sub-alphabet at sigma1; user 2 gets the
    lower rate of the composite alphabet at sigma2 minus the upper rate of
    user 1's sub-alphabet at sigma2 (the rate the weak receiver must spend
    decoding around user 1's signal).  Both components clamp at 0.
    """
    user1 = split.user1_input(ch.peak)
    r1 = lower(user1, ch.sigma1)
    r2 = lower(split.composite_input(ch.peak), ch.sigma2) - upper(user1, ch.sigma2)
    return RatePair(max(0.0, r1), max(0.0, r2))


def split_schedule(
    peak: float, delta0_grid: Sequence[float], sigma1: float
) -> list[tuple[float, int, int]]:
    """Enumerate the sweep cells (delta0, k1, k2).

    For each spacing target delta0 (in sigma1 units), the composite alphabet
    size is capped at Kmax = alphabet_size(A, delta0*sigma1); k1 runs over
    1..Kmax and k2 is the smallest count that brings the composite spacing
    down to the target, i.e. the smallest k with k1*k - 1 >= A/delta0,
    floored so that k1*k2 >= 2.  Raises ValueError when the cells would
    number more than MAX_SWEEP_CELLS.
    """
    kmaxes = [alphabet_size(peak, delta0 * sigma1) for delta0 in delta0_grid]
    if sum(kmaxes) > MAX_SWEEP_CELLS:
        raise ValueError(
            f"peak {peak:g} with this delta0 grid needs {sum(kmaxes)} sweep cells, "
            f"more than the {MAX_SWEEP_CELLS} allowed"
        )
    cells: list[tuple[float, int, int]] = []
    for delta0, kmax in zip(delta0_grid, kmaxes):
        ratio = peak / (delta0 * sigma1)
        for k1 in range(1, kmax + 1):
            k2 = max(1, math.ceil((ratio + 1.0) / k1))
            if k1 * k2 < 2:
                k2 = 2
            cells.append((delta0, k1, k2))
    return cells


def sweep_inner(
    ch: BcChannel,
    cfg: SweepConfig | None = None,
    mode: Literal["analytic", "exact"] = "analytic",
) -> RateRegion:
    """Inner-bound region: hull of the points of every sweep cell.

    Repeated (k1, k2) splits across spacing targets are computed once, and in
    exact mode so is each mutual information that several splits share; the
    vertex provenance records the first cell that produced each vertex.
    """
    if mode not in ("analytic", "exact"):
        raise ValueError(f"mode must be 'analytic' or 'exact', got {mode!r}")
    cfg = cfg if cfg is not None else SweepConfig()
    if ch.peak == 0.0:
        return frontier_hull([])
    points: list[RatePair] = []
    first_origin: dict[tuple[float, float], SplitOrigin] = {}
    cache: dict[tuple[int, int], RatePair] = {}
    rates: dict[tuple[EsduInput, float], float] = {}
    for delta0, k1, k2 in split_schedule(ch.peak, cfg.delta0_grid, ch.sigma1):
        key = (k1, k2)
        point = cache.get(key)
        if point is None:
            split = SplitConfig(k1, k2)
            if mode == "analytic":
                point = analytic_inner_point(ch, split)
            else:
                try:
                    point = exact_inner_point(ch, split, cfg.quadrature, rates)
                except ConvergenceError as exc:
                    raise ConvergenceError(
                        f"split k1={k1}, k2={k2} (delta0={delta0:g}): {exc}",
                        exc.previous_estimate,
                        exc.last_estimate,
                    ) from exc
            cache[key] = point
        points.append(point)
        first_origin.setdefault((point.r1, point.r2), SplitOrigin(delta0, k1, k2))
    hull = frontier_hull(points)
    origins = tuple(first_origin.get((v.r1, v.r2)) for v in hull.vertices)
    return RateRegion(hull.vertices, origins)


def outer_corner(ch: BcChannel, rho: float) -> RatePair:
    """Corner of the outer-bound rectangle at auxiliary parameter rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    scaled = c_upper(P2pChannel(rho * ch.peak, ch.sigma2))
    noise_gain = (ch.sigma2 / ch.sigma1) ** 2
    r1 = 0.5 * math.log2(1.0 + noise_gain * (2.0 ** (2.0 * scaled) - 1.0))
    r2 = c_upper(P2pChannel(ch.peak, ch.sigma2)) - scaled
    return RatePair(max(0.0, r1), max(0.0, r2))


def outer_region(ch: BcChannel, cfg: SweepConfig | None = None) -> RateRegion:
    """Outer bound: hull of the rho-indexed rectangle corners, cut back by the
    per-user capacity caps and the strong receiver's sum-rate cap."""
    cfg = cfg if cfg is not None else SweepConfig()
    steps = cfg.rho_steps
    corners = [outer_corner(ch, i / (steps - 1)) for i in range(steps)]
    hull = frontier_hull(corners)
    if len(hull.vertices) < 3:
        return hull
    verts = [(v.r1, v.r2) for v in hull.vertices]
    cap1 = c_upper(P2pChannel(ch.peak, ch.sigma1))
    cap2 = c_upper(P2pChannel(ch.peak, ch.sigma2))
    for a, b, c in ((1.0, 0.0, cap1), (0.0, 1.0, cap2), (1.0, 1.0, cap1)):
        verts = _clip_halfplane(verts, a, b, c)
    # clipping keeps the polygon convex, so rebuilding the hull is the safe
    # way to shed duplicate and collinear vertices
    return _hull_region(verts)


def frontier_hull(points: Iterable[RatePair]) -> RateRegion:
    """Convex hull of nonnegative rate pairs, closed down to the axes.

    The point set is augmented with the origin and the axis projections
    (max r1, 0) and (0, max r2), so the hull is automatically a down-set:
    anything componentwise below a member is inside.  Collinear vertices are
    dropped; an empty input yields the single-vertex region {(0, 0)}.
    """
    unique = {(0.0, 0.0)}
    for p in points:
        unique.add((p.r1, p.r2))
    if len(unique) > 1:
        unique.add((max(x for x, _ in unique), 0.0))
        unique.add((0.0, max(y for _, y in unique)))
    return _hull_region(unique)


def region_margin(region: RateRegion, p: RatePair) -> float:
    """Signed distance of p to the region, >= 0 inside: the smallest signed
    distance to an edge's line for a polygon, minus the distance to the point
    or segment of a region with fewer than three vertices."""
    verts = [(v.r1, v.r2) for v in region.vertices]
    if len(verts) < 3:
        return -_segment_distance((p.r1, p.r2), verts[0], verts[-1])
    worst = math.inf
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = x2 - x1, y2 - y1
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            continue
        # signed area over edge length; negative means p is right of the CCW edge
        worst = min(worst, (ex * (p.r2 - y1) - ey * (p.r1 - x1)) / norm)
    return worst


def region_contains(region: RateRegion, p: RatePair, tol: float = 1e-6) -> bool:
    """Whether p lies in the region, or within distance tol of it."""
    return region_margin(region, p) >= -tol


def _hull_region(points: Iterable[tuple[float, float]]) -> RateRegion:
    """Convex hull of the points, counter-clockwise from (0, 0) when the
    origin is a vertex."""
    hull = _monotone_chain(sorted(set(points)))
    if (0.0, 0.0) in hull:
        start = hull.index((0.0, 0.0))
        hull = hull[start:] + hull[:start]
    return RateRegion(tuple(RatePair(x, y) for x, y in hull))


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns the hull counter-clockwise.  Inputs
    must be sorted and deduplicated.  Collinear points are excluded."""
    if len(pts) <= 2:
        return list(pts)
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(
    p: tuple[float, float], a: tuple[float, float], b: tuple[float, float]
) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / length_sq))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def _clip_halfplane(
    verts: list[tuple[float, float]], a: float, b: float, c: float
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a CCW polygon against a*x + b*y <= c."""
    out: list[tuple[float, float]] = []
    n = len(verts)
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        cur_in = a * cur[0] + b * cur[1] <= c
        nxt_in = a * nxt[0] + b * nxt[1] <= c
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            denom = a * (nxt[0] - cur[0]) + b * (nxt[1] - cur[1])
            t = (c - a * cur[0] - b * cur[1]) / denom
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out
