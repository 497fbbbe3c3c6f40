"""Rate-region machinery for the two-user peak-constrained Gaussian broadcast
channel.

A superposition split (k1, k2) assigns user 1 a fine sub-alphabet of k1 levels
and user 2 a coarse sub-alphabet of k2 levels whose level-wise sums tile the
composite ESDU alphabet of K = k1*k2 levels exactly.  Inner-bound points come
either from the closed-form bounds (analytic mode) or from the quadrature
oracle (exact mode); the outer bound intersects a hull of auxiliary-parameter
rectangles with per-user and sum-rate capacity caps.  Regions are convex
down-sets, polygons closed toward both axes, and frontier_hull builds every
one of them, listed counter-clockwise from (0, 0).
"""

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .esdu import EsduInput, alphabet_size, f_lower, g_upper
from .oracle import TOLERANCE, ConvergenceError, _check_tolerance, mi_discrete
from .special import every, is_integer
from .uniform import P2pChannel, c_upper

#: Spacing targets of the inner sweep, in sigma1 units: 0.5, 1, ..., 10.
DEFAULT_DELTA0_GRID = tuple(0.5 * i for i in range(1, 21))
#: Most cells split_schedule enumerates: nearly 14 times the 7,221 of the
#: default grid at 30 dB.
MAX_SWEEP_CELLS = 100_000
#: Auxiliary-parameter steps of the outer bound, rho = 0, 1/(n-1), ..., 1.
RHO_STEPS = 201
#: Most auxiliary-parameter steps of the outer bound: about 500 times
#: RHO_STEPS; its corners and hull take a few MB.
MAX_RHO_STEPS = 100_000


class SweepLimitError(ValueError):
    """A sweep that alphabet_size or the cell cap rejects; delta0 names the
    spacing target at fault, or is None for too many cells."""

    def __init__(self, message: str, delta0: float | None = None):
        super().__init__(message)
        self.delta0 = delta0


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
    """Level split (k1, k2) of a composite alphabet of k1*k2 >= 2 levels.

    k1 and k2 may be integer arrays of one shape: a batch of splits, whose
    sub-alphabets are batches of EsduInput (see esdurate.esdu).
    """

    k1: int
    k2: int

    def __post_init__(self) -> None:
        for name, value in (("k1", self.k1), ("k2", self.k2)):
            if not (is_integer(value) and every(value >= 1)):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not every(self.total_levels >= 2):
            raise ValueError("the composite alphabet needs k1*k2 >= 2 levels")

    @property
    def total_levels(self) -> int:
        return self.k1 * self.k2

    def user1_input(self, peak: float) -> EsduInput:
        """Fine sub-alphabet: k1 levels at the composite spacing."""
        span = (self.k1 - 1) * peak / (self.total_levels - 1)
        return EsduInput(span, self.k1)

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
    """Convex rate region closed toward both axes, as frontier_hull gives it.

    vertices run counter-clockwise starting at the origin: (0,0), the r1-axis
    intercept, the frontier, and finally the r2-axis intercept.  origins, when
    present, aligns with vertices and names the sweep cell behind each one
    (None for synthetic vertices such as the origin and axis projections).
    """

    vertices: tuple[RatePair, ...]
    origins: tuple[SplitOrigin | None, ...] | None = None


def analytic_inner_point(ch: BcChannel, split: SplitConfig) -> RatePair | tuple[np.ndarray, np.ndarray]:
    """Analytic superposition point of one split, or for a batch of splits
    the arrays (r1, r2) of their points in batch order, each bound called
    once for the batch.

    User 1 gets the lower bound f_lower of its sub-alphabet at sigma1; user 2
    gets f_lower of the composite alphabet at sigma2 minus the upper bound
    g_upper of user 1's sub-alphabet at sigma2 (the rate the weak receiver
    must spend decoding around user 1's signal).  Both components clamp at 0.
    """
    user1 = split.user1_input(ch.peak)
    r1 = f_lower(user1, ch.sigma1)
    # a composite is EsduInput(peak, K): one bound per distinct K, scattered back
    levels, which = np.unique(np.ravel(split.total_levels), return_inverse=True)
    composite = f_lower(EsduInput(ch.peak, levels), ch.sigma2)[which].reshape(np.shape(split.total_levels))
    return _rate_pairs(r1, composite - g_upper(user1, ch.sigma2))


def exact_inner_point(
    ch: BcChannel, split: SplitConfig, tolerance: float = TOLERANCE
) -> RatePair | tuple[np.ndarray, np.ndarray]:
    """Oracle version of analytic_inner_point, the exact rate in place of
    both bounds, for one split or a batch: one mi_discrete call on the three
    rates of each split in turn, so a shared rate is integrated once.  A
    ConvergenceError's `index` is the first split that needs a failing rate.
    """
    user1, composite = split.user1_input(ch.peak), split.composite_input(ch.peak)
    span = np.stack(np.broadcast_arrays(user1.span, composite.span, user1.span), axis=-1)
    levels = np.stack(np.broadcast_arrays(user1.levels, composite.levels, user1.levels), axis=-1)
    try:
        rates = mi_discrete(EsduInput(span, levels), np.array([ch.sigma1, ch.sigma2, ch.sigma2]), tolerance)
    except ConvergenceError as exc:
        exc.index //= 3
        raise
    return _rate_pairs(rates[..., 0], rates[..., 1] - rates[..., 2])


def _rate_pairs(r1, r2) -> RatePair | tuple[np.ndarray, np.ndarray]:
    """RatePair(max(0, r1), max(0, r2)), or for arrays of rates the arrays
    clamped the same way, broadcast to one shape."""
    if np.ndim(r1) == 0 and np.ndim(r2) == 0:
        return RatePair(max(0.0, float(r1)), max(0.0, float(r2)))
    r1, r2 = np.broadcast_arrays(r1, r2)
    # max(0.0, x) elementwise: x only where x > 0, so NaN clamps to 0 too
    return np.where(r1 > 0.0, r1, 0.0), np.where(r2 > 0.0, r2, 0.0)


def _pareto_candidates(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Indices of the points no other point beats in both rates: taken by r1
    descending (r2 descending among ties), each point whose r2 is at least
    the largest r2 before it.  A point left out lies in the rectangle below
    an earlier one, so it is inside the hull of the others with the origin
    and the axis projections, or one of those three, so frontier_hull walks
    the candidates alone."""
    order = np.lexsort((-r2, -r1))
    ranked = r2[order]
    return order[ranked >= np.maximum.accumulate(ranked)]


def split_schedule(peak: float, delta0_grid: Sequence[float], sigma1: float) -> np.ndarray:
    """The sweep cells (delta0, k1, k2): a structured array with those three
    fields, one row per cell, delta0 a float and k1, k2 int64.

    For each spacing target delta0 (in sigma1 units), the composite alphabet
    size is capped at Kmax = alphabet_size(A, delta0*sigma1); k1 runs over
    1..Kmax and k2 is the smallest count that brings the composite spacing
    down to the target, i.e. the smallest k with k1*k - 1 >= A/delta0,
    floored so that k1*k2 >= 2 (sweep_alphabet_sizes checks the targets and
    enforces the caps).  Rows run through the targets in grid order, k1
    ascending within each.
    """
    kmaxes = sweep_alphabet_sizes(peak, delta0_grid, sigma1)
    cells = np.zeros(sum(kmaxes), dtype=[("delta0", float), ("k1", np.int64), ("k2", np.int64)])
    delta0 = np.repeat(np.asarray(delta0_grid, dtype=float), kmaxes)
    k1 = np.arange(1, cells.size + 1) - np.repeat(np.cumsum(kmaxes) - kmaxes, kmaxes)
    k2 = np.maximum(np.ceil((peak / (delta0 * sigma1) + 1.0) / k1), np.where(k1 == 1, 2, 1))  # k1*k2 >= 2
    cells["delta0"], cells["k1"], cells["k2"] = delta0, k1, k2
    return cells


def sweep_alphabet_sizes(peak: float, delta0_grid: Sequence[float], sigma1: float) -> list[int]:
    """Kmax = alphabet_size(peak, delta0*sigma1) of each spacing target, its
    number of sweep cells.  Raises SweepLimitError for the first target that
    is not finite and > 0, whose product with sigma1 under- or overflows, or
    whose alphabet_size fails, or for more than MAX_SWEEP_CELLS cells in all."""
    kmaxes = []
    for delta0 in delta0_grid:
        try:
            if not (math.isfinite(delta0) and delta0 > 0.0):
                raise ValueError(f"spacing must be finite and > 0, got {delta0!r}")
            spacing = delta0 * sigma1
            if not 0.0 < spacing < math.inf:
                fault = "underflows to 0" if spacing == 0.0 else "overflows"
                raise ValueError(f"spacing {delta0:g} * sigma1 {sigma1:g} {fault} in float64")
            kmaxes.append(alphabet_size(peak, spacing))
        except ValueError as exc:
            raise SweepLimitError(str(exc), delta0) from None
    if sum(kmaxes) > MAX_SWEEP_CELLS:
        raise SweepLimitError(
            f"peak {peak:g} with this delta0 grid needs {sum(kmaxes)} sweep cells, "
            f"more than the {MAX_SWEEP_CELLS} allowed"
        )
    return kmaxes


def sweep_inner(
    ch: BcChannel,
    delta0_grid: Sequence[float] = DEFAULT_DELTA0_GRID,
    mode: Literal["analytic", "exact"] = "analytic",
    tolerance: float = TOLERANCE,
) -> RateRegion:
    """Inner-bound region: hull of the points of every sweep cell of the
    spacing targets delta0_grid (multiples of sigma1), checked even at peak 0,
    as is the tolerance in exact mode.

    The distinct (k1, k2) splits of the schedule, each split's first cell
    found by one np.unique, go in schedule order as one SplitConfig batch to
    analytic_inner_point or exact_inner_point, so each split is computed
    once, by one call per sweep; in exact mode so is each mutual information
    that several splits share.  frontier_hull walks the Pareto candidates of
    their points.  The vertex provenance records the first cell, in schedule
    order, whose split's point is the vertex.
    """
    if mode not in ("analytic", "exact"):
        raise ValueError(f"mode must be 'analytic' or 'exact', got {mode!r}")
    if mode == "exact":
        _check_tolerance(tolerance)
    cells = split_schedule(ch.peak, delta0_grid, ch.sigma1)
    if ch.peak == 0.0 or cells.size == 0:
        return frontier_hull([], [])
    # each split's first cell, in schedule order
    key = cells["k1"] * (int(cells["k2"].max()) + 1) + cells["k2"]
    splits = cells[np.sort(np.unique(key, return_index=True)[1])]
    batch = SplitConfig(splits["k1"], splits["k2"])
    if mode == "analytic":
        r1, r2 = analytic_inner_point(ch, batch)
    else:
        try:
            r1, r2 = exact_inner_point(ch, batch, tolerance)
        except ConvergenceError as exc:
            delta0, k1, k2 = splits[exc.index].tolist()
            raise ConvergenceError(
                f"split k1={k1}, k2={k2} (delta0={delta0:g}): {exc}",
                exc.previous_estimate,
                exc.last_estimate,
            ) from exc
    front = _pareto_candidates(r1, r2)
    hull = frontier_hull(r1[front], r2[front])
    # a vertex is a candidate's point, (0, 0) or (max r1, 0), and every split
    # at a candidate's point is a candidate: the first split, in schedule
    # order, at a vertex lies among the candidates and the splits at those two
    corners = np.flatnonzero((r2 == 0.0) & ((r1 == 0.0) | (r1 == r1.max())))
    pool = np.sort(np.concatenate([front, corners]))  # a split listed twice matches as once
    v1, v2 = np.array([(v.r1, v.r2) for v in hull.vertices]).T[:, :, None]
    match = (r1[pool] == v1) & (r2[pool] == v2)
    first = splits[pool[match.argmax(axis=1)]].tolist()
    origins = tuple(SplitOrigin(*o) if hit else None for o, hit in zip(first, match.any(axis=1).tolist()))
    return RateRegion(hull.vertices, origins)


@np.errstate(over="raise")
def outer_corner(ch: BcChannel, rho: float) -> RatePair | tuple[np.ndarray, np.ndarray]:
    """Corner of the outer-bound rectangle at auxiliary parameter rho, or the
    arrays (r1, r2) of the corners, in order, at an array of rho values."""
    if not every((rho >= 0.0) & (rho <= 1.0)):
        raise ValueError("rho must lie in [0, 1]")
    scaled = c_upper(P2pChannel(rho * ch.peak, ch.sigma2))
    noise_gain = (ch.sigma2 / ch.sigma1) ** 2
    r1 = 0.5 * np.log2(1.0 + noise_gain * (np.power(2.0, 2.0 * scaled) - 1.0))
    r2 = c_upper(P2pChannel(ch.peak, ch.sigma2)) - scaled
    return _rate_pairs(r1, r2)


def outer_region(ch: BcChannel, rho_steps: int = RHO_STEPS) -> RateRegion:
    """Outer bound: frontier_hull of the rectangle corners at rho_steps evenly
    spaced rho in [0, 1], cut back by the strong receiver's capacity cap on
    r1 and on r1 + r2, and hulled again.  The weak receiver's cap needs no
    cut: every corner has r2 = C2 - c_upper(rho*A, sigma2) <= C2."""
    if not 2 <= rho_steps <= MAX_RHO_STEPS:
        raise ValueError(f"rho_steps must be between 2 and {MAX_RHO_STEPS}, got {rho_steps!r}")
    verts = _hull_walk(*outer_corner(ch, np.arange(rho_steps) / (rho_steps - 1)))
    cap1 = c_upper(P2pChannel(ch.peak, ch.sigma1))
    for a, b in ((1.0, 0.0), (1.0, 1.0)):
        verts = _clip_halfplane(verts, a, b, cap1)
    # the caps cut a down-set into a down-set; its hull sheds the duplicate
    # and collinear vertices the cuts leave
    return frontier_hull(*np.reshape(verts, (-1, 2)).T)


def frontier_hull(r1, r2) -> RateRegion:
    """Convex hull of the nonnegative rate pairs (r1[i], r2[i]), closed down
    to the axes: the hull with the origin and the axis projections
    (max r1, 0) and (0, max r2), a down-set (anything componentwise below a
    member is inside).

    Its vertices run counter-clockwise from (0, 0) to (max r1, 0), along the
    Pareto candidates (see _pareto_candidates) by r1 descending, and up to
    (0, max r2).  One walk over them pops every vertex where the boundary
    does not turn left, so duplicate and collinear vertices go.  No points,
    or only the origin, give the one vertex (0, 0); points on one axis give
    the segment from (0, 0) to the farthest.
    """
    return RateRegion(tuple(RatePair(x, y) for x, y in _hull_walk(r1, r2)))


def _hull_walk(r1, r2) -> list[tuple[float, float]]:
    """The vertices of frontier_hull(r1, r2) as (r1, r2) tuples."""
    r1, r2 = np.asarray(r1, dtype=float).ravel(), np.asarray(r2, dtype=float).ravel()
    front = _pareto_candidates(r1, r2)
    chain: list[tuple[float, float]] = []
    top1, top2 = float(np.max(r1, initial=0.0)), float(np.max(r2, initial=0.0))
    for x, y in [(top1, 0.0), *zip(r1[front].tolist(), r2[front].tolist()), (0.0, top2)]:
        # pop while chain[-2], chain[-1], (x, y) do not turn left: their cross product is <= 0
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                break
            chain.pop()
        chain.append((x, y))
    # the walk meets the origin only where the region is a segment or a point
    return [(0.0, 0.0)] + [v for v in chain if v != (0.0, 0.0)]


def containment_margin(inner: RateRegion, outer: RateRegion) -> float:
    """How far inner lies inside outer: min over directions n of
    h_outer(n) - h_inner(n), h being the support function max_v n.v over a
    region's vertices, at the unit outward normals of outer's edges of
    nonzero length and at the axes (1, 0) and (0, 1).  For down-sets holding
    the origin it is at most 0, and 0 exactly when inner lies in outer."""
    a, b = (np.array([(v.r1, v.r2) for v in r.vertices]) for r in (inner, outer))
    edges = np.roll(b, -1, axis=0) - b
    keep = edges.any(axis=1)
    normals = np.vstack([edges[keep, ::-1] * (1.0, -1.0) / np.hypot(edges[keep, 0], edges[keep, 1])[:, None], np.eye(2)])
    # outer is convex: its support at an edge's normal is met at the edge's start
    # and at an axis at its farthest vertex, so only inner's vertices meet every normal
    h_outer = np.append(np.sum(normals[:-2] * b[keep], axis=1), b.max(axis=0))
    h_inner = (normals[:, :1] * a[:, 0] + normals[:, 1:] * a[:, 1]).max(axis=1)
    return float(np.min(h_outer - h_inner))


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
