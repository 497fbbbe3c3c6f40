import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from esdurate import oracle

from esdurate.esdu import EsduInput, f_lower
from esdurate.oracle import ConvergenceError, DiscreteInput, mi_discrete
from esdurate.region import (
    DEFAULT_DELTA0_GRID,
    MAX_RHO_STEPS,
    BcChannel,
    RatePair,
    RateRegion,
    SplitConfig,
    SplitOrigin,
    SweepLimitError,
    _pareto_candidates,
    exact_inner_point,
    frontier_hull,
    outer_corner,
    outer_region,
    region_contains,
    region_margin,
    split_schedule,
    sweep_inner,
    analytic_inner_point,
)
from esdurate.special import db_to_amplitude_ratio
from esdurate.uniform import P2pChannel, c_upper

import scalar_reference as ref
from anchors import BC15_DELTA3_SPLIT_POINTS

# rates of 0 or at least 1e-3 keep the margin's edge products out of the
# subnormal range, where their rounding would swamp a 1e-12 tolerance
RATE = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
FRACTION = st.floats(0.0, 1.0)

# coordinates on a coarse grid give duplicates, ties in r1 and in r2, zeros
# and (with EDGE runs) collinear points, all in exact arithmetic
GRID_RATE = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
POINT = st.tuples(st.one_of(GRID_RATE, RATE), st.one_of(GRID_RATE, RATE))
# a run of points t*(x, 0) + (1 - t)*(0, y) on one chord, t on a grid
EDGE = st.tuples(GRID_RATE, GRID_RATE, st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=5))

PEAK15 = db_to_amplitude_ratio(15.0)
CH15 = BcChannel(PEAK15, 1.0, 2.0)


def schedule_k2(peak, delta0, k1):
    cells = {(c1, c2) for _, c1, c2 in split_schedule(peak, [delta0], 1.0)}
    matches = [c2 for c1, c2 in cells if c1 == k1]
    assert len(matches) == 1
    return matches[0]


class TestTypes:
    def test_channel_orders_sigmas(self):
        with pytest.raises(ValueError):
            BcChannel(1.0, 2.0, 1.0)
        BcChannel(1.0, 1.0, 1.0)  # equality allowed

    def test_split_needs_two_levels(self):
        with pytest.raises(ValueError):
            SplitConfig(1, 1)
        SplitConfig(1, 2)

    @pytest.mark.parametrize("steps", [1, MAX_RHO_STEPS + 1, 10**8])
    def test_rho_steps_are_bounded(self, monkeypatch, steps):
        corners = []  # the rho grid sizes the outer bound asked for
        monkeypatch.setattr("esdurate.region.outer_corner", lambda ch, rho: corners.append(rho.size) or (np.empty(0), np.empty(0)))
        outer_region(CH15, MAX_RHO_STEPS)
        assert corners == [MAX_RHO_STEPS]
        with pytest.raises(ValueError, match=f"rho_steps must be between 2 and {MAX_RHO_STEPS}, got {steps}"):
            outer_region(CH15, steps)
        assert corners == [MAX_RHO_STEPS]  # rejected before any corner

    def test_rate_pair_nonnegative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.0)

    def test_sub_alphabets_tile_the_composite(self):
        for k1, k2 in [(2, 6), (5, 3), (3, 4), (4, 1), (1, 7), (6, 2)]:
            split = SplitConfig(k1, k2)
            sums = sorted(
                a + b
                for a in split.user1_input(PEAK15).atoms()
                for b in split.user2_input(PEAK15).atoms()
            )
            composite = split.composite_input(PEAK15).atoms()
            assert len(sums) == len(composite)
            assert max(abs(x - y) for x, y in zip(sums, composite)) <= 1e-12


class TestSchedule:
    def test_smallest_sufficient_k2(self):
        # peak/delta0 = 10.54...: the counts the frontier sweep must pick
        assert schedule_k2(PEAK15, 3.0, 1) == 12
        assert schedule_k2(PEAK15, 3.0, 2) == 6
        assert schedule_k2(PEAK15, 3.0, 5) == 3
        assert schedule_k2(PEAK15, 3.0, 12) == 1

    def test_k1_range(self):
        cells = split_schedule(PEAK15, [3.0], 1.0)
        assert [k1 for _, k1, _ in cells] == list(range(1, 13))

    def test_alphabet_cap_is_a_value_error(self):
        with pytest.raises(ValueError, match="levels"):
            split_schedule(1000.0, [1e-9], 1.0)

    def test_cell_cap_is_a_value_error(self):
        # the default grid at 30 dB, the largest sweep in use, stays within the cap
        assert len(split_schedule(1000.0, DEFAULT_DELTA0_GRID, 1.0)) == 7221
        with pytest.raises(ValueError, match="sweep cells"):
            split_schedule(1000.0, [0.02 * i for i in range(1, 101)], 1.0)

    def test_spacing_goal_met_minimally(self):
        for delta0 in (0.5, 2.0, 7.0):
            for _, k1, k2 in split_schedule(PEAK15, [delta0], 1.0):
                assert k1 * k2 >= 2
                # the composite spacing reaches the target...
                assert k1 * k2 - 1 >= PEAK15 / delta0 - 1e-9
                if k2 > 1 and k1 * (k2 - 1) >= 2:
                    # ...and one fewer k2 would miss it
                    assert k1 * (k2 - 1) - 1 < PEAK15 / delta0


class TestInnerPoints:
    def test_reference_split_points(self):
        for k1, r1, r2 in BC15_DELTA3_SPLIT_POINTS:
            k2 = schedule_k2(PEAK15, 3.0, k1)
            pt = analytic_inner_point(CH15, SplitConfig(k1, k2))
            assert pt.r1 == pytest.approx(r1, abs=1e-9)
            assert pt.r2 == pytest.approx(r2, abs=1e-9)

    def test_silent_user1(self):
        pt = analytic_inner_point(CH15, SplitConfig(1, 12))
        assert pt.r1 == 0.0
        assert pt.r2 == pytest.approx(f_lower(EsduInput(PEAK15, 12), 2.0), abs=1e-12)

    def test_silent_user2_clamps(self):
        pt = analytic_inner_point(CH15, SplitConfig(12, 1))
        assert pt.r2 == 0.0
        assert pt.r1 == pytest.approx(f_lower(EsduInput(PEAK15, 12), 1.0), abs=1e-12)

    def test_exact_point_reference(self):
        pt = exact_inner_point(CH15, SplitConfig(2, 6))
        assert pt.r1 == pytest.approx(0.732240818641114, abs=1e-6)
        assert pt.r2 == pytest.approx(1.90067863707386, abs=1e-6)

    def test_exact_point_silent_users(self):
        silent1 = exact_inner_point(CH15, SplitConfig(1, 5))
        assert silent1.r1 <= 1e-10  # quadrature residual of a one-atom input
        silent2 = exact_inner_point(CH15, SplitConfig(5, 1))
        assert silent2.r2 == 0.0  # identical integrals cancel exactly

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(0.5, 60.0), st.integers(2, 40), st.floats(0.3, 4.0))
    def test_normalized_rate_matches_the_direct_rate(self, peak, levels, sigma):
        # with k2 = 1, r1 is the rate of EsduInput(peak, levels) at sigma1,
        # taken from EsduInput(levels - 1, levels) at sigma*(levels - 1)/peak
        point = exact_inner_point(BcChannel(peak, sigma, sigma), SplitConfig(levels, 1))
        direct = mi_discrete(DiscreteInput.from_esdu(EsduInput(peak, levels)), sigma)
        assert point.r1 == pytest.approx(direct, abs=1e-12)
        # the composite is user 1's alphabet again, its span perhaps an ulp off
        assert point.r2 == pytest.approx(0.0, abs=1e-12)

    def test_rates_go_to_the_oracle_per_alphabet_size(self, monkeypatch):
        calls = []
        inner = oracle._mi_lockstep

        def recording(inputs, sigmas, tolerance, mirrored):
            calls.append([(inp.atoms.tolist(), s) for inp, s in zip(inputs, sigmas.tolist())])
            return inner(inputs, sigmas, tolerance, mirrored)

        monkeypatch.setattr(oracle, "_mi_lockstep", recording)
        exact_inner_point(CH15, SplitConfig(np.array([3, 2, 3]), np.array([4, 6, 5])))
        assert len(calls) == 1  # one lockstep call holds every alphabet size
        by_size = {}
        for atoms, sigma in calls[0]:
            by_size.setdefault(len(atoms), []).append(sigma)
        # K = 3 (splits 0 and 2, at sigma1 then sigma2), K = 12 (one composite
        # rate shared by splits 0 and 1), K = 2, K = 15; atoms 0..K-1
        assert [(k, len(sigmas)) for k, sigmas in by_size.items()] == [(3, 4), (12, 1), (2, 2), (15, 1)]
        assert all(atoms == list(range(len(atoms))) for atoms, _ in calls[0])
        assert by_size[3] == [CH15.sigma1 * 2 / (2 * CH15.peak / 11), 2 * 2 / (2 * CH15.peak / 11),
                              CH15.sigma1 * 2 / (2 * CH15.peak / 14), 2 * 2 / (2 * CH15.peak / 14)]
        assert len(calls[0]) == 8  # each distinct rate once

    def test_batch_names_the_first_split_that_needs_a_failing_rate(self, monkeypatch):
        inner = oracle._mi_lockstep

        def failing(inputs, sigmas, tolerance, mirrored):
            # K = 3 fails at its third rate (split 2 at sigma1); K = 2 at its
            # first (split 1 at sigma1), though K = 3 goes to the oracle first;
            # the lockstep call reports the first failing element it holds
            seen = {}
            for j, inp in enumerate(inputs):
                k = inp.atoms.size
                seen[k] = seen.get(k, -1) + 1
                if {3: 2, 2: 0}.get(k) == seen[k]:
                    raise ConvergenceError(f"K={k} did not settle", 0.1, 0.2, index=j)
            return inner(inputs, sigmas, tolerance, mirrored)

        monkeypatch.setattr(oracle, "_mi_lockstep", failing)
        with pytest.raises(ConvergenceError, match="^K=2 did not settle") as err:
            exact_inner_point(CH15, SplitConfig(np.array([3, 2, 3]), np.array([4, 6, 5])))
        assert err.value.index == 1  # split (2, 6)
        with pytest.raises(ConvergenceError, match="^K=3 did not settle") as err:
            exact_inner_point(CH15, SplitConfig(np.array([3, 3]), np.array([4, 5])))
        assert err.value.index == 1  # split (3, 5)

    def test_analytic_dominated_by_exact(self):
        for k1, k2 in [(2, 6), (5, 3), (12, 1), (1, 12), (3, 4)]:
            split = SplitConfig(k1, k2)
            analytic = analytic_inner_point(CH15, split)
            exact = exact_inner_point(CH15, split)
            assert analytic.r1 <= exact.r1 + 1e-6
            assert analytic.r2 <= exact.r2 + 1e-6


class TestFrontierHull:
    def test_dominated_interior_point_is_dropped(self):
        region = frontier_hull([1, 0, 0.4], [0, 1, 0.4])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_single_point_degenerates_to_axis_segment(self):
        region = frontier_hull([2], [0])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (2.0, 0.0)]

    def test_collinear_chord_point_removed(self):
        region = frontier_hull([1, 2, 0], [1, 0, 2])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]

    def test_empty_input(self):
        region = frontier_hull([], [])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0)]

    def test_counterclockwise_convex(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 3.0, size=(60, 2))
        region = frontier_hull(pts[:, 0], pts[:, 1])
        verts = [(v.r1, v.r2) for v in region.vertices]
        n = len(verts)
        for i in range(n):
            o, a, b = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0.0  # strict turns only: collinear vertices removed

    def test_matches_qhull(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.uniform(0.0, 5.0, size=(rng.integers(3, 40), 2))
            region = frontier_hull(pts[:, 0], pts[:, 1])
            mine = {(round(v.r1, 12), round(v.r2, 12)) for v in region.vertices}
            augmented = np.vstack([pts, [[0, 0], [pts[:, 0].max(), 0], [0, pts[:, 1].max()]]])
            hull = ConvexHull(augmented)
            theirs = {
                (round(float(x), 12), round(float(y), 12))
                for x, y in augmented[hull.vertices]
            }
            assert mine == theirs

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(POINT, max_size=40), st.lists(EDGE, max_size=3))
    def test_pareto_candidates_give_the_same_hull(self, points, edges):
        for x, y, ts in edges:
            points = points + [(t * x, (1.0 - t) * y) for t in ts]
        r1, r2 = (np.array([p[i] for p in points], dtype=float) for i in (0, 1))
        front = _pareto_candidates(r1, r2)
        # every point left out has a candidate at or above it in both rates
        for i in sorted(set(range(len(points))) - set(front.tolist())):
            assert any(r1[j] >= r1[i] and r2[j] >= r2[i] for j in front)
        everything = frontier_hull(r1, r2)
        assert frontier_hull(r1[front], r2[front]).vertices == everything.vertices

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(POINT, max_size=40), st.lists(EDGE, max_size=3))
    def test_matches_the_general_hull(self, points, edges):
        # vertex for vertex, in order, the monotone chain over every point
        for x, y, ts in edges:
            points = points + [(t * x, (1.0 - t) * y) for t in ts]
        region = frontier_hull([x for x, _ in points], [y for _, y in points])
        assert [(v.r1, v.r2) for v in region.vertices] == ref.frontier_hull(points)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(RATE, RATE, FRACTION, FRACTION), min_size=1, max_size=30))
    def test_contains_its_inputs_and_is_a_down_set(self, rows):
        # each input (x, y) and the point (a*x, b*y) below it lie in the hull
        region = frontier_hull([x for x, _, _, _ in rows], [y for _, y, _, _ in rows])
        for x, y, a, b in rows:
            assert region_margin(region, RatePair(x, y)) >= -1e-12
            assert region_margin(region, RatePair(a * x, b * y)) >= -1e-12


class TestRegionContains:
    POINT = RateRegion((RatePair(0.0, 0.0),))
    SEGMENT = frontier_hull([2], [0])
    TRIANGLE = frontier_hull([1, 0], [0, 1])
    SQUARE = frontier_hull([1], [1])
    # a 5.7 degree vertex at (1, 0)
    ACUTE = frontier_hull([1, 0], [0, 0.1])

    @pytest.mark.parametrize(
        "region,p,margin",
        [
            (POINT, RatePair(0.0, 0.0), 0.0),
            (POINT, RatePair(0.3, 0.4), -0.5),
            (SEGMENT, RatePair(1.0, 0.0), 0.0),
            (SEGMENT, RatePair(1.0, 0.1), -0.1),
            (SEGMENT, RatePair(3.0, 0.0), -1.0),
            (TRIANGLE, RatePair(0.25, 0.25), 0.25),
            (TRIANGLE, RatePair(0.6, 0.6), -0.2 / math.sqrt(2.0)),
            # outside near a vertex: 0.5 from (1, 1), though only 0.4 past
            # the farthest edge line
            (SQUARE, RatePair(1.3, 1.4), -0.5),
            # 1 past an acute vertex, though only 0.0995 past the farthest edge line
            (ACUTE, RatePair(2.0, 0.0), -1.0),
            (ACUTE, RatePair(0.5, 0.02), 0.02),
        ],
    )
    def test_margin(self, region, p, margin):
        assert region_margin(region, p) == pytest.approx(margin, abs=1e-15)
        for tol in (0.05, 0.45):
            assert region_contains(region, p, tol) == (margin >= -tol)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(RATE, RATE), min_size=1, max_size=12),
        st.floats(0.0, 12.0),
        st.floats(0.0, 12.0),
    )
    def test_outside_margin_is_minus_the_distance(self, rows, x, y):
        region = frontier_hull([a for a, _ in rows], [b for _, b in rows])
        verts = np.array([(v.r1, v.r2) for v in region.vertices])
        p = np.array([x, y])
        if len(verts) >= 3:
            hull = ConvexHull(verts)
            assume(np.max(hull.equations[:, :2] @ p + hull.equations[:, 2]) > 1e-9)
        # brute force: the nearest of the vertices and of the feet of the
        # perpendiculars that land inside their edges
        candidates = list(verts)
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            d = b - a
            if d @ d > 0.0:
                t = (p - a) @ d / (d @ d)
                if 0.0 <= t <= 1.0:
                    candidates.append(a + t * d)
        distance = min(math.hypot(*(p - c)) for c in candidates)
        assert region_margin(region, RatePair(x, y)) == pytest.approx(-distance, rel=1e-12, abs=1e-12)

    def test_origin_and_outside(self):
        region = frontier_hull([1, 0], [0, 1])
        assert region_contains(region, RatePair(0, 0))
        assert not region_contains(region, RatePair(2.0, 0.0))
        assert region_contains(region, RatePair(0.5, 0.5), tol=1e-6)
        assert not region_contains(region, RatePair(0.501, 0.501), tol=1e-6)

    def test_tolerance_band(self):
        region = frontier_hull([1, 0], [0, 1])
        assert region_contains(region, RatePair(0.5 + 4e-7, 0.5 + 4e-7), tol=1e-6)

    def test_degenerate_regions(self):
        point = RateRegion((RatePair(0.0, 0.0),))
        assert region_contains(point, RatePair(0.0, 0.0))
        assert not region_contains(point, RatePair(0.1, 0.0))
        segment = frontier_hull([2], [0])
        assert region_contains(segment, RatePair(1.0, 0.0))
        assert not region_contains(segment, RatePair(1.0, 0.1))


class TestSweep:
    def test_reference_frontier(self):
        region = sweep_inner(CH15, (3.0,), "analytic")
        verts = [(v.r1, v.r2) for v in region.vertices]
        for target in [(0.614593593172419, 1.84936562997861), (1.56038369189476, 1.2086163461867)]:
            assert any(
                abs(x - target[0]) <= 1e-9 and abs(y - target[1]) <= 1e-9 for x, y in verts
            )
        assert any(abs(x - 3.06182819782385) <= 1e-9 and y == 0.0 for x, y in verts)

    def test_provenance_labels(self):
        region = sweep_inner(CH15, (3.0,), "analytic")
        assert region.origins is not None
        by_vertex = dict(zip([(v.r1, v.r2) for v in region.vertices], region.origins))
        x_intercept = max(v.r1 for v in region.vertices)
        origin = by_vertex[(x_intercept, 0.0)]
        assert (origin.k1, origin.k2, origin.delta0) == (12, 1, 3.0)

    def test_zero_peak(self):
        region = sweep_inner(BcChannel(0.0, 1.0, 2.0), (1.0,))
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0)]

    @pytest.mark.parametrize("peak", [0.0, PEAK15])
    @pytest.mark.parametrize("tolerance", [0.0, math.nan])
    def test_exact_mode_checks_the_tolerance_at_any_peak(self, peak, tolerance):
        with pytest.raises(ValueError, match=r"^absolute_tolerance must be finite and > 0$"):
            sweep_inner(BcChannel(peak, 1.0, 2.0), (1.0,), "exact", tolerance)

    def test_spacing_target_is_checked_before_scaling(self):
        # the entry itself is named, not its product with sigma1
        with pytest.raises(SweepLimitError, match=r"spacing must be finite and > 0, got -1\.0$") as err:
            sweep_inner(BcChannel(PEAK15, 2.0, 4.0), (1.0, -1.0))
        assert err.value.delta0 == -1.0
        for sigma1, delta0, fault in ((1e-300, 1e-30, "underflows to 0"), (1e10, 1e300, "overflows")):
            with pytest.raises(SweepLimitError, match=fault) as err:
                split_schedule(sigma1, (1.0, delta0), sigma1)
            assert err.value.delta0 == delta0

    @pytest.mark.parametrize("peak", [0.0, PEAK15])
    @pytest.mark.parametrize("delta0", [0.0, -1.0])
    def test_rejects_a_non_positive_spacing_target(self, peak, delta0):
        # checked by the schedule, so at peak 0 too, and naming the entry
        with pytest.raises(SweepLimitError, match="spacing must be finite and > 0") as err:
            sweep_inner(BcChannel(peak, 1.0, 2.0), (1.0, delta0), "exact")
        assert err.value.delta0 == delta0

    def test_integer_grid_gives_float_origins(self):
        region = sweep_inner(CH15, (3,))
        origins = [o for o in region.origins if o is not None]
        assert origins and all(type(o.delta0) is float for o in origins)
        assert region == sweep_inner(CH15, (3.0,))

    def test_two_level_sweep_spans_axis_points(self):
        ch = BcChannel(3.0, 1.0, 2.0)
        region = sweep_inner(ch, (3.0,), "analytic")
        expected = {
            (0.0, 0.0),
            (f_lower(EsduInput(3.0, 2), 1.0), 0.0),
            (0.0, f_lower(EsduInput(3.0, 2), 2.0)),
        }
        assert {(v.r1, v.r2) for v in region.vertices} == expected

    def test_exact_sweep_hits_oracle_intercept(self):
        region = sweep_inner(CH15, (3.0,), "exact")
        assert max(v.r1 for v in region.vertices) == pytest.approx(3.09380550736701, abs=1e-6)

    def test_exact_sweep_computes_each_rate_once(self, monkeypatch):
        grid = (2.0, 3.0)
        calls = []
        inner = oracle._mi_lockstep

        def counting(inputs, sigmas, tolerance, mirrored):
            calls.extend((tuple(inp.atoms), s) for inp, s in zip(inputs, sigmas.tolist()))
            return inner(inputs, sigmas, tolerance, mirrored)

        monkeypatch.setattr(oracle, "_mi_lockstep", counting)
        region = sweep_inner(CH15, grid, "exact")
        assert calls  # the sweep's rates pass the recorded seam
        assert len(calls) == len(set(calls))
        # the same vertices as splits evaluated one by one, with nothing shared
        splits = {(k1, k2) for _, k1, k2 in split_schedule(CH15.peak, grid, 1.0)}
        assert len(calls) < 3 * len(splits)
        points = [exact_inner_point(CH15, SplitConfig(k1, k2)) for k1, k2 in sorted(splits)]
        assert region.vertices == frontier_hull([p.r1 for p in points], [p.r2 for p in points]).vertices

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            sweep_inner(CH15, (3.0,), "fast")

    # at 20 dB, sigma2/sigma1 = 1.5, many splits share a composite alphabet size K
    @pytest.mark.parametrize("db,ratio", [(15.0, 2.0), (15.0, 10.0), (20.0, 1.5), (30.0, 2.0), (30.0, 10.0)])
    def test_analytic_sweep_matches_split_by_split(self, db, ratio):
        ch = BcChannel(db_to_amplitude_ratio(db), 1.0, ratio)
        points, first_origin = [], {}
        point_of = {}
        for delta0, k1, k2 in split_schedule(ch.peak, DEFAULT_DELTA0_GRID, 1.0):
            if (k1, k2) not in point_of:
                point_of[(k1, k2)] = analytic_inner_point(ch, SplitConfig(k1, k2))
            point = point_of[(k1, k2)]
            points.append(point)
            first_origin.setdefault((point.r1, point.r2), SplitOrigin(delta0, k1, k2))
        hull = frontier_hull([p.r1 for p in points], [p.r2 for p in points])
        region = sweep_inner(ch)
        assert region.vertices == hull.vertices
        assert region.origins == tuple(first_origin.get((v.r1, v.r2)) for v in hull.vertices)

    def test_batch_of_splits_gives_each_split_point_in_order(self):
        k1, k2 = np.array([3, 1, 12, 2, 3]), np.array([4, 12, 1, 6, 4])
        batch = SplitConfig(k1, k2)
        for point_fn in (analytic_inner_point, exact_inner_point):
            r1, r2 = point_fn(CH15, batch)  # a batch gives the arrays of its rates
            points = [RatePair(a, b) for a, b in zip(r1.tolist(), r2.tolist())]
            assert points == [point_fn(CH15, SplitConfig(a, b)) for a, b in zip(k1.tolist(), k2.tolist())]

    def test_exact_sweep_names_the_split_that_fails(self, monkeypatch):
        inner = oracle._mi_lockstep
        # the rates of user 1's 5-level alphabets at sigma1, normalized to
        # atoms 0..4: splits (5, 3) at delta0 = 3 and (5, 1) at delta0 = 2
        at_sigma1 = {4.0 / SplitConfig(5, k2).user1_input(CH15.peak).span for k2 in (3, 1)}

        def failing(inputs, sigmas, tolerance, mirrored):
            pairs = zip(inputs, sigmas.tolist())
            bad = [j for j, (inp, s) in enumerate(pairs) if inp.atoms.size == 5 and s in at_sigma1]
            if bad:
                raise ConvergenceError("did not settle", 0.1, 0.2, index=bad[0])
            return inner(inputs, sigmas, tolerance, mirrored)

        monkeypatch.setattr(oracle, "_mi_lockstep", failing)
        with pytest.raises(ConvergenceError, match=r"^split k1=5, k2=3 \(delta0=3\): did not settle") as err:
            sweep_inner(CH15, (3.0, 2.0), "exact")
        assert (err.value.previous_estimate, err.value.last_estimate) == (0.1, 0.2)

    def test_exact_sweep_memory(self):
        # the largest bc-exact channel: 539 cells, 840 distinct rates in one
        # lockstep call of rounds of at most 2,048 panels, 562 density calls
        # of at most 49,335 (node, atom) pairs; traced peak 2.8 MB (4.3 MB
        # with every first-round panel in one round)
        ch = BcChannel(db_to_amplitude_ratio(18.5), 1.0, 10.0)
        sweep_inner(ch, mode="exact")
        tracemalloc.start()
        try:
            sweep_inner(ch, mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_analytic_sweep_memory(self):
        # 7,221 cells and 4,842 splits at 30 dB; an N x d matrix of the f3
        # terms alone would be 4,842 x 487 float64 values, 19 MB
        ch = BcChannel(db_to_amplitude_ratio(30.0), 1.0, 10.0)
        assert len(split_schedule(ch.peak, DEFAULT_DELTA0_GRID, 1.0)) == 7221
        sweep_inner(ch)
        tracemalloc.start()
        try:
            sweep_inner(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestOuterRegion:
    def test_corner_endpoints(self):
        zero = outer_corner(CH15, 0.0)
        assert zero.r1 == 0.0
        assert zero.r2 == pytest.approx(c_upper(P2pChannel(PEAK15, 2.0)), abs=1e-12)
        one = outer_corner(CH15, 1.0)
        assert one.r1 == pytest.approx(3.2471836120228055, abs=1e-9)
        assert one.r2 == 0.0

    def test_sum_rate_cap_is_active(self):
        region = outer_region(CH15)
        cap = c_upper(P2pChannel(PEAK15, 1.0))
        assert cap == pytest.approx(3.11299800861738, abs=1e-9)
        sums = [v.r1 + v.r2 for v in region.vertices]
        assert max(sums) <= cap + 1e-9
        assert any(abs(s - cap) <= 1e-9 for s in sums)
        assert max(v.r1 for v in region.vertices) == pytest.approx(cap, abs=1e-9)

    def test_r2_capped_by_weak_link(self):
        region = outer_region(CH15)
        cap2 = c_upper(P2pChannel(PEAK15, 2.0))
        assert max(v.r2 for v in region.vertices) == pytest.approx(cap2, abs=1e-9)

    def test_inner_regions_contained(self):
        outer = outer_region(CH15)
        for mode in ("analytic",):
            inner = sweep_inner(CH15, (1.0, 3.0), mode)
            assert all(region_contains(outer, v, 1e-6) for v in inner.vertices)

    def test_symmetric_channel_consistency(self):
        a = BcChannel(10.0, 1.0, 1.0)
        b = BcChannel(10.0, 1.0, 1.0)  # swapped sigmas coincide
        assert sweep_inner(a, (2.0,)).vertices == sweep_inner(b, (2.0,)).vertices
        assert outer_region(a).vertices == outer_region(b).vertices
