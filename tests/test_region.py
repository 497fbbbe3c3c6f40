import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from esdurate import region as region_module

from esdurate.esdu import EsduInput, f_lower
from esdurate.region import (
    BcChannel,
    RatePair,
    RateRegion,
    SplitConfig,
    SweepConfig,
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

from anchors import BC15_DELTA3_SPLIT_POINTS

# rates of 0 or at least 1e-3 keep the margin's edge products out of the
# subnormal range, where their rounding would swamp a 1e-12 tolerance
RATE = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
FRACTION = st.floats(0.0, 1.0)

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
        assert len(split_schedule(1000.0, SweepConfig().delta0_grid, 1.0)) == 7221
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

    def test_analytic_dominated_by_exact(self):
        for k1, k2 in [(2, 6), (5, 3), (12, 1), (1, 12), (3, 4)]:
            split = SplitConfig(k1, k2)
            analytic = analytic_inner_point(CH15, split)
            exact = exact_inner_point(CH15, split)
            assert analytic.r1 <= exact.r1 + 1e-6
            assert analytic.r2 <= exact.r2 + 1e-6


class TestFrontierHull:
    def test_dominated_interior_point_is_dropped(self):
        region = frontier_hull([RatePair(1, 0), RatePair(0, 1), RatePair(0.4, 0.4)])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_single_point_degenerates_to_axis_segment(self):
        region = frontier_hull([RatePair(2, 0)])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (2.0, 0.0)]

    def test_collinear_chord_point_removed(self):
        region = frontier_hull([RatePair(1, 1), RatePair(2, 0), RatePair(0, 2)])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]

    def test_empty_input(self):
        region = frontier_hull([])
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0)]

    def test_counterclockwise_convex(self):
        rng = np.random.default_rng(5)
        pts = [RatePair(x, y) for x, y in rng.uniform(0.0, 3.0, size=(60, 2))]
        region = frontier_hull(pts)
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
            region = frontier_hull([RatePair(x, y) for x, y in pts])
            mine = {(round(v.r1, 12), round(v.r2, 12)) for v in region.vertices}
            augmented = np.vstack([pts, [[0, 0], [pts[:, 0].max(), 0], [0, pts[:, 1].max()]]])
            hull = ConvexHull(augmented)
            theirs = {
                (round(float(x), 12), round(float(y), 12))
                for x, y in augmented[hull.vertices]
            }
            assert mine == theirs

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(RATE, RATE, FRACTION, FRACTION), min_size=1, max_size=30))
    def test_contains_its_inputs_and_is_a_down_set(self, rows):
        # each input (x, y) and the point (a*x, b*y) below it lie in the hull
        region = frontier_hull([RatePair(x, y) for x, y, _, _ in rows])
        for x, y, a, b in rows:
            assert region_margin(region, RatePair(x, y)) >= -1e-12
            assert region_margin(region, RatePair(a * x, b * y)) >= -1e-12


class TestRegionContains:
    POINT = RateRegion((RatePair(0.0, 0.0),))
    SEGMENT = frontier_hull([RatePair(2, 0)])
    TRIANGLE = frontier_hull([RatePair(1, 0), RatePair(0, 1)])
    SQUARE = frontier_hull([RatePair(1, 1)])

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
            # outside near a vertex: the farthest edge line, not the distance 0.5 to (1, 1)
            (SQUARE, RatePair(1.3, 1.4), -0.4),
        ],
    )
    def test_margin(self, region, p, margin):
        assert region_margin(region, p) == pytest.approx(margin, abs=1e-15)
        for tol in (0.05, 0.45):
            assert region_contains(region, p, tol) == (margin >= -tol)

    def test_origin_and_outside(self):
        region = frontier_hull([RatePair(1, 0), RatePair(0, 1)])
        assert region_contains(region, RatePair(0, 0))
        assert not region_contains(region, RatePair(2.0, 0.0))
        assert region_contains(region, RatePair(0.5, 0.5), tol=1e-6)
        assert not region_contains(region, RatePair(0.501, 0.501), tol=1e-6)

    def test_tolerance_band(self):
        region = frontier_hull([RatePair(1, 0), RatePair(0, 1)])
        assert region_contains(region, RatePair(0.5 + 4e-7, 0.5 + 4e-7), tol=1e-6)

    def test_degenerate_regions(self):
        point = RateRegion((RatePair(0.0, 0.0),))
        assert region_contains(point, RatePair(0.0, 0.0))
        assert not region_contains(point, RatePair(0.1, 0.0))
        segment = frontier_hull([RatePair(2, 0)])
        assert region_contains(segment, RatePair(1.0, 0.0))
        assert not region_contains(segment, RatePair(1.0, 0.1))


class TestSweep:
    def test_reference_frontier(self):
        cfg = SweepConfig(delta0_grid=(3.0,))
        region = sweep_inner(CH15, cfg, "analytic")
        verts = [(v.r1, v.r2) for v in region.vertices]
        for target in [(0.614593593172419, 1.84936562997861), (1.56038369189476, 1.2086163461867)]:
            assert any(
                abs(x - target[0]) <= 1e-9 and abs(y - target[1]) <= 1e-9 for x, y in verts
            )
        assert any(abs(x - 3.06182819782385) <= 1e-9 and y == 0.0 for x, y in verts)

    def test_provenance_labels(self):
        cfg = SweepConfig(delta0_grid=(3.0,))
        region = sweep_inner(CH15, cfg, "analytic")
        assert region.origins is not None
        by_vertex = dict(zip([(v.r1, v.r2) for v in region.vertices], region.origins))
        x_intercept = max(v.r1 for v in region.vertices)
        origin = by_vertex[(x_intercept, 0.0)]
        assert (origin.k1, origin.k2, origin.delta0) == (12, 1, 3.0)

    def test_zero_peak(self):
        region = sweep_inner(BcChannel(0.0, 1.0, 2.0), SweepConfig(delta0_grid=(1.0,)))
        assert [(v.r1, v.r2) for v in region.vertices] == [(0.0, 0.0)]

    def test_two_level_sweep_spans_axis_points(self):
        ch = BcChannel(3.0, 1.0, 2.0)
        region = sweep_inner(ch, SweepConfig(delta0_grid=(3.0,)), "analytic")
        expected = {
            (0.0, 0.0),
            (f_lower(EsduInput(3.0, 2), 1.0), 0.0),
            (0.0, f_lower(EsduInput(3.0, 2), 2.0)),
        }
        assert {(v.r1, v.r2) for v in region.vertices} == expected

    def test_exact_sweep_hits_oracle_intercept(self):
        cfg = SweepConfig(delta0_grid=(3.0,))
        region = sweep_inner(CH15, cfg, "exact")
        assert max(v.r1 for v in region.vertices) == pytest.approx(3.09380550736701, abs=1e-6)

    def test_exact_sweep_computes_each_rate_once(self, monkeypatch):
        cfg = SweepConfig(delta0_grid=(2.0, 3.0))
        calls = []
        inner = region_module.mi_discrete

        def counting(inp, sigma, quad):
            calls.append((tuple(inp.atoms), sigma))
            return inner(inp, sigma, quad)

        monkeypatch.setattr(region_module, "mi_discrete", counting)
        region = sweep_inner(CH15, cfg, "exact")
        assert len(calls) == len(set(calls))
        # the same vertices as splits evaluated one by one, with nothing shared
        splits = {(k1, k2) for _, k1, k2 in split_schedule(CH15.peak, cfg.delta0_grid, 1.0)}
        assert len(calls) < 3 * len(splits)
        points = [exact_inner_point(CH15, SplitConfig(k1, k2)) for k1, k2 in sorted(splits)]
        assert region.vertices == frontier_hull(points).vertices

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            sweep_inner(CH15, SweepConfig(delta0_grid=(3.0,)), "fast")


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
        cfg = SweepConfig(delta0_grid=(1.0, 3.0))
        outer = outer_region(CH15, cfg)
        for mode in ("analytic",):
            inner = sweep_inner(CH15, cfg, mode)
            assert all(region_contains(outer, v, 1e-6) for v in inner.vertices)

    def test_symmetric_channel_consistency(self):
        a = BcChannel(10.0, 1.0, 1.0)
        b = BcChannel(10.0, 1.0, 1.0)  # swapped sigmas coincide
        cfg = SweepConfig(delta0_grid=(2.0,))
        assert sweep_inner(a, cfg).vertices == sweep_inner(b, cfg).vertices
        assert outer_region(a, cfg).vertices == outer_region(b, cfg).vertices
