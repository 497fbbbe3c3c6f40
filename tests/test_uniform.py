import math

import pytest

from esdurate.oracle import mi_uniform
from esdurate.special import db_to_amplitude_ratio
from esdurate.uniform import P2pChannel, c_lower, c_upper, e_cap

from anchors import C_LOWER_DB, C_UPPER_DB

# log-spaced peak-to-noise grid covering both bound regimes
RATIO_GRID = [10.0 ** (e / 4.0) for e in range(-8, 13)]


class TestChannelType:
    def test_accepts_zero_peak(self):
        P2pChannel(0.0, 1.0)

    @pytest.mark.parametrize("peak,sigma", [(-1.0, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -2.0), (1.0, math.nan)])
    def test_rejects_invalid(self, peak, sigma):
        with pytest.raises(ValueError):
            P2pChannel(peak, sigma)


class TestBoundValues:
    def test_reference_series(self):
        for db, (lo, hi) in enumerate(zip(C_LOWER_DB, C_UPPER_DB)):
            ch = P2pChannel(db_to_amplitude_ratio(db), 1.0)
            assert c_lower(ch) == pytest.approx(lo, abs=1e-9)
            assert c_upper(ch) == pytest.approx(hi, abs=1e-9)

    def test_zero_peak_is_zero(self):
        ch = P2pChannel(0.0, 3.0)
        assert c_lower(ch) == 0.0
        assert c_upper(ch) == 0.0
        assert e_cap(ch) == 0.0

    def test_e_cap_frozen_values(self):
        # variance branch is the smaller one at both points
        assert e_cap(P2pChannel(1.5, 1.0)) == pytest.approx(0.12396375672179274, abs=1e-12)
        assert e_cap(P2pChannel(10.0, 1.0)) == pytest.approx(1.611196210668224, abs=1e-12)


class TestBoundProperties:
    def test_sandwich_ordering(self):
        for ratio in RATIO_GRID:
            ch = P2pChannel(ratio, 1.0)
            assert c_lower(ch) <= e_cap(ch) <= c_upper(ch)

    def test_monotone_in_peak(self):
        for f in (c_lower, c_upper, e_cap):
            values = [f(P2pChannel(r, 1.0)) for r in RATIO_GRID]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_monotone_in_sigma(self):
        sigmas = [0.25, 0.5, 1.0, 2.0, 4.0]
        for f in (c_lower, c_upper, e_cap):
            values = [f(P2pChannel(3.0, s)) for s in sigmas]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_scale_invariance(self):
        for ratio in RATIO_GRID:
            for lam in (0.5, 2.0, 10.0):
                for f in (c_lower, c_upper, e_cap):
                    assert f(P2pChannel(ratio, 1.0)) == pytest.approx(
                        f(P2pChannel(lam * ratio, lam)), abs=1e-12
                    )

    def test_exact_rate_inside_sandwich(self):
        for ratio in [0.05, 0.3, 1.0, 3.0, 10.0, 40.0]:
            ch = P2pChannel(ratio, 1.0)
            rate = mi_uniform(ch, 1e-10)
            assert rate >= c_lower(ch) - 1e-6
            assert rate <= e_cap(ch) + 1e-6
