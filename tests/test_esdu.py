import math

import numpy as np
import pytest

from esdurate import esdu
from esdurate.esdu import (
    MAX_LEVELS,
    EsduInput,
    alphabet_size,
    f1,
    f2,
    f3,
    f_lower,
    g_prime,
    g_upper,
    owb,
    xi,
)
from esdurate.oracle import mi_discrete
from esdurate.special import db_to_amplitude_ratio

from anchors import F_LOWER_HALF_SIGMA_DB, G_UPPER_HALF_SIGMA_DB
from scalar_reference import brute_f3

SPAN5 = 4.0 * 10.0 ** 1.5 / 14.0  # user-1 span of the (k1=5, k2=3) split at 15 dB


def swept_levels(peak: float, delta0: float) -> int:
    return max(2, math.ceil(peak / delta0) + 1)


class TestEsduInput:
    def test_atoms_and_spacing(self):
        inp = EsduInput(2.0, 5)
        assert inp.atoms() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert inp.spacing == 0.5

    def test_single_level(self):
        inp = EsduInput(0.0, 1)
        assert inp.atoms() == [0.0]
        with pytest.raises(ValueError):
            _ = inp.spacing

    @pytest.mark.parametrize("span,levels", [(1.0, 1), (-0.5, 3), (math.inf, 2), (1.0, 0)])
    def test_rejects_invalid(self, span, levels):
        with pytest.raises(ValueError):
            EsduInput(span, levels)

    @pytest.mark.parametrize("integer", [np.int32, np.int64])
    def test_numpy_integer_levels_give_the_numbers_of_an_int(self, integer):
        # iterating np.arange gives numpy integers
        for span, levels in [(10.0, 21), (3.0, 2), (50.0, 7)]:
            inp, same = EsduInput(span, levels), EsduInput(span, integer(levels))
            for rate in (f_lower, g_upper, f3, owb, mi_discrete):
                assert rate(same, 1.0) == rate(inp, 1.0)
        with pytest.raises(ValueError, match="levels must be an integer >= 1"):
            EsduInput(1.0, integer(0))


class TestAlphabetSize:
    @pytest.mark.parametrize("peak,spacing", [(0.0, 0.5), (0.3, 1.0), (10.0, 0.5), (1000.0, 0.5), (31.6, 3.0)])
    def test_matches_swept_levels(self, peak, spacing):
        assert alphabet_size(peak, spacing) == swept_levels(peak, spacing)

    def test_cap(self):
        assert alphabet_size(MAX_LEVELS - 1.0, 1.0) == MAX_LEVELS
        with pytest.raises(ValueError, match="levels"):
            alphabet_size(MAX_LEVELS - 0.5, 1.0)
        with pytest.raises(ValueError, match="levels"):
            alphabet_size(1e300, 1e-300)

    @pytest.mark.parametrize(
        "peak,spacing,name",
        [(math.nan, 1.0, "peak"), (-1.0, 1.0, "peak"), (math.inf, 1.0, "peak"),
         (1.0, 0.0, "spacing"), (1.0, -1.0, "spacing"), (1.0, math.nan, "spacing")],
    )
    def test_rejects_invalid(self, peak, spacing, name):
        with pytest.raises(ValueError, match=name):
            alphabet_size(peak, spacing)


class TestErrorProbability:
    def test_frozen_values(self):
        assert xi(EsduInput(1.0, 3), 1.0) == pytest.approx(0.5350582324227684, abs=1e-12)
        assert xi(EsduInput(2.8748, 2), 1.0) == pytest.approx(0.07530218440237632, abs=1e-12)

    def test_far_apart_levels_never_confused(self):
        assert xi(EsduInput(1e6, 2), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            xi(EsduInput(0.0, 1), 1.0)


class TestLowerBounds:
    def test_f1_frozen(self):
        assert f1(EsduInput(1.0, 3), 1.0) == pytest.approx(0.05345355414133901, abs=1e-12)
        assert f1(EsduInput(2.8748, 2), 1.0) == pytest.approx(0.6145941395777402, abs=1e-12)

    def test_f1_saturates_at_full_bit(self):
        assert f1(EsduInput(1e6, 2), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_f2_reference_point(self):
        assert f2(EsduInput(1.0, 3), 1.0) == pytest.approx(0.0743957727703369, abs=1e-9)

    def test_f2_frozen(self):
        assert f2(EsduInput(11.2938, 5), 1.0) == pytest.approx(1.4641359692945604, abs=1e-12)

    def test_f2_vanishes_at_zero_span(self):
        assert f2(EsduInput(0.0, 2), 1.0) == 0.0

    @pytest.mark.parametrize(
        "span,levels,sigma",
        [(1.0, 3, 1.0), (31.6228, 12, 2.0), (SPAN5, 5, 1.0), (0.3, 8, 0.7), (50.0, 4, 1.0)],
    )
    def test_f3_matches_brute_double_sum(self, span, levels, sigma):
        assert f3(EsduInput(span, levels), sigma) == pytest.approx(
            brute_f3(span, levels, sigma), abs=1e-12
        )

    def test_f3_frozen(self):
        assert f3(EsduInput(1.0, 3), 1.0) == pytest.approx(-0.10718282045948337, abs=1e-12)
        assert f3(EsduInput(31.6228, 12), 2.0) == pytest.approx(2.1497531233324296, abs=1e-11)
        assert f3(EsduInput(SPAN5, 5), 1.0) == pytest.approx(1.5603836918947604, abs=1e-12)

    def test_f_lower_reference_points(self):
        assert f_lower(EsduInput(1.0, 3), 1.0) == pytest.approx(0.0743957727703369, abs=1e-9)
        assert f_lower(EsduInput(10.0 ** 1.5, 12), 1.0) == pytest.approx(3.06182819782385, abs=1e-6)

    def test_f_lower_reference_series(self):
        for db, expected in enumerate(F_LOWER_HALF_SIGMA_DB):
            peak = db_to_amplitude_ratio(db)
            inp = EsduInput(peak, swept_levels(peak, 0.5))
            assert f_lower(inp, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_f_lower_degenerate(self):
        assert f_lower(EsduInput(0.0, 1), 1.0) == 0.0
        assert f_lower(EsduInput(0.0, 4), 1.0) == 0.0

    def test_f_lower_never_negative_nor_above_entropy(self):
        for db in range(0, 21, 2):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 3, 5, 8, 13, 21):
                value = f_lower(EsduInput(peak, levels), 1.0)
                assert 0.0 <= value <= math.log2(levels) + 1e-12


class TestOwb:
    def test_frozen_values(self):
        assert owb(EsduInput(1.0, 3), 1.0) == pytest.approx(-1.477006756156511, abs=1e-12)
        assert owb(EsduInput(10.0, 3), 1.0) == pytest.approx(1.0475495779739807, abs=1e-12)

    def test_wide_span_limit(self):
        # third term vanishes, leaving log2(K) - 0.5*log2(2*pi*e/12)
        assert owb(EsduInput(1e9, 3), 1.0) == pytest.approx(1.3303481659010932, abs=1e-9)

    def test_dominated_by_f_lower(self):
        for db in range(0, 21):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 3, 5, 8, 13, 21):
                inp = EsduInput(peak, levels)
                assert f_lower(inp, 1.0) >= owb(inp, 1.0) - 1e-9

    def test_requires_positive_span(self):
        with pytest.raises(ValueError):
            owb(EsduInput(0.0, 2), 1.0)


class TestUpperBounds:
    def test_g_prime_frozen(self):
        assert g_prime(EsduInput(1.0, 3), 1.0) == pytest.approx(0.11501697069696631, abs=1e-12)
        assert g_prime(EsduInput(2.8748, 2), 2.0) == pytest.approx(0.3243410181463122, abs=1e-12)

    def test_g_prime_zero_span(self):
        assert g_prime(EsduInput(0.0, 2), 1.0) == 0.0

    def test_g_prime_raises_on_a_degenerate_argument_naming_the_element(self, monkeypatch):
        # no true e_cap makes the log argument nonpositive: a stand-in that
        # gives 2^(2*e_cap) = 0 above a widened peak of 2 breaks the invariant
        monkeypatch.setattr(esdu, "e_cap", lambda ch: np.where(np.asarray(ch.peak) > 2.0, -np.inf, 1.0))
        assert g_prime(EsduInput(1.0, 3), 1.0) > 0.0
        with pytest.raises(ArithmeticError, match=r"log argument -0\.0.* for span=2\.0, levels=3, sigma=1\.0"):
            g_prime(EsduInput(np.array([1.0, 2.0]), 3), 1.0)

    def test_g_upper_reference_points(self):
        assert g_upper(EsduInput(1.0, 3), 1.0) == pytest.approx(0.115016970696966, abs=1e-9)
        assert g_upper(EsduInput(10.0, 21), 1.0) == pytest.approx(1.67332689560707, abs=1e-6)
        assert g_upper(EsduInput(2.8748, 2), 2.0) == pytest.approx(0.30038687136695413, abs=1e-12)

    def test_g_upper_reference_series(self):
        for db, expected in enumerate(G_UPPER_HALF_SIGMA_DB):
            peak = db_to_amplitude_ratio(db)
            inp = EsduInput(peak, swept_levels(peak, 0.5))
            assert g_upper(inp, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_g_upper_degenerate_and_caps(self):
        assert g_upper(EsduInput(0.0, 1), 1.0) == 0.0
        assert g_upper(EsduInput(0.0, 5), 1.0) == 0.0
        for db in range(0, 21, 4):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 5, 13):
                value = g_upper(EsduInput(peak, levels), 1.0)
                assert 0.0 <= value <= math.log2(levels) + 1e-12


class TestBoundRelations:
    def test_scale_invariance(self):
        for db in (0, 7, 14, 20):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 5, 13):
                inp = EsduInput(peak, levels)
                for lam in (0.5, 2.0, 10.0):
                    scaled = EsduInput(lam * peak, levels)
                    for f in (f1, f2, f3, f_lower, owb, g_prime, g_upper):
                        assert f(inp, 1.0) == pytest.approx(f(scaled, lam), abs=1e-12)

    def test_sandwich_against_exact_rate(self):
        for db in range(0, 21):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 3, 5, 8, 13, 21):
                inp = EsduInput(peak, levels)
                rate = mi_discrete(inp, 1.0)
                assert f_lower(inp, 1.0) <= rate + 1e-6
                assert rate <= g_upper(inp, 1.0) + 1e-6

    def test_regime_of_dominant_lower_bound(self):
        # sparse constellations favour the error-probability bound, dense ones
        # the dither/Jensen bounds; at exactly one spacing per noise width the
        # error-probability bound still wins, so the dense regime is strict
        for db in range(0, 21):
            peak = db_to_amplitude_ratio(db)
            for levels in (2, 3, 5, 8, 13, 21):
                inp = EsduInput(peak, levels)
                values = [f1(inp, 1.0), f2(inp, 1.0), f3(inp, 1.0)]
                best = values.index(max(values))
                normalized = peak / (levels - 1)
                if normalized >= 6.0:
                    assert best == 0
                elif normalized < 1.0:
                    assert best in (1, 2)
