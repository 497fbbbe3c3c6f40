import math

import numpy as np
import pytest
from scipy.integrate import quad

from esdurate.special import binary_entropy, db_to_amplitude_ratio, q_elementwise, q_function


def q_by_quadrature(x: float) -> float:
    """Independent tail oracle: integrate the standard normal density."""
    value, _ = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        x, x + 50.0, epsabs=1e-15, limit=200,
    )
    return value


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.25, 0.4012936743170763),
            (1.4374, 0.07530218440237632),
            (-0.8, 0.7881446014166031),
        ],
    )
    def test_frozen_quadrature_values(self, x, expected):
        assert q_function(x) == pytest.approx(expected, abs=1e-12)

    def test_matches_quadrature_oracle_on_grid(self):
        for x in [-6.0, -2.5, -1.0, -0.3, 0.1, 0.7, 1.5, 3.0, 5.5, 8.0]:
            assert abs(q_function(x) - q_by_quadrature(x)) < 1e-12

    def test_complement_identity(self):
        for i in range(81):
            x = -4.0 + 0.1 * i
            assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12

    def test_strictly_decreasing(self):
        xs = [-8.0 + 0.05 * i for i in range(321)]
        values = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            q_function(bad)


class TestQElementwise:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4, 5), (0, 2)])
    def test_equals_q_function_bit_for_bit(self, shape):
        x = np.random.default_rng(3).normal(0.0, 12.0, shape)  # into the subnormal tail and past it
        out = q_elementwise(x)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        expected = [q_function(v) for v in x.ravel().tolist()]
        assert out.ravel().view(np.int64).tolist() == np.array(expected, dtype=float).view(np.int64).tolist()

    def test_takes_python_scalars_and_lists(self):
        assert q_elementwise(1.5).shape == () and float(q_elementwise(1.5)) == q_function(1.5)
        assert q_elementwise([0, 40.0]).tolist() == [0.5, q_function(40.0)]

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, [1.0, -math.inf, math.nan], [[2.0, 3.0], [math.nan, math.inf]],
    ])
    def test_names_the_first_non_finite_element_as_q_function_does(self, x):
        first = next(v for v in np.ravel(x).tolist() if not math.isfinite(v))
        with pytest.raises(ValueError) as want:
            q_function(first)
        with pytest.raises(ValueError) as got:
            q_elementwise(np.array(x))
        assert str(got.value) == str(want.value)


class TestBinaryEntropy:
    def test_corner_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(0.0753) == pytest.approx(0.3853979567280452, abs=1e-12)

    def test_symmetry_exact_on_dyadic_grid(self):
        # dyadic p has an exact float complement, so both sides are the same
        # two terms summed in either order
        for i in range(1, 64):
            p = i / 64.0
            assert binary_entropy(p) == binary_entropy(1.0 - p)

    def test_symmetry_general(self):
        for i in range(1, 50):
            p = i / 50.0
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)

    def test_concavity_on_grid(self):
        grid = [i / 40.0 for i in range(41)]
        for p in grid:
            for q in grid:
                mid = binary_entropy((p + q) / 2.0)
                avg = 0.5 * (binary_entropy(p) + binary_entropy(q))
                assert mid >= avg - 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestDbConversion:
    def test_known_points(self):
        assert db_to_amplitude_ratio(0.0) == 1.0
        assert db_to_amplitude_ratio(10.0) == 10.0
        assert db_to_amplitude_ratio(15.0) == pytest.approx(31.622776601683793, abs=1e-9)

    def test_additivity(self):
        assert db_to_amplitude_ratio(7.0) * db_to_amplitude_ratio(3.0) == pytest.approx(
            db_to_amplitude_ratio(10.0), rel=1e-14
        )
