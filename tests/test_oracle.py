import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from esdurate import oracle
from esdurate.esdu import EsduInput
from esdurate.oracle import (
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    ConvergenceError,
    DiscreteInput,
    QuadratureSpec,
    _adaptive_integral,
    mi_discrete,
    mi_monte_carlo,
    mi_uniform,
    mixture_log_pdf,
    noise_entropy,
    uniform_output_pdf,
)
from esdurate.uniform import P2pChannel, c_lower, e_cap

from anchors import MI_HALF_SIGMA_DB


def scipy_mi(atoms, sigma):
    """Independent exact-rate oracle: same integral, different integrator."""
    atoms = np.asarray(atoms, dtype=float)
    weight = 1.0 / (len(atoms) * sigma * math.sqrt(2.0 * math.pi))

    def pdf(y):
        return weight * sum(math.exp(-0.5 * ((y - a) / sigma) ** 2) for a in atoms)

    def integrand(y):
        p = pdf(y)
        return 0.0 if p <= 0.0 else -p * math.log2(p)

    h, _ = scipy_quad(integrand, atoms[0] - 12 * sigma, atoms[-1] + 12 * sigma,
                      epsabs=1e-12, limit=2000)
    return h - noise_entropy(sigma)


class TestDiscreteInput:
    def test_from_esdu(self):
        di = DiscreteInput.from_esdu(EsduInput(1.0, 3))
        assert np.allclose(di.atoms, [0.0, 0.5, 1.0])
        assert np.allclose(di.masses, [1 / 3] * 3)

    def test_zero_span_collapses(self):
        di = DiscreteInput.from_esdu(EsduInput(0.0, 4))
        assert di.atoms.tolist() == [0.0]
        assert di.masses.tolist() == [1.0]

    @pytest.mark.parametrize(
        "atoms,masses",
        [
            ([0.0, 0.0], [0.5, 0.5]),        # not strictly increasing
            ([0.0, 1.0], [0.7, 0.7]),        # does not sum to 1
            ([0.0, 1.0], [-0.1, 1.1]),       # negative mass
            ([], []),                        # empty
            ([0.0, 1.0], [1.0]),             # length mismatch
        ],
    )
    def test_rejects_invalid(self, atoms, masses):
        with pytest.raises(ValueError):
            DiscreteInput(np.array(atoms), np.array(masses))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda di, sigma: mixture_log_pdf(di, sigma, 0.0),
        lambda di, sigma: mi_discrete(di, sigma),
        lambda di, sigma: mi_monte_carlo(di, sigma, 10_000, 0),
    ],
    ids=["mixture_log_pdf", "mi_discrete", "mi_monte_carlo"],
)
def test_rejects_nonfinite_or_nonpositive_sigma(call, sigma):
    with pytest.raises(ValueError, match="sigma"):
        call(DiscreteInput.from_esdu(EsduInput(1.0, 3)), sigma)


class TestMixtureLogPdf:
    def test_single_atom_mode(self):
        di = DiscreteInput(np.array([0.0]), np.array([1.0]))
        assert mixture_log_pdf(di, 1.0, 0.0) == pytest.approx(-0.9189385332046727, abs=1e-12)
        # same value in bits
        assert mixture_log_pdf(di, 1.0, 0.0) * math.log2(math.e) == pytest.approx(
            -1.3257480647361593, abs=1e-12
        )

    def test_symmetry_of_esdu_mixture(self):
        di = DiscreteInput.from_esdu(EsduInput(1.0, 3))
        for t in (0.1, 0.35, 1.2, 4.0):
            assert mixture_log_pdf(di, 1.0, 0.5 + t) == pytest.approx(
                mixture_log_pdf(di, 1.0, 0.5 - t), abs=1e-12
            )

    def test_decays_monotonically_in_the_tail(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        ys = np.array([5.0, 10.0, 20.0, 42.0, 80.0])
        lp = mixture_log_pdf(di, 1.0, ys)
        assert np.all(np.diff(lp) < 0.0)
        assert np.isfinite(lp).all()

    def test_matches_direct_sum(self):
        di = DiscreteInput(np.array([-1.0, 0.25, 2.0]), np.array([0.2, 0.5, 0.3]))
        for y in (-2.0, 0.0, 0.7, 3.5):
            direct = math.log(
                sum(
                    m * math.exp(-0.5 * ((y - a) / 0.8) ** 2) / (0.8 * math.sqrt(2 * math.pi))
                    for a, m in zip(di.atoms, di.masses)
                )
            )
            assert mixture_log_pdf(di, 0.8, y) == pytest.approx(direct, abs=1e-12)

    def test_zero_mass_atom_is_ignored(self):
        with_zero = DiscreteInput(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        without = DiscreteInput(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        assert mixture_log_pdf(with_zero, 1.0, 0.3) == pytest.approx(
            mixture_log_pdf(without, 1.0, 0.3), abs=1e-14
        )


class TestMiDiscrete:
    def test_reference_values(self):
        assert mi_discrete(DiscreteInput.from_esdu(EsduInput(1.0, 3)), 1.0) == pytest.approx(
            0.111166693415685, abs=1e-4
        )
        assert mi_discrete(DiscreteInput.from_esdu(EsduInput(10.0, 21)), 1.0) == pytest.approx(
            1.59082183063296, abs=1e-4
        )

    def test_reference_series(self):
        for db, expected in enumerate(MI_HALF_SIGMA_DB):
            peak = 10.0 ** (db / 10.0)
            inp = EsduInput(peak, max(2, math.ceil(peak / 0.5) + 1))
            assert mi_discrete(DiscreteInput.from_esdu(inp), 1.0) == pytest.approx(
                expected, abs=1e-9
            )

    def test_single_atom_is_zero(self):
        di = DiscreteInput(np.array([3.0]), np.array([1.0]))
        assert abs(mi_discrete(di, 2.0)) <= 1e-10

    def test_against_scipy_integrator(self):
        for atoms, sigma in [([0.0, 0.5, 1.0], 1.0), ([0.0, 2.0, 5.0, 9.0], 1.3)]:
            mine = mi_discrete(DiscreteInput(np.array(atoms), np.full(len(atoms), 1 / len(atoms))), sigma)
            assert mine == pytest.approx(scipy_mi(atoms, sigma), abs=1e-9)

    def test_nonnegative_and_capped(self):
        for levels in (2, 5, 13):
            for db in (0, 10, 20):
                di = DiscreteInput.from_esdu(EsduInput(10 ** (db / 10), levels))
                value = mi_discrete(di, 1.0)
                assert -1e-9 <= value <= math.log2(levels) + 1e-9

    def test_shift_invariance(self):
        di = DiscreteInput.from_esdu(EsduInput(3.0, 4))
        base = mi_discrete(di, 1.0)
        for offset in (-7.5, 2.25, 40.0):
            assert mi_discrete(di.shifted(offset), 1.0) == pytest.approx(base, abs=1e-9)

    def test_scale_invariance(self):
        di = DiscreteInput.from_esdu(EsduInput(5.0, 6))
        base = mi_discrete(di, 1.0)
        for lam in (0.5, 2.0, 10.0):
            assert mi_discrete(di.scaled(lam), lam) == pytest.approx(base, abs=1e-8)

    def test_degrades_with_noise(self):
        di = DiscreteInput.from_esdu(EsduInput(6.0, 5))
        values = [mi_discrete(di, s) for s in (0.5, 1.0, 1.7, 3.0, 8.0)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_monotone_in_peak_at_fixed_levels(self):
        values = [
            mi_discrete(DiscreteInput.from_esdu(EsduInput(10 ** (db / 10), 5)), 1.0)
            for db in range(0, 21, 2)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_bit_identical_reruns(self):
        di = DiscreteInput.from_esdu(EsduInput(4.0, 7))
        assert mi_discrete(di, 1.0) == mi_discrete(di, 1.0)


class TestMiUniform:
    def test_zero_peak(self):
        assert mi_uniform(P2pChannel(0.0, 1.0)) == 0.0

    def test_pdf_normalizes(self):
        ch = P2pChannel(4.0, 1.5)
        mass, _ = scipy_quad(lambda y: uniform_output_pdf(ch, y), -20.0, 24.0, epsabs=1e-12, limit=500)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_within_closed_form_sandwich(self):
        for ratio in (0.1, 1.0, 3.1623, 10.0, 31.623):
            ch = P2pChannel(ratio, 1.0)
            rate = mi_uniform(ch)
            assert c_lower(ch) - 1e-6 <= rate <= e_cap(ch) + 1e-6


class TestKronrodRule:
    @staticmethod
    def legendre_moment(d):
        return 0.0 if d % 2 else 2.0 / (d + 1)

    def test_k15_integrates_degree_22_exactly(self):
        for d in range(23):
            assert np.dot(_K15_WEIGHTS, _K15_NODES**d) == pytest.approx(
                self.legendre_moment(d), abs=1e-14
            )

    def test_g7_integrates_degree_13_exactly(self):
        for d in range(14):
            assert np.dot(_G7_WEIGHTS, _K15_NODES**d) == pytest.approx(
                self.legendre_moment(d), abs=1e-14
            )

    def test_g7_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.allclose(_K15_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_G7_WEIGHTS[1::2], weights, rtol=0.0, atol=1e-15)
        assert not _G7_WEIGHTS[0::2].any()

    def test_mi_discrete_cost_is_pinned(self, monkeypatch):
        nodes = []
        inner = oracle.mixture_log_pdf

        def counting(inp, sigma, y):
            nodes.append(np.size(y))
            return inner(inp, sigma, y)

        monkeypatch.setattr(oracle, "mixture_log_pdf", counting)
        mi_discrete(DiscreteInput.from_esdu(EsduInput(10.0, 21)), 1.0)
        # 15 panels of 2 sigma over [-10, 20], all accepted in the first round
        assert sum(nodes) == 15 * 15


class TestAdaptiveIntegral:
    def test_refines_a_spike(self):
        # density much narrower than the resolution hint: must refine, then hit it
        spike = lambda y: np.exp(-0.5 * (y / 0.02) ** 2) / (0.02 * math.sqrt(2 * math.pi))
        spec = QuadratureSpec(absolute_tolerance=1e-12, max_refinements=30)
        assert _adaptive_integral(spike, -1.0, 1.0, 1.0, spec) == pytest.approx(1.0, abs=1e-9)

    def test_convergence_error_carries_estimates(self):
        spike = lambda y: np.exp(-0.5 * (y / 0.02) ** 2) / (0.02 * math.sqrt(2 * math.pi))
        spec = QuadratureSpec(absolute_tolerance=1e-12, max_refinements=1)
        with pytest.raises(ConvergenceError) as err:
            _adaptive_integral(spike, -1.0, 1.0, 1.0, spec)
        assert math.isfinite(err.value.last_estimate)
        assert math.isfinite(err.value.previous_estimate)
        assert err.value.last_estimate != err.value.previous_estimate

    def test_fails_fast_below_roundoff_floor(self):
        panels = []

        def gaussian(y):
            panels.append(y.shape[0])
            return np.exp(-0.5 * y * y)

        spec = QuadratureSpec(absolute_tolerance=1e-30)
        with pytest.raises(ConvergenceError, match="round-off"):
            _adaptive_integral(gaussian, -10.0, 10.0, 1.0, spec)
        assert sum(panels) <= 300


class TestMonteCarlo:
    def test_agrees_with_quadrature(self):
        for span, levels, seed in [(1.0, 3, 11), (10.0, 21, 12)]:
            di = DiscreteInput.from_esdu(EsduInput(span, levels))
            exact = mi_discrete(di, 1.0)
            est = mi_monte_carlo(di, 1.0, 200_000, seed)
            assert abs(est.value - exact) <= 4.0 * est.standard_error

    def test_single_atom(self):
        di = DiscreteInput(np.array([0.0]), np.array([1.0]))
        est = mi_monte_carlo(di, 1.0, 10_000_000, 3)
        assert abs(est.value) <= 1e-3
        assert abs(est.value) <= 4.0 * est.standard_error

    def test_deterministic_for_fixed_seed(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        a = mi_monte_carlo(di, 1.0, 20_000, 42)
        b = mi_monte_carlo(di, 1.0, 20_000, 42)
        assert a == b
        c = mi_monte_carlo(di, 1.0, 20_000, 43)
        assert c.value != a.value

    def test_records_generator(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        assert mi_monte_carlo(di, 1.0, 10_000, 0).generator == "numpy-pcg64"

    def test_rejects_small_sample_counts(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        with pytest.raises(ValueError):
            mi_monte_carlo(di, 1.0, 9_999, 0)
