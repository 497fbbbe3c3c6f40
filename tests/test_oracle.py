import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import logsumexp

from esdurate import oracle
from esdurate.esdu import EsduInput
from esdurate.oracle import (
    MIN_SPAN_SIGMAS,
    TOLERANCE,
    ConvergenceError,
    DiscreteInput,
    mi_discrete,
    mi_monte_carlo,
    mi_uniform,
    mixture_log_pdf,
    support_padding,
    uniform_output_pdf,
)
from esdurate.uniform import P2pChannel, c_lower, e_cap

import scalar_reference as ref
from anchors import MI_HALF_SIGMA_DB


def scipy_mi(atoms, masses, sigma):
    """Independent exact-rate oracle: same integral, different integrator."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(masses, dtype=float) / (sigma * math.sqrt(2.0 * math.pi))

    def pdf(y):
        return sum(w * math.exp(-0.5 * ((y - a) / sigma) ** 2) for a, w in zip(atoms, weights))

    def integrand(y):
        p = pdf(y)
        return 0.0 if p <= 0.0 else -p * math.log2(p)

    h, _ = scipy_quad(integrand, atoms[0] - 12 * sigma, atoms[-1] + 12 * sigma,
                      epsabs=1e-12, limit=2000)
    return h - ref.noise_entropy(sigma)


def shifted(di, offset):
    return DiscreteInput(di.atoms + offset, di.masses.copy())


def scaled(di, factor):
    return DiscreteInput(di.atoms * factor, di.masses.copy())


def reference_log_pdf(di, sigma, y):
    """Independent mixture log-density: scipy's logsumexp over every atom,
    a few hundred y at a time."""
    log_masses = np.full(di.masses.shape, -np.inf)
    np.log(di.masses, out=log_masses, where=di.masses > 0.0)
    flat = np.ravel(y)
    out = np.concatenate([
        logsumexp(-0.5 * ((rows[:, None] - di.atoms) / sigma) ** 2 + log_masses, axis=-1)
        for rows in np.array_split(flat, max(1, flat.size // 200))
    ])
    return np.reshape(out - math.log(sigma * math.sqrt(2.0 * math.pi)), np.shape(y))


def left_to_right_log_pdf(di, sigma, y):
    """mixture_log_pdf of 1-D y with every atom in every sum, each value's
    terms added from the first atom to the last (np.cumsum is sequential),
    in the operation order of the oracle's kernel: (y - atom)/sigma,
    squared, halved, plus each log mass less the largest, which is added
    to each value's largest term."""
    log_masses = np.log(di.masses, out=np.full_like(di.masses, -np.inf), where=di.masses > 0.0)
    top, sigma = log_masses.max(), np.float64(sigma)
    out = []
    for part in np.array_split(y, max(1, y.size // 256)):
        z = (part - di.atoms[:, None]) / sigma
        exponents = -0.5 * (z * z) + (log_masses - top)[:, None]
        peak = exponents.max(axis=0)
        total = np.cumsum(np.exp(exponents - peak), axis=0)[-1]
        out.append(peak + top + np.log(total) - np.log(sigma) - oracle._LOG_SQRT_2PI)
    return np.concatenate(out)


@st.composite
def mixtures(draw):
    """Inputs with 1 to 3000 atoms: evenly spaced or jittered, uniform,
    random or partly zero masses."""
    k = draw(st.integers(1, 3000))
    spacing = draw(st.floats(0.01, 5.0))
    steps = np.full(k, spacing)
    if draw(st.booleans()):
        steps *= np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.2, 1.8, k)
    atoms = draw(st.floats(-50.0, 50.0)) + np.cumsum(steps)
    kind = draw(st.sampled_from(["uniform", "random", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.ones(k) if kind == "uniform" else rng.uniform(0.0, 1.0, k)
    if kind == "zeros" and k > 1:
        weights[rng.random(k) < draw(st.floats(0.1, 0.9))] = 0.0
        weights[rng.integers(k)] = 1.0
    return DiscreteInput(atoms, weights / weights.sum())


@st.composite
def density_calls(draw):
    """(input, sigma, y): y scalar, 1-D or 2-D, sorted or not, reaching up to
    500 sigma past the outermost atoms."""
    di = draw(mixtures())
    sigma = draw(st.floats(0.05, 20.0))
    reach = draw(st.sampled_from([1.0, 40.0, 500.0])) * sigma
    lo, hi = di.atoms[0] - reach, di.atoms[-1] + reach
    shape = draw(st.sampled_from([(), (1,), (37,), (5000,), (400, 15)]))
    if shape == ():
        return di, sigma, draw(st.floats(lo, hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.uniform(lo, hi, shape)
    if draw(st.booleans()):
        y = np.sort(y, axis=None).reshape(shape)
    return di, sigma, y


@st.composite
def rate_inputs(draw):
    """Inputs for whole rate integrals: 1 to 40 atoms spread over up to 40,
    evenly spaced with equal masses (mirror images of themselves) or jittered
    with random masses."""
    k = draw(st.integers(1, 40))
    span = draw(st.floats(0.0, 40.0)) if k > 1 else 0.0
    if draw(st.booleans()):
        return DiscreteInput.from_esdu(EsduInput(span, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = np.unique(rng.uniform(-span / 2, span / 2, k)) if span > 0.0 else np.zeros(1)
    weights = rng.uniform(0.1, 1.0, atoms.size)
    return DiscreteInput(atoms, weights / weights.sum())


def entropy_integrand(di, sigma):
    """-p log2 p of the output density, for the reference G7/K15 integral."""
    def integrand(y):
        lp = mixture_log_pdf(di, sigma, y)
        p = np.exp(lp)
        return np.where(p > 0.0, -p * lp * math.log2(math.e), 0.0)
    return integrand


def asymmetric_input():
    """21 atoms half a unit apart, but the last a quarter step further out."""
    return DiscreteInput(np.append(np.arange(20) * 0.5, 10.25), np.full(21, 1 / 21))


class TestDiscreteInput:
    def test_from_esdu(self):
        di = DiscreteInput.from_esdu(EsduInput(1.0, 3))
        assert np.allclose(di.atoms, [0.0, 0.5, 1.0])
        assert np.allclose(di.masses, [1 / 3] * 3)

    def test_zero_span_collapses(self):
        di = DiscreteInput.from_esdu(EsduInput(0.0, 4))
        assert di.atoms.tolist() == [0.0]
        assert di.masses.tolist() == [1.0]

    def test_underflowing_spacing_collapses(self):
        # 5e-324/5 rounds to 0: six levels at one point are one atom
        di = DiscreteInput.from_esdu(EsduInput(5e-324, 6))
        assert di.atoms.tolist() == [0.0]
        assert di.masses.tolist() == [1.0]
        # a subnormal spacing still separates the levels
        assert DiscreteInput.from_esdu(EsduInput(1e-320, 6)).atoms.size == 6

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 150, 2001])
    def test_integer_alphabet_equals_the_checked_one(self, k):
        # a lattice batch mixes alphabets, as one trapezoid round does: each
        # value of size k is the checked alphabet's value, bit for bit, near
        # the atoms or far out, where it uses every atom
        rng = np.random.default_rng(k)
        sizes = rng.choice([1, 4, k, 2001], 900)
        sigma = rng.uniform(0.05, 3.0, sizes.size)
        y = np.where(rng.random(sizes.size) < 0.8, rng.uniform(-10.0, k + 9.0, sizes.size), -60.0 * sigma)
        batch = mixture_log_pdf(oracle._Lattices(sizes), sigma, y)
        mine = sizes == k
        checked = DiscreteInput(np.arange(k, dtype=float), np.full(k, 1.0 / k))
        assert batch[mine].tobytes() == mixture_log_pdf(checked, sigma[mine], y[mine]).tobytes()

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

    @pytest.mark.parametrize("atoms", [[0.0, math.inf], [math.nan, 1.0], [-math.inf, 0.0]])
    def test_rejects_nonfinite_atoms(self, atoms):
        with pytest.raises(ValueError, match="atoms and masses must be finite"):
            DiscreteInput(np.array(atoms), np.array([0.5, 0.5]))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda di, sigma: mixture_log_pdf(di, sigma, 0.0),
        lambda di, sigma: mi_discrete(di, sigma),
        lambda di, sigma: mi_discrete(EsduInput(1.0, 3), sigma),
        lambda di, sigma: mi_monte_carlo(di, sigma, 10_000, 0),
    ],
    ids=["mixture_log_pdf", "mi_discrete", "mi_discrete-esdu", "mi_monte_carlo"],
)
def test_rejects_nonfinite_or_nonpositive_sigma(call, sigma):
    with pytest.raises(ValueError, match="sigma"):
        call(DiscreteInput.from_esdu(EsduInput(1.0, 3)), sigma)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mi_discrete(DiscreteInput.from_esdu(EsduInput(1e308, 3)), 1.0),
        lambda: mi_discrete(DiscreteInput.from_esdu(EsduInput(10.0, 3)), 1e-300),
        lambda: mi_discrete(EsduInput(1e308, 3), 1.0),
        lambda: mi_discrete(EsduInput(np.array([1.0, 10.0]), 3), np.array([1.0, 1e-300])),
        lambda: mi_uniform(P2pChannel(oracle.MAX_SPAN_SIGMAS * 1.01, 1.0)),
    ],
    ids=["wide-span", "narrow-sigma", "esdu-wide-span", "esdu-narrow-sigma", "uniform"],
)
def test_rejects_inputs_wider_than_the_cap_before_integrating(call, monkeypatch):
    monkeypatch.setattr(oracle, "_trapezoid_integrals", lambda *a, **k: pytest.fail("integral started"))
    with pytest.raises(ValueError, match=r"span/sigma = .* is more than the 100000 the oracle integrates"):
        call()


@st.composite
def lattice_batches(draw):
    """(sizes, sigmas, y) of one density call over 1 to 4 alphabets of 1 to
    300 integers at 1e-3 to 50 noise widths each: values across [-10 sigma,
    the midpoint], and 40 sigma from an atom or an ulp inside that, in runs
    per alphabet or shuffled."""
    sizes, sigmas, ys = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        k, s = draw(st.integers(1, 300)), draw(st.floats(math.log(1e-3), math.log(50.0)).map(math.exp))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = rng.integers(0, k, 20) + 40.0 * s * rng.choice([-1.0, 1.0], 20)
        y = np.concatenate([rng.uniform(-10.0 * s, 0.5 * (k - 1), 200), edges, np.nextafter(edges, rng.integers(0, k, 20))])
        sizes.append(np.full(y.size, k))
        sigmas.append(np.full(y.size, s))
        ys.append(y)
    sizes, sigmas, ys = np.concatenate(sizes), np.concatenate(sigmas), np.concatenate(ys)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(ys.size)
    return (sizes[order], sigmas[order], ys[order]) if draw(st.booleans()) else (sizes, sigmas, ys)


@st.composite
def esdu_batches(draw):
    """Up to 6 (span, levels, sigma) elements: one-level and zero-span
    inputs, and repeats, among them."""
    elements = draw(st.lists(
        st.tuples(st.floats(0.0, 30.0), st.integers(1, 30), st.sampled_from([0.3, 1.0, 2.5]) | st.floats(0.2, 5.0)),
        min_size=1, max_size=4,
    ))
    elements += draw(st.lists(st.sampled_from(elements), max_size=2))
    return [(span if levels > 1 else 0.0, levels, sigma) for span, levels, sigma in elements]


@st.composite
def fused_esdu_batches(draw):
    """Mixed-K (span, levels, sigma) batches: drawn elements with one K = 1
    element, one span below MIN_SPAN_SIGMAS noise widths and one repeated
    key among them, in a drawn order."""
    sigmas = st.sampled_from([0.3, 1.0, 2.5]) | st.floats(0.2, 5.0)
    elements = draw(st.lists(st.tuples(st.floats(0.0, 30.0), st.integers(2, 40), sigmas), min_size=1, max_size=6))
    elements.append((0.0, 1, draw(sigmas)))
    sigma = draw(sigmas)
    narrow = draw(st.sampled_from([1e-300, 0.5, 0.99])) * MIN_SPAN_SIGMAS * sigma
    elements.append((narrow, draw(st.integers(2, 40)), sigma))
    elements.append(draw(st.sampled_from(elements)))
    return draw(st.permutations(elements))


class TestEsduInputs:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(esdu_batches())
    @example([(10.0, 21, 1.0), (0.0, 1, 1.0), (0.0, 5, 1.0), (5.0, 11, 0.5), (10.0, 21, 1.0)])
    @example([(2.2250738585072014e-308, 3, 2.5), (5e-177, 2, 0.3), (1e-8, 2, 1.0)])
    def test_element_equals_its_scalar_call(self, elements):
        span, levels, sigma = (np.array(column) for column in zip(*elements))
        batch = mi_discrete(EsduInput(span, levels), sigma)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(elements),)
        for value, (s, k, g) in zip(batch.tolist(), elements):
            alone = mi_discrete(EsduInput(s, k), g)
            assert isinstance(alone, float)
            assert value == alone

    def test_batch_broadcasts_against_sigma(self):
        inp = EsduInput(np.array([10.0, 5.0, 0.0]), np.array([21, 11, 1]))
        sigmas = np.array([[1.0], [2.0]])
        rates = mi_discrete(inp, sigmas)
        assert rates.shape == (2, 3)
        for (i, j), value in np.ndenumerate(rates):
            one = EsduInput(float(inp.span[j]), int(inp.levels[j]))
            assert value == mi_discrete(one, float(sigmas[i, 0]))
        assert mi_discrete(EsduInput(10.0, 21), np.array([1.0, 2.0])).tolist() == rates[:, 0].tolist()

    def test_rate_is_that_of_the_integer_alphabet(self):
        # K levels over span S at sigma: the integers 0..K-1 at sigma*(K-1)/S
        integers = DiscreteInput(np.arange(8.0), np.full(8, 1 / 8))
        assert mi_discrete(EsduInput(3.5, 8), 0.7) == mi_discrete(integers, 0.7 * 7 / 3.5)
        # and within the tolerance of the rate of its own atoms
        direct = mi_discrete(DiscreteInput.from_esdu(EsduInput(3.5, 8)), 0.7)
        assert mi_discrete(EsduInput(3.5, 8), 0.7) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("span", [1e-200, 0.99e-8, 1.01e-8, 1e-4])
    def test_narrow_inputs_agree_with_their_own_atoms(self, span):
        # below MIN_SPAN_SIGMAS one atom; above it the integers at up to 5e8 sigma
        direct = mi_discrete(DiscreteInput.from_esdu(EsduInput(span, 6)), 1.0)
        assert mi_discrete(EsduInput(span, 6), 1.0) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("levels", [2, 21])
    @pytest.mark.parametrize("span", [1e-7, 1e-5, 1e-3, 1e-2])
    def test_narrow_inputs_settle_at_tight_tolerances(self, span, levels):
        # an integral in noise widths has the round-off level of a wide one;
        # the rate is the Gaussian limit 0.5*log2(1 + P) at the input's power
        # P (span^2/4 for two levels), less a deficit of order P^4
        power = span * span * (levels + 1) / (12.0 * (levels - 1))
        rate = mi_discrete(EsduInput(span, levels), 1.0, 1e-13)
        assert abs(rate - 0.5 * math.log1p(power) / math.log(2.0)) <= 1e-14

    def test_narrowest_input_is_one_atom(self):
        # 5e-324/5 rounds to 0: the levels coincide
        one_atom = mi_discrete(DiscreteInput(np.zeros(1), np.ones(1)), 1.0)
        assert mi_discrete(EsduInput(5e-324, 6), 1.0) == one_atom
        assert abs(one_atom) <= TOLERANCE

    def test_batch_error_carries_the_flat_index_of_the_first_failing_element(self, monkeypatch):
        # with no second level (no node allowed past the first round) at
        # tolerance 1e-12, and start steps of up to 0.75 sigma without the
        # bound of the lattice's edge zeros, (5, 11) and (10, 21) at 1.0
        # (scaled width 2) fail, and at 0.3 settle; K = 21 is integrated
        # first, but the K = 11 element comes first in flat order
        monkeypatch.setattr(oracle, "_MAX_NODES", 0)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        inp = EsduInput(np.array([[10.0, 5.0], [10.0, 5.0]]), np.array([[21, 11], [21, 11]]))
        with pytest.raises(ConvergenceError, match="did not converge within 0 nodes") as batch:
            mi_discrete(inp, np.array([[0.3, 1.0], [1.0, 0.3]]), 1e-12)
        with pytest.raises(ConvergenceError) as alone:
            mi_discrete(EsduInput(5.0, 11), 1.0, 1e-12)
        assert batch.value.index == 1
        assert str(batch.value) == str(alone.value)
        assert batch.value.last_estimate == alone.value.last_estimate
        # the estimates are Python floats, printed as such
        assert type(batch.value.previous_estimate) is type(batch.value.last_estimate) is float
        assert "np.float64" not in str(batch.value)
        # rounds take the largest alphabets first: with one element per
        # round, the K = 21 element fails a round before the K = 11 one
        monkeypatch.setattr(oracle, "_ROUND_NODES", 40)
        with pytest.raises(ConvergenceError) as per_round:
            mi_discrete(inp, np.array([[0.3, 1.0], [1.0, 0.3]]), 1e-12)
        assert per_round.value.index == 1
        assert str(per_round.value) == str(alone.value)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(fused_esdu_batches())
    @example([(0.0, 1, 1.0), (5e-9, 3, 1.0), (10.0, 21, 1.0), (5.0, 11, 0.5), (10.0, 21, 1.0), (4.0, 2, 0.3)])
    def test_fused_batch_element_equals_its_own_call(self, elements):
        span, levels, sigma = (np.array(column) for column in zip(*elements))
        batch = mi_discrete(EsduInput(span, levels), sigma)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_ROUND_NODES", 240)  # rounds that split the alphabets
            assert mi_discrete(EsduInput(span, levels), sigma).tolist() == batch.tolist()
        for value, (s, k, g) in zip(batch.tolist(), elements):
            assert value == mi_discrete(EsduInput(s, k), g)
            assert value == pytest.approx(mi_discrete(DiscreteInput.from_esdu(EsduInput(s, k)), g), abs=1e-12)

    def test_one_lockstep_call_makes_one_density_call_per_round(self, monkeypatch):
        rounds = []
        integrate, density = oracle._trapezoid_integrals, oracle.mixture_log_pdf

        def recording_integrals(f, *args):
            def recording_f(y, which):
                rounds.append((y.shape[0], []))
                return f(y, which)
            return integrate(recording_f, *args)

        def recording_density(inp, sigma, y):
            rounds[-1][1].append((inp, y.shape[0]))
            return density(inp, sigma, y)

        monkeypatch.setattr(oracle, "_trapezoid_integrals", recording_integrals)
        monkeypatch.setattr(oracle, "mixture_log_pdf", recording_density)
        inp = EsduInput(np.array([10.0, 5.0, 0.0, 10.0]), np.array([21, 11, 1, 21]))
        want = [mi_discrete(EsduInput(float(s), int(k)), 0.4) for s, k in zip(inp.span, inp.levels)]
        rounds.clear()
        assert mi_discrete(inp, 0.4).tolist() == want
        # each round is one density call, holding exactly the round's nodes
        assert all(len(calls) == 1 and calls[0][1] == rows for rows, calls in rounds)
        # K in order of first need, each with its first-round nodes from
        # 7.9375 widths below 0: the scaled width is 0.8 for K = 21 and
        # K = 11 (start step 0.65 of it); K = 21 reaches past 6.5, so its
        # edge [-6.35, 6.5] and half period [6.5, 7] take 51 and 3 nodes;
        # K = 1 carries nothing and is not integrated; the call's atoms are
        # those of its largest K
        lattice, _ = rounds[0][1][0]
        assert lattice._sizes.tolist() == [21] * 54 + [11] * 45
        assert lattice.atoms.tolist() == list(range(21))

    def test_values_with_no_atom_in_their_window_use_every_atom(self):
        # 3 levels over 99999 noise widths: at the scaled width of 2e-5 most
        # of the 143,926 nodes of the edge and the half period lie far from
        # every atom
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rate = mi_discrete(EsduInput(99999.0, 3), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert caught == []
        assert rate == pytest.approx(math.log2(3), abs=TOLERANCE)
        assert peak <= 12.8e6

    def test_only_alphabets_of_two_levels_or_more_reach_the_lockstep_call(self, monkeypatch):
        sizes = []
        inner = oracle._mi_lockstep
        monkeypatch.setattr(oracle, "_mi_lockstep", lambda k, s, tol: sizes.append(k.tolist()) or inner(k, s, tol))
        # one level, a zero span, and a span under MIN_SPAN_SIGMAS are each one atom
        inp = EsduInput(np.array([10.0, 0.0, 0.0, 1e-9, 4.0]), np.array([21, 1, 5, 3, 2]))
        rates = mi_discrete(inp, 1.0)
        assert sizes == [[21, 2]]
        alone = [mi_discrete(EsduInput(10.0, 21), 1.0), mi_discrete(EsduInput(4.0, 2), 1.0)]
        assert rates.tolist() == [alone[0], 0.0, 0.0, 0.0, alone[1]]
        # a call of one-atom inputs alone still checks its tolerance, in an empty lockstep call
        sizes.clear()
        assert mi_discrete(EsduInput(np.zeros(2), np.array([1, 4])), 1.0).tolist() == [0.0, 0.0]
        assert sizes == [[]]

    def test_span_cap_is_checked_on_the_callers_values(self, monkeypatch):
        # 30 widths exactly: the scaled input, (K - 1)/(sigma*(K - 1)/S),
        # would read 30.000000000000004
        monkeypatch.setattr(oracle, "MAX_SPAN_SIGMAS", 30.0)
        assert math.isfinite(mi_discrete(EsduInput(30.0, 12), 1.0))
        with pytest.raises(ValueError, match="span/sigma = 30.003 is more than the 30 "):
            mi_discrete(EsduInput(30.003, 12), 1.0)


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(density_calls())
    def test_matches_scipy_logsumexp(self, call):
        di, sigma, y = call
        got = mixture_log_pdf(di, sigma, y)
        want = reference_log_pdf(di, sigma, y)
        if np.ndim(y) == 0:
            assert isinstance(got, float)
        else:
            assert isinstance(got, np.ndarray) and got.shape == np.shape(y)
        # relative to |value|, or to 1 where the log-density crosses zero
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(density_calls(), st.integers(0, 2**32 - 1))
    def test_value_at_each_y_depends_on_that_y_alone(self, call, seed):
        # whatever block, window or sigma its neighbours bring, bit for bit
        di, sigma, y = call
        flat = np.ravel(y)
        rng = np.random.default_rng(seed)
        sigmas = sigma * rng.choice([0.5, 1.0, 3.0], flat.size)
        together = mixture_log_pdf(di, sigmas, flat)
        assert np.array_equal(mixture_log_pdf(di, sigma, y), mixture_log_pdf(di, np.full(np.shape(y), sigma), y))
        for i in rng.choice(flat.size, min(flat.size, 12), replace=False).tolist():
            assert together[i] == mixture_log_pdf(di, sigmas[i], flat[i])

    def test_far_values_use_every_atom(self):
        # 500 sigma outside the atoms no window holds an atom: every block
        # must fall back to the full sum, and stay finite
        di = DiscreteInput.from_esdu(EsduInput(1000.0, 2001))
        y = np.concatenate([np.linspace(-600.0, -500.0, 3000), np.linspace(1500.0, 1600.0, 3000)])
        np.testing.assert_allclose(
            mixture_log_pdf(di, 1.0, y), reference_log_pdf(di, 1.0, y), rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("case", ["sorted", "unsorted", "far"])
    def test_blocks_have_fixed_rows_within_budget(self, monkeypatch, case):
        # K = 2001 nodes of a 30 dB table, Monte-Carlo-like scattered samples,
        # and values 500 sigma out, where every block falls back to all atoms
        di = DiscreteInput.from_esdu(EsduInput(1000.0, 2001))
        y = {
            "sorted": np.linspace(-10.0, 1010.0, 7650),
            "unsorted": np.random.default_rng(0).uniform(-10.0, 1010.0, 7650),
            "far": np.linspace(1500.0, 1600.0, 3000),
        }[case]
        shapes, windows = [], []
        exponents, window = oracle._exponents, oracle._window

        def recording_exponents(*args):
            out = exponents(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(oracle, "_exponents", recording_exponents)
        monkeypatch.setattr(oracle, "_window", lambda *args: windows.append(1) or window(*args))
        got = mixture_log_pdf(di, 1.0, y)
        rows = oracle._BLOCK_ELEMENTS // 2001
        blocks = math.ceil(y.size / rows)
        assert len(windows) == blocks  # one window per block
        # blocks are (atoms, values)
        assert all(k * r <= oracle._BLOCK_ELEMENTS for k, r in shapes)
        assert {r for _, r in shapes} == {rows, y.size - (blocks - 1) * rows}
        if case == "sorted":
            assert all(k < 2001 for k, _ in shapes)
        if case == "far":
            assert all(k == 2001 for k, _ in shapes)
        # the atoms a window leaves out would only have added 0.0
        assert np.array_equal(got, left_to_right_log_pdf(di, 1.0, y))
        np.testing.assert_allclose(got, reference_log_pdf(di, 1.0, y), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("levels", [8, 64, 2001])
    def test_lone_value_equals_its_element_of_a_batch(self, levels):
        # a one-value block is summed in the same order as a wider one
        di = DiscreteInput.from_esdu(EsduInput(0.5 * (levels - 1), levels))
        y = np.random.default_rng(levels).uniform(-5.0, 0.5 * levels + 5.0, 300)
        batch = mixture_log_pdf(di, 1.0, y)
        assert [mixture_log_pdf(di, 1.0, value) for value in y.tolist()] == batch.tolist()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lattice_batches())
    def test_lattice_batch_value_equals_its_alphabet_alone(self, batch):
        sizes, sigmas, y = batch
        together = mixture_log_pdf(oracle._Lattices(sizes), sigmas, y)
        for k, s in set(zip(sizes.tolist(), sigmas.tolist())):
            mine = (sizes == k) & (sigmas == s)
            di = DiscreteInput(np.arange(k, dtype=float), np.full(k, 1.0 / k))
            assert together[mine].tobytes() == mixture_log_pdf(di, s, y[mine]).tobytes()
            np.testing.assert_allclose(together[mine], reference_log_pdf(di, s, y[mine]), rtol=1e-15, atol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lattice_batches())
    def test_lattice_windows_are_those_searchsorted_finds(self, batch):
        sizes, sigmas, y = batch
        reach = oracle._WINDOW_SIGMAS * sigmas
        first, width = oracle._window(y, oracle._Lattices(sizes), reach, sizes)
        atoms = np.arange(sizes.max(), dtype=float)
        assert first.tolist() == np.minimum(np.searchsorted(atoms, y - reach, side="left"), sizes).tolist()
        assert (first + width).tolist() == np.minimum(np.searchsorted(atoms, y + reach, side="right"), sizes).tolist()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(density_calls() | lattice_batches().map(lambda b: (oracle._Lattices(b[0]), b[1], b[2])))
    def test_floor_changes_no_bit(self, call):
        # every block is floored; its raw terms, a floor of -inf, give the same bytes
        inp, sigma, y = call
        got = mixture_log_pdf(inp, sigma, y)
        floor = oracle._EXP_FLOOR
        try:
            oracle._EXP_FLOOR = -np.inf
            raw = mixture_log_pdf(inp, sigma, y)
        finally:
            oracle._EXP_FLOOR = floor
        assert np.asarray(got).tobytes() == np.asarray(raw).tobytes()

    @pytest.mark.parametrize(
        "atoms,masses,y,floored",
        [
            # Monte Carlo samples about 21 equal masses, all within 37 sigma of every atom
            (np.arange(21) * 0.5, np.full(21, 1 / 21), np.random.default_rng(1).normal(5.0, 4.0, 10_000), False),
            # unequal masses, a zero among them: always floored
            (np.arange(5.0), np.array([0.1, 0.0, 0.4, 0.2, 0.3]), np.random.default_rng(2).uniform(-35.0, 39.0, 7_000),
             True),
            # samples spread over more than 37 sigma: the floor binds on the far atom's terms
            (np.array([0.0, 39.0]), np.array([0.5, 0.5]), np.linspace(-0.9, 39.9, 5_000), True),
            # a one-value block, summed by cumsum
            (np.arange(3.0), np.full(3, 1 / 3), np.array([0.7]), False),
        ],
        ids=["equal", "unequal", "floor-binds", "one-sample"],
    )
    @pytest.mark.parametrize("sigma", [1.0, 0.8])
    def test_dense_call_changes_no_bit(self, monkeypatch, atoms, masses, y, floored, sigma):
        # one loop: a scalar sigma with every value within 40 sigma of every
        # atom finds no window, and floors only where a term might reach the
        # floor; an array of widths finds a window per block and floors each
        di = DiscreteInput(atoms * sigma, masses)
        y = y * sigma
        window, peak_sums = oracle._window, oracle._peak_sums
        floors, windows = [], []
        monkeypatch.setattr(oracle, "_peak_sums", lambda z, floor: floors.append(floor) or peak_sums(z, floor))
        monkeypatch.setattr(oracle, "_window", lambda *args: windows.append(1) or window(*args))
        dense = mixture_log_pdf(di, sigma, y)
        assert not windows and set(floors) == {floored}
        floors.clear()
        looped = mixture_log_pdf(di, np.full(y.shape, sigma), y)
        assert windows and set(floors) == {True}  # a window per block, each floored
        assert dense.tobytes() == looped.tobytes()
        if y.size == 1:
            assert mixture_log_pdf(di, sigma, float(y[0])) == dense[0]

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (), (1,), (400, 15)])
    @pytest.mark.parametrize("span", [10.0, 1000.0], ids=["narrow", "wide"])
    def test_every_shape_gives_the_bytes_of_its_values(self, shape, span):
        # empty, 0-d, one-value and 2-D y, at one noise width and at a width
        # per value: narrow values see every atom, wide ones search windows
        di = DiscreteInput.from_esdu(EsduInput(span, 21))
        y = np.random.default_rng(5).uniform(-5.0, span + 5.0, shape)
        alone = [mixture_log_pdf(di, 0.5, value) for value in np.ravel(y).tolist()]
        for sigma in (0.5, np.full(shape, 0.5)):
            got = mixture_log_pdf(di, sigma, y)
            if shape == ():
                assert isinstance(got, float) and [got] == alone
            else:
                assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == np.float64
                assert got.tobytes() == np.array(alone).tobytes()

    def test_working_set_is_bounded(self):
        # the K = 2001 row of a 30 dB p2p-bounds table over its 510 first-round
        # panels: a dense (nodes x atoms) array would be 122 MB per temporary
        di = DiscreteInput.from_esdu(EsduInput(1000.0, 2001))
        y = np.linspace(-10.0, 1010.0, 510 * 15).reshape(510, 15)
        tracemalloc.start()
        try:
            mixture_log_pdf(di, 1.0, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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
        # exactly: not the rounding residual of h(Y) - h(Z), on either path
        di = DiscreteInput(np.array([3.0]), np.array([1.0]))
        assert mi_discrete(di, 2.0) == 0.0
        assert mi_discrete(di, np.array([0.5, 2.0, 7.0])).tolist() == [0.0] * 3
        assert mi_discrete(EsduInput(np.array([0.0, 4.0]), np.array([1, 5])), np.array([1.0, 2.0]))[0] == 0.0

    def test_single_atom_is_never_integrated(self, monkeypatch):
        # h(Y) = h(Z) at sigma 2 and 7 sits at the round-off level of 3e-14,
        # so an integral of it could not settle; one atom evaluates no density
        assert mi_discrete(EsduInput(0.0, 1), 2.0, 3e-14) == 0.0
        monkeypatch.setattr(oracle, "mixture_log_pdf", lambda *args: pytest.fail("a density was evaluated"))
        di = DiscreteInput(np.array([3.0]), np.array([1.0]))
        assert mi_discrete(di, np.array([0.5, 2.0, 7.0]), 3e-14).tolist() == [0.0] * 3
        assert mi_discrete(EsduInput(np.array([0.0, 1e-9]), np.array([1, 3])), 2.0, 3e-14).tolist() == [0.0] * 2
        # the tolerance is still checked, after the span cap
        for inp in (di, EsduInput(0.0, 1)):
            with pytest.raises(ValueError, match="absolute_tolerance must be finite and > 0"):
                mi_discrete(inp, np.array([1.0]), math.nan)
        monkeypatch.setattr(oracle, "MAX_SPAN_SIGMAS", 1.0)
        with pytest.raises(ValueError, match="span/sigma"):
            mi_discrete(EsduInput(np.array([0.0, 3.0]), np.array([1, 2])), 1.0, math.nan)

    def test_against_scipy_integrator(self):
        cases = [([0.0, 0.5, 1.0], [1 / 3] * 3, 1.0), ([0.0, 2.0, 5.0, 9.0], [0.25] * 4, 1.3)]
        # asymmetric inputs, integrated over their whole output: 2 to 39
        # atoms over up to 40, random masses, noise widths from 0.05 to 5
        rng = np.random.default_rng(20)
        for k in rng.integers(2, 40, 12).tolist():
            atoms = np.sort(rng.uniform(-20.0, 20.0, k) * rng.uniform(0.05, 1.0))
            weights = rng.uniform(0.1, 1.0, k)
            cases.append((atoms, weights / weights.sum(), math.exp(rng.uniform(math.log(0.05), math.log(5.0)))))
        for atoms, masses, sigma in cases:
            mine = mi_discrete(DiscreteInput(np.array(atoms), np.array(masses)), sigma)
            assert mine == pytest.approx(scipy_mi(atoms, masses, sigma), abs=1e-9)

    def test_widest_asymmetric_input_settles_within_bounded_memory(self):
        # 99,999 noise widths from the second atom to the third: the whole
        # output is one element of 1.33 M first-round nodes at a 0.15-sigma
        # step.  The far atom's output is disjoint from the other two, so the
        # rate is H_b(1/3) + (2/3)*I(binary {0, 1}).
        binary = scipy_mi([0.0, 1.0], [0.5, 0.5], 1.0)
        want = -math.log2(1 / 3) / 3 - 2 * math.log2(2 / 3) / 3 + 2 * binary / 3
        tracemalloc.start()
        try:
            rate = mi_discrete(DiscreteInput(np.array([0.0, 1.0, 99999.0]), np.full(3, 1 / 3)), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rate == pytest.approx(want, abs=1e-12)
        assert peak <= 72e6

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
            assert mi_discrete(shifted(di, offset), 1.0) == pytest.approx(base, abs=1e-9)

    def test_scale_invariance(self):
        di = DiscreteInput.from_esdu(EsduInput(5.0, 6))
        base = mi_discrete(di, 1.0)
        for lam in (0.5, 2.0, 10.0):
            assert mi_discrete(scaled(di, lam), lam) == pytest.approx(base, abs=1e-8)

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


class TestSigmaBatch:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        rate_inputs(),
        st.lists(st.one_of(st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.2, 8.0)), min_size=1, max_size=6),
    )
    @example(DiscreteInput(np.array([2.0]), np.array([1.0])), [1.0, 0.5, 1.0, 1.0])
    @example(DiscreteInput.from_esdu(EsduInput(10.0, 21)), [0.2, 0.2, 8.0])
    def test_element_equals_its_one_sigma_call(self, di, sigmas):
        batch = mi_discrete(di, np.array(sigmas))
        assert isinstance(batch, np.ndarray) and batch.shape == (len(sigmas),)
        for value, sigma in zip(batch.tolist(), sigmas):
            alone = mi_discrete(di, sigma)
            assert isinstance(alone, float)
            assert value == alone

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(0.0, 40.0), st.integers(1, 40), st.floats(0.3, 5.0))
    def test_half_support_agrees_with_the_full_integral(self, span, levels, sigma):
        di = DiscreteInput.from_esdu(EsduInput(span if levels > 1 else 0.0, levels))
        lo, hi = di.atoms[0] - 10.0 * sigma, di.atoms[-1] + 10.0 * sigma
        full = ref.adaptive_integral(entropy_integrand(di, sigma), lo, hi, sigma) - ref.noise_entropy(sigma)
        assert mi_discrete(di, sigma) == pytest.approx(full, abs=TOLERANCE)

    def test_asymmetric_input_integrates_its_full_support(self, monkeypatch):
        nodes = []
        inner = oracle.mixture_log_pdf
        monkeypatch.setattr(oracle, "mixture_log_pdf", lambda inp, s, y: nodes.append(np.size(y)) or inner(inp, s, y))
        di = DiscreteInput(np.array([0.0, 1.0, 3.0]), np.full(3, 1 / 3))
        mi_discrete(di, 1.0)
        # [-7.9375, 10.9375] at the 0.413-sigma start step of gaps 1 and 2:
        # the first round's 93 nodes give T_46 and T_92, which are accepted
        assert nodes == [93]

    def test_symmetry_is_checked_once_per_input_and_never_for_esdu(self, monkeypatch):
        checked = []
        inner = oracle._mirrored
        monkeypatch.setattr(oracle, "_mirrored", lambda inp: checked.append(inp) or inner(inp))
        di = DiscreteInput.from_esdu(EsduInput(6.0, 4))
        mi_discrete(di, np.array([0.5, 1.0, 2.0]))
        assert checked == [di]
        checked.clear()
        # the integers 0..K-1 are their own mirror image by construction
        mi_discrete(EsduInput(np.array([6.0, 9.0, 0.0]), np.array([4, 7, 1])), 1.0)
        assert checked == []

    def test_rejects_a_sigma_array_of_more_than_one_dimension(self):
        with pytest.raises(ValueError, match="1-D"):
            mi_discrete(DiscreteInput.from_esdu(EsduInput(1.0, 3)), np.ones((2, 2)))

    def test_fails_at_its_first_failing_element(self, monkeypatch):
        # the trapezoid rule over the whole output of an asymmetric input:
        # with no second level (no node allowed past the first round) at
        # tolerance 1e-12, and start steps of up to 0.75 sigma without the
        # bound of the run's edge zeros, 1.0 and 2.0 fail; 0.3 and 0.5 settle
        # in one round
        monkeypatch.setattr(oracle, "_MAX_NODES", 0)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        di = asymmetric_input()
        settled = mi_discrete(di, np.array([0.3, 0.5]), 1e-12).tolist()
        assert settled == [mi_discrete(di, 0.3, 1e-12), mi_discrete(di, 0.5, 1e-12)]
        with pytest.raises(ConvergenceError, match="did not converge within 0 nodes") as batch:
            mi_discrete(di, np.array([0.3, 1.0, 0.5, 2.0]), 1e-12)
        with pytest.raises(ConvergenceError) as alone:
            mi_discrete(di, 1.0, 1e-12)
        assert batch.value.index == 1
        assert str(batch.value) == str(alone.value)
        # its first round gives two estimates, T_n and T_2n
        assert (batch.value.previous_estimate, batch.value.last_estimate) == (
            alone.value.previous_estimate, alone.value.last_estimate
        )
        assert abs(batch.value.last_estimate - batch.value.previous_estimate) > 1e-12

    def test_mirrored_input_fails_at_its_first_failing_element(self, monkeypatch):
        # the trapezoid rule: with no second level (no node allowed past the
        # first round) at tolerance 1e-12, and start steps of up to 0.75 sigma
        # without the bound of the lattice's edge zeros, 1.0 and 2.0 (s = 2
        # and 4) fail; 0.3 and 0.2 settle in one round
        monkeypatch.setattr(oracle, "_MAX_NODES", 0)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        di = DiscreteInput.from_esdu(EsduInput(10.0, 21))
        settled = mi_discrete(di, np.array([0.3, 0.2]), 1e-12).tolist()
        assert settled == [mi_discrete(di, 0.3, 1e-12), mi_discrete(di, 0.2, 1e-12)]
        with pytest.raises(ConvergenceError, match="did not converge within 0 nodes") as batch:
            mi_discrete(di, np.array([0.3, 1.0, 0.2, 2.0]), 1e-12)
        with pytest.raises(ConvergenceError) as alone:
            mi_discrete(di, 1.0, 1e-12)
        assert batch.value.index == 1
        assert str(batch.value) == str(alone.value)
        # its first round gives two estimates, T_n and T_2n
        assert (batch.value.previous_estimate, batch.value.last_estimate) == (
            alone.value.previous_estimate, alone.value.last_estimate
        )
        assert abs(batch.value.last_estimate - batch.value.previous_estimate) > 1e-12

    def test_budget_splits_a_batch_without_changing_any_element(self, monkeypatch):
        di = DiscreteInput.from_esdu(EsduInput(30.0, 31))
        sigmas = np.array([0.5, 1.0, 2.0, 0.7])  # 185, 69, 47 and 105 first-round nodes
        want = mi_discrete(di, sigmas)
        rounds = []
        inner = oracle.mixture_log_pdf
        monkeypatch.setattr(oracle, "mixture_log_pdf", lambda inp, s, y: rounds.append(len(y)) or inner(inp, s, y))
        monkeypatch.setattr(oracle, "_ROUND_NODES", 320)
        assert mi_discrete(di, sigmas).tolist() == want.tolist()
        # rounds of at most 320 nodes: the first three elements, then what is left
        assert rounds[0] == 301 and max(rounds) <= 320

    def test_element_wider_than_the_round_budget_runs_alone(self, monkeypatch):
        di = DiscreteInput.from_esdu(EsduInput(30.0, 31))
        sigmas = np.array([1.0, 0.5, 2.0])  # 69, 185 and 47 first-round nodes
        want = mi_discrete(di, sigmas)
        rounds = []
        inner = oracle.mixture_log_pdf
        monkeypatch.setattr(
            oracle, "mixture_log_pdf", lambda inp, s, y: rounds.append(set(np.ravel(s).tolist())) or inner(inp, s, y)
        )
        monkeypatch.setattr(oracle, "_ROUND_NODES", 40)
        assert mi_discrete(di, sigmas).tolist() == want.tolist()
        # no element fits 40 nodes: every round holds the first open element alone
        assert rounds[0] == {1.0}
        assert all(len(widths) == 1 for widths in rounds)

    @staticmethod
    def backstop_rates(sigmas):
        # at tolerance 1e-12, with start steps of up to 0.75 sigma without the
        # bound of the run's edge zeros, the asymmetric input at 1.0 needs a
        # second level, which would bring its 75 nodes to 149; at 0.5 its
        # first round of 167 nodes settles, and a first round is never held
        # back
        return mi_discrete(asymmetric_input(), np.array(sigmas), 1e-12)

    def test_element_over_the_backstop_fails_though_it_runs_alone(self, monkeypatch):
        # rounds of 40 nodes hold one element each
        monkeypatch.setattr(oracle, "_ROUND_NODES", 40)
        monkeypatch.setattr(oracle, "_MAX_NODES", 148)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        with pytest.raises(ConvergenceError, match="did not converge within 148 nodes") as batch:
            self.backstop_rates([0.5, 1.0, 0.5])
        with pytest.raises(ConvergenceError) as alone:
            self.backstop_rates([1.0])
        assert (batch.value.index, alone.value.index) == (1, 0)
        assert str(batch.value) == str(alone.value)

    def test_element_over_the_backstop_fails_as_it_would_alone(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_NODES", 148)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        assert self.backstop_rates([0.5, 0.5]).tolist() == self.backstop_rates([0.5]).tolist() * 2
        with pytest.raises(ConvergenceError, match="did not converge within 148 nodes") as batch:
            self.backstop_rates([0.5, 1.0, 0.5])
        with pytest.raises(ConvergenceError) as alone:
            self.backstop_rates([1.0])
        assert (batch.value.index, alone.value.index) == (1, 0)
        assert str(batch.value) == str(alone.value)


class TestSupportPadding:
    def test_tails_hold_their_share_of_the_tolerance(self):
        def tails(x):  # both tails of -phi*log2(phi) past x, without the unit's term
            phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            return (x * phi + 0.5 * math.erfc(x / math.sqrt(2.0))) / math.log(2.0)

        for tolerance in (1e-14, 1e-12, TOLERANCE, 1e-6, 1e-2):
            x = support_padding(tolerance)
            assert x * 16 == int(x * 16)
            assert tails(x) <= oracle._TAIL_SHARE * tolerance < tails(x - 1 / 16)
        assert support_padding(TOLERANCE) == 7.9375
        assert support_padding(1e3) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mi_discrete(EsduInput(1000.0, 2001), 1.0),  # a periodic interior
            lambda: mi_discrete(EsduInput(np.array([10.0, 5.0, 30.0, 100.0]), np.array([21, 11, 31, 401])),
                                np.array([0.4, 1.0, 0.3, 2.0])),
            lambda: mi_discrete(
                DiscreteInput(np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), np.array([0.1, 0.25, 0.3, 0.25, 0.1])),
                np.array([0.2, 1.0, 5.0]),
            ),
            lambda: mi_discrete(DiscreteInput(np.array([0.0, 1.0, 3.0]), np.full(3, 1 / 3)), np.array([0.3, 1.0, 4.0])),
            lambda: np.array([mi_uniform(P2pChannel(peak, 1.0)) for peak in (0.1, 3.0, 100.0)]),
        ],
        ids=["esdu", "esdu-batch", "mirrored", "asymmetric", "uniform"],
    )
    def test_rates_stay_within_a_hundredth_of_the_tolerance_of_ten_widths(self, call, monkeypatch):
        derived = np.asarray(call())
        monkeypatch.setattr(oracle, "support_padding", lambda tolerance: 10.0)
        np.testing.assert_allclose(derived, np.asarray(call()), rtol=0.0, atol=0.01 * TOLERANCE)


class TestPeriodicInterior:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(math.log(0.1), math.log(40.0)).map(math.exp), st.integers(0, 300),
        st.floats(math.log(1e-3), math.log(1e4)).map(math.exp),
    )
    @example(0.1, 0, 1.0)
    @example(0.1, 1, 1.0)
    @example(40.0, 0, 1e4)
    @example(40.0, 1, 1e-3)
    def test_equals_the_whole_half_output(self, s, extra, span):
        # K levels at s noise widths per level spacing, K odd or even and
        # past twice the edge: the ESDU path takes its edge and one half
        # period, the input's own atoms its whole half-output
        levels = 2 * math.ceil(support_padding(TOLERANCE) * s) + 2 + extra
        sigma = s * span / (levels - 1)
        elements = []
        integrate = oracle._trapezoid_integrals
        try:
            oracle._trapezoid_integrals = lambda f, lo, *args: elements.append(lo.size) or integrate(f, lo, *args)
            periodic = mi_discrete(EsduInput(span, levels), sigma)
        finally:
            oracle._trapezoid_integrals = integrate
        assert elements == [2]
        whole = mi_discrete(DiscreteInput.from_esdu(EsduInput(span, levels)), sigma)
        assert periodic == pytest.approx(whole, abs=TOLERANCE)

    def test_cost_does_not_grow_with_the_alphabet(self, monkeypatch):
        # at two noise widths per level spacing the edge [-15.875, 16] takes
        # 47 nodes at the 1.39 start step and the half period [16, 16.5] 3,
        # whatever the alphabet; the whole half-output of K = 2001 from 10
        # widths below 0 at a 1.5 start step took 1,361
        nodes = []
        inner = oracle.mixture_log_pdf
        monkeypatch.setattr(oracle, "mixture_log_pdf", lambda inp, s, y: nodes.append(np.size(y)) or inner(inp, s, y))
        mi_discrete(EsduInput(1000.0, 2001), 1.0)
        assert nodes == [50]
        for levels in (201, 202, 2002, 20001):
            nodes.clear()
            mi_discrete(EsduInput(0.5 * (levels - 1), levels), 1.0)
            assert nodes == [50]


class TestMiUniform:
    def test_zero_peak(self):
        assert mi_uniform(P2pChannel(0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("peak", [1e-12, 1e-4, 4.0])
    def test_pdf_normalizes(self, peak):
        ch = P2pChannel(peak, 1.5)
        mass, _ = scipy_quad(lambda y: uniform_output_pdf(ch, y), -20.0, peak + 20.0, epsabs=1e-12, limit=500)
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-13])
    def test_narrow_input_matches_its_gaussian_limit(self, tolerance):
        # Y's negentropy is O(a^8) in a = A/sigma, so 0.5*log2(1 + a^2/12), Y's
        # Gaussian entropy less the noise's, is the rate to well below 1e-20
        for exponent in range(-300, -1):
            a = 10.0**exponent
            rate = mi_uniform(P2pChannel(a, 1.0), tolerance)
            assert abs(rate - 0.5 * math.log1p(a * a / 12.0) / math.log(2.0)) <= tolerance, a

    @pytest.mark.parametrize("db", [-10, 0, 10, 20, 30])
    def test_agrees_with_the_g7k15_reference(self, db):
        # the mirrored trapezoid rule over [-7.9375, peak/2], against G7/K15
        # over the whole output
        ch = P2pChannel(10 ** (db / 10), 1.0)

        def integrand(y):
            p = uniform_output_pdf(ch, y)
            return np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)

        full = ref.adaptive_integral(integrand, -10.0, ch.peak + 10.0, 1.0) - ref.noise_entropy(1.0)
        assert mi_uniform(ch) == pytest.approx(full, abs=TOLERANCE)

    def test_within_closed_form_sandwich(self):
        for ratio in (0.1, 1.0, 3.1623, 10.0, 31.623):
            ch = P2pChannel(ratio, 1.0)
            rate = mi_uniform(ch)
            assert c_lower(ch) - 1e-6 <= rate <= e_cap(ch) + 1e-6


class TestTolerance:
    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.nan, math.inf])
    def test_rejected_before_any_integrand_call(self, monkeypatch, tolerance):
        for name in ("mixture_log_pdf", "uniform_output_pdf"):
            monkeypatch.setattr(oracle, name, lambda *a: pytest.fail("integrand ran"))
        calls = (
            lambda: mi_discrete(DiscreteInput.from_esdu(EsduInput(2.0, 3)), 1.0, tolerance),
            lambda: mi_discrete(DiscreteInput.from_esdu(EsduInput(2.0, 3)), np.array([1.0, 2.0]), tolerance),
            lambda: mi_discrete(EsduInput(10.0, 21), 1.0, tolerance),
            lambda: mi_uniform(P2pChannel(3.0, 1.0), tolerance),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^absolute_tolerance must be finite and > 0$"):
                call()

    @pytest.mark.parametrize("tolerance", [0.0, math.nan])
    def test_rejected_where_nothing_is_integrated(self, tolerance):
        # a zero peak builds no panel, yet the tolerance is checked as at any other peak
        with pytest.raises(ValueError, match=r"^absolute_tolerance must be finite and > 0$"):
            mi_uniform(P2pChannel(0.0, 1.0), tolerance)


class TestNoiseEntropy:
    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1e-160, 1e160, 1e170, 1e300])
    def test_rates_at_extreme_noise_widths_are_those_at_one(self, s):
        # a binary input one noise width wide, and the uniform input: only the
        # unit changes, so the rates are those at s = 1; 2*pi*e*s^2 is inf or
        # not a normal float64, and no warning is raised
        def rates(w):
            binary = DiscreteInput(np.array([0.0, w]), np.array([0.5, 0.5]))
            return mi_monte_carlo(binary, w, 20_000, 3).value, mi_discrete(binary, w), mi_uniform(P2pChannel(w, w))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rates(s)
        assert got == pytest.approx(rates(1.0), abs=TOLERANCE)


class TestKronrodRule:
    """The tables of the reference G7/K15 integrator."""

    @staticmethod
    def legendre_moment(d):
        return 0.0 if d % 2 else 2.0 / (d + 1)

    def test_k15_integrates_degree_22_exactly(self):
        for d in range(23):
            assert np.dot(ref.K15_WEIGHTS, ref.K15_NODES**d) == pytest.approx(
                self.legendre_moment(d), abs=1e-14
            )

    def test_g7_integrates_degree_13_exactly(self):
        for d in range(14):
            assert np.dot(ref.G7_WEIGHTS, ref.K15_NODES**d) == pytest.approx(
                self.legendre_moment(d), abs=1e-14
            )

    def test_g7_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.allclose(ref.K15_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(ref.G7_WEIGHTS[1::2], weights, rtol=0.0, atol=1e-15)
        assert not ref.G7_WEIGHTS[0::2].any()


class TestTrapezoidRule:
    def test_mi_discrete_cost_is_pinned(self, monkeypatch):
        nodes = []
        inner = oracle.mixture_log_pdf

        def counting(inp, sigma, y):
            nodes.append(np.size(y))
            return inner(inp, sigma, y)

        monkeypatch.setattr(oracle, "mixture_log_pdf", counting)
        mi_discrete(DiscreteInput.from_esdu(EsduInput(10.0, 21)), 1.0)
        # the input is its own mirror image: over the lower half
        # [-7.9375, 5], at the start step of 0.695 sigma, the first round's 39
        # nodes give T_19 and T_38, which are accepted
        assert sum(nodes) == 39

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(2, 300), st.floats(math.log(0.01), math.log(5.0)).map(math.exp))
    @example(3, 0.1)  # EsduInput(2.0, 3) at 0.1: a flat 0.75-sigma start step stopped 3e-9 bits off
    @example(181, 0.0124)
    def test_agrees_with_the_full_g7k15_integral(self, levels, s):
        # the integers 0..K-1 at s noise widths per atom spacing, by the ESDU path
        di = DiscreteInput(np.arange(levels, dtype=float), np.full(levels, 1.0 / levels))
        lo, hi = -10.0 * s, levels - 1 + 10.0 * s
        full = ref.adaptive_integral(entropy_integrand(di, s), lo, hi, s) - ref.noise_entropy(s)
        assert mi_discrete(EsduInput(float(levels - 1), levels), s) == pytest.approx(full, abs=TOLERANCE)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=15), st.booleans(), st.integers(0, 2**32 - 1),
        st.floats(math.log(0.01), math.log(5.0)).map(math.exp),
    )
    def test_uneven_mirrored_input_agrees_with_the_full_g7k15_integral(self, gaps, middle, seed, sigma):
        # atoms and masses mirrored about 0, with or without an atom at 0
        half = np.cumsum(gaps)
        atoms = np.concatenate([-half[::-1], [0.0] * middle, half])
        weights = np.random.default_rng(seed).uniform(0.1, 1.0, half.size + middle)
        masses = np.concatenate([weights[: half.size][::-1], weights[half.size :], weights[: half.size]])
        di = DiscreteInput(atoms, masses / masses.sum())
        assert oracle._mirrored(di)
        lo, hi = atoms[0] - 10.0 * sigma, atoms[-1] + 10.0 * sigma
        full = ref.adaptive_integral(entropy_integrand(di, sigma), lo, hi, sigma) - ref.noise_entropy(sigma)
        assert mi_discrete(di, sigma) == pytest.approx(full, abs=TOLERANCE)

    @pytest.mark.parametrize(
        "gaps,sigma,c",
        [
            # a lattice: c = min(0.75, 2 pi^2 s / (30 - 1/(8 s^2))) where that denominator is positive, else 0.75
            ((1.0, 1.0), 1.0, 2 * math.pi**2 / 29.875),
            ((1.0, 1.0), 0.1, 0.2 * math.pi**2 / 17.5),
            ((1.0, 1.0), 4.0, 0.75),
            ((1.0, 1.0), 0.05, 0.75),
            ((0.0, 0.0), 1.0, 0.75),  # one atom
            # uneven gaps: the largest, sqrt(80) sigma between them, or the smallest sets c
            ((0.5, 3.0), 0.5, 2 * math.pi**2 / (6 * (30 - 6**2 / 8))),
            ((0.5, 3.0), 0.2, 2 * math.pi**2 / (math.sqrt(80) * 20)),
            ((0.5, 3.0), 0.05, 2 * math.pi**2 / (10 * (30 - 10**2 / 8))),
            ((0.5, 3.0), 0.01, 0.75),
        ],
    )
    def test_start_step(self, gaps, sigma, c, monkeypatch):
        # the model of the gaps' zeros alone, at its largest exponent, E = 30:
        # any tolerance from 3.7e-13 down, with no edge bound
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)
        step = oracle._start_steps(np.array([gaps[0]]), np.array([gaps[1]]), np.array([sigma]), 1e-20)[0]
        assert step / sigma == pytest.approx(c, rel=1e-15)

    # the exponent E = ln(4/tolerance) at the default tolerance, and the bound
    # 2*pi*2.7/E that the zeros of a run's ends put on c
    E = math.log(4.0 / TOLERANCE)
    EDGE = 2 * math.pi * 2.7 / E

    @pytest.mark.parametrize(
        "gaps,sigma,tolerance,c",
        [
            # a lattice: c = min(0.75, 2 pi 2.7 / E, 2 pi^2 s / (E - 1/(8 s^2))), the last where its
            # denominator is positive
            ((1.0, 1.0), 1.0, TOLERANCE, EDGE),  # 2 pi^2 / (E - 1/8) would be 0.81
            ((1.0, 1.0), 0.1, TOLERANCE, 0.2 * math.pi**2 / (E - 12.5)),
            ((1.0, 1.0), 4.0, TOLERANCE, EDGE),
            ((1.0, 1.0), 0.05, TOLERANCE, EDGE),
            ((0.0, 0.0), 1.0, TOLERANCE, EDGE),  # one atom
            ((1.0, 1.0), 1.0, 1e-12, 2 * math.pi * 2.7 / math.log(4e12)),
            ((1.0, 1.0), 4.0, 1e-6, 0.75),  # the edge bound, 1.12, is past the cap
            ((1.0, 1.0), 1.0, 8.0, 0.75),  # E is 0, never negative
            # uneven gaps: the largest, sqrt(8E/3) sigma between them, or the smallest sets c
            ((0.5, 3.0), 0.5, TOLERANCE, 2 * math.pi**2 / (6 * (E - 6**2 / 8))),
            ((0.5, 3.0), 0.2, TOLERANCE, 2 * math.pi**2 / (math.sqrt(8 * E / 3) * (2 * E / 3))),
            ((0.5, 3.0), 0.05, TOLERANCE, 2 * math.pi**2 / (10 * (E - 10**2 / 8))),
            ((0.5, 3.0), 0.01, TOLERANCE, EDGE),
            # E stops at 30, from tolerance 3.7e-13 down: the finest start step of any input, 0.11
            ((0.5, 3.0), 0.2, 1e-20, 2 * math.pi**2 / (math.sqrt(80) * 20)),
        ],
    )
    def test_start_step_follows_the_tolerance(self, gaps, sigma, tolerance, c):
        step = oracle._start_steps(np.array([gaps[0]]), np.array([gaps[1]]), np.array([sigma]), tolerance)[0]
        assert step / sigma == pytest.approx(c, rel=1e-15)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(2, 79), st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
        st.sampled_from([1e-8, TOLERANCE, 1e-12]),
    )
    @example(11, 4.0, TOLERANCE)  # 0.75 sigma left T_n 1.2e-10 bits off: a second level
    @example(3, 0.92, TOLERANCE)  # the nearest edge zero, 2.48 sigma off the axis
    def test_first_round_settles(self, levels, s, tolerance):
        # T_n of the start step is within half the tolerance of T_2n, so no
        # lattice pays a second level, which would raise here
        nodes = oracle._MAX_NODES
        try:
            oracle._MAX_NODES = 0
            mi_discrete(EsduInput(float(levels - 1), levels), s, tolerance)
        finally:
            oracle._MAX_NODES = nodes

    def test_element_over_the_node_backstop_fails_as_it_would_alone(self, monkeypatch):
        # at tolerance 1e-12, with start steps of up to 0.75 sigma without
        # the bound of the lattice's edge zeros, K = 21 at s = 2 needs a
        # second level, which would bring its 39 nodes to 77; at s = 0.6 the
        # first round's 87 edge and 7 half-period nodes settle, and a
        # first round is never held back
        monkeypatch.setattr(oracle, "_MAX_NODES", 76)
        monkeypatch.setattr(oracle, "_EDGE_ZERO_SIGMAS", math.inf)

        def rates(sigmas):
            return mi_discrete(EsduInput(np.full(len(sigmas), 20.0), 21), np.array(sigmas), 1e-12)

        assert rates([0.6, 0.6]).tolist() == [mi_discrete(EsduInput(20.0, 21), 0.6, 1e-12)] * 2
        with pytest.raises(ConvergenceError, match="did not converge within 76 nodes") as batch:
            rates([0.6, 2.0, 0.6])
        with pytest.raises(ConvergenceError) as alone:
            rates([2.0])
        assert (batch.value.index, alone.value.index) == (1, 0)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("tolerance", [1e-14, 1e-30])
    def test_fails_fast_at_the_round_off_level(self, tolerance, monkeypatch):
        # T_n and T_2n of the first round already agree to within the
        # round-off level of their sum, about 50 eps times 4.4 bits: no
        # refinement can reach the tolerance, so the first round is the last
        nodes = []
        inner = oracle.mixture_log_pdf
        monkeypatch.setattr(oracle, "mixture_log_pdf", lambda inp, s, y: nodes.append(np.size(y)) or inner(inp, s, y))
        with pytest.raises(ConvergenceError, match="round-off level") as err:
            mi_discrete(asymmetric_input(), np.array([0.5, 1.0]), tolerance)
        assert err.value.index == 0
        assert len(nodes) == 1
        assert abs(err.value.last_estimate - err.value.previous_estimate) <= 50 * np.finfo(float).eps * 5.0


def spike(y):
    """A unit-mass Gaussian 0.02 wide, far narrower than a 2-wide panel."""
    return np.exp(-0.5 * (y / 0.02) ** 2) / (0.02 * math.sqrt(2 * math.pi))


class TestAdaptiveIntegral:
    """The reference G7/K15 integrator's refinement and its ways to give up."""

    def test_refines_a_spike(self):
        # density much narrower than the resolution hint: must refine, then hit it
        assert ref.adaptive_integral(spike, -1.0, 1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_convergence_error_carries_estimates(self):
        with pytest.raises(ref.NotConverged, match="within 1 refinement rounds") as err:
            ref.adaptive_integral(spike, -1.0, 1.0, 1.0, 1e-12, max_refinements=1)
        assert math.isfinite(err.value.last_estimate)
        assert math.isfinite(err.value.previous_estimate)
        assert err.value.last_estimate != err.value.previous_estimate

    def test_fails_fast_below_roundoff_floor(self):
        panels = []

        def gaussian(y):
            panels.append(y.shape[0])
            return np.exp(-0.5 * y * y)

        with pytest.raises(ref.NotConverged, match="round-off"):
            ref.adaptive_integral(gaussian, -10.0, 10.0, 1.0, 1e-30)
        assert sum(panels) <= 300

    def test_backstop_ends_the_refinement(self):
        # the spike needs more than 8 open panels
        with pytest.raises(ref.NotConverged, match="more than 8 open panels"):
            ref.adaptive_integral(spike, -1.0, 1.0, 1.0, 1e-12, max_panels=8)


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

    def test_unequal_masses_are_pinned(self):
        # unequal masses, a zero among them: every block is floored
        di = DiscreteInput(np.array([0.0, 1.0, 2.5, 7.0, 60.0]), np.array([0.1, 0.0, 0.4, 0.2, 0.3]))
        est = mi_monte_carlo(di, 0.8, 200_000, 11)
        assert (est.value.hex(), est.standard_error.hex()) == ("0x1.c0cbf3c559614p+0", "0x1.35108174e82a7p-9")

    def test_records_generator(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        assert mi_monte_carlo(di, 1.0, 10_000, 0).generator == "numpy-pcg64"

    def test_rejects_small_sample_counts(self):
        di = DiscreteInput.from_esdu(EsduInput(2.0, 4))
        with pytest.raises(ValueError):
            mi_monte_carlo(di, 1.0, 9_999, 0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        levels=st.integers(1, 64),
        equal=st.booleans(),
        weight_seed=st.integers(0, 2**31 - 1),
        sigma=st.floats(0.05, 5.0),
        samples=st.integers(10_000, 350_001),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(levels=64, equal=False, weight_seed=1, sigma=0.3, samples=350_001, seed=2**31 - 1)
    @example(levels=21, equal=True, weight_seed=0, sigma=1.0, samples=300_000, seed=7)
    @example(levels=1, equal=True, weight_seed=0, sigma=1.0, samples=100_001, seed=0)
    def test_matches_one_shot_reference(self, levels, equal, weight_seed, sigma, samples, seed):
        # block-by-block draws, the noise from the advanced generator,
        # reproduce the one-shot stream bit for bit
        atoms = np.arange(levels) * 0.8
        weights = np.ones(levels) if equal else np.random.default_rng(weight_seed).uniform(0.1, 1.0, levels)
        di = DiscreteInput(atoms, weights / weights.sum())
        est = mi_monte_carlo(di, sigma, samples, seed)
        mean, stderr = ref.monte_carlo(di.atoms, di.masses, sigma, samples, seed,
                                       lambda y: mixture_log_pdf(di, sigma, y))
        assert est.value == mean - ref.noise_entropy(sigma)
        assert est.standard_error == stderr

    @staticmethod
    def masses(levels, kind):
        weights = np.ones(levels) if kind == "equal" else np.random.default_rng(levels).uniform(0.1, 1.0, levels)
        if kind == "zeros":
            weights[1::3] = 0.0
        return weights / weights.sum()

    @pytest.mark.parametrize("block", [10_000, 123_457])
    @pytest.mark.parametrize("kind", ["equal", "unequal", "zeros"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 21, 2001])
    def test_index_lookup_matches_rng_choice(self, levels, kind, block):
        masses = self.masses(levels, kind)
        seed = 1000 * levels + block
        want = np.random.default_rng(seed).choice(levels, size=block, p=masses)
        got = oracle._atom_indices(np.random.default_rng(seed).random(block), masses)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["equal", "unequal", "zeros"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 21, 2001])
    def test_index_lookup_at_every_bucket_edge(self, levels, kind):
        # every cdf entry and guess edge k/K, each with its neighbours: numpy's
        # choice gives each double u the index cdf.searchsorted(u, side="right")
        masses = self.masses(levels, kind)
        cdf = np.cumsum(masses)
        cdf /= cdf[-1]
        edges = np.concatenate([cdf, np.arange(levels) / levels, [np.nextafter(1.0, 0.0)]])
        u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(oracle._atom_indices(u, masses), cdf.searchsorted(u, side="right"))

    def test_memory_does_not_grow_with_samples(self):
        di = DiscreteInput.from_esdu(EsduInput(10.0, 21))
        peaks = []
        for samples in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                mi_monte_carlo(di, 1.0, samples, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 8e6
        assert peaks[1] <= 1.1 * peaks[0]
