"""The closed-form bounds on batches: every element of a batched call equals
the scalar call bit for bit and the one-input reference within 1e-12, and the
carried properties hold on random inputs (the sandwich around the exact rate,
dependence on span/sigma only)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from esdurate.esdu import MAX_LEVELS, EsduInput, _F3_ENTRIES, f1, f2, f3, f_lower, g_prime, g_upper, owb, xi
from esdurate.oracle import mi_discrete
from esdurate.uniform import P2pChannel, c_lower, c_upper, e_cap

#: (span, levels, sigma) of one input; span/sigma stays within 2,000.
ELEMENT = st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 200.0)), st.integers(1, 40), st.floats(0.1, 10.0))
#: elements every batch carries: one level; zero span over several levels; a
#: span so far below sigma that owb is -inf
EDGES = [(0.0, 1, 1.0), (0.0, 4, 2.0), (0.0, 2, 0.5), (1e-250, 2, 1.0)]

ESDU_BOUNDS = {
    "xi": (xi, ref.xi), "f1": (f1, ref.f1), "f2": (f2, ref.f2), "f3": (f3, ref.brute_f3),
    "f_lower": (f_lower, ref.f_lower), "owb": (owb, ref.owb), "g_prime": (g_prime, ref.g_prime),
    "g_upper": (g_upper, ref.g_upper),
}
UNIFORM_BOUNDS = {"c_lower": (c_lower, ref.c_lower), "c_upper": (c_upper, ref.c_upper), "e_cap": (e_cap, ref.e_cap)}


def defined(name, span, levels):
    """Whether the bound takes this input: f_lower and g_upper take every
    input, owb needs a positive span, the others two levels or more."""
    if name in ("f_lower", "g_upper"):
        return True
    return levels >= 2 and (span > 0.0 or name != "owb")


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def batch_of(elements):
    rows = [(0.0 if levels == 1 else span, levels, sigma) for span, levels, sigma in elements] + EDGES
    spans, levels, sigmas = (np.array(column) for column in zip(*rows))
    return rows, spans, levels, sigmas


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(ELEMENT, min_size=1, max_size=10))
def test_batched_bounds_equal_scalar_calls_and_the_reference(elements):
    rows, spans, levels, sigmas = batch_of(elements)
    for name, (bound, reference) in ESDU_BOUNDS.items():
        keep = np.array([defined(name, span, k) for span, k, _ in rows])
        batch = bound(EsduInput(spans[keep], levels[keep]), sigmas[keep])
        kept = [row for row, k in zip(rows, keep) if k]
        scalar = [bound(EsduInput(span, k), sigma) for span, k, sigma in kept]
        assert all(type(v) is float for v in scalar), name
        assert bits(batch) == bits(scalar), name
        expected = [reference(span, k, sigma) for span, k, sigma in kept]
        np.testing.assert_allclose(batch, expected, rtol=0.0, atol=1e-12, err_msg=name)
    for name, (bound, reference) in UNIFORM_BOUNDS.items():
        batch = bound(P2pChannel(spans, sigmas))
        scalar = [bound(P2pChannel(span, sigma)) for span, _, sigma in rows]
        assert bits(batch) == bits(scalar), name
        expected = [reference(span, sigma) for span, _, sigma in rows]
        np.testing.assert_allclose(batch, expected, rtol=0.0, atol=1e-12, err_msg=name)


def test_batch_shapes_broadcast():
    # one span over several level counts and noise widths, as a sweep's composite alphabets
    levels = np.array([[2, 5, 40]])
    sigmas = np.array([[1.0], [3.0]])
    batch = f_lower(EsduInput(20.0, levels), sigmas)
    assert batch.shape == (2, 3)
    for (i, j), value in np.ndenumerate(batch):
        assert value == f_lower(EsduInput(20.0, int(levels[0, j])), float(sigmas[i, 0]))


def f3_summed_to_its_stop(span, levels, sigma):
    """f3 of one input from every term d = 1..K-1 at once, cut by the stop
    rule alone: the sum ends before the first term under 1e-18 of the total
    before it, with no bound on how far that is."""
    decay = np.square(span / (levels - 1) / (2.0 * sigma))
    d = np.arange(1.0, levels)
    terms = 2.0 * (levels - d) * np.exp(-decay * d * d)
    running = np.cumsum(np.concatenate([[float(levels)], terms]))
    small = np.flatnonzero(terms < 1e-18 * running[:-1])
    total = running[small[0]] if small.size else running[-1]
    return float(-np.log2(math.sqrt(0.5 * math.e) * total / (levels * levels)))


def test_f3_batch_at_the_regime_edges_equals_its_elements():
    # f3 sums each element to its reach in groups; the reach is
    # min(K, ceil(sqrt(40/decay)) + 1) with decay = (spacing/(2 sigma))^2
    rng = np.random.default_rng(5)
    levels = rng.integers(2, 3000, 400)
    spacing = 10.0 ** rng.uniform(-3.0, 1.0, levels.size)  # reaches from 2 to thousands
    edges = [
        (1e-200, 3),  # the decay underflows to 0: summed to d = K
        (1e-200, MAX_LEVELS),  # ... over more differences than _F3_ENTRIES
        (2e-4 * (MAX_LEVELS - 1), MAX_LEVELS),  # a tiny decay: reach 63,247, summed in blocks short of K
        (1e8, 1000),  # a huge decay: reach 2
        (1e3, 2),
    ]
    spans = np.concatenate([spacing * (levels - 1), [span for span, _ in edges]])
    levels = np.concatenate([levels, [k for _, k in edges]])
    order = rng.permutation(levels.size)  # out of reach order
    spans, levels = spans[order], levels[order]
    decay = np.square(spans / (levels - 1) / 2.0)
    with np.errstate(divide="ignore"):
        reach = np.minimum(levels, np.ceil(np.sqrt(40.0 / decay)) + 1.0)
    assert reach.min() == 2 and np.any((reach > 1000) & (reach < 3000))
    assert np.any((_F3_ENTRIES < reach) & (reach < MAX_LEVELS)) and reach.max() == MAX_LEVELS
    tracemalloc.start()
    try:
        batch = f3(EsduInput(spans, levels), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # O(N) for the batch's own arrays plus work arrays of at most _F3_ENTRIES terms
    assert peak < 1e6
    alone = [f3(EsduInput(float(span), int(k)), 1.0) for span, k in zip(spans, levels)]
    assert bits(batch) == bits(alone)
    # the reach never cuts a sum short of where the stop rule ends it
    cheap = levels < 3000
    reference = [f3_summed_to_its_stop(float(span), int(k), 1.0) for span, k in zip(spans[cheap], levels[cheap])]
    assert bits(batch[cheap]) == bits(reference)


def test_f3_is_the_plain_sequential_sum():
    # the reference adds every term d = 1..K-1 in order, with no reach and no
    # stop: f3's reach drops only terms under half an ulp of the total
    spacings = {
        "underflow": 1e-200,  # the decay underflows to 0: reach K
        "long": 2.0 * math.sqrt(1.2e-7),  # reach 18,259: past _F3_ENTRIES, short of K = 20,001
        "moderate": 0.2,  # reach 65
        "huge": 2e3,  # reach 2
    }
    levels = np.array([2, 3, 1000, 20_001, MAX_LEVELS])
    spans = np.array([[spacing * (k - 1) for k in levels] for spacing in spacings.values()])
    reference = np.empty(spans.shape)
    for (i, j), span in np.ndenumerate(spans):
        k = int(levels[j])
        decay = np.square(span / (k - 1) / 2.0)
        d = np.arange(1.0, k)
        total = np.cumsum(np.concatenate([[float(k)], 2.0 * (k - d) * np.exp(-decay * d * d)]))[-1]
        reference[i, j] = -np.log2(math.sqrt(0.5 * math.e) * total / (k * k))
    assert np.square(spacings["underflow"] / 2.0) == 0.0
    batch = f3(EsduInput(spans, levels), 1.0)
    assert bits(batch) == bits(reference)
    alone = [[f3(EsduInput(float(span), int(k)), 1.0) for span, k in zip(row, levels)] for row in spans]
    assert bits(alone) == bits(reference)


def test_batch_rejects_any_invalid_element():
    with pytest.raises(ValueError, match="levels must be an integer >= 1"):
        EsduInput(np.array([1.0, 2.0]), np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="span must be finite"):
        EsduInput(np.array([1.0, math.nan]), np.array([2, 3]))
    with pytest.raises(ValueError, match="single-level"):
        EsduInput(np.array([0.0, 1.0]), np.array([2, 1]))
    batch = EsduInput(np.array([1.0, 2.0]), np.array([2, 3]))
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        f_lower(batch, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="single-level"):
        f3(EsduInput(np.array([1.0, 0.0]), np.array([2, 1])), 1.0)
    with pytest.raises(ValueError, match="positive span"):
        owb(EsduInput(np.array([1.0, 0.0]), np.array([2, 3])), 1.0)


def test_float64_overflow_raises():
    # the ratio squared overflows; a rate of inf would be no bound
    with pytest.raises(FloatingPointError):
        c_lower(P2pChannel(np.array([1.0, 1e200]), 1.0))
    with pytest.raises(FloatingPointError):
        f3(EsduInput(1e200, 2), 1.0)
    with pytest.raises(FloatingPointError):
        g_upper(EsduInput(np.array([1.0, 1e200]), np.array([2, 2])), 1.0)
    assert owb(EsduInput(1e-250, 2), 1.0) == -math.inf


def test_scalar_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"sigma must be finite and > 0, got -1\.0$"):
        f_lower(EsduInput(1.0, 3), -1.0)
    with pytest.raises(ValueError, match=r"sigma must be finite and > 0, got nan$"):
        g_upper(EsduInput(1.0, 3), math.nan)
    with pytest.raises(ValueError, match=r"levels must be an integer >= 1, got 2\.0$"):
        EsduInput(1.0, 2.0)
    assert f_lower(EsduInput(0.0, 3), -1.0) == 0.0  # degenerate inputs never reach sigma


#: small inputs whose exact rate is cheap: K up to 12, span/sigma up to 60
SMALL = st.tuples(st.floats(0.05, 30.0), st.integers(2, 12), st.floats(0.5, 2.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(SMALL)
def test_bounds_sandwich_the_exact_rate(element):
    span, levels, sigma = element
    inp = EsduInput(span, levels)
    rate = mi_discrete(inp, sigma)
    # the quadrature is good to its 1e-10 absolute tolerance
    assert f_lower(inp, sigma) <= rate + 1e-9
    assert rate <= g_upper(inp, sigma) + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ELEMENT, st.floats(1e-3, 1e3))
def test_bounds_depend_on_span_over_sigma_only(element, scale):
    span, levels, sigma = element
    span = 0.0 if levels == 1 else span
    inp, scaled = EsduInput(span, levels), EsduInput(scale * span, levels)
    for name, (bound, _) in ESDU_BOUNDS.items():
        if defined(name, span, levels):
            assert bound(inp, sigma) == pytest.approx(bound(scaled, scale * sigma), abs=1e-12), name
    for name, (bound, _) in UNIFORM_BOUNDS.items():
        assert bound(P2pChannel(span, sigma)) == pytest.approx(
            bound(P2pChannel(scale * span, scale * sigma)), abs=1e-12
        ), name
