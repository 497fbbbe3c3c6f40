"""Analytical bounds on the information rate of an evenly-spaced discrete
uniform (ESDU) input observed through additive Gaussian noise.

Lower bounds:
  * f1 -- error-probability (Fano) bound, tight when the levels are far apart;
  * f2 -- dither bound, a difference of continuous-uniform bounds, tight when
    the levels are dense;
  * f3 -- Jensen bound on the output entropy, also a dense-constellation bound;
  * f_lower -- the best of the three, clamped at zero.

Upper bounds:
  * g_prime -- entropy-power bound;
  * g_upper -- minimum of the alphabet entropy log2(K), the channel capacity
    bound, and g_prime.

owb is the classical Ozarow-Wyner-B lower bound, kept for comparison; f_lower
dominates it everywhere it is defined.

Every bound works elementwise.  An EsduInput whose span and levels are numpy
arrays is a batch of inputs; span, levels and sigma broadcast against each
other, and the bound returns an array of their common shape.  A scalar input
and sigma go through the same code and give a Python float, so a batch
element equals the scalar call on that element bit for bit.  Where a bound
rejects an input, a batch is rejected if any element would be; a spacing or
span too large for float64 arithmetic raises FloatingPointError, as the
uniform-input bounds do.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import TWO_PI_E, _check_sigma, as_result, binary_entropy, every, is_integer, q_elementwise
from .uniform import P2pChannel, c_lower, c_upper, e_cap

# constant term of the OWB bound, 0.5*log2(2*pi*e/12)
_OWB_GAP = 0.5 * math.log2(TWO_PI_E / 12.0)
_SQRT_E_HALF = math.sqrt(0.5 * math.e)
#: Most terms of the f3 sum evaluated at once.  The next elements, in reach
#: order (see f3), whose reaches fit in it together are summed as one group;
#: an element that reaches farther is summed alone, this many differences at
#: a time.  Each work array then holds at most about 128 KB of float64.
_F3_ENTRIES = 16384


@dataclass(frozen=True)
class EsduInput:
    """K equally likely levels evenly spaced over [0, span].

    Level i sits at span*i/(levels-1) for levels >= 2.  A single-level input
    must have span 0 and is the degenerate "silent" input used when one user
    of a broadcast split carries no message.

    span and levels may be a float array and an integer array that broadcast
    against each other: a batch of inputs (see the module docstring).  A
    batch is not hashable, and atoms() takes a single input only.
    """

    span: float
    levels: int

    def __post_init__(self) -> None:
        levels, span = self.levels, self.span
        if not (is_integer(levels) and every(levels >= 1)):
            raise ValueError(f"levels must be an integer >= 1, got {levels!r}")
        if not every((span >= 0.0) & (span < math.inf)):
            raise ValueError(f"span must be finite and >= 0, got {span!r}")
        if not every((levels != 1) | (span == 0.0)):
            raise ValueError("a single-level input has no extent; span must be 0")

    @property
    def spacing(self) -> float:
        """Distance between adjacent levels (levels >= 2 only)."""
        if not every(self.levels >= 2):
            raise ValueError("spacing is undefined for a single-level input")
        return self.span / (self.levels - 1)

    def atoms(self) -> list[float]:
        """Positions of the levels, ascending."""
        if self.levels == 1:
            return [0.0]
        step = self.span / (self.levels - 1)
        return [i * step for i in range(self.levels)]


#: Largest alphabet alphabet_size hands out: 50 times the K = 2001 of a 30 dB
#: table at half-sigma spacing, and small enough that one oracle call on it
#: stays within seconds and a few MB.
MAX_LEVELS = 100_000


def alphabet_size(peak: float, spacing: float) -> int:
    """Levels K = max(2, ceil(peak/spacing) + 1) of an ESDU input over
    [0, peak] whose levels are at most `spacing` apart.

    Raises ValueError for a peak that is not finite and >= 0, a spacing that
    is not finite and > 0, or a K above MAX_LEVELS.
    """
    if not (math.isfinite(peak) and peak >= 0.0):
        raise ValueError(f"peak must be finite and >= 0, got {peak!r}")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be finite and > 0, got {spacing!r}")
    ratio = peak / spacing
    if not ratio <= MAX_LEVELS - 1:
        raise ValueError(
            f"peak/spacing = {ratio:.6g} needs more than the {MAX_LEVELS} levels allowed"
        )
    return max(2, math.ceil(ratio) + 1)


def _require_multilevel(inp: EsduInput, op: str) -> None:
    if not every(inp.levels >= 2):
        raise ValueError(f"{op} is undefined for a single-level input")


def xi(inp: EsduInput, sigma: float) -> float:
    """Symbol error probability of the nearest-level detector.

    Interior levels are confused with either neighbour, the two edge levels
    with one, giving 2*(K-1)/K * Q(spacing/(2*sigma)).
    """
    _require_multilevel(inp, "xi")
    _check_sigma(sigma)
    k = inp.levels
    return as_result(2.0 * (k - 1) / k * q_elementwise(inp.spacing / (2.0 * sigma)))


def f1(inp: EsduInput, sigma: float) -> float:
    """Fano lower bound log2(K) - H(xi) - xi*log2(K-1).

    Goes negative once the levels crowd together; callers that need a valid
    rate use f_lower, which clamps.
    """
    _require_multilevel(inp, "f1")
    err = xi(inp, sigma)
    k = inp.levels
    return as_result(np.log2(k) - binary_entropy(err) - err * np.log2(k - 1))


def f2(inp: EsduInput, sigma: float) -> float:
    """Dither lower bound.

    Adding an independent uniform dither of one spacing width turns the input
    into a continuous uniform over a span widened by one spacing; the bound is
    the uniform-input rate of the widened span minus the rate ceiling of the
    dither alone.
    """
    _require_multilevel(inp, "f2")
    _check_sigma(sigma)
    k = inp.levels
    widened = P2pChannel(inp.span * k / (k - 1), sigma)
    dither = P2pChannel(inp.span / (k - 1), sigma)
    return c_lower(widened) - e_cap(dither)


@np.errstate(over="raise")
def f3(inp: EsduInput, sigma: float) -> float:
    """Jensen lower bound on the output entropy.

    The defining double sum over level pairs (i, j) depends only on d = i - j,
    so it is evaluated as a single sum over differences with multiplicity
    (K - |d|): K plus the terms 2(K - d) exp(-decay d^2), decay =
    (spacing/(2 sigma))^2, added in order of d.  The terms never increase and
    the total starts at K, so once decay d^2 >= 40 a term is below
    2 exp(-40) K ~ 8.5e-18 K < 2^-54 K, under half an ulp of the total, and
    changes no bit.  The sum therefore ends at its reach
    d = min(K, ceil(sqrt(40/decay)) + 1).  A batch is sorted by reach and
    summed in groups, differences down axis 0 and elements across (see
    _F3_ENTRIES); one cumulative sum from the total adds each element's terms
    in the order it would alone, padded to the group's widest reach with
    terms that change no bit (0 past d = K).
    """
    _require_multilevel(inp, "f3")
    _check_sigma(sigma)
    decay, k = np.broadcast_arrays(np.square(inp.spacing / (2.0 * sigma)), inp.levels)
    shape, decay, k = k.shape, decay.ravel(), k.ravel()
    with np.errstate(divide="ignore", over="ignore"):  # a decay of 0 or near it reaches K
        reach = np.minimum(k, np.ceil(np.sqrt(40.0 / decay)) + 1.0).astype(np.int64)
    order = np.argsort(reach, kind="stable")
    reach = reach[order]  # ascending, as the elements are taken
    total = k.astype(float)  # d = 0 contributes K terms of 1
    first = 0  # the next element in reach order
    while first < k.size:
        # a group is the next elements that fit in _F3_ENTRIES terms, or one element alone
        need = reach[first:first + _F3_ENTRIES]
        group = order[first:first + max(1, np.count_nonzero(np.arange(1, need.size + 1) * need <= _F3_ENTRIES))]
        first += group.size
        widest = reach[first - 1]
        for start in range(1, widest + 1, _F3_ENTRIES):
            d = np.arange(start, min(start + _F3_ENTRIES, widest + 1), dtype=float)[:, None]
            # row 0 the total so far, then the terms 2(K - d) exp(-decay d^2), 0 past d = K
            block = np.empty((d.size + 1, group.size))
            block[0] = total[group]
            terms = np.multiply(-decay[group], d, out=block[1:])
            terms *= d
            np.exp(terms, out=terms)
            terms *= 2.0 * np.maximum(k[group] - d, 0.0)
            total[group] = np.cumsum(block, axis=0)[-1]
    return as_result(-np.log2(_SQRT_E_HALF * total / (k * k)).reshape(shape))


def f_lower(inp: EsduInput, sigma: float) -> float:
    """Best available lower bound on the ESDU rate, clamped at zero.

    Degenerate inputs (one level, or zero span) carry no information and
    give 0 without reaching the component bounds.
    """
    live = (inp.levels > 1) & (inp.span != 0.0)
    return _on_live(live, inp, sigma, lambda i, s: _first_best(np.greater, 0.0, f1(i, s), f2(i, s), f3(i, s)))


@np.errstate(over="ignore")
def owb(inp: EsduInput, sigma: float) -> float:
    """Ozarow-Wyner-B lower bound (reference; may be negative, and is -inf
    once (K-1)*sigma/span overflows when squared)."""
    _require_multilevel(inp, "owb")
    _check_sigma(sigma)
    if not every(inp.span > 0.0):
        raise ValueError("owb requires a positive span")
    k = inp.levels
    inv_snr = (k - 1) * sigma / inp.span
    return as_result(np.log2(k) - _OWB_GAP - 0.5 * np.log2(1.0 + 12.0 * inv_snr * inv_snr))


@np.errstate(over="raise")
def g_prime(inp: EsduInput, sigma: float) -> float:
    """Entropy-power upper bound.

    0.5*log2(2^(2*e_cap(widened)) - spacing^2/(2*pi*e*sigma^2)) with the span
    widened by one spacing, mirroring the dither construction of f2; 0 at
    zero span.  The log argument is positive by construction; a non-positive
    value is a numerical invariant violation and raises, naming the first
    element at fault, rather than being clamped.
    """
    _require_multilevel(inp, "g_prime")
    _check_sigma(sigma)
    k = inp.levels
    widened = P2pChannel(inp.span * k / (k - 1), sigma)
    dither_power = np.square(inp.span / ((k - 1) * sigma)) / TWO_PI_E
    arg = np.power(2.0, 2.0 * e_cap(widened)) - dither_power
    bad = np.asarray(arg <= 0.0)
    if bad.any():
        arg, span, levels, sigma = (
            np.broadcast_to(v, bad.shape)[bad][0].item() for v in (arg, inp.span, inp.levels, sigma)
        )
        raise ArithmeticError(
            f"entropy-power bound degenerated: log argument {arg!r} for "
            f"span={span!r}, levels={levels}, sigma={sigma!r}"
        )
    return as_result(0.5 * np.log2(arg))


def g_upper(inp: EsduInput, sigma: float) -> float:
    """Best available upper bound on the ESDU rate.

    Minimum of the alphabet entropy log2(K), the capacity upper bound of the
    channel, and the entropy-power bound.  A single-level input gives 0.
    """
    return _on_live(
        inp.levels > 1, inp, sigma,
        lambda i, s: _first_best(np.less, np.log2(i.levels), c_upper(P2pChannel(i.span, s)), g_prime(i, s)),
    )


def _on_live(live, inp: EsduInput, sigma, bound):
    """bound(inp, sigma) where `live` holds and 0.0 elsewhere.  bound sees
    only the live elements: the whole input and sigma when every element is
    live, otherwise a batch of the live ones."""
    if every(live):
        return as_result(bound(inp, sigma))
    span, levels, sigma = np.broadcast_arrays(inp.span, inp.levels, sigma)
    live = np.broadcast_to(live, span.shape)
    out = np.zeros(span.shape)
    if live.any():
        out[live] = bound(EsduInput(span[live], levels[live]), sigma[live])
    return as_result(out)


def _first_best(better, first, *rest):
    """Python's max (better=np.greater) or min (np.less), elementwise: a later
    value replaces the best so far only when strictly better."""
    for value in rest:
        first = np.where(better(value, first), value, first)
    return first
