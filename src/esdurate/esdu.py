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
"""

import math
from dataclasses import dataclass

from .special import TWO_PI_E, _check_sigma, binary_entropy, q_function
from .uniform import P2pChannel, c_lower, c_upper, e_cap

# constant term of the OWB bound, 0.5*log2(2*pi*e/12)
_OWB_GAP = 0.5 * math.log2(TWO_PI_E / 12.0)
_SQRT_E_HALF = math.sqrt(0.5 * math.e)


@dataclass(frozen=True)
class EsduInput:
    """K equally likely levels evenly spaced over [0, span].

    Level i sits at span*i/(levels-1) for levels >= 2.  A single-level input
    must have span 0 and is the degenerate "silent" input used when one user
    of a broadcast split carries no message.
    """

    span: float
    levels: int

    def __post_init__(self) -> None:
        if not (isinstance(self.levels, int) and self.levels >= 1):
            raise ValueError(f"levels must be an integer >= 1, got {self.levels!r}")
        if not (math.isfinite(self.span) and self.span >= 0.0):
            raise ValueError(f"span must be finite and >= 0, got {self.span!r}")
        if self.levels == 1 and self.span != 0.0:
            raise ValueError("a single-level input has no extent; span must be 0")

    @property
    def spacing(self) -> float:
        """Distance between adjacent levels (levels >= 2 only)."""
        if self.levels < 2:
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
    if inp.levels < 2:
        raise ValueError(f"{op} is undefined for a single-level input")


def xi(inp: EsduInput, sigma: float) -> float:
    """Symbol error probability of the nearest-level detector.

    Interior levels are confused with either neighbour, the two edge levels
    with one, giving 2*(K-1)/K * Q(spacing/(2*sigma)).
    """
    _require_multilevel(inp, "xi")
    _check_sigma(sigma)
    k = inp.levels
    return 2.0 * (k - 1) / k * q_function(inp.spacing / (2.0 * sigma))


def f1(inp: EsduInput, sigma: float) -> float:
    """Fano lower bound log2(K) - H(xi) - xi*log2(K-1).

    Goes negative once the levels crowd together; callers that need a valid
    rate use f_lower, which clamps.
    """
    _require_multilevel(inp, "f1")
    err = xi(inp, sigma)
    k = inp.levels
    return math.log2(k) - binary_entropy(err) - err * math.log2(k - 1)


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


def f3(inp: EsduInput, sigma: float) -> float:
    """Jensen lower bound on the output entropy.

    The defining double sum over level pairs (i, j) depends only on d = i - j,
    so it is evaluated as a single sum over differences with multiplicity
    (K - |d|), stopping once terms fall below 1e-18 of the running total.
    """
    _require_multilevel(inp, "f3")
    _check_sigma(sigma)
    k = inp.levels
    decay = (inp.spacing / (2.0 * sigma)) ** 2
    total = float(k)  # d = 0 contributes K terms of 1
    for d in range(1, k):
        term = 2.0 * (k - d) * math.exp(-decay * d * d)
        if term < 1e-18 * total:
            break
        total += term
    return -math.log2(_SQRT_E_HALF * total / (k * k))


def f_lower(inp: EsduInput, sigma: float) -> float:
    """Best available lower bound on the ESDU rate, clamped at zero.

    Degenerate inputs (one level, or zero span) carry no information and
    return 0 without touching the component bounds.
    """
    if inp.levels == 1 or inp.span == 0.0:
        return 0.0
    return max(0.0, f1(inp, sigma), f2(inp, sigma), f3(inp, sigma))


def owb(inp: EsduInput, sigma: float) -> float:
    """Ozarow-Wyner-B lower bound (reference; may be negative)."""
    _require_multilevel(inp, "owb")
    _check_sigma(sigma)
    if inp.span <= 0.0:
        raise ValueError("owb requires a positive span")
    k = inp.levels
    inv_snr = (k - 1) * sigma / inp.span
    return math.log2(k) - _OWB_GAP - 0.5 * math.log2(1.0 + 12.0 * inv_snr * inv_snr)


def g_prime(inp: EsduInput, sigma: float) -> float:
    """Entropy-power upper bound.

    0.5*log2(2^(2*e_cap(widened)) - spacing^2/(2*pi*e*sigma^2)) with the span
    widened by one spacing, mirroring the dither construction of f2.  The log
    argument is positive by construction; a non-positive value is a numerical
    invariant violation and raises rather than being clamped.
    """
    _require_multilevel(inp, "g_prime")
    _check_sigma(sigma)
    if inp.span == 0.0:
        return 0.0
    k = inp.levels
    widened = P2pChannel(inp.span * k / (k - 1), sigma)
    dither_power = (inp.span / ((k - 1) * sigma)) ** 2 / TWO_PI_E
    arg = 2.0 ** (2.0 * e_cap(widened)) - dither_power
    if arg <= 0.0:
        raise ArithmeticError(
            f"entropy-power bound degenerated: log argument {arg!r} for "
            f"span={inp.span!r}, levels={inp.levels}, sigma={sigma!r}"
        )
    return 0.5 * math.log2(arg)


def g_upper(inp: EsduInput, sigma: float) -> float:
    """Best available upper bound on the ESDU rate.

    Minimum of the alphabet entropy log2(K), the capacity upper bound of the
    channel, and the entropy-power bound.  A single-level input returns 0.
    """
    if inp.levels == 1:
        return 0.0
    _check_sigma(sigma)
    return min(
        math.log2(inp.levels),
        c_upper(P2pChannel(inp.span, sigma)),
        g_prime(inp, sigma),
    )
