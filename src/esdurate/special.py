"""Scalar building blocks shared by every rate formula.

All rates and entropies in this package are in bits; natural logarithms only
appear inside exponent conversions and are noted where they do.
"""

import math

SQRT2 = math.sqrt(2.0)
TWO_PI_E = 2.0 * math.pi * math.e
SQRT_TWO_PI_E = math.sqrt(TWO_PI_E)


def q_function(x: float) -> float:
    """Standard Gaussian tail probability P[N(0,1) > x].

    Evaluated through the complementary error function, which keeps the
    absolute error well below 1e-12 across the whole double range.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / SQRT2)


def _check_sigma(sigma: float) -> None:
    """Raise ValueError unless the noise width sigma is finite and > 0."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")


def binary_entropy(p: float) -> float:
    """Binary entropy H(p) in bits, with 0*log(0) taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def db_to_amplitude_ratio(db: float) -> float:
    """Convert a peak-to-noise figure in dB to the linear ratio A/sigma.

    The convention is 10**(db/10), so 10 dB means A/sigma = 10.  This is the
    convention used on all sweep axes in this package.
    """
    return 10.0 ** (db / 10.0)
