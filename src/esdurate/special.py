"""Building blocks shared by every rate formula.

All rates and entropies in this package are in bits; natural logarithms only
appear inside exponent conversions and are noted where they do.

binary_entropy and _check_sigma work elementwise on numpy arrays as well as
on scalars; as_result turns a zero-dimensional result back into a float.
q_function takes one float; q_elementwise is the same function over an
array, so that no caller evaluates the tail a second way.
"""

import math

import numpy as np

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


def q_elementwise(x) -> np.ndarray:
    """q_function elementwise: a float array of x's shape whose every value is
    q_function of its element, to the last bit.  The first element, in C
    order, that is not finite raises q_function's ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        q_function(x[~np.isfinite(x)][0].item())
    return (0.5 * np.array(list(map(math.erfc, (x / SQRT2).ravel().tolist())))).reshape(x.shape)


def as_result(value):
    """A Python float for a scalar (zero-dimensional) value, else the array."""
    return float(value) if np.ndim(value) == 0 else value


def every(ok) -> bool:
    """Whether a condition holds everywhere: a Python bool as it is, an array
    of them reduced.  Conditions built from comparisons and & or | on Python
    scalars stay Python bools, so checks of scalar inputs cost no numpy call."""
    return ok if type(ok) is bool else bool(ok.all())


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer, or a numpy array of integers."""
    return isinstance(value, (int, np.integer)) or (isinstance(value, np.ndarray) and value.dtype.kind in "iu")


def _check_sigma(sigma) -> None:
    """Raise ValueError unless every noise width sigma is finite and > 0."""
    if not every((sigma > 0.0) & (sigma < math.inf)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")


def binary_entropy(p):
    """Binary entropy H(p) in bits, elementwise, with 0*log(0) taken as 0."""
    if not every((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    p_arr = np.asarray(p, dtype=float)
    edge = (p_arr == 0.0) | (p_arr == 1.0)
    inner = np.where(edge, 0.5, p_arr)  # keeps log2(0) out of the arithmetic
    h = -inner * np.log2(inner) - (1.0 - inner) * np.log2(1.0 - inner)
    return as_result(np.where(edge, 0.0, h))


def db_to_amplitude_ratio(db: float) -> float:
    """Convert a peak-to-noise figure in dB to the linear ratio A/sigma.

    The convention is 10**(db/10), so 10 dB means A/sigma = 10.  This is the
    convention used on all sweep axes in this package.
    """
    return 10.0 ** (db / 10.0)
