"""Closed-form rate bounds for a continuous uniform input on a peak-constrained
Gaussian channel.

The three bounds sandwich the uniform-input mutual information and double as
building blocks for the discrete-input bounds in :mod:`esdurate.esdu`.  They
depend on the channel only through the ratio peak/sigma.

A channel's peak and sigma may be numpy arrays that broadcast against each
other: the channel then stands for a batch of channels, and every bound is
evaluated elementwise into an array of that shape.  Scalar fields give a
Python float, through the same code.  A peak/sigma too large to square in
float64 (above about 1e154) raises FloatingPointError, an ArithmeticError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import SQRT_TWO_PI_E, TWO_PI_E, _check_sigma, as_result, every


@dataclass(frozen=True)
class P2pChannel:
    """Point-to-point Gaussian channel with nonnegative peak-limited input.

    peak: largest admissible input amplitude A (>= 0).
    sigma: noise standard deviation (> 0).
    Either may be an array (a batch of channels); see the module docstring.
    """

    peak: float
    sigma: float

    def __post_init__(self) -> None:
        if not every((self.peak >= 0.0) & (self.peak < math.inf)):
            raise ValueError(f"peak must be finite and >= 0, got {self.peak!r}")
        _check_sigma(self.sigma)


@np.errstate(over="raise")
def c_lower(ch: P2pChannel) -> float:
    """Uniform-input rate lower bound 0.5*log2(1 + A^2/(2*pi*e*sigma^2))."""
    ratio = np.divide(ch.peak, ch.sigma)
    return as_result(0.5 * np.log2(1.0 + ratio * ratio / TWO_PI_E))


@np.errstate(over="raise")
def c_upper(ch: P2pChannel) -> float:
    """Capacity upper bound of the peak-constrained channel.

    Minimum of 0.5*log2(1 + A^2/(4*sigma^2)) and log2(1 + A/(sqrt(2*pi*e)*sigma)),
    whichever is tighter at the given peak-to-noise ratio.
    """
    ratio = np.divide(ch.peak, ch.sigma)
    quarter_power = 0.5 * np.log2(1.0 + 0.25 * ratio * ratio)
    amplitude_form = np.log2(1.0 + ratio / SQRT_TWO_PI_E)
    return as_result(np.minimum(quarter_power, amplitude_form))


@np.errstate(over="raise")
def e_cap(ch: P2pChannel) -> float:
    """Upper bound on the uniform-input rate itself.

    Combines c_upper with the variance bound 0.5*log2(1 + A^2/(12*sigma^2)),
    the latter coming from the Gaussian maximum-entropy argument applied to an
    input of variance A^2/12.
    """
    ratio = np.divide(ch.peak, ch.sigma)
    variance_bound = 0.5 * np.log2(1.0 + ratio * ratio / 12.0)
    return as_result(np.minimum(c_upper(ch), variance_bound))
