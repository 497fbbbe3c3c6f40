"""One-input-at-a-time reference for the closed-form bounds, written with the
math module only: the scalar formulas of esdurate.uniform and esdurate.esdu
as they stood before those modules worked on numpy arrays, plus the defining
double sum of f3.  The batched bounds are checked against these element by
element; nothing here imports the package.
"""

import math

TWO_PI_E = 2.0 * math.pi * math.e
SQRT_TWO_PI_E = math.sqrt(TWO_PI_E)
OWB_GAP = 0.5 * math.log2(TWO_PI_E / 12.0)


def q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binary_entropy(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def c_lower(peak, sigma):
    ratio = peak / sigma
    return 0.5 * math.log2(1.0 + ratio * ratio / TWO_PI_E)


def c_upper(peak, sigma):
    ratio = peak / sigma
    return min(0.5 * math.log2(1.0 + 0.25 * ratio * ratio), math.log2(1.0 + ratio / SQRT_TWO_PI_E))


def e_cap(peak, sigma):
    ratio = peak / sigma
    return min(c_upper(peak, sigma), 0.5 * math.log2(1.0 + ratio * ratio / 12.0))


def xi(span, k, sigma):
    return 2.0 * (k - 1) / k * q(span / (k - 1) / (2.0 * sigma))


def f1(span, k, sigma):
    err = xi(span, k, sigma)
    return math.log2(k) - binary_entropy(err) - err * math.log2(k - 1)


def f2(span, k, sigma):
    return c_lower(span * k / (k - 1), sigma) - e_cap(span / (k - 1), sigma)


def brute_f3(span, k, sigma):
    """Defining double sum over all level pairs, no shortcuts."""
    total = 0.0
    for i in range(k):
        for j in range(k):
            total += math.exp(-((i - j) ** 2) * span * span / (4.0 * (k - 1) ** 2 * sigma * sigma))
    return -math.log2(math.sqrt(0.5 * math.e) / k**2 * total)


def f_lower(span, k, sigma):
    if k == 1 or span == 0.0:
        return 0.0
    return max(0.0, f1(span, k, sigma), f2(span, k, sigma), brute_f3(span, k, sigma))


def owb(span, k, sigma):
    inv_snr = (k - 1) * sigma / span
    return math.log2(k) - OWB_GAP - 0.5 * math.log2(1.0 + 12.0 * inv_snr * inv_snr)


def g_prime(span, k, sigma):
    if span == 0.0:
        return 0.0
    dither_power = (span / ((k - 1) * sigma)) ** 2 / TWO_PI_E
    return 0.5 * math.log2(2.0 ** (2.0 * e_cap(span * k / (k - 1), sigma)) - dither_power)


def g_upper(span, k, sigma):
    if k == 1:
        return 0.0
    return min(math.log2(k), c_upper(span, sigma), g_prime(span, k, sigma))
