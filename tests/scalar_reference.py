"""One-input-at-a-time reference for the closed-form bounds, written with the
math module only: the scalar formulas of esdurate.uniform and esdurate.esdu
as they stood before those modules worked on numpy arrays, plus the defining
double sum of f3.  The batched bounds are checked against these element by
element.  Also the general convex hull region.frontier_hull used before it
walked only the down-set frontier, and the one-shot Monte Carlo estimate
(numpy's generator and the density passed in) oracle.mi_monte_carlo made
before it drew block by block.  Nothing here imports the package.
"""

import math

import numpy as np

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


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def frontier_hull(points):
    """Vertices of the convex hull of the (r1, r2) pairs with the origin and
    the axis projections (max r1, 0) and (0, max r2), counter-clockwise from
    (0, 0): Andrew's monotone chain over the sorted distinct points, rotated
    to start at the origin, collinear points excluded."""
    unique = {(0.0, 0.0)} | {(float(x), float(y)) for x, y in points}
    if len(unique) > 1:
        unique.add((max(x for x, _ in unique), 0.0))
        unique.add((0.0, max(y for _, y in unique)))
    pts = sorted(unique)
    if len(pts) <= 2:
        return pts
    chains = []
    for ordered in (pts, pts[::-1]):
        chain = []
        for p in ordered:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    hull = chains[0] + chains[1]
    start = hull.index((0.0, 0.0))
    return hull[start:] + hull[:start]


def monte_carlo(atoms, masses, sigma, samples, seed, log_pdf):
    """The sample mean of -log2 p(X + Z) and its standard error, with every
    atom index drawn by one rng.choice, then all the noise from the same
    generator, then the values summed in groups of 100,000; log_pdf(y) is the
    natural log of the output density."""
    rng = np.random.default_rng(seed)
    ys = atoms[rng.choice(atoms.size, size=samples, p=masses)]
    ys += rng.normal(0.0, sigma, size=samples)
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, 100_000):
        vals = -log_pdf(ys[start : start + 100_000]) * math.log2(math.e)
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / samples
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(variance / samples)
