"""One-input-at-a-time reference for the closed-form bounds, written with the
math module only: the scalar formulas of esdurate.uniform and esdurate.esdu
as they stood before those modules worked on numpy arrays, plus the defining
double sum of f3.  The batched bounds are checked against these element by
element.  Also the general convex hull region.frontier_hull used before it
walked only the down-set frontier, the one-shot Monte Carlo estimate
(numpy's generator and the density passed in) oracle.mi_monte_carlo made
before it drew block by block, and the adaptive G7/K15 quadrature the oracle
used for asymmetric and continuous-uniform inputs before the trapezoid rule
took every output entropy: the oracle's reference integrator; and the noise
entropy h(Z) the oracle's rates subtract.  Nothing here imports the package.
"""

import math

import numpy as np

TWO_PI_E = 2.0 * math.pi * math.e
SQRT_TWO_PI_E = math.sqrt(TWO_PI_E)
OWB_GAP = 0.5 * math.log2(TWO_PI_E / 12.0)

# QUADPACK's QK15 rule (Piessens et al. 1983): the 15-point Kronrod extension
# of the 7-point Gauss-Legendre rule on [-1, 1].  Abscissae in [0, 1] are
# listed in decreasing order; every other one (ending at 0) is a Gauss node.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
# The 15 nodes on [-1, 1] in increasing order, their K15 weights, and the G7
# weights on the same nodes (zero at the 8 Kronrod-only nodes).
K15_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
K15_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
G7_WEIGHTS = np.zeros(15)
G7_WEIGHTS[1::2] = np.concatenate([_WG, _WG[-2::-1]])
# QUADPACK's round-off level of a panel's sum, in units of its sum over |f|
ROUNDOFF = 50.0 * np.finfo(float).eps


def q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def noise_entropy(sigma):
    """h(Z) of Z ~ N(0, sigma^2) in bits, 0.5*log2(2*pi*e) + log2(sigma):
    finite for every positive float sigma."""
    return 0.5 * math.log2(TWO_PI_E) + math.log2(sigma)


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


class NotConverged(ArithmeticError):
    """adaptive_integral gave up: its last two estimates of the integral."""

    def __init__(self, message, previous_estimate, last_estimate):
        super().__init__(message)
        self.previous_estimate = previous_estimate
        self.last_estimate = last_estimate


def adaptive_integral(f, lo, hi, resolution, tolerance=1e-10, max_refinements=30, max_panels=1_000_000):
    """The integral of f over [lo, hi] by adaptive G7/K15 panel bisection; f
    takes a (panels, 15) array of nodes.

    Panels start uniform and no wider than twice resolution.  A panel's K15
    value is accepted once |K15 - G7| is within its share of tolerance, in
    proportion to its width; otherwise the panel is bisected.  Raises
    NotConverged once a panel still refused has an error at the round-off
    level of its sum, which cannot improve; after max_refinements rounds of
    bisection; or past max_panels open panels."""
    edges = np.linspace(lo, hi, max(4, math.ceil((hi - lo) / (2.0 * resolution))) + 1)
    lower, upper = edges[:-1], edges[1:]
    share = tolerance / (hi - lo)
    settled, previous, last = 0.0, math.nan, math.nan
    for _ in range(max_refinements + 1):
        half = 0.5 * (upper - lower)
        values = f(half[:, None] * K15_NODES + (lower + half)[:, None])
        kronrod = half * (values * K15_WEIGHTS).sum(axis=1)
        error = np.abs(half * (values * (K15_WEIGHTS - G7_WEIGHTS)).sum(axis=1))
        todo = error > share * (upper - lower)
        settled += kronrod[~todo].sum()
        if not todo.any():
            return settled
        previous, last = last, settled + kronrod[todo].sum()
        roundoff = ROUNDOFF * half * (np.abs(values) * K15_WEIGHTS).sum(axis=1)
        if np.any(error[todo] <= roundoff[todo]):
            raise NotConverged(f"error at the round-off level (last estimates {previous!r} -> {last!r})", previous, last)
        middle = (lower + half)[todo]
        lower, upper = np.concatenate([lower[todo], middle]), np.concatenate([middle, upper[todo]])
        if lower.size > max_panels:
            raise NotConverged(f"more than {max_panels} open panels", previous, last)
    raise NotConverged(f"did not converge within {max_refinements} refinement rounds", previous, last)
