"""Numerical ground truth for the analytical bounds: exact mutual information
I(X; X+Z) of a finite-support or continuous-uniform input X through Gaussian
noise Z.

The computation uses the decomposition I = h(Y) - h(Z).  The output entropy
h(Y) is an integral of -p(y)*log2 p(y), evaluated with adaptive composite
Gauss-Kronrod quadrature (G7/K15 panels, bisection refinement); h(Z) is
0.5*log2(2*pi*e*sigma^2) in closed form.  Nothing in this module depends on
the closed-form bounds it is used to validate.

The mixture density behind h(Y) works in blocks of at most 2^18 (y, atom)
pairs, 2 MiB per float64 temporary, whatever the number of nodes or samples.
Calls larger than one block drop, per block, the atoms more than 40 sigma
from every y in it, but only when the block's kept peak proves each dropped
term underflows to exactly 0.0; otherwise the block keeps every atom.

A seeded Monte-Carlo estimator provides an independent cross-check of the
quadrature path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .esdu import EsduInput
from .special import TWO_PI_E, _check_sigma, q_function

_LOG2_E = math.log2(math.e)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

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
_K15_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_K15_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_WG, _WG[-2::-1]])
_K15_MINUS_G7 = _K15_WEIGHTS - _G7_WEIGHTS
#: QUADPACK's round-off level of a panel, in units of half * sum |w_k f_k|.
_ROUNDOFF = 50.0 * np.finfo(float).eps

#: Entries of one (block x atoms) work array in mixture_log_pdf: 2 MiB per
#: float64 temporary.
_BLOCK_ELEMENTS = 1 << 18
#: Atoms farther than this many noise widths from every y of a block are left
#: out of its log-sum-exp, once the block's peaks show their terms underflow.
_WINDOW_SIGMAS = 40.0
#: exp(x) is 0.0 in float64 for every x below about -745.13.
_UNDERFLOW_EXPONENT = -746.0

#: Bit generator behind numpy's default_rng; period 2^128, seeded explicitly.
MC_GENERATOR = "numpy-pcg64"


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not settle within the allowed rounds.

    Carries the last two global estimates so callers can judge how far apart
    the refinement loop still was.
    """

    def __init__(self, message: str, previous_estimate: float, last_estimate: float):
        super().__init__(message)
        self.previous_estimate = previous_estimate
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the output-entropy integral.

    support_padding is in multiples of sigma beyond the extreme input atoms;
    the default 10 sigma truncates a tail contribution below 1e-20 bits, so
    the default 1e-10 absolute tolerance stays meaningful.
    """

    absolute_tolerance: float = 1e-10
    support_padding: float = 10.0
    max_refinements: int = 30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.absolute_tolerance) and self.absolute_tolerance > 0.0):
            raise ValueError("absolute_tolerance must be finite and > 0")
        if not (math.isfinite(self.support_padding) and self.support_padding > 0.0):
            raise ValueError("support_padding must be finite and > 0")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


@dataclass(eq=False)
class DiscreteInput:
    """Finite-support input: sorted atom locations and their probabilities."""

    atoms: np.ndarray
    masses: np.ndarray
    _log_masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if atoms.ndim != 1 or atoms.size < 1:
            raise ValueError("atoms must be a nonempty 1-D sequence")
        if masses.shape != atoms.shape:
            raise ValueError("atoms and masses must have the same length")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(masses)):
            raise ValueError("atoms and masses must be finite")
        if np.any(np.diff(atoms) <= 0.0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(masses < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {masses.sum()!r}")
        self.atoms = atoms
        self.masses = masses
        self._log_masses = np.log(masses, out=np.full_like(masses, -np.inf), where=masses > 0.0)

    @classmethod
    def from_esdu(cls, inp: EsduInput) -> "DiscreteInput":
        """Convert an ESDU input; a zero span collapses to one atom at 0."""
        if inp.span == 0.0:
            return cls(np.array([0.0]), np.array([1.0]))
        atoms = np.asarray(inp.atoms(), dtype=float)
        masses = np.full(inp.levels, 1.0 / inp.levels)
        return cls(atoms, masses)


def mixture_log_pdf(inp: DiscreteInput, sigma: float, y):
    """Natural log of the output density sum_i mass_i * phi(y - atom_i; sigma).

    Uses log-sum-exp over the per-atom terms, so the result stays finite for
    |y - atom| up to hundreds of noise widths.  Accepts a scalar or an array;
    the shape of y is preserved.

    The work is done in blocks of the flattened y whose (block x atoms) work
    arrays hold at most _BLOCK_ELEMENTS entries; a block is one row when a
    single y has more atoms than that in its window.  A call that fits in one
    block takes every atom at once.  Larger calls keep, per block, only the
    atoms within _WINDOW_SIGMAS noise widths of the block's values, and only
    when that is exact: every term left out is below exp(-800 + max log mass)
    and must sit more than 746 below the block's smallest kept peak, where its
    exp(term - peak) is 0.0 in float64.  A block that fails this test (values
    far from every atom, zero masses near them) is redone with every atom.
    """
    _check_sigma(sigma)
    y_arr = np.asarray(y, dtype=float)
    atoms, log_masses = inp.atoms, inp._log_masses
    if y_arr.size * atoms.size <= _BLOCK_ELEMENTS:
        exponents = _exponents(y_arr, atoms, log_masses, sigma)
        out = _log_sum_exp(exponents, np.max(exponents, axis=-1))
    else:
        out = _blocked_log_sum_exp(y_arr.ravel(), atoms, log_masses, sigma).reshape(y_arr.shape)
    out = out - math.log(sigma) - _LOG_SQRT_2PI
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def _exponents(y: np.ndarray, atoms: np.ndarray, log_masses: np.ndarray, sigma: float) -> np.ndarray:
    """The per-atom terms -0.5*((y - atom)/sigma)^2 + log(mass), atoms last."""
    z = y[..., None] - atoms
    z /= sigma
    exponents = -0.5 * z
    exponents *= z
    exponents += log_masses
    return exponents


def _log_sum_exp(exponents: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """log(sum(exp(exponents))) over the last axis, given its maximum `peak`;
    overwrites exponents."""
    exponents -= peak[..., None]
    np.exp(exponents, out=exponents)
    return peak + np.log(np.sum(exponents, axis=-1))


def _blocked_log_sum_exp(
    flat: np.ndarray, atoms: np.ndarray, log_masses: np.ndarray, sigma: float
) -> np.ndarray:
    """_log_sum_exp of the terms of 1-D y, block by block within the budget."""
    n, k = flat.size, atoms.size
    out = np.empty(n)
    reach = _WINDOW_SIGMAS * sigma
    # no term of an atom outside a block's window exceeds this
    excluded_top = -0.5 * _WINDOW_SIGMAS**2 + float(np.max(log_masses))
    full_rows = max(1, _BLOCK_ELEMENTS // k)
    rows = full_rows
    start = 0
    while start < n:
        stop = min(n, start + rows)
        first, last = _window(flat[start:stop], atoms, reach)
        if (stop - start) * (last - first) > _BLOCK_ELEMENTS:
            # fewer rows never widen the window, so one cut keeps the budget
            stop = start + _BLOCK_ELEMENTS // (last - first)
            first, last = _window(flat[start:stop], atoms, reach)
        if last > first:
            exponents = _exponents(flat[start:stop], atoms[first:last], log_masses[first:last], sigma)
            peak = np.max(exponents, axis=-1)
        if last == first or (last - first < k and not excluded_top - np.min(peak) < _UNDERFLOW_EXPONENT):
            # a dropped atom might not underflow: redo these rows with every atom
            stop = min(stop, start + full_rows)
            exponents = _exponents(flat[start:stop], atoms, log_masses, sigma)
            peak = np.max(exponents, axis=-1)
            rows = full_rows
        else:
            rows = _BLOCK_ELEMENTS // (last - first)
        out[start:stop] = _log_sum_exp(exponents, peak)
        del exponents, peak  # before the next block allocates its own
        start = stop
    return out


def _window(block: np.ndarray, atoms: np.ndarray, reach: float) -> tuple[int, int]:
    """Index range of the atoms within `reach` of [min(block), max(block)]."""
    first = int(np.searchsorted(atoms, np.min(block) - reach, side="left"))
    last = int(np.searchsorted(atoms, np.max(block) + reach, side="right"))
    return first, last


def _adaptive_integral(f, lo: float, hi: float, resolution: float, spec: QuadratureSpec) -> float:
    """Integrate f over [lo, hi] by adaptive G7/K15 panel bisection.

    Starts from uniform panels no wider than twice `resolution` (the smoothing
    scale of the integrand).  Each panel costs one 15-node evaluation: the
    K15 value is accepted once |K15 - G7| is within the panel's proportional
    share of the absolute tolerance; otherwise the panel is bisected.  A
    panel whose error is still above its share but already at QUADPACK's
    round-off level cannot improve, so that ends the loop at once.  Panel
    bookkeeping is kept in a fixed order so repeated runs reduce in the same
    sequence and return bit-identical results.
    """
    width = hi - lo
    if width <= 0.0:
        return 0.0
    edges = np.linspace(lo, hi, max(4, math.ceil(width / (2.0 * resolution))) + 1)
    lower, upper = edges[:-1], edges[1:]
    settled = 0.0
    estimates: list[float] = []
    for _ in range(spec.max_refinements + 1):
        half = 0.5 * (upper - lower)
        values = f(half[:, None] * _K15_NODES + (lower + half)[:, None])
        kronrod = half * (values @ _K15_WEIGHTS)
        error = np.abs(half * (values @ _K15_MINUS_G7))
        converged = error <= spec.absolute_tolerance * (upper - lower) / width
        settled += kronrod[converged].sum()
        estimates.append(float(settled + kronrod[~converged].sum()))
        if converged.all():
            return settled
        todo = ~converged
        roundoff = _ROUNDOFF * half[todo] * (np.abs(values[todo]) @ _K15_WEIGHTS)
        if np.any(error[todo] <= roundoff):
            raise _convergence_error(
                f"entropy integral cannot reach absolute tolerance "
                f"{spec.absolute_tolerance!r}: panel error is at the round-off level",
                estimates,
            )
        mid = lower[todo] + half[todo]
        lower = np.column_stack([lower[todo], mid]).ravel()
        upper = np.column_stack([mid, upper[todo]]).ravel()
        if lower.size > 2_000_000:
            # backstop on the working set, whatever the tolerance
            break
    raise _convergence_error(
        f"entropy integral did not converge within {spec.max_refinements} refinement rounds",
        estimates,
    )


def _convergence_error(reason: str, estimates: list[float]) -> ConvergenceError:
    previous = estimates[-2] if len(estimates) >= 2 else math.nan
    return ConvergenceError(
        f"{reason} (last estimates {previous!r} -> {estimates[-1]!r})", previous, estimates[-1]
    )


def _entropy_bits(log_pdf, lo: float, hi: float, resolution: float, spec: QuadratureSpec) -> float:
    """Differential entropy in bits of a density given by its natural-log pdf."""

    def integrand(y: np.ndarray) -> np.ndarray:
        lp = log_pdf(y)
        p = np.exp(lp)
        with np.errstate(invalid="ignore"):
            return np.where(p > 0.0, -p * lp * _LOG2_E, 0.0)

    return _adaptive_integral(integrand, lo, hi, resolution, spec)


def noise_entropy(sigma: float) -> float:
    """Differential entropy of N(0, sigma^2) in bits."""
    return 0.5 * math.log2(TWO_PI_E * sigma * sigma)


def mi_discrete(inp: DiscreteInput, sigma: float, quad: QuadratureSpec | None = None) -> float:
    """Mutual information I(X; X+Z) in bits for finite-support X, Z ~ N(0, sigma^2).

    The value is not clamped; a deterministic input comes back as a residual
    of quadrature size (|I| <= tolerance) rather than an exact 0.
    """
    _check_sigma(sigma)
    quad = quad if quad is not None else QuadratureSpec()
    lo = float(inp.atoms[0]) - quad.support_padding * sigma
    hi = float(inp.atoms[-1]) + quad.support_padding * sigma
    h_out = _entropy_bits(lambda y: mixture_log_pdf(inp, sigma, y), lo, hi, sigma, quad)
    return float(h_out - noise_entropy(sigma))


def uniform_output_pdf(ch, y):
    """Output density of X + Z for X ~ Unif([0, A]), Z ~ N(0, sigma^2).

    Equals (Phi(y/sigma) - Phi((y-A)/sigma))/A.  Both tails are evaluated as
    differences of small upper-tail probabilities, avoiding the cancellation a
    direct CDF difference would suffer far outside [0, A].
    """
    a, s = ch.peak, ch.sigma
    y_arr = np.asarray(y, dtype=float)
    u = y_arr / s
    v = (y_arr - a) / s
    tail = np.vectorize(q_function, otypes=[float])
    left = y_arr < 0.5 * a
    # below the midpoint: Q(-u) - Q(-v); above: Q(v) - Q(u); both subtract the
    # far (negligible) tail from the near one.
    near = np.where(left, -u, v)
    far = np.where(left, -v, u)
    p = (tail(near) - tail(far)) / a
    out = np.maximum(p, 0.0)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def mi_uniform(ch, quad: QuadratureSpec | None = None) -> float:
    """Mutual information in bits of a continuous-uniform input over [0, peak]."""
    if ch.peak == 0.0:
        return 0.0
    quad = quad if quad is not None else QuadratureSpec()
    s = ch.sigma
    lo = -quad.support_padding * s
    hi = ch.peak + quad.support_padding * s

    def integrand(y: np.ndarray) -> np.ndarray:
        p = uniform_output_pdf(ch, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, -p * np.log2(p), 0.0)

    h_out = _adaptive_integral(integrand, lo, hi, s, quad)
    return float(h_out - noise_entropy(s))


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mutual-information estimate with its standard error."""

    value: float
    standard_error: float
    samples: int
    seed: int
    generator: str = MC_GENERATOR


def mi_monte_carlo(inp: DiscreteInput, sigma: float, samples: int, seed: int) -> McEstimate:
    """Sample-average estimate of I(X; X+Z), deterministic for a fixed seed.

    Averages -log2 p(X_i + Z_i) over seeded draws and subtracts the noise
    entropy.  The per-sample values also yield the standard error of the
    estimator.  Requires at least 1e4 samples.
    """
    if samples < 10_000:
        raise ValueError("mi_monte_carlo needs at least 10000 samples")
    _check_sigma(sigma)
    rng = np.random.default_rng(seed)
    idx = rng.choice(inp.atoms.size, size=samples, p=inp.masses)
    ys = inp.atoms[idx] + rng.normal(0.0, sigma, size=samples)

    chunk = 100_000  # bounds the per-chunk lp and vals arrays
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, chunk):
        lp = mixture_log_pdf(inp, sigma, ys[start : start + chunk])
        vals = -lp * _LOG2_E
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / samples
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McEstimate(
        value=float(mean - noise_entropy(sigma)),
        standard_error=float(math.sqrt(variance / samples)),
        samples=samples,
        seed=seed,
    )
