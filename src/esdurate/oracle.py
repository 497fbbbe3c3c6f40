"""Numerical ground truth for the analytical bounds: exact mutual information
I(X; X+Z) of a finite-support or continuous-uniform input X through Gaussian
noise Z.

The computation uses the decomposition I = h(Y) - h(Z).  The output entropy
h(Y) is an integral of -p(y)*log2 p(y), evaluated with adaptive composite
Gauss-Kronrod quadrature (G7/K15 panels, bisection refinement) to the
absolute tolerance, in bits, each call takes (TOLERANCE by default); h(Z) is
0.5*log2(2*pi*e*sigma^2) in closed form.  Nothing in this module depends on
the closed-form bounds it is used to validate.

mi_discrete takes one noise width or a 1-D array of them: the rates of one
input at several widths.  It is also the one path to the exact rate of an
EsduInput (or a batch), taken from its alphabet rescaled to the integers
0..K-1.  Either way it makes one lockstep call (see _adaptive_integrals): every
rate it needs is an element of that call, whatever its alphabet, and a round
makes one density call per alphabet among its elements.  A round holds at most
_ROUND_PANELS panels, so its arrays stay small however many rates a call
needs.  An input that is its own mirror image (masses equal to their reverse,
atom sums atoms[i] + atoms[-1-i] all equal in float64) has an output density
symmetric about its midpoint, so its entropy integral runs over the lower half
at half the tolerance and is doubled.

The mixture density behind h(Y) works in fixed blocks of at most 2^16
(atom, y) pairs, 512 KiB per float64 temporary, whatever the number of nodes
or samples, a row per atom, and adds each y's terms in row order, from the
first atom to the last.  It leaves out atoms more than 40 sigma from a block
only where their terms provably underflow to 0.0, which would add nothing to
a row-ordered sum, so the value at each y depends on that y and its sigma
alone, never on the other values of the call.

A seeded Monte-Carlo estimator provides an independent cross-check of the
quadrature path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .esdu import EsduInput
from .special import TWO_PI_E, _check_sigma, as_result, every, q_function

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

#: Entries of one (atoms x block) work array in mixture_log_pdf: 512 KiB per
#: float64 temporary.
_BLOCK_ELEMENTS = 1 << 16
#: Atoms farther than this many noise widths from every y of a block are left
#: out of its log-sum-exp, once the block's peaks show their terms underflow.
_WINDOW_SIGMAS = 40.0
#: exp(x) is 0.0 in float64 for every x below about -745.13.
_UNDERFLOW_EXPONENT = -746.0

#: Noise widths integrated beyond the extreme atoms or input edges: each tail
#: left out holds under Q(10) = 7.6e-24 of the mass and 1e-20 bits of entropy.
SUPPORT_PADDING = 10.0
#: Widest input, in noise widths, whose output entropy is integrated: 100
#: times the 1000 of a 30 dB peak.  The first round then holds at most 50,010
#: panels (750,150 nodes, 6 MB per float64 node array); at the default
#: tolerance an input this wide already stops at the round-off level.
MAX_SPAN_SIGMAS = 1e5
#: Narrowest ESDU input, in noise widths, that mi_discrete scales to the
#: integers: a narrower one, of rate under 0.5*log2(1 + 1e-16/4) < 2e-17
#: bits, is one atom, and no scaled noise width nears float64 overflow.
MIN_SPAN_SIGMAS = 1e-8
#: Default absolute tolerance, in bits, of the output-entropy integral.
TOLERANCE = 1e-10
#: Bisection rounds before the integral gives up: 30 halvings take a 2-sigma
#: panel below 1e-8 sigma, yet typical calls settle in the first round.
MAX_REFINEMENTS = 30
#: Backstop on the working set of one integral call: an element that needs
#: more than this many open panels (15 nodes each) fails.
_MAX_PANELS = 2_000_000
#: Panels of one round of a lockstep call: the round takes the first elements
#: whose panels fit together, or the first element alone if its panels do not
#: fit.  2,048 panels are 30,720 nodes, 240 KiB per float64 node array.
_ROUND_PANELS = 2048

#: Bit generator behind numpy's default_rng; period 2^128, seeded explicitly.
MC_GENERATOR = "numpy-pcg64"
#: Fewest samples mi_monte_carlo averages.
MIN_MC_SAMPLES = 10_000


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not settle within the allowed rounds.

    Carries the last two global estimates so callers can judge how far apart
    the refinement loop still was, and, from a batch of integrals, the index
    of the element that failed.
    """

    def __init__(
        self, message: str, previous_estimate: float, last_estimate: float, index: int | None = None
    ):
        super().__init__(message)
        self.previous_estimate = previous_estimate
        self.last_estimate = last_estimate
        self.index = index


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
        self._log_masses = _log_masses(masses)

    @classmethod
    def _integers(cls, integers: np.ndarray, k: int) -> "DiscreteInput":
        """The uniform input on the integers 0..k-1, bit for bit what
        DiscreteInput builds, without the checks it passes by construction:
        its atoms are the first k of `integers` (an np.arange of floats), its
        masses and log masses read-only views of one value each."""
        inp = object.__new__(cls)
        inp.atoms = integers[:k]
        inp.masses = np.broadcast_to(1.0 / k, (k,))
        inp._log_masses = np.broadcast_to(_log_masses(np.full(1, 1.0 / k)), (k,))
        return inp

    @classmethod
    def from_esdu(cls, inp: EsduInput) -> "DiscreteInput":
        """Convert an ESDU input; a zero span, or one whose level spacing
        underflows to 0, collapses to one atom at 0."""
        if inp.span == 0.0 or inp.span / (inp.levels - 1) == 0.0:
            return cls(np.array([0.0]), np.array([1.0]))
        atoms = np.asarray(inp.atoms(), dtype=float)
        masses = np.full(inp.levels, 1.0 / inp.levels)
        return cls(atoms, masses)


def _log_masses(masses: np.ndarray) -> np.ndarray:
    """log(masses), -inf where a mass is 0."""
    return np.log(masses, out=np.full_like(masses, -np.inf), where=masses > 0.0)


def mixture_log_pdf(inp: DiscreteInput, sigma, y):
    """Natural log of the output density sum_i mass_i * phi(y - atom_i; sigma).

    Uses log-sum-exp over the per-atom terms, so the result stays finite for
    |y - atom| up to hundreds of noise widths.  Accepts a scalar or an array;
    the shape of y is preserved.  sigma is one noise width or an array of
    them that broadcasts against y, a width per value.

    The flattened values run in blocks of _BLOCK_ELEMENTS // K values (at
    least one), which fit the budget even with all K atoms; a block is a row
    of terms per atom.  It keeps only the atoms within _WINDOW_SIGMAS times
    its largest sigma of its values when that is exact: every term left out
    is below exp(-800 + max log mass), more than 746 below the block's
    smallest kept peak, so its exp(term - peak) is 0.0 in float64.  Otherwise
    (values far from every atom, zero masses near them) the block keeps every
    atom.  Each value's terms are added in row order, first atom to last, so
    the atoms left out would only have added 0.0: the value at each y is the
    same whatever block, window or call it falls in.
    """
    _check_sigma(sigma)
    y_arr = np.asarray(y, dtype=float)
    scale = np.asarray(sigma, dtype=float)
    if scale.ndim:
        scale = np.broadcast_to(scale, y_arr.shape).ravel()
    out = _blocked_log_sum_exp(y_arr.ravel(), scale, inp.atoms, inp._log_masses)
    out = (out - np.log(scale) - _LOG_SQRT_2PI).reshape(y_arr.shape)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def _exponents(y: np.ndarray, atoms: np.ndarray, log_masses: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The per-atom terms -0.5*((y - atom)/sigma)^2 + log(mass) of 1-D y, a
    row per atom; sigma is one width for every y or one per y."""
    z = y - atoms[:, None]
    z /= sigma
    exponents = -0.5 * z
    exponents *= z
    exponents += log_masses[:, None]
    return exponents


def _log_sum_exp(exponents: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """log(sum(exp(exponents))) over the atoms (rows), given their maximum
    `peak`, the rows added first to last.  Overwrites exponents."""
    exponents -= peak
    np.exp(exponents, out=exponents)
    # numpy sums a lone column pairwise, so its order would depend on the block
    total = np.cumsum(exponents, axis=0)[-1] if exponents.shape[1] == 1 else exponents.sum(axis=0)
    return peak + np.log(total)


def _blocked_log_sum_exp(
    flat: np.ndarray, scale: np.ndarray, atoms: np.ndarray, log_masses: np.ndarray
) -> np.ndarray:
    """_log_sum_exp of the terms of 1-D y with widths `scale`, one or one per
    value, block by block within the budget."""
    n, k = flat.size, atoms.size
    widths = scale.reshape(-1)
    out = np.empty(n)
    # no term of an atom outside a block's window exceeds this
    excluded_top = -0.5 * _WINDOW_SIGMAS**2 + float(np.max(log_masses))
    columns = max(1, _BLOCK_ELEMENTS // k)  # within the budget even with every atom
    for start in range(0, n, columns):
        block = flat[start : start + columns]
        sigma = widths if widths.size == 1 else widths[start : start + columns]
        first, last = _window(block, atoms, _WINDOW_SIGMAS * np.max(sigma))
        if last > first:
            exponents = _exponents(block, atoms[first:last], log_masses[first:last], sigma)
            peak = np.max(exponents, axis=0)
        if last == first or (last - first < k and not excluded_top - np.min(peak) < _UNDERFLOW_EXPONENT):
            # a dropped atom might not underflow: redo these values with every atom
            exponents = _exponents(block, atoms, log_masses, sigma)
            peak = np.max(exponents, axis=0)
        out[start : start + columns] = _log_sum_exp(exponents, peak)
        del exponents, peak  # before the next block allocates its own
    return out


def _window(block: np.ndarray, atoms: np.ndarray, reach: float) -> tuple[int, int]:
    """Index range of the atoms within `reach` of [min(block), max(block)]."""
    first = int(np.searchsorted(atoms, np.min(block) - reach, side="left"))
    last = int(np.searchsorted(atoms, np.max(block) + reach, side="right"))
    return first, last


def _check_tolerance(tolerance: float) -> None:
    """Raises ValueError unless the absolute tolerance is finite and > 0."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("absolute_tolerance must be finite and > 0")


def _adaptive_integral(f, lo: float, hi: float, resolution: float, tolerance: float = TOLERANCE) -> float:
    """Integrate f over [lo, hi]: _adaptive_integrals for one element, f
    taking the nodes alone."""
    values = _adaptive_integrals(
        lambda y, _: f(y), np.array([lo]), np.array([hi]), np.array([resolution]), tolerance
    )
    return float(values[0])


def _adaptive_integrals(
    f, lo: np.ndarray, hi: np.ndarray, resolution: np.ndarray, tolerance: float, copies=1
) -> np.ndarray:
    """copies times the integral of f over each [lo[j], hi[j]], by adaptive
    G7/K15 panel bisection, every element j in lockstep; copies is one count
    or one per element.

    f(y, which) takes the nodes of a round, a row of 15 per panel, and the
    element of each row.  Element j starts from uniform panels no wider than
    twice resolution[j] (the smoothing scale of its integrand).  Each panel
    costs one 15-node evaluation: the K15 value is accepted once |K15 - G7|
    is within the panel's proportional share of tolerance / copies[j];
    otherwise the panel is bisected.  A panel whose error is still above its
    share but already at QUADPACK's round-off level cannot improve, so that
    ends its element at once.

    Each element keeps its own panels, estimates and refinement count, and
    adds its panels in a fixed order, so its result or error is what it
    would be alone, and repeated runs are bit-identical.  A round takes the
    open panels of the first elements that fit _ROUND_PANELS together, or of
    the first element alone if they do not fit; the others wait.  An element
    with more than _MAX_PANELS open panels fails.  Raises ConvergenceError
    for the first element, in order, that fails, with its index, and
    ValueError, before any panel is built, for a tolerance that is not finite
    and > 0.
    """
    _check_tolerance(tolerance)
    width = hi - lo
    count = np.where(width > 0.0, np.maximum(4, np.ceil(width / (2.0 * resolution))), 0).astype(np.int64)
    # np.linspace(lo, hi, count + 1) of every element, end to end
    owner = np.repeat(np.arange(lo.size), count)
    index = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    step = width[owner] / count[owner]
    lower = index * step + lo[owner]
    upper = np.where(index + 1 == count[owner], hi[owner], (index + 1) * step + lo[owner])
    copies = np.broadcast_to(copies, lo.shape)
    share = tolerance / copies / np.where(width > 0.0, width, 1.0)
    settled = np.zeros(lo.size)
    previous, last = np.full(lo.size, math.nan), np.full(lo.size, math.nan)
    rounds = np.zeros(lo.size, dtype=np.int64)
    failure = None
    while owner.size:
        size = owner.size
        if size > _ROUND_PANELS:
            # owner is sorted: the panels of the first elements that fit together
            held = np.cumsum(np.bincount(owner))
            fit = int(np.searchsorted(held, _ROUND_PANELS, side="right"))
            size = max(int(held[fit - 1]) if fit else 0, int(np.searchsorted(owner, owner[0], side="right")))
        low, up, which = lower[:size], upper[:size], owner[:size]
        half = 0.5 * (up - low)
        values = f(half[:, None] * _K15_NODES + (low + half)[:, None], which)
        # row sums, not a matrix product, so a row's bits do not depend on the rows beside it
        kronrod = half * (values * _K15_WEIGHTS).sum(axis=1)
        error = np.abs(half * (values * _K15_MINUS_G7).sum(axis=1))
        converged = error <= share[which] * (up - low)
        todo = ~converged
        magnitude = (np.abs(values[todo]) * _K15_WEIGHTS).sum(axis=1)
        del values  # before the next round's f builds its own
        settled += np.bincount(which, np.where(converged, kronrod, 0.0), lo.size)
        if converged.all():  # every element of the round is done
            lower, upper, owner = lower[size:], upper[size:], owner[size:]
            continue
        stepped = np.unique(which)
        unsettled = np.bincount(which, np.where(converged, 0.0, kronrod), lo.size)
        previous[stepped], last[stepped] = last[stepped], copies[stepped] * (settled[stepped] + unsettled[stepped])
        rounds[stepped] += 1
        roundoff = _ROUNDOFF * half[todo] * magnitude
        stuck = np.unique(which[todo][error[todo] <= roundoff])
        mid = low[todo] + half[todo]
        lower = np.concatenate([np.column_stack([low[todo], mid]).ravel(), lower[size:]])
        upper = np.concatenate([np.column_stack([mid, up[todo]]).ravel(), upper[size:]])
        owner = np.concatenate([np.repeat(which[todo], 2), owner[size:]])
        open_panels = np.bincount(owner, minlength=lo.size)
        exhausted = stepped[(open_panels[stepped] > 0) & (
            (rounds[stepped] > MAX_REFINEMENTS) | (open_panels[stepped] > _MAX_PANELS)
        )]
        failing = np.union1d(stuck, exhausted)
        if failing.size:  # elements after an earlier failure are gone
            j = int(failing[0])
            reason = (
                f"entropy integral cannot reach absolute tolerance {tolerance!r}: "
                "panel error is at the round-off level"
                if j in stuck else f"entropy integral did not converge within {MAX_REFINEMENTS} refinement rounds"
            )
            failure = _convergence_error(reason, float(previous[j]), float(last[j]), j)
        if failure is not None:
            # later elements cannot be the first to fail
            keep = owner < failure.index
            lower, upper, owner = lower[keep], upper[keep], owner[keep]
    if failure is not None:
        raise failure
    return copies * settled


def _convergence_error(reason: str, previous: float, last: float, index: int | None = None) -> ConvergenceError:
    return ConvergenceError(f"{reason} (last estimates {previous!r} -> {last!r})", previous, last, index)


def _padded_support(first: float, last: float, sigma):
    """Integration range of the output of an input on [first, last]:
    SUPPORT_PADDING noise widths beyond each end, elementwise in sigma.
    Raises ValueError, before any node is built, for an input wider than
    MAX_SPAN_SIGMAS noise widths."""
    widths = (last - first) / sigma
    if not every(widths <= MAX_SPAN_SIGMAS):
        raise ValueError(
            f"span/sigma = {float(np.max(widths)):.6g} is more than the {MAX_SPAN_SIGMAS:g} the oracle integrates"
        )
    return first - SUPPORT_PADDING * sigma, last + SUPPORT_PADDING * sigma


def noise_entropy(sigma):
    """Differential entropy of N(0, sigma^2) in bits, elementwise."""
    return as_result(0.5 * np.log2(TWO_PI_E * np.square(sigma)))


def mi_discrete(inp: DiscreteInput | EsduInput, sigma, tolerance: float = TOLERANCE):
    """Mutual information I(X; X+Z) in bits for finite-support X, Z ~ N(0, sigma^2).

    A DiscreteInput takes one noise width, giving a float, or a 1-D array of
    them, each element bit-identical to its call alone; a mirror-symmetric
    input (see the module docstring) integrates its lower half at half the
    tolerance, doubled.  An EsduInput or batch broadcasts against sigma: K
    levels over span S have the rate of the integers 0..K-1 at
    sigma*(K - 1)/S (one level, or a span under MIN_SPAN_SIGMAS, is one atom
    at sigma), each distinct scaled rate integrated once, in order of first
    need.  Either way one lockstep call (see _mi_lockstep) integrates every
    rate the call needs.

    sigma and the span cap are checked on the caller's values, and the
    tolerance, in bits, before any panel.  A ConvergenceError names the first
    failing element, in flat order, as its `index`.  The value is not
    clamped; a deterministic input comes back as a residual of quadrature
    size (|I| <= tolerance) rather than an exact 0.
    """
    _check_sigma(sigma)
    if isinstance(inp, EsduInput):
        return _mi_esdu(inp, sigma, tolerance)
    sigmas = np.asarray(sigma, dtype=float)
    if sigmas.ndim > 1:
        raise ValueError(f"sigma must be a number or a 1-D array, got shape {sigmas.shape}")
    _padded_support(inp.atoms[0], inp.atoms[-1], sigmas)  # the span cap
    rates = _mi_lockstep([inp] * sigmas.size, sigmas.reshape(-1), tolerance, mirrored=_mirrored(inp))
    return float(rates[0]) if np.ndim(sigma) == 0 else rates


def _mi_esdu(inp: EsduInput, sigma, tolerance: float):
    """mi_discrete of an ESDU input or batch."""
    span, levels, sigmas = np.broadcast_arrays(inp.span, inp.levels, np.asarray(sigma, dtype=float))
    _padded_support(0.0, span, sigmas)  # the span cap
    live = (levels > 1) & (span > MIN_SPAN_SIGMAS * sigmas)
    scaled = np.where(live, sigmas * (levels - 1) / np.where(live, span, 1.0), sigmas)
    keys = list(zip(np.where(live, levels, 1).ravel().tolist(), scaled.ravel().tolist()))
    distinct = list(dict.fromkeys(keys))  # in order of first need
    integers = np.arange(max((k for k, _ in distinct), default=0), dtype=float)
    alphabets = {k: DiscreteInput._integers(integers, k) for k in dict.fromkeys(k for k, _ in distinct)}
    try:
        rates = _mi_lockstep(
            [alphabets[k] for k, _ in distinct], np.array([s for _, s in distinct]), tolerance, mirrored=True
        )
    except ConvergenceError as exc:
        exc.index = keys.index(distinct[exc.index])
        raise
    rate_of = dict(zip(distinct, rates.tolist()))
    return as_result(np.array([rate_of[key] for key in keys]).reshape(span.shape))


def _mi_lockstep(inputs: list[DiscreteInput], sigmas: np.ndarray, tolerance: float, mirrored: bool) -> np.ndarray:
    """The rate of inputs[j] at sigmas[j] for every element j, in one
    _adaptive_integrals call; the span cap is the caller's to check, and so is
    whether every input is its own mirror image.  A round's rows go to
    mixture_log_pdf by input, in a stable order: one call per distinct input
    (by identity) among the round's elements."""
    alphabets = list(dict.fromkeys(inputs))
    number = {inp: i for i, inp in enumerate(alphabets)}
    group = np.array([number[inp] for inp in inputs], dtype=np.intp)
    first = np.array([inp.atoms[0] for inp in alphabets])[group]
    last = np.array([inp.atoms[-1] for inp in alphabets])[group]
    lo = first - SUPPORT_PADDING * sigmas
    hi = 0.5 * (first + last) if mirrored else last + SUPPORT_PADDING * sigmas

    def integrand(y: np.ndarray, which: np.ndarray) -> np.ndarray:
        owners = group[which]
        order = np.argsort(owners, kind="stable")
        lp = np.empty_like(y)
        for rows in np.split(order, np.flatnonzero(np.diff(owners[order])) + 1):
            lp[rows] = mixture_log_pdf(alphabets[owners[rows[0]]], sigmas[which[rows], None], y[rows])
        p = np.exp(lp)
        # -p * lp * log2(e) in place, 0 where p underflows
        with np.errstate(invalid="ignore"):
            lp *= p
        lp *= -_LOG2_E
        lp[~(p > 0.0)] = 0.0
        return lp

    h_out = _adaptive_integrals(integrand, lo, hi, sigmas, tolerance, 2 if mirrored else 1)
    return h_out - noise_entropy(sigmas)


def _mirrored(inp: DiscreteInput) -> bool:
    """Whether an input is its own mirror image (see the module docstring)."""
    atoms, masses = inp.atoms, inp.masses
    return np.array_equal(masses, masses[::-1]) and bool(np.all(atoms + atoms[::-1] == atoms[0] + atoms[-1]))


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


def mi_uniform(ch, tolerance: float = TOLERANCE) -> float:
    """Mutual information in bits of a continuous-uniform input over [0, peak];
    the tolerance is checked even at peak 0, where nothing is integrated."""
    _check_tolerance(tolerance)
    if ch.peak == 0.0:
        return 0.0
    s = ch.sigma
    lo, hi = _padded_support(0.0, ch.peak, s)

    def integrand(y: np.ndarray) -> np.ndarray:
        p = uniform_output_pdf(ch, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, -p * np.log2(p), 0.0)

    h_out = _adaptive_integral(integrand, lo, hi, s, tolerance)
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
    estimator.  Requires at least MIN_MC_SAMPLES samples.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"mi_monte_carlo needs at least {MIN_MC_SAMPLES} samples")
    _check_sigma(sigma)
    rng = np.random.default_rng(seed)
    # noise added in place: two arrays of the sample size live at once, not four
    ys = inp.atoms[rng.choice(inp.atoms.size, size=samples, p=inp.masses)]
    ys += rng.normal(0.0, sigma, size=samples)

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
