"""Numerical ground truth for the analytical bounds: exact mutual information
I(X; X+Z) of a finite-support or continuous-uniform input X through Gaussian
noise Z.

The computation uses the decomposition I = h(Y) - h(Z).  The output entropy
h(Y) is an integral of -p(y)*log2 p(y), evaluated to the absolute tolerance,
in bits, each call takes (TOLERANCE by default); h(Z) is
0.5*log2(2*pi*e*sigma^2) in closed form.  Nothing in this module depends on
the closed-form bounds it is used to validate.

One error budget sizes the work: every integral runs from
support_padding(tolerance) noise widths beyond the extreme atoms or input
edges, as far as leaves a thousandth of the tolerance in the tails, and the
trapezoid rule starts at the step its error model expects to settle in one
round (see _start_steps).

An input that is its own mirror image (masses equal to their reverse, atom
sums atoms[i] + atoms[-1-i] all equal in float64), as every ESDU input is,
has an output density symmetric about its midpoint.  Its entropy integral
runs over the lower half by the nested composite trapezoid rule (see
_mirrored_integrals), and is doubled: the integrand is Gaussian-smoothed and
every odd derivative vanishes at the mirror point, so the rule converges
exponentially.  Any other input, and the continuous-uniform input, is
integrated over its whole padded support by adaptive composite Gauss-Kronrod
quadrature (G7/K15 panels, bisection refinement; see _adaptive_integrals),
which is also the tests' reference for the trapezoid rule.

mi_discrete takes one noise width or a 1-D array of them: the rates of one
input at several widths.  It is also the one path to the exact rate of an
EsduInput (or a batch), taken from its alphabet rescaled to the integers
0..K-1, whose half-output is periodic past an edge of about twice the
padding: such a rate integrates its edge and one half period, whatever its K
(see _mirrored_rates).  Either way every rate it needs, whatever its
alphabet, is an element of one lockstep integral, whose rounds of at most
_ROUND_NODES nodes are one density call each.

The mixture density works in blocks of at most 2^16 (atom, y) pairs, a row
per atom, and adds each y's terms in row order.  Each y uses the atoms of
its alphabet within 40 sigma of it, so its value depends on that y, its
sigma and its alphabet alone, never on the other values of the call.

A seeded Monte-Carlo estimator provides an independent cross-check of the
quadrature path.
"""

import math
from dataclasses import dataclass

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
#: QUADPACK's round-off level of a quadrature sum, in units of the same sum
#: over |f| (a G7/K15 panel's half * sum |w_k f_k|, a trapezoid level's).
_ROUNDOFF = 50.0 * np.finfo(float).eps

#: Entries of one (atoms x block) work array in mixture_log_pdf: 512 KiB per
#: float64 temporary.
_BLOCK_ELEMENTS = 1 << 16
#: Atoms farther than this many noise widths from a y are left out of its
#: log-sum-exp, once its largest term shows their terms underflow.
_WINDOW_SIGMAS = 40.0
#: exp(x) is 0.0 in float64 for every x below about -745.13.
_UNDERFLOW_EXPONENT = -746.0
#: Terms further below a value's largest are raised to this before exp,
#: which is an order of magnitude slower where its result underflows.
_EXP_FLOOR = -700.0

#: Share of a call's tolerance that the two tails left out of its output may
#: hold (see support_padding).
_TAIL_SHARE = 1e-3
#: Widest input, in noise widths, whose output entropy is integrated: 100
#: times the 1000 of a 30 dB peak.  An asymmetric input's first G7/K15 round
#: then holds about 50,010 panels (750,150 nodes, 6 MB per float64 node
#: array), and a mirrored input's first trapezoid round at most about 907,000
#: nodes (7.3 MB), at the smallest start step, 0.11 sigma (see
#: _MAX_STEP_EXPONENT), for the padding of any tolerance down to 1e-30.
MAX_SPAN_SIGMAS = 1e5
#: Narrowest ESDU input, in noise widths, that mi_discrete scales to the
#: integers: a narrower one, of rate under 0.5*log2(1 + 1e-16/4) < 2e-17
#: bits, is one atom, and no scaled noise width nears float64 overflow.
MIN_SPAN_SIGMAS = 1e-8
#: Default absolute tolerance, in bits, of the output-entropy integral.
TOLERANCE = 1e-10
#: Refinement rounds before an integral gives up: 30 halvings take a 2-sigma
#: panel or a trapezoid step below 1e-8 sigma, yet typical calls settle in
#: the first round.
MAX_REFINEMENTS = 30
#: Backstop on the working set of one integral call: an element that needs
#: more than this many nodes (open G7/K15 panels of 15 nodes, or trapezoid
#: nodes in all) fails.
_MAX_NODES = 30_000_000
#: Nodes of one round of a lockstep call: the round takes the first elements
#: whose nodes fit together, or the first element alone if its nodes do not
#: fit.  30,720 nodes (2,048 G7/K15 panels) are 240 KiB per float64 array.
_ROUND_NODES = 30_720
#: The trapezoid rule's start step, in noise widths, is at most this, and
#: aims the first round's coarser sum at an error of tolerance/_STEP_MARGIN,
#: half what the round accepts (see _start_steps).
_MAX_STEP_SIGMAS = 0.75
_STEP_MARGIN = 4.0
#: The start step aims no lower than exp(-_MAX_STEP_EXPONENT), its aim at a
#: tolerance of 3.7e-13, so no first round is finer (see MAX_SPAN_SIGMAS).
_MAX_STEP_EXPONENT = 30.0
#: Distance, in noise widths, from the real axis of the nearest complex zero
#: of the density of a run of atoms a gap apart once sigma passes about 0.9
#: gaps, put there by the run's ends: 2.7 to 2.8 for long runs, down to 2.48
#: for runs of three to five near sigma = 0.9 to 1.4 gaps, where the first
#: round's error may reach e^2 times its aim and still settles (found from
#: the roots of sum_k exp(-k^2/(2 s^2)) w^k for 2 to 79 atoms at s = 0.3 to
#: 6 gaps; first rounds checked for 2 to 79 atoms at s = 0.05 to 20 gaps).
_EDGE_ZERO_SIGMAS = 2.7

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
        # for mixture_log_pdf: all atoms per value, the largest log mass, and the others less it
        self._sizes, self._log_mass = atoms.size, np.log(masses.max())
        log_masses = np.log(masses, out=np.full_like(masses, -np.inf), where=masses > 0.0)
        self._relative = None if np.all(masses == masses[0]) else log_masses - self._log_mass

    @classmethod
    def from_esdu(cls, inp: EsduInput) -> "DiscreteInput":
        """Convert an ESDU input; a zero span, or one whose level spacing
        underflows to 0, collapses to one atom at 0."""
        if inp.span == 0.0 or inp.span / (inp.levels - 1) == 0.0:
            return cls(np.array([0.0]), np.array([1.0]))
        atoms = np.asarray(inp.atoms(), dtype=float)
        masses = np.full(inp.levels, 1.0 / inp.levels)
        return cls(atoms, masses)


class _Lattices:
    """A density call's input over ESDU alphabets rescaled to the integers:
    value j sees the uniform input on 0..sizes[j]-1 as DiscreteInput would."""

    def __init__(self, sizes: np.ndarray):
        self.atoms = np.arange(sizes.max(), dtype=float)
        self._sizes, self._log_mass, self._relative = sizes, None, None  # log mass log(1/size)


def mixture_log_pdf(inp: "DiscreteInput | _Lattices", sigma, y):
    """Natural log of the output density sum_i mass_i * phi(y - atom_i; sigma).

    Uses log-sum-exp over the per-atom terms, so the result stays finite for
    |y - atom| up to hundreds of noise widths.  Accepts a scalar or an array;
    the shape of y is preserved.  sigma is one noise width or an array of
    them that broadcasts against y, a width per value.

    Each value keeps its atoms within _WINDOW_SIGMAS of its sigma where each
    term left out is below exp(-800 + max log mass), 746 below the value's
    largest, so exp(term - largest) is 0.0, and else (far from every atom,
    zero masses near it) uses every atom.  Values run in blocks of
    _BLOCK_ELEMENTS // K, K their largest alphabet, a row per atom from each
    value's first, added in row order; rows past a value's window add at most
    exp(_EXP_FLOOR) to a sum of at least 1, which float64 cannot resolve, so
    its value is the same whatever block or call it is in.
    """
    _check_sigma(sigma)
    y_arr = np.asarray(y, dtype=float)
    scale = np.asarray(sigma, dtype=float)
    if scale.ndim:
        scale = np.broadcast_to(scale, y_arr.shape).ravel()
    out = _blocked_log_pdf(y_arr.ravel(), scale, inp).reshape(y_arr.shape)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def _blocked_log_pdf(flat: np.ndarray, scale: np.ndarray, inp) -> np.ndarray:
    """mixture_log_pdf of 1-D y with widths `scale`, one or one per value,
    block by block within the budget."""
    all_sizes = np.broadcast_to(inp._sizes, flat.shape)
    out = np.empty(flat.size)
    start = 0
    while start < flat.size:
        ahead = all_sizes[start : start + max(1, _BLOCK_ELEMENTS // int(all_sizes[start]))]
        block = slice(start, start + max(1, _BLOCK_ELEMENTS // int(ahead.max())))  # fits every atom of each alphabet
        start = block.stop
        y, sizes, sigma = flat[block], all_sizes[block], scale if scale.ndim == 0 else scale[block]
        first, width = _window(y, inp, _WINDOW_SIGMAS * sigma, sizes)
        peak, total = _log_sums(y, sigma, first, width, sizes, inp)
        redo = (width < sizes) & ~(peak > -0.5 * _WINDOW_SIGMAS**2 - _UNDERFLOW_EXPONENT)
        if redo.any():  # a window left out atoms whose terms might not underflow: those use every atom
            first[redo], width[redo] = 0, sizes[redo]
            peak, total = _log_sums(y, sigma, first, width, sizes, inp)
        log_mass = np.log(1.0 / sizes) if inp._log_mass is None else inp._log_mass
        out[block] = peak + log_mass + np.log(total) - np.log(sigma) - _LOG_SQRT_2PI
    return out


def _window(y: np.ndarray, inp, reach, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The first atom and the number of atoms within `reach` of each y, of
    the first `sizes` atoms of `inp`."""
    atoms = inp.atoms
    if y.max() - reach.min() <= atoms[0] and y.min() + reach.min() >= atoms[sizes.max() - 1]:
        return np.zeros_like(sizes), sizes  # every window holds every atom, as searchsorted would find
    if isinstance(inp, _Lattices):  # the atoms are 0, 1, ...: what searchsorted would find, by arithmetic
        first = np.clip(np.ceil(y - reach), 0, sizes).astype(np.int64)
        return first, np.clip(np.floor(y + reach) + 1, 0, sizes).astype(np.int64) - first
    first = np.minimum(np.searchsorted(atoms, y - reach, side="left"), sizes)
    return first, np.minimum(np.searchsorted(atoms, y + reach, side="right"), sizes) - first


def _log_sums(y, sigma, first: np.ndarray, width: np.ndarray, sizes, inp):
    """Each value's largest term and sum of exp(term - largest), from atom
    first on, over the widest window's rows; -inf and 0 if no window has any."""
    depth = int(width.max())
    if depth == 0:
        return np.full(y.size, -np.inf), np.zeros(y.size)
    lowest = _lowest_terms(y, sigma, first, depth, sizes, inp)  # its temporaries freed before the terms exist
    exponents = _exponents(y, sigma, first, depth, sizes, inp.atoms, inp._relative)
    peak = np.max(exponents, axis=0)
    shift = np.maximum(peak, np.finfo(float).min)  # a column of -inf stays -inf
    exponents -= shift
    # exp(-inf) is 0.0 at full speed: only a finite term can need the floor
    lowest -= shift
    if not np.all(lowest >= _EXP_FLOOR):
        np.maximum(exponents, _EXP_FLOOR, out=exponents)
    np.exp(exponents, out=exponents)
    # numpy sums a lone column pairwise, so its order would depend on the block
    total = np.cumsum(exponents, axis=0)[-1] if exponents.shape[1] == 1 else exponents.sum(axis=0)
    return peak, total


def _lowest_terms(y, sigma, first: np.ndarray, depth: int, sizes, inp) -> np.ndarray:
    """No more than the least finite term _exponents gives each value: the
    term of the farther of its end rows' atoms, in the same float64
    operations, plus the least finite relative log mass."""
    last = np.minimum(first + depth, sizes) - 1
    if isinstance(inp, _Lattices):  # atom i is i
        z = np.maximum(y - first, last - y)
    else:
        z = np.maximum(y - np.take(inp.atoms, first, mode="clip"), inp.atoms[last] - y)
    z /= sigma
    z *= z
    z *= -0.5
    if inp._relative is not None:
        z += np.min(inp._relative, where=np.isfinite(inp._relative), initial=0.0)
    return z


def _exponents(y, sigma, first: np.ndarray, depth: int, sizes, atoms: np.ndarray, relative) -> np.ndarray:
    """The terms -0.5*((y - atom)/sigma)^2 + relative log mass of atoms first_j
    on, depth rows of them, for each value j; -inf past its sizes_j atoms."""
    shared = first.min() == first.max()
    if shared:  # one window start: a slice, no gather
        rows = slice(first[0], first[0] + depth)
        z = y - atoms[rows, None]
        log_masses = None if relative is None else relative[rows, None]
    else:
        index = first + np.arange(depth)[:, None]
        z = np.take(atoms, index, mode="clip")
        np.subtract(y, z, out=z)
        log_masses = None if relative is None else np.take(relative, index, mode="clip")
    z /= sigma
    z *= z
    z *= -0.5
    if log_masses is not None:
        z += log_masses
    limit = sizes - first  # the rows value j may use
    if np.any(limit < depth):
        if not shared:
            z[np.arange(depth)[:, None] >= limit] = -np.inf
        else:  # values in runs of one alphabet size: a slice per run
            starts = [0, *(np.flatnonzero(limit[1:] != limit[:-1]) + 1).tolist()]
            for a, b in zip(starts, [*starts[1:], limit.size]):
                z[limit[a] :, a:b] = -np.inf
    return z


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


def _adaptive_integrals(f, lo: np.ndarray, hi: np.ndarray, resolution: np.ndarray, tolerance: float) -> np.ndarray:
    """The integral of f over each [lo[j], hi[j]], by adaptive G7/K15 panel
    bisection, every element j in lockstep.

    f(y, which) takes the nodes of a round, a row of 15 per panel, and the
    element of each row.  Element j starts from uniform panels no wider than
    twice resolution[j] (the smoothing scale of its integrand).  Each panel
    costs one 15-node evaluation: the K15 value is accepted once |K15 - G7|
    is within the panel's proportional share of tolerance; otherwise the
    panel is bisected.  A panel whose error is still above its share but
    already at QUADPACK's round-off level cannot improve, so that ends its
    element at once.

    Each element keeps its own panels, estimates and refinement count, and
    adds its panels in a fixed order, so its result or error is what it
    would be alone, and repeated runs are bit-identical.  A round takes the
    open panels of the first elements whose nodes fit _ROUND_NODES together,
    or of the first element alone if they do not fit; the others wait.  An
    element with more than _MAX_NODES nodes in open panels fails.  Raises
    ConvergenceError for the first element, in order, that fails, with its
    index, and ValueError, before any panel is built, for a tolerance that is
    not finite and > 0.
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
    share = tolerance / np.where(width > 0.0, width, 1.0)
    settled = np.zeros(lo.size)
    previous, last = np.full(lo.size, math.nan), np.full(lo.size, math.nan)
    rounds = np.zeros(lo.size, dtype=np.int64)
    round_panels = _ROUND_NODES // _K15_NODES.size
    failure = None
    while owner.size:
        size = owner.size
        if size > round_panels:
            # owner is sorted: the panels of the first elements that fit together
            held = np.cumsum(np.bincount(owner))
            fit = int(np.searchsorted(held, round_panels, side="right"))
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
        previous[stepped], last[stepped] = last[stepped], settled[stepped] + unsettled[stepped]
        rounds[stepped] += 1
        roundoff = _ROUNDOFF * half[todo] * magnitude
        stuck = np.unique(which[todo][error[todo] <= roundoff])
        mid = low[todo] + half[todo]
        lower = np.concatenate([np.column_stack([low[todo], mid]).ravel(), lower[size:]])
        upper = np.concatenate([np.column_stack([mid, up[todo]]).ravel(), upper[size:]])
        owner = np.concatenate([np.repeat(which[todo], 2), owner[size:]])
        open_nodes = _K15_NODES.size * np.bincount(owner, minlength=lo.size)
        exhausted = stepped[(open_nodes[stepped] > 0) & (
            (rounds[stepped] > MAX_REFINEMENTS) | (open_nodes[stepped] > _MAX_NODES)
        )]
        failing = np.union1d(stuck, exhausted)
        if failing.size:  # elements after an earlier failure are gone
            j = int(failing[0])
            failure = _convergence_error(j in stuck, tolerance, float(previous[j]), float(last[j]), j)
        if failure is not None:
            # later elements cannot be the first to fail
            keep = owner < failure.index
            lower, upper, owner = lower[keep], upper[keep], owner[keep]
    if failure is not None:
        raise failure
    return settled


def _start_steps(smallest: np.ndarray, largest: np.ndarray, sigma: np.ndarray, tolerance: float) -> np.ndarray:
    """The trapezoid rule's start step c*sigma for an input whose gaps
    between adjacent atoms run from `smallest` to `largest` (both 0 for one
    atom), elementwise, aiming at an error of exp(-E), E = ln(_STEP_MARGIN /
    tolerance) in [0, _MAX_STEP_EXPONENT], for the first round's T_n.

    The rule's error on an integrand analytic within a of the real axis
    falls as exp(-2*pi*a/h) for a step h.  With g = gap/sigma, atoms a gap
    apart put complex zeros of the density pi*sigma^2/gap from the real
    axis, so c = 2*pi^2 / (g*(E - g^2/8)) where that denominator is
    positive: the error model exp(-g^2/8) * exp(-2*pi^2/(g*c)) <= exp(-E).
    The ends of a run of atoms put zeros about _EDGE_ZERO_SIGMAS noise
    widths off the axis, which bounds c by 2*pi*_EDGE_ZERO_SIGMAS/E, and c
    is at most _MAX_STEP_SIGMAS.

    A lattice, as every ESDU input is, has one gap.  Otherwise the gap that
    needs the smallest c is used: c falls as g*(E - g^2/8) rises, which it
    does up to g = sqrt(8E/3), so that point clipped to [smallest, largest]
    needs the smallest c of any gap.  Written in g, one atom (g = 0) divides
    nothing by zero."""
    exponent = min(max(0.0, math.log(_STEP_MARGIN / tolerance)), _MAX_STEP_EXPONENT)
    g = np.clip(math.sqrt(8.0 * exponent / 3.0), smallest / sigma, largest / sigma)
    floor = max(2.0 * math.pi**2 / _MAX_STEP_SIGMAS, math.pi * exponent / _EDGE_ZERO_SIGMAS)
    return 2.0 * math.pi**2 / np.maximum(g * (exponent - 0.125 * g * g), floor) * sigma


def _mirrored_integrals(
    f, lo: np.ndarray, mid: np.ndarray, step: np.ndarray, tolerance: float, order: np.ndarray, weight: np.ndarray
):
    """Twice the integral of f over each [lo[j], mid[j]], for an integrand
    that is its own mirror image about mid[j] and either negligible at lo[j]
    or its own mirror image about lo[j] too, by the nested composite
    trapezoid rule, every element j in lockstep.

    f(y, which) takes the 1-D nodes of a round and the element of each node.
    Every odd derivative of such an integrand vanishes at mid[j], so no
    Euler-Maclaurin correction applies and the rule converges exponentially.
    Element j's first round evaluates 2n + 1 nodes, n = ceil((mid - lo) /
    step[j]), for T_n and T_2n; its estimate 2*T_2n is accepted once
    2*|T_2n - T_n|, floored at the round-off level of its sum of |f|, is
    within tolerance once multiplied by weight[j], the factor its result is
    used with.  Otherwise each later round adds the midpoints of its
    finest level, for at most MAX_REFINEMENTS levels; an element whose
    difference is at the round-off level, or whose next level would bring
    its nodes past _MAX_NODES, fails at once.

    Each element keeps its own level and sums, adding each level's values in
    node order, so its result or error is what it would be alone, and reruns
    are bit-identical.  A round takes the next level of the first open
    elements, taken in `order`, whose nodes fit _ROUND_NODES together, or of
    the first alone; the others wait.  Raises ConvergenceError for the
    failing element of smallest index, with that index, and ValueError,
    before any node is built, for a tolerance that is not finite and > 0.
    """
    _check_tolerance(tolerance)
    width = mid - lo
    base = np.maximum(1, np.ceil(width / step)).astype(np.int64)
    intervals = np.zeros(lo.size, dtype=np.int64)  # of the finest level so far; 0 before the first round
    estimate, magnitude = np.zeros(lo.size), np.zeros(lo.size)
    refinements = np.zeros(lo.size, dtype=np.int64)
    out = np.zeros(lo.size)
    open_ = order
    failure = None
    while open_.size:
        fresh = intervals[open_] == 0
        needed = np.where(fresh, 2 * base[open_] + 1, intervals[open_])
        held = np.cumsum(needed)
        take = max(1, int(np.searchsorted(held, _ROUND_NODES, side="right")))
        now, needed, fresh = open_[:take], needed[:take], fresh[:take]
        finest = np.where(fresh, 2 * base[now], 2 * intervals[now])
        h = width[now] / finest
        # node k of an element is lo + k*h: every k on its first round, odd k later
        slot = np.repeat(np.arange(take), needed)
        k = np.arange(slot.size) - np.repeat(held[:take] - needed, needed)
        k = np.where(fresh[slot], k, 2 * k + 1)
        values = f(k * h[slot] + lo[now][slot], now[slot])
        magnitudes = np.abs(values)
        # the new nodes have odd k; a first round's others give T_n, with half weight at both ends
        new = k % 2 == 1
        coarse = np.where(new, 0.0, np.where((k == 0) | (k == finest[slot]), 0.5, 1.0))
        del k
        sums = [np.bincount(slot, w * v, take) for w in (coarse, new) for v in (values, magnitudes)]
        del values, magnitudes, coarse, new  # before the next round's f builds its own
        previous = np.where(fresh, 2.0 * h * sums[0], estimate[now])
        rough = np.where(fresh, 2.0 * h * sums[1], magnitude[now])
        estimate[now] = 0.5 * previous + h * sums[2]
        magnitude[now] = 0.5 * rough + h * sums[3]
        intervals[now] = finest
        change = np.abs(estimate[now] - previous)
        # no estimate is better than the round-off level of its sum, as in QUADPACK
        floor = _ROUNDOFF * magnitude[now]
        converged = 2.0 * weight[now] * np.maximum(change, floor) <= tolerance
        out[now[converged]] = 2.0 * estimate[now[converged]]
        stuck = ~converged & (change <= floor)
        exhausted = ~converged & ((refinements[now] >= MAX_REFINEMENTS) | (2 * finest + 1 > _MAX_NODES))
        refinements[now] += 1
        failing = np.flatnonzero(stuck | exhausted)
        if failing.size:  # elements of larger index than an earlier failure are gone
            i = int(failing[np.argmin(now[failing])])
            failure = _convergence_error(
                bool(stuck[i]), tolerance, 2.0 * float(previous[i]), 2.0 * float(estimate[now[i]]), int(now[i])
            )
        open_ = np.concatenate([now[~converged], open_[take:]])
        if failure is not None:
            # elements of larger index cannot be the first to fail
            open_ = open_[open_ < failure.index]
    if failure is not None:
        raise failure
    return out


def _convergence_error(stuck: bool, tolerance: float, previous: float, last: float, index: int) -> ConvergenceError:
    """The error of element `index` of an integral call, which cannot improve
    at the round-off level (stuck) or ran out of refinement rounds or nodes."""
    reason = (
        f"entropy integral cannot reach absolute tolerance {tolerance!r}: its error estimate is at the round-off level"
        if stuck else f"entropy integral did not converge within {MAX_REFINEMENTS} refinement rounds"
    )
    return ConvergenceError(f"{reason} (last estimates {previous!r} -> {last!r})", previous, last, index)


def support_padding(tolerance: float) -> float:
    """Noise widths integrated beyond the extreme atoms or input edges of an
    output entropy integral of absolute tolerance `tolerance` (bits): the
    least multiple of 1/16 whose two left-out tails hold at most _TAIL_SHARE
    of it.

    Beyond an input's first atom or edge every mass lies to one side, so the
    density is at most the Gaussian phi_sigma about that point, and -p*log p
    rises with p below 1/e.  So the tail past x noise widths holds at most
    the integral of -phi_sigma*log2(phi_sigma) there,
    ((x*phi(x) + Q(x))/2 + Q(x)*ln(sigma*sqrt(2*pi))) / ln 2, by
    int_x^inf t^2 phi(t) dt = x*phi(x) + Q(x).  The padding is sized by its
    first term, both tails together; the second, which depends on the unit of
    y, adds no more than the first while |ln(sigma*sqrt(2*pi))| <= x^2/2,
    for sigma from 1e-14 to 1e13 at x = 8."""
    budget = _TAIL_SHARE * tolerance * math.log(2.0)
    low, high = 0, 16 * 40  # in sixteenths; past 40 noise widths the tails underflow
    while low < high:  # bisection: the tails fall as x rises
        middle = (low + high) // 2
        x = middle / 16
        if x * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) + q_function(x) <= budget:
            high = middle
        else:
            low = middle + 1
    return low / 16


def _check_span_cap(first: float, last: float, sigma) -> None:
    """Raises ValueError, before any node is built, for an input on [first,
    last] wider than MAX_SPAN_SIGMAS noise widths, elementwise in sigma."""
    widths = (last - first) / sigma
    if not every(widths <= MAX_SPAN_SIGMAS):
        raise ValueError(
            f"span/sigma = {float(np.max(widths)):.6g} is more than the {MAX_SPAN_SIGMAS:g} the oracle integrates"
        )


def noise_entropy(sigma):
    """Differential entropy of N(0, sigma^2) in bits, elementwise."""
    return as_result(0.5 * np.log2(TWO_PI_E * np.square(sigma)))


def mi_discrete(inp: DiscreteInput | EsduInput, sigma, tolerance: float = TOLERANCE):
    """Mutual information I(X; X+Z) in bits for finite-support X, Z ~ N(0, sigma^2).

    A DiscreteInput takes one noise width, giving a float, or a 1-D array of
    them, each element bit-identical to its call alone; a mirror-symmetric
    input (see the module docstring) integrates its lower half by the
    trapezoid rule, doubled, and any other input its whole support by
    G7/K15.  An EsduInput or batch broadcasts against sigma: K levels over
    span S have the rate of the integers 0..K-1 at sigma*(K - 1)/S (one
    level, or a span under MIN_SPAN_SIGMAS, is one atom at sigma), each
    distinct scaled rate integrated once, in order of first need, by the
    trapezoid rule (see _mi_lockstep).  Either way one lockstep integral
    takes every rate the call needs.

    sigma and the span cap are checked on the caller's values, and the
    tolerance, in bits, before any panel.  A ConvergenceError names the first
    failing element, in flat order, as its `index`.  The value is not
    clamped: a one-atom input gives exactly 0, but any other deterministic
    input (all mass on one atom) comes back as a residual of quadrature size
    (|I| <= tolerance).
    """
    _check_sigma(sigma)
    if isinstance(inp, EsduInput):
        return _mi_esdu(inp, sigma, tolerance)
    sigmas = np.asarray(sigma, dtype=float)
    if sigmas.ndim > 1:
        raise ValueError(f"sigma must be a number or a 1-D array, got shape {sigmas.shape}")
    sigmas = sigmas.reshape(-1)
    first, last = inp.atoms[0], inp.atoms[-1]
    _check_span_cap(first, last, sigmas)
    if _mirrored(inp):
        gaps = np.diff(inp.atoms) if inp.atoms.size > 1 else np.zeros(1)
        rates = _mirrored_rates(
            lambda y, which: mixture_log_pdf(inp, sigmas[which], y), first, last, gaps.min(), gaps.max(), sigmas,
            tolerance, np.arange(sigmas.size),
        )
    else:
        padding = support_padding(tolerance)
        rates = _adaptive_integrals(
            lambda y, which: _entropy_terms(mixture_log_pdf(inp, sigmas[which, None], y)),
            first - padding * sigmas, last + padding * sigmas, sigmas, tolerance,
        ) - noise_entropy(sigmas)
    return float(rates[0]) if np.ndim(sigma) == 0 else rates


def _mi_esdu(inp: EsduInput, sigma, tolerance: float):
    """mi_discrete of an ESDU input or batch."""
    span, levels, sigmas = np.broadcast_arrays(inp.span, inp.levels, np.asarray(sigma, dtype=float))
    _check_span_cap(0.0, span, sigmas)
    live = (levels > 1) & (span > MIN_SPAN_SIGMAS * sigmas)
    scaled = np.where(live, sigmas * (levels - 1) / np.where(live, span, 1.0), sigmas)
    keys = list(zip(np.where(live, levels, 1).ravel().tolist(), scaled.ravel().tolist()))
    distinct = list(dict.fromkeys(keys))  # in order of first need
    try:
        rates = _mi_lockstep(np.array([k for k, _ in distinct], "i4"), np.array([s for _, s in distinct]), tolerance)
    except ConvergenceError as exc:
        exc.index = keys.index(distinct[exc.index])
        raise
    rate_of = dict(zip(distinct, rates.tolist()))
    return as_result(np.array([rate_of[key] for key in keys]).reshape(span.shape))


def _mi_lockstep(sizes: np.ndarray, sigmas: np.ndarray, tolerance: float) -> np.ndarray:
    """The rate of the integers 0..sizes[j]-1 at sigmas[j] for every element
    j, the span cap the caller's to check: each round is one density call
    (see _Lattices), and takes the largest alphabets first, so that a
    density block seldom mixes sizes.

    Each half-output is periodic from the first integer or half-integer at
    least support_padding noise widths above 0 (see _mirrored_rates)."""
    gap = np.minimum(sizes - 1, 1)  # a lattice's gap is 1; one atom has none
    return _mirrored_rates(
        lambda y, which: mixture_log_pdf(_Lattices(sizes[which]), sigmas[which], y), 0.0, sizes - 1.0, gap, gap,
        sigmas, tolerance, np.argsort(-sizes, kind="stable"), lattice=True,
    )


def _mirrored_rates(
    density, first, last, smallest, largest, sigmas: np.ndarray, tolerance: float, order: np.ndarray, lattice=False
):
    """The rate at sigmas[j] of every mirror-image input j, from atom
    `first` to `last`, its gaps from `smallest` to `largest` (one or one per
    input), by _mirrored_integrals in `order` from x = support_padding
    noise widths below `first`; density(y, which) is the log density of
    input which[i] at y[i].

    The integers 0..K-1 (`lattice`) pay only for their edge.  From the first
    integer or half-integer m at least x noise widths above 0 to the
    midpoint, the density is that of the whole integer lattice but for the
    atoms missing below 0, which change it there by a share of about Q(x) at
    most.  That density is even about every integer and half-integer, so
    every half period holds the same integral, and h(Y) misses the
    difference by about log2(K)*Q(x) <= log2(K)*_TAIL_SHARE*tolerance*ln(2)/x^2,
    under a thousandth of the tolerance for K up to 100,000 wherever x >= 4
    (tolerances up to 1 bit).  So an input whose midpoint lies past m is two
    elements of the lockstep call, one after the other in `order`: [lo, m],
    and [m, m + 1/2] weighted 2*(mid - m), so accepted within the tolerance
    of the sum it stands for.  Every odd derivative of the integrand
    vanishes at m and at both ends of the half period."""
    _check_tolerance(tolerance)
    padding = support_padding(tolerance)
    lo, mid = first - padding * sigmas, np.broadcast_to(0.5 * (first + last), sigmas.shape)
    cut = np.minimum(np.ceil(2.0 * padding * sigmas) / 2.0, mid) if lattice else mid
    # each element's input, an input's [lo, cut] before its half period; int32,
    # as is the order, so that a round's copy of either per node is half the bytes
    owner = np.repeat(np.arange(sigmas.size, dtype=np.int32), np.where(cut < mid, 2, 1))
    period = np.concatenate([[False], owner[1:] == owner[:-1]])
    weight = np.where(period, 2.0 * (mid - cut)[owner], 1.0)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    try:
        parts = _mirrored_integrals(
            lambda y, which: _entropy_terms(density(y, owner[which])),
            np.where(period, cut[owner], lo[owner]), np.where(period, cut[owner] + 0.5, cut[owner]),
            _start_steps(smallest, largest, sigmas, tolerance)[owner], tolerance,
            np.argsort(rank[owner], kind="stable").astype(np.int32), weight,
        )
    except ConvergenceError as exc:
        exc.index = int(owner[exc.index])
        raise
    rates = np.bincount(owner, weight * parts, sigmas.size) - noise_entropy(sigmas)
    # one atom carries nothing: its rate is 0, not the rounding residual of
    # h(Y) - h(Z), whose sign would add a vertex at r1 = 4e-16 to a region
    rates[last == first] = 0.0
    return rates


def _entropy_terms(lp: np.ndarray) -> np.ndarray:
    """-p * log2(p) from lp = log(p), in place, 0 where p underflows."""
    p = np.exp(lp)
    with np.errstate(invalid="ignore"):
        lp *= p
    lp *= -_LOG2_E
    lp[~(p > 0.0)] = 0.0
    return lp


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
    _check_span_cap(0.0, ch.peak, s)
    padding = support_padding(tolerance)

    def integrand(y: np.ndarray) -> np.ndarray:
        p = uniform_output_pdf(ch, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, -p * np.log2(p), 0.0)

    h_out = _adaptive_integral(integrand, -padding * s, ch.peak + padding * s, s, tolerance)
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

    The seed fixes the stream: the atom indices are what
    default_rng(seed).choice(K, samples, p=masses) gives, one double each,
    and the noise is what the same generator draws next, from PCG64(seed)
    advanced past those samples doubles.  Both are drawn, and the density
    evaluated, one block of 100,000 samples at a time, so memory does not
    grow with samples; each block's values are summed as one group.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"mi_monte_carlo needs at least {MIN_MC_SAMPLES} samples")
    _check_sigma(sigma)
    indices = np.random.default_rng(seed)
    noise = np.random.Generator(np.random.PCG64(seed).advance(samples))

    chunk = 100_000
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, chunk):
        block = min(chunk, samples - start)
        ys = inp.atoms[indices.choice(inp.atoms.size, size=block, p=inp.masses)]
        ys += noise.normal(0.0, sigma, size=block)
        vals = -mixture_log_pdf(inp, sigma, ys) * _LOG2_E
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
