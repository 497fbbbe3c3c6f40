"""Numerical ground truth for the analytical bounds: exact mutual information
I(X; X+Z) of a finite-support or continuous-uniform input X through Gaussian
noise Z.

The computation uses I = h(Y/sigma) - h(Z/sigma), in noise widths: h(Y/sigma)
integrates -q*log2 q, q = sigma*p(y) <= 1/sqrt(2*pi) < 1 the density of
Y/sigma (so the integrand is nonnegative), to the absolute tolerance, in bits,
each call takes (TOLERANCE by default); h(Z/sigma) is 0.5*log2(2*pi*e).
Nothing in this module depends on the closed-form bounds it validates.

One error budget sizes the work: every integral runs from
support_padding(tolerance) noise widths beyond the extreme atoms or input
edges, as far as leaves a thousandth of the tolerance in the tails, and the
trapezoid rule starts at the step its error model expects to settle in one
round (see _start_steps).

Every output entropy is integrated by one rule, the nested composite
trapezoid rule (see _trapezoid_integrals).  An input that is its own mirror
image (masses equal to their reverse, atom sums atoms[i] + atoms[-1-i] all
equal in float64), as every ESDU input and the continuous-uniform input are,
has an output density symmetric about its midpoint: its integral runs over
the lower half and is doubled.  Any other input's runs over its whole padded
output.  The integrand is Gaussian-smoothed, and every odd derivative
vanishes at a mirror point or is negligible at a padded end, so the rule
converges exponentially.

mi_discrete takes one noise width or a 1-D array of them: the rates of one
input at several widths.  It is also the one path to the exact rate of an
EsduInput (or a batch), taken from its alphabet rescaled to the integers
0..K-1, whose half-output is periodic past an edge of about twice the
padding: such a rate integrates its edge and one half period, whatever its K
(see _output_rates).  Either way every rate it needs, whatever its
alphabet, is an element of one lockstep integral, whose rounds of at most
_ROUND_NODES nodes are one density call each; a one-atom input carries
nothing, and its rate is 0 with no integral.  An element stops once its
error estimate is within the tolerance, or fails once that estimate is at
the round-off level or its next level would pass _MAX_NODES.

The mixture density is one loop over blocks of at most 2^16 (atom, y)
pairs, a row per atom, and adds each y's terms in row order.  Each y uses the
atoms of its alphabet within 40 sigma of it, so its value depends on that y,
its sigma and its alphabet alone, never on the other values of the call.

A seeded Monte-Carlo estimator provides an independent cross-check of the
quadrature path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .esdu import EsduInput
from .special import TWO_PI_E, _check_sigma, as_result, every, q_elementwise, q_function

_LOG2_E = math.log2(math.e)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_UNIT_NOISE_ENTROPY = 0.5 * math.log2(TWO_PI_E)  # h(Z/sigma) in bits

#: QUADPACK's round-off level of a quadrature sum of f >= 0, in units of it.
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
#: A call of equal masses whose every value lies within this many noise
#: widths of every atom is not floored: each term is at least -0.5*37^2 =
#: -684.5, and its value's largest at most 0, so none falls _EXP_FLOOR below.
_FLOOR_FREE_SIGMAS = 37.0

#: Share of a call's tolerance that the two tails left out of its output may
#: hold (see support_padding).
_TAIL_SHARE = 1e-3
#: Widest input, in noise widths, whose output entropy is integrated: 100
#: times the 1000 of a 30 dB peak.  At the smallest start step, 0.11 sigma
#: (see _MAX_STEP_EXPONENT), and the padding of any tolerance down to 1e-30,
#: a first round then holds at most about 907,000 nodes over a mirrored
#: input's half output, and 1,813,000 over an asymmetric input's whole
#: output: about 90 MB traced, at the 49 bytes per node of [0, 1, 99999] at
#: sigma 1 (1.33 M nodes at a 0.15-sigma step, 66 MB).  Near the cap a sparse
#: input can miss a tolerance of 1e-12 without failing: [0, 5e4, 1e5] at
#: sigma 1 reads 2.0e-12 above log2(3) = H(X) at 1e-12 and at 1e-13.
MAX_SPAN_SIGMAS = 1e5
#: Narrowest ESDU input, in noise widths, that mi_discrete scales to the
#: integers: a narrower one, of rate under 0.5*log2(1 + 1e-16/4) < 2e-17
#: bits, is one atom, and no scaled noise width nears float64 overflow.
MIN_SPAN_SIGMAS = 1e-8
#: Default absolute tolerance, in bits, of the output-entropy integral.
TOLERANCE = 1e-10
#: The one backstop on an integral: an element whose next level would bring
#: its trapezoid nodes past this many fails, so no level evaluates more than
#: 15 M nodes: about 735 MB at the discrete path's 49 bytes per node, 1.9 GB
#: at the uniform path's 127 (measured at levels of 1 M and 2 M nodes).  The
#: finest level of round r (the first is 0) has at least 2^(r+1) intervals,
#: so it stops an element by round 23; typical calls settle in round 0.
_MAX_NODES = 30_000_000
#: Nodes of one round of a lockstep call: the round takes the first elements
#: whose nodes fit together, or the first element alone if its nodes do not
#: fit.  30,720 nodes are 240 KiB per float64 array.
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
    """An output-entropy integral cannot reach its tolerance: its error
    estimate is at the round-off level, or its next level would pass
    _MAX_NODES.

    Carries the last two global estimates, bits of h(Y/sigma), so callers can
    judge how far apart the refinement loop still was, and, from a batch of
    integrals, the index of the element that failed.
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

    Each value keeps its atoms within _WINDOW_SIGMAS of its sigma, found by
    searchsorted (see _window), where each term left out is below exp(-800 +
    max log mass), 746 below the value's largest, so exp(term - largest) is
    0.0, and else (far from every atom, zero masses near it) uses every atom.
    One loop runs the values in blocks of _BLOCK_ELEMENTS // K, K their
    largest alphabet, a row per atom from each value's first, added in row
    order.  Terms are floored at _EXP_FLOOR below each value's largest (see
    _peak_sums), so a row past a value's window adds at most
    exp(_EXP_FLOOR) to a sum of at least 1, which float64 cannot resolve: a
    value is the same whatever block or call it is in.

    What the values allow is decided once per call: one alphabet within
    reach of every value at one noise width, as Monte Carlo samples on a
    narrow alphabet are, finds no window and redoes none, and with equal
    masses floors nothing, as no term can reach the floor (_FLOOR_FREE_SIGMAS).
    """
    _check_sigma(sigma)
    y_arr = np.asarray(y, dtype=float)
    flat = y_arr.ravel()
    scale = np.asarray(sigma, dtype=float)
    if scale.ndim:
        scale = np.broadcast_to(scale, y_arr.shape).ravel()
    whole = (np.ndim(inp._sizes) == 0 and scale.ndim == 0 and flat.size > 0
             and _sees_every_atom(flat, inp.atoms, _WINDOW_SIGMAS * scale))
    floor = not (whole and inp._relative is None and _sees_every_atom(flat, inp.atoms, _FLOOR_FREE_SIGMAS * scale))
    all_sizes = np.broadcast_to(inp._sizes, flat.shape)
    out = np.empty(flat.size)
    start = 0
    while start < flat.size:
        ahead = all_sizes[start : start + max(1, _BLOCK_ELEMENTS // int(all_sizes[start]))]
        block = slice(start, start + max(1, _BLOCK_ELEMENTS // int(ahead.max())))  # fits every atom of each alphabet
        start = block.stop
        y, sizes, sigma = flat[block], all_sizes[block], scale if scale.ndim == 0 else scale[block]
        if whole:  # every value's rows are all K atoms
            first, depth = None, inp._sizes
        else:
            first, width = _window(y, inp, _WINDOW_SIGMAS * sigma, sizes)
            depth = int(width.max())
            if depth == 0:  # no window holds an atom: every value uses every atom, as a redo would
                first, width, depth = np.zeros_like(sizes), sizes, int(sizes.max())
        peak, total = _peak_sums(_exponents(y, sigma, first, depth, sizes, inp.atoms, inp._relative), floor)
        if not whole:
            redo = (width < sizes) & ~(peak > -0.5 * _WINDOW_SIGMAS**2 - _UNDERFLOW_EXPONENT)
            if redo.any():  # a window left out atoms whose terms might not underflow: those use every atom
                first[redo], width[redo] = 0, sizes[redo]
                exponents = _exponents(y, sigma, first, int(width.max()), sizes, inp.atoms, inp._relative)
                peak, total = _peak_sums(exponents, True)
        log_mass = np.log(1.0 / sizes) if inp._log_mass is None else inp._log_mass
        out[block] = peak + log_mass + np.log(total) - np.log(sigma) - _LOG_SQRT_2PI
    return as_result(out.reshape(y_arr.shape))


def _sees_every_atom(y: np.ndarray, atoms: np.ndarray, reach) -> bool:
    """Whether every y lies within `reach` of every one of `atoms`."""
    return bool(y.max() - reach <= atoms[0] and y.min() + reach >= atoms[-1])


def _window(y: np.ndarray, inp, reach, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The first atom and the number of atoms within `reach` of each y, of
    the first `sizes` atoms of `inp`: searchsorted's, whatever the input."""
    atoms = inp.atoms
    if _sees_every_atom(y, atoms[: sizes.max()], reach.min()):
        return np.zeros_like(sizes), sizes  # every window holds every atom, as searchsorted would find
    first = np.minimum(np.searchsorted(atoms, y - reach, side="left"), sizes)
    return first, np.minimum(np.searchsorted(atoms, y + reach, side="right"), sizes) - first


def _peak_sums(exponents: np.ndarray, floor: bool):
    """Each column's largest term and sum of exp(term - largest), in row
    order, the terms floored at _EXP_FLOOR below the largest if `floor`;
    exponents is overwritten."""
    peak = np.max(exponents, axis=0)
    exponents -= np.maximum(peak, np.finfo(float).min)  # a column of -inf stays -inf
    if floor:
        np.maximum(exponents, _EXP_FLOOR, out=exponents)
    np.exp(exponents, out=exponents)
    # numpy sums a lone column pairwise, so its order would depend on the block
    total = np.cumsum(exponents, axis=0)[-1] if exponents.shape[1] == 1 else exponents.sum(axis=0)
    return peak, total


def _exponents(y, sigma, first: np.ndarray | None, depth: int, sizes, atoms: np.ndarray, relative) -> np.ndarray:
    """The terms -0.5*((y - atom)/sigma)^2 + relative log mass of atoms first_j
    on, depth rows of them, for each value j; -inf past its sizes_j atoms.
    first None starts every value at atom 0 of an alphabet of depth atoms."""
    shared = first is None or first.min() == first.max()
    if shared:  # one window start: a slice, no gather
        rows = slice(0, depth) if first is None else slice(first[0], first[0] + depth)
        z = y - atoms[rows, None]
        log_masses = None if relative is None else relative[rows, None]
    else:  # no measured quadrature block comes here; scattered values (Monte
        # Carlo samples on an alphabet wider than one window) do, and slicing
        # them from the block's first window took esdu-rate --span 1000 --levels
        # 2001 --mc-samples 300000 from 1.4 s to 5.6 s (a 2-vCPU Xeon VM)
        index = first + np.arange(depth)[:, None]
        z = np.take(atoms, index, mode="clip")
        np.subtract(y, z, out=z)
        log_masses = None if relative is None else np.take(relative, index, mode="clip")
    if np.ndim(sigma) or sigma != 1.0:  # x / 1.0 is x
        z /= sigma
    z *= z
    z *= -0.5
    if log_masses is not None:
        z += log_masses
    limit = None if first is None else sizes - first  # the rows value j may use
    if limit is not None and limit.min() < depth:
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


def _start_steps(smallest: np.ndarray, largest: np.ndarray, sigma: np.ndarray, tolerance: float) -> np.ndarray:
    """The trapezoid rule's start step c*sigma for an input whose gaps
    between adjacent atoms run from `smallest` to `largest` (both 0 for the
    continuous-uniform input), elementwise, aiming at an error of exp(-E),
    E = ln(_STEP_MARGIN / tolerance) in [0, _MAX_STEP_EXPONENT], for the
    first round's T_n.

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
    needs the smallest c of any gap.  Written in g, no gaps (g = 0)
    divide nothing by zero."""
    exponent = min(max(0.0, math.log(_STEP_MARGIN / tolerance)), _MAX_STEP_EXPONENT)
    g = np.clip(math.sqrt(8.0 * exponent / 3.0), smallest / sigma, largest / sigma)
    floor = max(2.0 * math.pi**2 / _MAX_STEP_SIGMAS, math.pi * exponent / _EDGE_ZERO_SIGMAS)
    return 2.0 * math.pi**2 / np.maximum(g * (exponent - 0.125 * g * g), floor) * sigma


def _trapezoid_integrals(
    f, lo: np.ndarray, mid: np.ndarray, step: np.ndarray, tolerance: float, order: np.ndarray, weight: np.ndarray
):
    """The integral of f over each [lo[j], mid[j]], by the nested composite
    trapezoid rule, every element j in lockstep, for an integrand
    negligible at lo[j] or its own mirror image about it, and its own mirror
    image about mid[j] or negligible there too.

    f(y, which) takes the 1-D nodes of a round and the element of each node.
    Every odd derivative of such an integrand vanishes, or is negligible, at
    both ends, so no Euler-Maclaurin correction applies and the rule
    converges exponentially (Trefethen and Weideman, SIAM Review 2014).
    Element j's first round evaluates 2n + 1 nodes, n = ceil((mid - lo) /
    step[j]), for T_n and T_2n; its estimate T_2n is accepted once
    |T_2n - T_n|, floored at the round-off level of T_2n itself (f >= 0, so
    its sum is its sum of |f|), is within tolerance once
    multiplied by weight[j], the factor its result is used with.  Otherwise
    each later round adds the midpoints of its finest level.  An element
    stops for one of two reasons only: its difference is at the round-off
    level, or its next level would bring its nodes past _MAX_NODES; either
    fails at once.

    Each element keeps its own level and sums, adding each level's values in
    node order, so its result or error is what it would be alone, and reruns
    are bit-identical.  A round takes the next level of the first open
    elements, taken in `order`, whose nodes fit _ROUND_NODES together, or of
    the first alone; the others wait.  Raises ConvergenceError for the
    failing element of smallest index, with that index and its last two
    estimates times weight; _output_rates has checked the tolerance.
    """
    width = mid - lo
    base = np.maximum(1, np.ceil(width / step)).astype(np.int64)
    intervals = np.zeros(lo.size, dtype=np.int64)  # of the finest level so far; 0 before the first round
    estimate = np.zeros(lo.size)
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
        # the new nodes have odd k; a first round's others give T_n, with half weight at both ends
        new = k % 2 == 1
        coarse = np.where(new, 0.0, np.where((k == 0) | (k == finest[slot]), 0.5, 1.0))
        del k
        coarse_sum, new_sum = (np.bincount(slot, w * values, take) for w in (coarse, new))
        del values, coarse, new  # before the next round's f builds its own
        previous = np.where(fresh, 2.0 * h * coarse_sum, estimate[now])
        estimate[now] = 0.5 * previous + h * new_sum
        intervals[now] = finest
        change = np.abs(estimate[now] - previous)
        # no estimate is better than the round-off level of its sum, as in QUADPACK
        floor = _ROUNDOFF * estimate[now]
        converged = weight[now] * np.maximum(change, floor) <= tolerance
        out[now[converged]] = estimate[now[converged]]
        stuck = change <= floor
        failing = np.flatnonzero(~converged & (stuck | (2 * finest + 1 > _MAX_NODES)))
        if failing.size:  # elements of larger index than an earlier failure are gone
            i = int(failing[np.argmin(now[failing])])
            scale = float(weight[now[i]])
            before, after = scale * float(previous[i]), scale * float(estimate[now[i]])
            reason = (
                f"cannot reach absolute tolerance {tolerance!r}: its error estimate is at the round-off level"
                if stuck[i] else f"did not converge within {_MAX_NODES} nodes"
            )
            failure = ConvergenceError(
                f"entropy integral {reason} (last estimates {before!r} -> {after!r})", before, after, int(now[i])
            )
        open_ = np.concatenate([now[~converged], open_[take:]])
        if failure is not None:
            # elements of larger index cannot be the first to fail
            open_ = open_[open_ < failure.index]
    if failure is not None:
        raise failure
    return out


def support_padding(tolerance: float) -> float:
    """Noise widths integrated beyond the extreme atoms or input edges of an
    output entropy integral of absolute tolerance `tolerance` (bits): the
    least multiple of 1/16 whose two left-out tails hold at most _TAIL_SHARE
    of it.

    Beyond an input's first atom or edge every mass lies to one side, so the
    density of Y/sigma is at most the standard Gaussian phi about that
    point, and -q*log q rises with q below 1/e, as phi is past 1.4.  So the
    tail past x >= 1.4 noise widths holds at most the integral of
    -phi*log2(phi) there, ((x*phi(x) + Q(x))/2 + Q(x)*ln(sqrt(2*pi))) / ln 2,
    by int_x^inf t^2 phi(t) dt = x*phi(x) + Q(x).  The padding is sized by
    its first term, both tails together; the second adds no more, as
    ln(sqrt(2*pi)) < 0.92 <= x^2/2, whatever sigma."""
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


def mi_discrete(inp: DiscreteInput | EsduInput, sigma, tolerance: float = TOLERANCE):
    """Mutual information I(X; X+Z) in bits for finite-support X, Z ~ N(0, sigma^2).

    A DiscreteInput takes one noise width, giving a float, or a 1-D array of
    them, each element bit-identical to its call alone; a mirror-symmetric
    input (see the module docstring) integrates the lower half of its output,
    doubled, and any other input its whole output.  An EsduInput or batch
    broadcasts against sigma: K levels over span S have the rate of the
    integers 0..K-1 at sigma*(K - 1)/S, each distinct scaled rate integrated
    once, in order of first need (see _mi_lockstep).  Either way one
    lockstep trapezoid integral takes every rate the call needs but those of
    one atom (one level, or a span under MIN_SPAN_SIGMAS), which are 0 and
    never integrated.

    sigma and the span cap are checked on the caller's values, and the
    tolerance, in bits, before any node.  A ConvergenceError names the first
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
    if inp.atoms.size == 1:  # one atom carries nothing
        _check_tolerance(tolerance)
        rates = np.zeros(sigmas.size)
    else:
        gaps = np.diff(inp.atoms)
        rates = _output_rates(
            lambda y, which: mixture_log_pdf(inp, sigmas[which], y), first, last, gaps.min(), gaps.max(), sigmas,
            tolerance, np.arange(sigmas.size), "mirrored" if _mirrored(inp) else "whole",
        )
    return float(rates[0]) if np.ndim(sigma) == 0 else rates


def _mi_esdu(inp: EsduInput, sigma, tolerance: float):
    """mi_discrete of an ESDU input or batch: only the elements of more than
    one level over more than MIN_SPAN_SIGMAS noise widths are integrated."""
    span, levels, sigmas = np.broadcast_arrays(inp.span, inp.levels, np.asarray(sigma, dtype=float))
    _check_span_cap(0.0, span, sigmas)
    live = np.flatnonzero((levels > 1) & (span > MIN_SPAN_SIGMAS * sigmas))
    sizes = levels.ravel()[live]
    keys = list(zip(sizes.tolist(), (sigmas.ravel()[live] * (sizes - 1) / span.ravel()[live]).tolist()))
    distinct = list(dict.fromkeys(keys))  # in order of first need
    try:
        rates = _mi_lockstep(np.array([k for k, _ in distinct], "i4"), np.array([s for _, s in distinct]), tolerance)
    except ConvergenceError as exc:
        exc.index = int(live[keys.index(distinct[exc.index])])
        raise
    rate_of = dict(zip(distinct, rates.tolist()))
    out = np.zeros(span.size)
    out[live] = [rate_of[key] for key in keys]
    return as_result(out.reshape(span.shape))


def _mi_lockstep(sizes: np.ndarray, sigmas: np.ndarray, tolerance: float) -> np.ndarray:
    """The rate of the integers 0..sizes[j]-1 at sigmas[j] for every element
    j, every size at least 2, lattices of gap 1, the span cap the caller's
    to check: each round is one density call (see _Lattices), and takes the
    largest alphabets first, so that a density block seldom mixes sizes.

    Each half-output is periodic from the first integer or half-integer at
    least support_padding noise widths above 0 (see _output_rates)."""
    return _output_rates(
        lambda y, which: mixture_log_pdf(_Lattices(sizes[which]), sigmas[which], y), 0.0, sizes - 1.0, 1.0, 1.0,
        sigmas, tolerance, np.argsort(-sizes, kind="stable"), "lattice",
    )


def _output_rates(
    density, first, last, smallest, largest, sigmas: np.ndarray, tolerance: float, order: np.ndarray, layout: str
):
    """The rate at sigmas[j] of every input j, from atom or edge `first` to
    `last`, its gaps from `smallest` to `largest` (one or one per input), by
    _trapezoid_integrals in `order` from x = support_padding noise widths
    below `first`; density(y, which) is the log density of input which[i] at
    y[i].

    Each integral is h(Y/sigma) = h(Y) - log2(sigma), of -q*log2(q) dy/sigma
    at q = sigma*p(y), and the rate is h(Y/sigma) - 0.5*log2(2*pi*e).  Each
    element is weighted by 1/sigma times its multiplicity in h(Y/sigma), and
    accepted within the tolerance of what it stands for there.  A "mirrored"
    input, its own mirror image, is integrated up to its midpoint, weighted
    2.  Any other ("whole") is one element from lo to x noise widths above
    `last`, weighted 1.

    The integers 0..K-1 ("lattice") pay only for their edge.  From the first
    integer or half-integer m at least x noise widths above 0 to the
    midpoint, the density is that of the whole integer lattice but for the
    atoms missing below 0, which change it there by a share of about Q(x) at
    most.  That density is even about every integer and half-integer, so
    every half period holds the same integral, and h(Y) misses the
    difference by about log2(K)*Q(x) <= log2(K)*_TAIL_SHARE*tolerance*ln(2)/x^2,
    under a thousandth of the tolerance for K up to 100,000 wherever x >= 4
    (tolerances up to 1 bit).  So an input whose midpoint lies past m is two
    elements of the lockstep call, one after the other in `order`: [lo, m],
    weighted 2, and [m, m + 1/2], weighted 4*(mid - m), the half periods of
    both mirrored halves.  Every odd derivative of the integrand vanishes at
    m and at both ends of the half period.  Every input has two atoms or
    edges at least: one atom carries nothing and is never integrated."""
    _check_tolerance(tolerance)
    padding = support_padding(tolerance)
    lo = first - padding * sigmas
    mid = np.broadcast_to(last + padding * sigmas if layout == "whole" else 0.5 * (first + last), sigmas.shape)
    cut = np.minimum(np.ceil(2.0 * padding * sigmas) / 2.0, mid) if layout == "lattice" else mid
    # each element's input, an input's [lo, cut] before its half period; int32,
    # as is the order, so that a round's copy of either per node is half the bytes
    owner = np.repeat(np.arange(sigmas.size, dtype=np.int32), np.where(cut < mid, 2, 1))
    period = np.concatenate([[False], owner[1:] == owner[:-1]])
    weight = np.where(period, 4.0 * (mid - cut)[owner], 1.0 if layout == "whole" else 2.0) / sigmas[owner]
    log_sigmas = np.log(sigmas)[owner]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    try:
        parts = _trapezoid_integrals(
            lambda y, which: _entropy_terms(density(y, owner[which]), log_sigmas[which]),
            np.where(period, cut[owner], lo[owner]), np.where(period, cut[owner] + 0.5, cut[owner]),
            _start_steps(smallest, largest, sigmas, tolerance)[owner], tolerance,
            np.argsort(rank[owner], kind="stable").astype(np.int32), weight,
        )
    except ConvergenceError as exc:
        exc.index = int(owner[exc.index])
        raise
    return np.bincount(owner, weight * parts, sigmas.size) - _UNIT_NOISE_ENTROPY


def _entropy_terms(lp: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
    """-q * log2(q) from lp = log(p), q = sigma*p, in place, 0 where q underflows."""
    lp += log_sigma
    q = np.exp(lp)
    with np.errstate(invalid="ignore"):
        lp *= q
    lp *= -_LOG2_E
    lp[~(q > 0.0)] = 0.0
    return lp


def _mirrored(inp: DiscreteInput) -> bool:
    """Whether an input is its own mirror image (see the module docstring)."""
    atoms, masses = inp.atoms, inp.masses
    return np.array_equal(masses, masses[::-1]) and bool(np.all(atoms + atoms[::-1] == atoms[0] + atoms[-1]))


def uniform_output_pdf(ch, y):
    """Output density of X + Z for X ~ Unif([0, A]), Z ~ N(0, sigma^2).

    Equals (Phi(y/sigma) - Phi((y-A)/sigma))/A.  Both tails are evaluated as
    differences of small upper-tail probabilities, avoiding the cancellation a
    direct CDF difference would suffer far outside [0, A].  That difference
    still cancels once A << sigma, so an input under 1e-3 sigma wide takes the
    density's Taylor series about the midpoint, with m = (y - A/2)/sigma:
    phi(m)/sigma * (1 + (m^2-1) a^2/24 + (m^4-6m^2+3) a^4/1920), a = A/sigma,
    whose next term is under 1e-17 relative for |m| <= 9.
    """
    a, s = ch.peak, ch.sigma
    y_arr = np.asarray(y, dtype=float)
    if a < 1e-3 * s:
        m2, w2 = ((y_arr - 0.5 * a) / s) ** 2, (a / s) ** 2
        series = 1.0 + (m2 - 1.0) * w2 / 24.0 + ((m2 - 6.0) * m2 + 3.0) * w2 * w2 / 1920.0
        return as_result(np.exp(-0.5 * m2 - _LOG_SQRT_2PI) / s * series)
    u = y_arr / s
    v = (y_arr - a) / s
    left = y_arr < 0.5 * a
    # below the midpoint: Q(-u) - Q(-v); above: Q(v) - Q(u); both subtract the
    # far (negligible) tail from the near one.
    near = np.where(left, -u, v)
    far = np.where(left, -v, u)
    return as_result(np.maximum((q_elementwise(near) - q_elementwise(far)) / a, 0.0))


def mi_uniform(ch, tolerance: float = TOLERANCE) -> float:
    """Mutual information in bits of a continuous-uniform input over [0, peak];
    the tolerance is checked even at peak 0, where nothing is integrated.  The
    output density is its own mirror image about peak/2, so it is integrated
    as a mirrored input from 0 to peak with no gaps (see _output_rates)."""
    _check_tolerance(tolerance)
    if ch.peak == 0.0:
        return 0.0
    sigmas = np.array([float(ch.sigma)])
    _check_span_cap(0.0, ch.peak, sigmas)

    def log_density(y: np.ndarray, which) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(uniform_output_pdf(ch, y))

    return float(_output_rates(log_density, 0.0, ch.peak, 0.0, 0.0, sigmas, tolerance, np.arange(1), "mirrored")[0])


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mutual-information estimate with its standard error."""

    value: float
    standard_error: float
    samples: int
    seed: int
    generator: str = MC_GENERATOR


def _atom_indices(u: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """The indices rng.choice(masses.size, u.size, p=masses) draws from the
    doubles u = rng.random(u.size): cdf.searchsorted(u, side="right"), cdf =
    cumsum(masses) / its last entry, as numpy computes them.  Index k holds
    the u in [cdf[k-1], cdf[k]); each u's guess floor(u*K) is checked against
    those bounds, and only the guesses it misses are searched.

    The indices are intp and both bounds are gathered into one reused array:
    an int32 index is widened to a temporary intp copy by every gather."""
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    guess = np.multiply(u, cdf.size)
    k = guess.astype(np.intp)  # u < 1, so u*K rounds below K
    np.take(np.concatenate(([0.0], cdf[:-1])), k, out=guess, mode="clip")  # "raise" would buffer out
    miss = u < guess
    np.take(cdf, k, out=guess, mode="clip")
    miss |= u >= guess
    k[miss] = cdf.searchsorted(u[miss], side="right")
    return k


def mi_monte_carlo(inp: DiscreteInput, sigma: float, samples: int, seed: int) -> McEstimate:
    """Sample-average estimate of I(X; X+Z), deterministic for a fixed seed.

    Averages -log2 p(X_i + Z_i) over seeded draws, less the noise entropy
    0.5*log2(2*pi*e) + log2(sigma); the per-sample values also give its
    standard error.  Requires at least MIN_MC_SAMPLES samples.

    The seed fixes the stream: the atom indices are what
    default_rng(seed).choice(K, samples, p=masses) gives, one double each
    (see _atom_indices), and the noise is what the same generator draws
    next, from PCG64(seed) advanced past those samples doubles.  Both are
    drawn, and the density evaluated, one block of 100,000 samples at a
    time, so memory does not grow with samples; each block's values are
    summed as one group.
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
        ys = inp.atoms[_atom_indices(indices.random(block), inp.masses)]
        ys += noise.normal(0.0, sigma, size=block)
        vals = mixture_log_pdf(inp, sigma, ys)
        vals *= -_LOG2_E  # (-x)*c is x*(-c) in float64, and no copy
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / samples
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McEstimate(
        value=float(mean - (_UNIT_NOISE_ENTROPY + math.log2(sigma))),
        standard_error=float(math.sqrt(variance / samples)),
        samples=samples,
        seed=seed,
    )
