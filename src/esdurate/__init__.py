"""Achievable-rate bounds for evenly-spaced discrete uniform (ESDU) inputs on
peak-constrained Gaussian point-to-point and two-user broadcast channels,
validated against an exact mutual-information oracle."""

__version__ = "0.1.0"

from .esdu import EsduInput, f1, f2, f3, f_lower, g_prime, g_upper, owb, xi
from .oracle import (
    ConvergenceError,
    DiscreteInput,
    McEstimate,
    mi_discrete,
    mi_monte_carlo,
    mi_uniform,
    mixture_log_pdf,
)
from .region import (
    BcChannel,
    RatePair,
    RateRegion,
    SplitConfig,
    SplitOrigin,
    containment_margin,
    exact_inner_point,
    frontier_hull,
    outer_corner,
    outer_region,
    split_schedule,
    sweep_inner,
    analytic_inner_point,
)
from .special import binary_entropy, db_to_amplitude_ratio, q_function
from .uniform import P2pChannel, c_lower, c_upper, e_cap
from .verify import run_verification

__all__ = [
    "__version__",
    "BcChannel",
    "ConvergenceError",
    "DiscreteInput",
    "EsduInput",
    "McEstimate",
    "P2pChannel",
    "RatePair",
    "RateRegion",
    "SplitConfig",
    "SplitOrigin",
    "binary_entropy",
    "c_lower",
    "c_upper",
    "containment_margin",
    "db_to_amplitude_ratio",
    "e_cap",
    "exact_inner_point",
    "f1",
    "f2",
    "f3",
    "f_lower",
    "frontier_hull",
    "g_prime",
    "g_upper",
    "mi_discrete",
    "mi_monte_carlo",
    "mi_uniform",
    "mixture_log_pdf",
    "outer_corner",
    "outer_region",
    "owb",
    "q_function",
    "run_verification",
    "split_schedule",
    "sweep_inner",
    "analytic_inner_point",
    "xi",
]
