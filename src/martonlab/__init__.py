"""One-shot Marton inner bounds for broadcast channels.

A library and command line tool for computing smooth Renyi divergence
quantities, selecting band exponents, building rejection-sampled
codebooks, running typical-set and pretty-good-measurement decoders, and
checking every closed-form error bound by Monte Carlo simulation, for
classical and classical-quantum broadcast channels.
"""

from .analysis import (
    ConvergenceCurve,
    CoveringEstimate,
    CoveringParams,
    RateRegion,
    clopper_pearson_lower,
    clopper_pearson_upper,
    covering_bound,
    empirical_covering,
    event_bounds,
    iid_convergence_curve,
    marton_region,
    region_contains,
    synthetic_covering,
    theorem_bounds,
    verdu_region,
)
from .channels import (
    ClassicalBroadcastChannel,
    CqBroadcastChannel,
    InputDesign,
    ProductClassicalChannel,
    channel_from_json,
)
from .coding import (
    Codebook,
    RateParams,
    generate_codebook,
    select_band_exponents,
)
from .divergences import (
    DivergenceResult,
    classical_i0,
    classical_i_infty,
    iid_llr_spectrum,
    quantum_i0_cq,
    spectrum_i0,
)
from .errors import (
    ConvergenceError,
    HermiticityError,
    InfeasibleRates,
    MartonlabError,
    NormalizationError,
    PositivityError,
    SupportOverflowError,
    ValidationError,
)
from .experiments import ExperimentReport, Scheme, achieved_divergences, run_experiment
from .prob import JointPmf, mutual_information
from .rng import SeededRng, mix64

__version__ = "0.1.0"

__all__ = [
    "ClassicalBroadcastChannel",
    "Codebook",
    "ConvergenceCurve",
    "ConvergenceError",
    "CoveringEstimate",
    "CoveringParams",
    "CqBroadcastChannel",
    "DivergenceResult",
    "ExperimentReport",
    "HermiticityError",
    "InfeasibleRates",
    "InputDesign",
    "JointPmf",
    "MartonlabError",
    "NormalizationError",
    "PositivityError",
    "ProductClassicalChannel",
    "RateParams",
    "RateRegion",
    "Scheme",
    "SeededRng",
    "SupportOverflowError",
    "ValidationError",
    "achieved_divergences",
    "channel_from_json",
    "classical_i0",
    "classical_i_infty",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "covering_bound",
    "empirical_covering",
    "event_bounds",
    "generate_codebook",
    "iid_convergence_curve",
    "iid_llr_spectrum",
    "marton_region",
    "mix64",
    "mutual_information",
    "quantum_i0_cq",
    "region_contains",
    "run_experiment",
    "select_band_exponents",
    "spectrum_i0",
    "synthetic_covering",
    "theorem_bounds",
    "verdu_region",
    "__version__",
]
