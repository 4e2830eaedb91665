"""Parameter recovery in two-component contamination mixtures via L2 contrast.

Modules: ``kernels`` (baseline densities and inner products), ``mixture``
(the contamination family and its L2 geometry), ``estimator`` (grid contrast
minimization), ``metrics`` (Wasserstein distances between mixing measures),
``certify`` (numerical inequality scans), ``simharness`` (Monte-Carlo
studies), ``cli`` (command-line entry point).
"""

from .estimator import EstimateResult, build_grid, contrast_naive, estimate
from .kernels import Kernel, cross_inner, mc_inner, pdf, sample, self_inner
from .metrics import MixingDistribution, transport_oracle, w1, w2_squared
from .mixture import MixtureParams, l2_distance_sq, mixture_l2_norm_sq, mixture_pdf, sample_mixture
from .simharness import ExperimentConfig, emit_csv, load_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Kernel",
    "pdf",
    "self_inner",
    "cross_inner",
    "mc_inner",
    "sample",
    "MixtureParams",
    "mixture_pdf",
    "mixture_l2_norm_sq",
    "l2_distance_sq",
    "sample_mixture",
    "build_grid",
    "estimate",
    "contrast_naive",
    "EstimateResult",
    "MixingDistribution",
    "w1",
    "w2_squared",
    "transport_oracle",
    "ExperimentConfig",
    "run_experiment",
    "emit_csv",
    "load_config",
    "__version__",
]
