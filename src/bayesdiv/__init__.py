"""Bayesian estimation of divergences between categorical samples.

Estimate Kullback-Leibler and squared Hellinger divergences between two
discrete distributions from count data, using Dirichlet-prior posterior
expectations either at the evidence maximum (DP) or averaged under a
divergence-flattening hyper-prior (DPM), alongside classic pseudo-count
plugins and the bias-corrected Z estimator.  Includes synthetic truth
generators and a convergence benchmark harness.
"""

from .benchmark import (
    ESTIMATOR_NAMES,
    ExperimentConfig,
    compute_nstar,
    run_convergence,
    write_rows_csv,
)
from .counts import MultiplicityTable, build_table, load_count_files
from .estimators import (
    EstimateReport,
    estimate,
    estimate_dkl_dp,
    estimate_dkl_dpm,
    estimate_dkl_plugin,
    estimate_dkl_zhang,
    estimate_entropy_nsb,
    estimate_hellinger_dp,
    estimate_hellinger_dpm,
    estimate_hellinger_plugin,
)
from .posterior import (
    HyperParams,
    log_evidence,
    posterior_dkl,
    prior_mean_crossentropy,
    prior_mean_entropy,
)
from .synth import (
    build_markov_spec,
    exact_dkl,
    exact_entropy,
    lgram_distribution,
    markov_crossentropy,
    markov_entropy,
    sample_dirichlet,
    sample_lgrams,
    sample_multinomial,
)

__version__ = "0.1.0"

__all__ = [
    "ESTIMATOR_NAMES",
    "EstimateReport",
    "ExperimentConfig",
    "HyperParams",
    "MultiplicityTable",
    "build_markov_spec",
    "build_table",
    "compute_nstar",
    "estimate",
    "estimate_dkl_dp",
    "estimate_dkl_dpm",
    "estimate_dkl_plugin",
    "estimate_dkl_zhang",
    "estimate_entropy_nsb",
    "estimate_hellinger_dp",
    "estimate_hellinger_dpm",
    "estimate_hellinger_plugin",
    "exact_dkl",
    "exact_entropy",
    "lgram_distribution",
    "load_count_files",
    "log_evidence",
    "markov_crossentropy",
    "markov_entropy",
    "posterior_dkl",
    "prior_mean_crossentropy",
    "prior_mean_entropy",
    "run_convergence",
    "sample_dirichlet",
    "sample_lgrams",
    "sample_multinomial",
    "write_rows_csv",
    "__version__",
]
