"""Long-run covariance estimation for stationary functional time series.

The pipeline: curves observed on a shared uniform midpoint grid go through a
kernel lag-window estimator of the long-run covariance surface, bandwidth can
be chosen by a plug-in rule minimizing the asymptotic mean squared error, the
estimated surface is eigendecomposed into functional principal components
with normal-approximation confidence intervals, and a seeded Monte Carlo
harness checks the distributional approximations on processes whose long-run
covariance is known exactly.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    DataFormatError,
    DimensionError,
    KernelSpecError,
    LrcovError,
    SeparationError,
)
from .grid import Grid, Surface, fourier_basis, l2_norm_surface, surface_integral
from .kernels import KERNEL_NAMES, KernelSpec, kernel_value, make_kernel
from .estimator import (
    Bandwidth,
    BandwidthSelection,
    CurveSample,
    LrcovEstimate,
    SpectralDensityEstimate,
    amse,
    bias_kernel,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    gamma1_norm_sq,
    lag_products,
    optimal_bandwidth,
    plugin_bandwidth,
    project_psd,
)
from .fpca import (
    SEPARATION_RTOL,
    ConfidenceInterval,
    EigenSystem,
    EigenvalueLimit,
    align_sign,
    eigendecompose,
    eigenfunction_deviation_msd,
    eigenvalue_ci,
    eigenvalue_clt_params,
)
from .simulate import DgpSpec, TruthSet, generate, replication_rng, truth
from .mc import (
    BandwidthRule,
    BiasRateReport,
    ExperimentSpec,
    McReport,
    bias_rate_check,
    ks_distance,
    mse_curve,
    predicted_projection_variance,
    run_experiment,
    sample_moments,
)

__version__ = "0.1.0"

__all__ = [
    "LrcovError",
    "DataFormatError",
    "ConfigError",
    "DimensionError",
    "ContractViolationError",
    "KernelSpecError",
    "SeparationError",
    "Grid",
    "Surface",
    "l2_norm_surface",
    "surface_integral",
    "fourier_basis",
    "KernelSpec",
    "KERNEL_NAMES",
    "make_kernel",
    "kernel_value",
    "CurveSample",
    "Bandwidth",
    "LrcovEstimate",
    "SpectralDensityEstimate",
    "BandwidthSelection",
    "lag_products",
    "estimate_lrcov",
    "estimate_lrcov_naive",
    "estimate_spectral_density",
    "bias_kernel",
    "gamma1_norm_sq",
    "amse",
    "optimal_bandwidth",
    "plugin_bandwidth",
    "project_psd",
    "SEPARATION_RTOL",
    "EigenSystem",
    "EigenvalueLimit",
    "ConfidenceInterval",
    "eigendecompose",
    "align_sign",
    "eigenvalue_clt_params",
    "eigenfunction_deviation_msd",
    "eigenvalue_ci",
    "DgpSpec",
    "TruthSet",
    "generate",
    "truth",
    "replication_rng",
    "BandwidthRule",
    "ExperimentSpec",
    "McReport",
    "BiasRateReport",
    "run_experiment",
    "predicted_projection_variance",
    "bias_rate_check",
    "mse_curve",
    "ks_distance",
    "sample_moments",
    "__version__",
]
