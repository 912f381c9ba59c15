"""The package's public names are each module's ``__all__``, joined once."""

import lrcov
from lrcov import errors, estimator, fpca, grid, kernels, mc, simulate

MODULES = (errors, grid, kernels, estimator, fpca, simulate, mc)

PUBLIC = {
    "LrcovError", "DataFormatError", "ConfigError", "DimensionError",
    "ContractViolationError", "SeparationError",
    "Grid", "Surface", "l2_norm_surface", "surface_integral", "fourier_basis",
    "KernelSpec", "KERNEL_NAMES", "make_kernel", "kernel_value",
    "CurveSample", "Bandwidth", "LrcovEstimate", "SpectralDensityEstimate",
    "BandwidthSelection", "lag_products", "estimate_lrcov", "estimate_lrcov_naive",
    "estimate_spectral_density", "amse", "optimal_bandwidth",
    "plugin_bandwidth", "project_psd",
    "SEPARATION_RTOL", "EigenSystem", "EigenvalueLimit", "ConfidenceInterval",
    "eigendecompose", "align_sign", "eigenvalue_clt_params",
    "eigenfunction_deviation_msd", "eigenvalue_ci",
    "DgpSpec", "TruthSet", "generate", "truth", "replication_rng",
    "BandwidthRule", "ExperimentSpec", "McReport", "BiasRateReport", "run_experiment",
    "predicted_projection_variance", "bias_rate_check", "mse_curve", "ks_distance",
    "sample_moments",
    "__version__",
}


def test_package_all_is_the_module_lists_joined():
    joined = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert lrcov.__all__ == joined
    assert len(set(joined)) == len(joined) == 53
    assert set(joined) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lrcov, name) is getattr(module, name), name


def test_report_rows_stay_in_their_module():
    for name in ("ProjectionStats", "EigenLevelStats", "BiasRatePoint"):
        assert hasattr(mc, name) and name not in lrcov.__all__
