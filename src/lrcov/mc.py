"""Monte Carlo verification harness for the distributional claims.

Replications are generated from per-index PCG64 streams derived from
(master_seed, replication), so a report is bit-identical no matter how many
worker processes share the replication range.  Estimation error is always
centered at the across-replication mean, never at the truth, so bias never
masquerades as variance.

The bias-rate check measures the norm of (Monte Carlo mean - truth) on an
h grid; it subtracts the estimated Monte Carlo noise floor from the squared
norm and fits the log-log slope by inverse-variance weighted least squares,
reporting per-point noise bars so a noise-dominated point is visible instead
of silently corrupting the slope.  It runs the uncentered unbiased-divisor
estimator on these mean-zero processes, which makes every lag estimate
exactly unbiased and isolates the kernel-weighting bias being measured.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, ContractViolationError, DimensionError, KernelSpecError
from .errors import config_number, config_numbers, config_object
from .estimator import (
    Bandwidth,
    BandwidthSelection,
    CurveSample,
    _lag_weights,
    _window_sums,
    estimate_lrcov,
    plugin_bandwidth,
)
from .fpca import (
    align_sign,
    eigendecompose,
    eigenfunction_deviation_msd,
    eigenvalue_clt_params,
)
from .grid import Grid, Surface, fourier_basis
# perfbench traces lrcov.mc.kernel_value, so the name stays importable here
from .kernels import KernelSpec, kernel_value, make_kernel  # noqa: F401
from .simulate import DgpSpec, TruthSet, generate, replication_rng, truth

__all__ = [
    "BandwidthRule",
    "ExperimentSpec",
    "ProjectionStats",
    "EigenLevelStats",
    "McReport",
    "BiasRatePoint",
    "BiasRateReport",
    "run_experiment",
    "predicted_projection_variance",
    "bias_rate_check",
    "mse_curve",
    "ks_distance",
    "sample_moments",
]

WORKER_ENV_VAR = "LRCOV_THREADS"
KS_MIN_VALUES = 8


@dataclass(frozen=True)
class BandwidthRule:
    """How an experiment turns a sample into a bandwidth.

    ``fixed``: always ``value``.  ``power``: coef * N^power.  ``plugin``: the
    data-driven rule, with pilot bandwidth N^(1/(1+2q)) unless overridden.
    """

    kind: str
    value: float = math.nan
    coef: float = 1.0
    power: float = math.nan
    pilot_h: float | None = None
    m_trunc: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if not (math.isfinite(self.value) and self.value > 0):
                raise ConfigError(f"fixed bandwidth must be positive, got {self.value}")
        elif self.kind == "power":
            if not (math.isfinite(self.coef) and self.coef > 0):
                raise ConfigError(f"power-rule coefficient must be positive, got {self.coef}")
            if not (math.isfinite(self.power) and 0 < self.power < 1):
                raise ConfigError(f"power-rule exponent must lie in (0, 1), got {self.power}")
        elif self.kind != "plugin":
            raise ConfigError(f"unknown bandwidth rule kind {self.kind!r}")
        elif self.pilot_h is not None and not (math.isfinite(self.pilot_h) and self.pilot_h > 0):
            raise ConfigError(f"pilot bandwidth must be positive and finite, got {self.pilot_h}")
        if self.kind != "plugin" and self.m_trunc is not None:
            raise ConfigError(f"m_trunc only applies to the plugin rule, got rule {self.kind!r}")

    @staticmethod
    def parse(text) -> "BandwidthRule":
        """Accepts a bare number, 'fixed:H', 'power:COEF,EXP', or 'plugin[:PILOT]'."""
        if isinstance(text, (int, float)) and not isinstance(text, bool):
            return BandwidthRule("fixed", value=float(text))
        if not isinstance(text, str):
            raise ConfigError(f"cannot parse bandwidth rule from {text!r}")
        s = text.strip()
        try:
            return BandwidthRule("fixed", value=float(s))
        except ValueError:
            pass
        kind, sep, rest = s.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "fixed":
                return BandwidthRule("fixed", value=float(rest))
            if kind == "power":
                coef_s, _, power_s = rest.partition(",")
                return BandwidthRule("power", coef=float(coef_s), power=float(power_s))
            if kind == "plugin":
                pilot = float(rest) if sep else None
                return BandwidthRule("plugin", pilot_h=pilot)
        except ValueError as exc:
            raise ConfigError(f"cannot parse bandwidth rule {text!r}: {exc}") from None
        raise ConfigError(f"unknown bandwidth rule {text!r}")

    def check_kernel(self, kernel: KernelSpec) -> None:
        """ConfigError for the plug-in rule with a kernel of infinite characteristic exponent."""
        if self.kind == "plugin" and not math.isfinite(kernel.char_exponent):
            raise ConfigError(f"{kernel.name} has no plug-in bandwidth rule")

    def resolve(
        self, sample: CurveSample, kernel: KernelSpec
    ) -> tuple[Bandwidth, BandwidthSelection | None]:
        if self.kind == "fixed":
            return Bandwidth(self.value), None
        if self.kind == "power":
            return Bandwidth(self.coef * float(sample.n_obs) ** self.power), None
        pilot = self.pilot_h
        if pilot is None:
            pilot = float(sample.n_obs) ** (1.0 / (1.0 + 2.0 * kernel.char_exponent))
        sel = plugin_bandwidth(sample, kernel, pilot, self.m_trunc)
        return sel.bandwidth, sel


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One Monte Carlo experiment: process, estimator settings, and what to record."""

    dgp: DgpSpec
    kernel: KernelSpec
    n_obs: int
    grid: Grid
    h_rule: BandwidthRule
    replications: int
    projections: tuple = ()  # Surfaces to integrate the centered error against
    eigen_levels: tuple = ()  # 1-based eigenvalue levels to track
    master_seed: int = 0
    workers: int = 1
    drift: float | None = None  # None: use N/h^(1+2q)

    def __post_init__(self) -> None:
        if self.n_obs < 2:
            raise ConfigError(f"need n_obs >= 2, got {self.n_obs}")
        min_reps = KS_MIN_VALUES if self.projections else 2  # ks_distance needs the former
        if self.replications < min_reps:
            raise ConfigError(f"need at least {min_reps} replications, got {self.replications}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.h_rule.check_kernel(self.kernel)
        for f in self.projections:
            if f.grid.n_points != self.grid.n_points:
                raise ConfigError("projection surface grid does not match experiment grid")
        components = len(self.dgp.sigmas)
        try:
            fourier_basis(self.grid, components)
        except DimensionError as exc:
            raise ConfigError(str(exc)) from None
        levels = tuple(int(l) for l in self.eigen_levels)
        if any(not 1 <= l <= components for l in levels):
            raise ConfigError(f"eigen levels must lie in 1..{components}, got {levels}")
        object.__setattr__(self, "projections", tuple(self.projections))
        object.__setattr__(self, "eigen_levels", levels)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentSpec":
        config_object(
            raw, "experiment",
            ("dgp", "kernel", "n_obs", "grid_points", "h", "replications"),
            ("flat_width", "projections", "eigen_levels", "master_seed", "workers", "drift"),
        )
        flat_width = config_number(raw.get("flat_width", 0.5), "flat_width")
        try:
            kernel = make_kernel(raw["kernel"], flat_width)
        except KernelSpecError as exc:
            raise ConfigError(str(exc)) from None
        grid = Grid(config_number(raw["grid_points"], "grid_points", integer=True, low=1))
        ones = np.ones((grid.n_points,) * 2)
        try:
            projections = [
                Surface(grid, ones if p == "ones" else p) for p in raw.get("projections", ["ones"])
            ]
        except (TypeError, ValueError) as exc:  # DimensionError is a ValueError
            raise ConfigError(f"bad projection surface: {exc}") from None
        return ExperimentSpec(
            dgp=DgpSpec.from_dict(raw["dgp"]),
            kernel=kernel,
            n_obs=config_number(raw["n_obs"], "n_obs", integer=True),
            grid=grid,
            h_rule=BandwidthRule.parse(raw["h"]),
            replications=config_number(raw["replications"], "replications", integer=True),
            projections=tuple(projections),
            eigen_levels=config_numbers(raw.get("eigen_levels", []), "eigen_levels", integer=True),
            master_seed=config_number(raw.get("master_seed", 0), "master_seed", integer=True, low=0),
            workers=config_number(raw.get("workers", 1), "workers", integer=True),
            drift=None if raw.get("drift") is None else config_number(raw["drift"], "drift"),
        )


@dataclass(frozen=True)
class ProjectionStats:
    index: int
    mean: float
    variance: float
    skewness: float
    ex_kurtosis: float
    ks_distance: float
    predicted_variance: float


@dataclass(frozen=True)
class EigenLevelStats:
    level: int
    error_mean: float
    error_sd: float
    predicted_sd: float
    predicted_mean_shift: float
    deviation_mean: float
    predicted_deviation: float
    deviation_tail_bound: float


@dataclass(frozen=True, eq=False)
class McReport:
    replications: int
    workers: int
    runtime_seconds: float
    h_mean: float
    h_min: float
    h_max: float
    projection_stats: tuple
    eigen_stats: tuple
    eigen_error_correlation: np.ndarray | None
    # raw per-replication draws, for quantile plots; not serialized
    projection_samples: np.ndarray = None
    eigen_error_samples: np.ndarray = None

    def to_dict(self) -> dict:
        corr = self.eigen_error_correlation
        return {
            "replications": self.replications,
            "workers": self.workers,
            "runtime_seconds": self.runtime_seconds,
            "h": {"mean": self.h_mean, "min": self.h_min, "max": self.h_max},
            "projections": [asdict(p) for p in self.projection_stats],
            "eigen_levels": [asdict(e) for e in self.eigen_stats],
            "eigen_error_correlation": None if corr is None else corr.tolist(),
        }


def sample_moments(values: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, variance (ddof=1), skewness, excess kurtosis."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise ContractViolationError("need at least two values for moments")
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d**2))
    if m2 == 0.0:
        raise ContractViolationError("degenerate sample: zero variance")
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / m2**2 - 3.0
    var = float(np.var(x, ddof=1))
    return mean, var, skew, kurt


def ks_distance(values: np.ndarray, loc: float | None = None, scale: float | None = None) -> float:
    """Kolmogorov-Smirnov distance to a normal law (fitted by moments if not given)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < KS_MIN_VALUES:
        raise ContractViolationError(f"a KS distance needs {KS_MIN_VALUES}+ values, got {n}")
    if loc is None:
        loc = float(np.mean(x))
    if scale is None:
        scale = float(np.std(x, ddof=1))
    if not (scale > 0 and math.isfinite(scale)):
        raise ContractViolationError("degenerate sample: zero or non-finite scale")
    cdf = NormalDist(loc, scale).cdf
    f = np.array([cdf(v) for v in x])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def predicted_projection_variance(c: Surface, kernel: KernelSpec, f: Surface) -> float:
    """Limiting variance of the scaled estimation error integrated against ``f``.

    Contracts the limiting covariance tensor with f on both sides using two
    matrix products; the dense four-index tensor is never formed.
    """
    if c.grid.n_points != f.grid.n_points:
        raise ContractViolationError("surface grids do not match")
    g = c.grid.n_points
    cv, fv = c.values, f.values
    first = (float(np.sum(cv * fv)) / g**2) ** 2
    second = float(np.sum((cv @ fv @ cv) * fv)) / g**4
    return kernel.square_integral * (first + second)


def _effective_workers(requested: int, replications: int) -> int:
    cap = os.environ.get(WORKER_ENV_VAR)
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ConfigError(f"{WORKER_ENV_VAR} must be an integer >= 1, got {cap!r}")
        requested = min(requested, limit)
    return min(requested, replications)


def _replicate_range(spec: ExperimentSpec, reps: range) -> tuple:
    """h (n,), projections (n, n_proj), eigenvalues (n, levels), eigenfunctions (n, levels, G).

    One row per replication in ``reps``; everything truth-dependent happens in the parent.
    """
    grid, kernel = spec.grid, spec.kernel
    n_levels = max(spec.eigen_levels, default=0)
    h = np.empty(len(reps))
    projs = np.empty((len(reps), len(spec.projections)))
    lams = np.empty((len(reps), n_levels))
    vhats = np.empty((len(reps), n_levels, grid.n_points))
    for i, r in enumerate(reps):
        sample = generate(spec.dgp, spec.n_obs, grid, replication_rng(spec.master_seed, r))
        bw, _ = spec.h_rule.resolve(sample, kernel)
        est = estimate_lrcov(sample, kernel, bw)
        h[i] = bw.h
        for j, f in enumerate(spec.projections):
            projs[i, j] = np.sum(est.surface.values * f.values)
        if n_levels:
            eig = eigendecompose(est.surface)
            lams[i] = eig.eigenvalues[:n_levels]
            vhats[i] = eig.eigenfunctions[:n_levels]
    return h, projs / grid.n_points**2, lams, vhats


def run_experiment(spec: ExperimentSpec) -> McReport:
    """Run the replications, center at the Monte Carlo mean, compare to theory."""
    t0 = time.perf_counter()
    truth_set = truth(spec.dgp, spec.grid, spec.kernel)
    # refuse inseparable eigen levels before any replication runs
    msds = [eigenfunction_deviation_msd(truth_set.eigen, spec.kernel, l) for l in spec.eigen_levels]
    workers = _effective_workers(spec.workers, spec.replications)
    chunks = [range(k, spec.replications, workers) for k in range(workers)]
    if workers == 1:
        parts = [_replicate_range(spec, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_replicate_range, [spec] * workers, chunks))
    # chunk k holds replications k, k + workers, ...: its rows go back by stride
    stats = []
    for pieces in zip(*parts):
        full = np.empty((spec.replications, *pieces[0].shape[1:]))
        for k, piece in enumerate(pieces):
            full[k::workers] = piece
        stats.append(full)
    h_arr, a, lams, vhats = stats  # a: (R, n_proj)

    n = spec.n_obs
    scale = np.sqrt(n / h_arr)

    projection_stats = []
    centered = (a - a.mean(axis=0)) * scale[:, None] if a.size else a
    for j, f in enumerate(spec.projections):
        mean, var, skew, kurt = sample_moments(centered[:, j])
        projection_stats.append(
            ProjectionStats(
                index=j,
                mean=mean,
                variance=var,
                skewness=skew,
                ex_kurtosis=kurt,
                ks_distance=ks_distance(centered[:, j]),
                predicted_variance=predicted_projection_variance(truth_set.c, spec.kernel, f),
            )
        )

    eigen_stats = []
    corr = None
    errs = np.empty((spec.replications, len(spec.eigen_levels)))
    devs = np.empty_like(errs)
    if spec.eigen_levels:
        q = spec.kernel.char_exponent
        h_rep = float(np.mean(h_arr))
        drift = spec.drift
        if drift is None:
            drift = n / h_rep ** (1.0 + 2.0 * q) if math.isfinite(q) else 0.0
        for j, (level, msd) in enumerate(zip(spec.eigen_levels, msds)):
            lam_true = truth_set.eigen.eigenvalues[level - 1]
            v_true = truth_set.eigen.eigenfunctions[level - 1]
            errs[:, j] = scale * (lams[:, level - 1] - lam_true)
            diff = align_sign(vhats[:, level - 1], v_true) - v_true
            devs[:, j] = (n / h_arr) * np.mean(diff**2, axis=1)
            limit = eigenvalue_clt_params(
                truth_set.eigen, spec.kernel, truth_set.bias, drift, level
            )
            mean, var, _, _ = sample_moments(errs[:, j])
            eigen_stats.append(
                EigenLevelStats(
                    level=level,
                    error_mean=mean,
                    error_sd=math.sqrt(var),
                    predicted_sd=limit.sd,
                    predicted_mean_shift=limit.mean_shift,
                    deviation_mean=float(np.mean(devs[:, j])),
                    predicted_deviation=msd,
                    deviation_tail_bound=0.0,  # every spectrum here is finite: no tail
                )
            )
        if len(spec.eigen_levels) > 1:
            corr = np.corrcoef(errs.T)

    return McReport(
        replications=spec.replications,
        workers=workers,
        runtime_seconds=time.perf_counter() - t0,
        h_mean=float(np.mean(h_arr)),
        h_min=float(np.min(h_arr)),
        h_max=float(np.max(h_arr)),
        projection_stats=tuple(projection_stats),
        eigen_stats=tuple(eigen_stats),
        eigen_error_correlation=corr,
        projection_samples=centered,
        eigen_error_samples=errs,
    )


@dataclass(frozen=True)
class BiasRatePoint:
    h: float
    err_raw: float
    err_debiased: float
    noise_sd: float
    signal: bool


@dataclass(frozen=True, eq=False)
class BiasRateReport:
    points: tuple
    slope: float | None
    slope_unweighted: float | None
    constant_ratio: float | None  # exp(intercept) relative to the true bias norm
    sign_agreement: bool
    no_bias_detected: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _wls_line(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted least squares fit y = intercept + slope * x."""
    sw = np.sum(w)
    xb = np.sum(w * x) / sw
    yb = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xb) ** 2)
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    return slope, float(yb - slope * xb)


def bias_rate_check(
    dgp: DgpSpec,
    kernel: KernelSpec,
    n_obs: int,
    h_values,
    replications: int,
    grid: Grid,
    master_seed: int = 0,
) -> BiasRateReport:
    """Measure how fast the mean estimation error shrinks as h grows.

    For each h the Monte Carlo mean surface is compared to the exact truth;
    the squared error norm is debiased by the noise floor of the mean, and the
    log-log slope across h comes from an inverse-variance weighted fit.
    """
    h_list = sorted(float(h) for h in h_values)
    if len(h_list) < 3:
        raise ContractViolationError(f"need at least 3 bandwidths, got {len(h_list)}")
    if any(h <= 0 for h in h_list):
        raise ContractViolationError("bandwidths must be positive")
    if replications < 2:
        raise ContractViolationError("need at least 2 replications")
    truth_set = truth(dgp, grid, kernel)
    if truth_set.bias is None:
        raise KernelSpecError(f"{kernel.name} has no power-law bias to measure")
    g = grid.n_points
    c_true = truth_set.c.values
    f_true = truth_set.bias.values
    f_norm = math.sqrt(float(np.sum(f_true**2)) / g**2)
    # uncentered, unbiased divisor: each lag surface has exact expectation
    weights = _lag_weights(kernel, h_list, n_obs, unbiased=True)
    sums = np.zeros((len(h_list), g, g))
    sq_sums = np.zeros_like(sums)
    for r in range(replications):
        y = generate(dgp, n_obs, grid, replication_rng(master_seed, r)).values
        a = _window_sums(y, weights)
        est = a + a.transpose(0, 2, 1)
        sums += est
        sq_sums += est**2
    # one np.sum per h slice: a sum over several axes can round differently
    means = sums / replications
    err_raw_sq = np.array([np.sum((mean - c_true) ** 2) for mean in means]) / g**2
    var_fields = (sq_sums - replications * means**2) / (replications - 1)
    noise_floor = np.array([np.sum(v) for v in var_fields]) / g**2 / replications
    err_deb_sq = err_raw_sq - noise_floor
    usable = err_deb_sq > 0.0
    slope = slope_unweighted = constant_ratio = None
    if np.count_nonzero(usable) >= 2:
        deb, floor = err_deb_sq[usable], noise_floor[usable]
        x = np.log(np.array(h_list)[usable])
        y_log = 0.5 * np.log(deb)
        # Python's float ** 2 (libm pow) can round apart from numpy's x * x
        sd_sq = [4.0 * d * f + 2.0 * f**2 for d, f in zip(deb.tolist(), floor.tolist())]
        sigma_ln = np.sqrt(sd_sq) / (2.0 * deb)
        w = 1.0 / np.maximum(sigma_ln, 1e-12) ** 2
        slope, intercept = _wls_line(x, y_log, w)
        slope_unweighted, _ = _wls_line(x, y_log, np.ones_like(w))
        constant_ratio = math.exp(intercept) / f_norm if f_norm > 0 else None
    # sign of the bias at the strongest-signal bandwidth
    sign_agreement = float(np.sum((means[0] - c_true) * f_true)) > 0.0
    points = tuple(
        BiasRatePoint(
            h=h,
            err_raw=math.sqrt(raw),
            err_debiased=math.copysign(math.sqrt(abs(debiased)), debiased),
            noise_sd=math.sqrt(max(nf, 0.0)),
            signal=raw >= 9.0 * nf,
        )
        for h, raw, debiased, nf in zip(
            h_list, err_raw_sq.tolist(), err_deb_sq.tolist(), noise_floor.tolist()
        )
    )
    return BiasRateReport(
        points=points,
        slope=slope,
        slope_unweighted=slope_unweighted,
        constant_ratio=constant_ratio,
        sign_agreement=sign_agreement,
        no_bias_detected=not any(p.signal for p in points),
    )


def mse_curve(
    dgp: DgpSpec,
    kernel: KernelSpec,
    n_obs: int,
    h_values,
    replications: int,
    grid: Grid,
    master_seed: int = 0,
) -> list:
    """Monte Carlo mean squared error norm of the estimate at each bandwidth.

    One sample per replication is shared across the whole h grid (one
    window sum per replication takes every h as a weight row), so the curve
    is smooth in h and ratios between grid points are stable.
    """
    h_list = [float(h) for h in h_values]
    if any(h <= 0 for h in h_list):
        raise ContractViolationError("bandwidths must be positive")
    truth_set = truth(dgp, grid, kernel)
    g = grid.n_points
    c_true = truth_set.c.values
    weights = _lag_weights(kernel, h_list, n_obs, unbiased=False)
    acc = np.zeros(len(h_list))
    for r in range(replications):
        y = generate(dgp, n_obs, grid, replication_rng(master_seed, r)).values
        a = _window_sums(y - y.mean(axis=0), weights)
        acc += np.sum((a + a.transpose(0, 2, 1) - c_true) ** 2, axis=(1, 2)) / g**2
    return [(h, float(acc[k] / replications)) for k, h in enumerate(h_list)]
