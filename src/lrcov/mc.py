"""Monte Carlo verification harness for the distributional claims.

Every statistic draws its replications through one driver: consecutive blocks,
about four per worker, run in-process at one worker or on one process pool, come
back in replication order, and each distinct warning of the blocks is raised again
once in the parent.  Estimation error is always centered at the across-replication
mean, never at the truth, so bias never masquerades as variance.

A block works in score coordinates, on stacks of at most STACK_BYTES of draws, written
into score buffers that the block allocates once and stored component-major (B, J, N),
so that each score series is contiguous in time; they are handed on as (B, N, J) views.
A sample is its scores times the basis phi, orthonormal under the midpoint rule, so a
lag-window sum of it is exactly phi^T A phi for the same sum A of the scores: each lag
costs J^2 instead of G^2, in one batched product per stack.  Replication r fills its
rows from the PCG64 stream of (master_seed, r), and every later step rounds each
replication's numbers alone, as a stack of one would, so a report is bit-identical
for any block size, stack size and worker count.  ``_window_surfaces`` refuses a sum that overflows.

The bias-rate check measures the norm of (Monte Carlo mean - truth) on an
h grid; it subtracts the estimated Monte Carlo noise floor from the squared
norm and fits the log-log slope by inverse-variance weighted least squares,
reporting per-point noise bars so a noise-dominated point is visible instead
of silently corrupting the slope; it and the MSE curve refuse squares that overflow.
It runs the uncentered unbiased-divisor estimator on these mean-zero processes, which
makes every lag estimate exactly unbiased and isolates the kernel-weighting bias being measured.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor  # perfbench traces it as lrcov.mc's
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, ContractViolationError, DimensionError
from .errors import config_number, config_numbers, config_object
from .estimator import (
    Bandwidth,
    BandwidthSelection,
    CurveSample,
    _as_h,
    _lag_weights,
    _plugin_choices,
    _pow,
    _warn_rate,
    _window_surfaces,
    estimate_lrcov,  # noqa: F401  perfbench traces lrcov.mc.estimate_lrcov
    plugin_bandwidth,
)
from .fpca import _eigen_stack, _require_separation, align_sign, eigenfunction_deviation_msd
from .fpca import eigenvalue_clt_params
from .fpca import eigendecompose  # noqa: F401  perfbench traces lrcov.mc.eigendecompose
from .grid import Grid, Surface, fourier_basis, l2_norm_surface
# perfbench traces lrcov.mc.kernel_value, so the name stays importable here
from .kernels import KernelSpec, kernel_value, make_kernel  # noqa: F401
from .simulate import DgpSpec, _pre_sample, _scores, replication_rng, truth
from .simulate import generate  # noqa: F401  perfbench traces lrcov.mc.generate

__all__ = [
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
]

WORKER_ENV_VAR = "LRCOV_THREADS"
KS_MIN_VALUES = 8
STACK_BYTES = 2**20  # a sub-stack's score draw, pre-sample included, stays near this size
BLOCK_DOUBLES = 2**20  # 8 MB: a block's results may reach it when 64 replications stay below


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

    def _check_m_trunc(self, n: int) -> None:
        """ConfigError for a plug-in lag truncation at or above the number n of curves."""
        if self.m_trunc is not None and self.m_trunc >= n:
            raise ConfigError(f"m_trunc = {self.m_trunc} must be below N = {n}")

    def resolve(
        self, sample: CurveSample, kernel: KernelSpec
    ) -> tuple[Bandwidth, BandwidthSelection | None]:
        if self.kind != "plugin":
            return Bandwidth(self._rule_h(sample.n_obs)), None
        self._check_m_trunc(sample.n_obs)
        sel = plugin_bandwidth(sample, kernel, self.pilot_h, self.m_trunc)
        return sel.bandwidth, sel

    def _rule_h(self, n: int) -> float:
        """A fixed or power rule's bandwidth for N = n."""
        return self.value if self.kind == "fixed" else self.coef * float(n) ** self.power


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One Monte Carlo experiment, every setting checked when built; LRCOV_THREADS caps workers."""

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

    def __post_init__(self) -> None:
        if self.n_obs < 2:
            raise ConfigError(f"need n_obs >= 2, got {self.n_obs}")
        min_reps = KS_MIN_VALUES if self.projections else 2  # ks_distance needs the former
        if self.replications < min_reps:
            raise ConfigError(f"need at least {min_reps} replications, got {self.replications}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.h_rule.check_kernel(self.kernel)
        self.h_rule._check_m_trunc(self.n_obs)
        for f in self.projections:
            if f.grid.n_points != self.grid.n_points:
                raise ConfigError("projection surface grid does not match experiment grid")
        lams = truth(self.dgp, self.grid).eigen.eigenvalues  # refuses a coarse grid and an overflow
        components = len(self.dgp.sigmas)
        levels = tuple(int(l) for l in self.eigen_levels)
        if any(not 1 <= l <= components for l in levels):
            raise ConfigError(f"eigen levels must lie in 1..{components}, got {levels}")
        if len(set(levels)) < len(levels):
            raise ConfigError(f"eigen levels must be distinct, got {levels}")
        for level in levels:  # the corollary's limits need separated eigenvalues
            _require_separation(lams, level)
        if self.h_rule.kind != "plugin":  # a power rule's h may overflow at this N
            Bandwidth(self.h_rule._rule_h(self.n_obs))
        cap = os.environ.get(WORKER_ENV_VAR)
        if cap is not None:
            limit = 0
            with suppress(ValueError):
                limit = int(cap)
            if limit < 1:
                raise ConfigError(f"{WORKER_ENV_VAR} must be an integer >= 1, got {cap!r}")
            object.__setattr__(self, "workers", min(self.workers, limit))
        object.__setattr__(self, "projections", tuple(self.projections))
        object.__setattr__(self, "eigen_levels", levels)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentSpec":
        config_object(
            raw, "experiment",
            ("dgp", "kernel", "n_obs", "grid_points", "h", "replications"),
            ("flat_width", "projections", "eigen_levels", "master_seed", "workers"),
        )
        kernel = make_kernel(raw["kernel"], config_number(raw.get("flat_width", 0.5), "flat_width"))
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
    h_clamped: int  # replications whose plug-in h was clamped to [1, N/2]
    h_fallback: int  # replications whose plug-in rule fell back to the rate alone
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
            "h": {"mean": self.h_mean, "min": self.h_min, "max": self.h_max,
                  "clamped": self.h_clamped, "fallback": self.h_fallback},
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
    if np.all(x == x[0]):
        raise ContractViolationError("degenerate sample: zero variance")
    mean = float(np.mean(x))
    d = x - mean
    with np.errstate(over="ignore", invalid="ignore"):  # a variance that overflows is refused
        m2 = float(np.mean(d**2))
    if not math.isfinite(m2):
        raise ContractViolationError("sample variance overflows a double")
    if m2 == 0.0:  # distinct values whose squared deviations are all below the least double
        raise ContractViolationError("sample variance underflows a double")
    z = d / math.sqrt(m2)  # standardized first: no higher power can overflow
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4)) - 3.0
    var = float(np.var(x, ddof=1))
    return mean, var, skew, kurt


def ks_distance(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance to the normal law with the sample's mean and sd (ddof=1)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < KS_MIN_VALUES:
        raise ContractViolationError(f"a KS distance needs {KS_MIN_VALUES}+ values, got {n}")
    loc, scale = float(np.mean(x)), float(np.std(x, ddof=1))
    if not (scale > 0 and math.isfinite(scale)):
        raise ContractViolationError("degenerate sample: zero or non-finite scale")
    cdf = NormalDist(loc, scale).cdf
    f = np.array([cdf(v) for v in x])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def predicted_projection_variance(c: Surface, kernel: KernelSpec, f: Surface) -> float:
    """Limiting variance of the scaled estimation error integrated against ``f``.

    The limiting covariance of the error at (t, s) and (t', s') is
    ∫K² (C(t,t')C(s,s') + C(t,s')C(s,t')), so against f it is
    ∫K² (<f, CfC> + <f^T, CfC>) / G^4: two matrix products, never the G^4 tensor.
    C and f are first divided by powers of two, as in ``surface_integral``, so a limit that
    is a double stays finite where the plain sums overflow; any other is refused.
    """
    if c.grid.n_points != f.grid.n_points:
        raise ContractViolationError("surface grids do not match")
    ec, ef = (math.frexp(float(np.max(np.abs(s.values))))[1] for s in (c, f))
    cv, fv = np.ldexp(c.values, -ec), np.ldexp(f.values, -ef)
    cfc = cv @ fv @ cv
    pairs = float(np.sum(cfc * fv)) + float(np.sum(cfc * fv.T))
    try:
        return math.ldexp(kernel.square_integral * pairs / fv.shape[0] ** 4, 2 * (ec + ef))
    except OverflowError:
        raise DimensionError("predicted projection variance overflows a double") from None


def _recorded(worker, job, reps: range) -> tuple:
    """``worker(job, reps)`` and the distinct (category, message) warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = worker(job, reps)
    return result, list(dict.fromkeys((w.category, str(w.message)) for w in caught))


def _block_size(replications: int, workers: int, row_doubles: int) -> int:
    """Replications per block: ceil(R / (4 workers)), so about four blocks per worker.

    A replication returns ``row_doubles`` doubles of surfaces, and a block's stay
    within the larger of 64 replications' and BLOCK_DOUBLES.
    """
    return min(-(-replications // (4 * workers)), max(64, BLOCK_DOUBLES // row_doubles))


def _pooled(worker, job, replications: int, workers: int, row_doubles: int):
    """Yield ``worker(job, reps)`` for consecutive blocks of replications, in order.

    Blocks hold ``_block_size`` replications, so a small run still reaches every
    worker and a large one sends few tasks through the pool.  One worker runs the
    blocks in-process.  Each distinct warning of the blocks is raised again here
    once, so the caller's filters see it the same way under every start method and
    block count.
    """
    size = _block_size(replications, workers, row_doubles)
    blocks = [range(a, min(a + size, replications)) for a in range(0, replications, size)]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_recorded, repeat(worker), repeat(job), blocks)
        raised = set()
        for result, caught in results:
            for category, message in caught:
                if (category, message) not in raised:
                    raised.add((category, message))
                    warnings.warn(message, category)
            yield result


def _score_stacks(spec: ExperimentSpec, reps: range, centered: bool = True):
    """Yield each slice of ``reps`` that fits ``STACK_BYTES`` and its scores as (b, N, J).

    The stack views the (b, J, N) buffer that each sub-stack of the block overwrites, centred
    along its contiguous time axis so that each series stays contiguous for ``lag_products``.
    """
    n, work = spec.n_obs, {}
    size = max(1, STACK_BYTES // (8 * (n + _pre_sample(spec.dgp)) * len(spec.dgp.sigmas)))
    for a in range(0, len(reps), size):
        rows = slice(a, a + size)
        s = _scores(spec.dgp, n, [replication_rng(spec.master_seed, r) for r in reps[rows]], work)
        if not np.all(np.isfinite(s)):
            raise DimensionError("sample contains non-finite values")
        if centered:
            s -= s.mean(axis=2, keepdims=True)
        yield rows, s.swapaxes(1, 2)


def _replicate_range(spec: ExperimentSpec, reps: range) -> tuple:
    """h (n,), projections (n, n_proj), eigenvalues (n, levels), eigenfunctions (n, levels, G),
    and the plug-in's clamped and fallback flags (n,).

    One row per replication in ``reps``; everything truth-dependent happens in the parent.
    Each is ``estimate_lrcov`` in score coordinates; the block shares one batched eigensolve.
    """
    kernel, n, rule, g, count = spec.kernel, spec.n_obs, spec.h_rule, spec.grid.n_points, len(reps)
    phi = fourier_basis(spec.grid, len(spec.dgp.sigmas))
    plugin = rule.kind == "plugin"
    h = np.empty(count) if plugin else np.full(count, rule._rule_h(n))
    clamped, fallback = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    if plugin:  # each replication's window is its own h's, on whichever path that window takes
        surfaces = np.empty((count, g, g))
        for rows, s in _score_stacks(spec, reps):
            choices = _plugin_choices(s, kernel, rule.pilot_h, rule.m_trunc, phi)
            for i, sel, y in zip(range(count)[rows], choices, s):
                h[i], clamped[i], fallback[i] = sel.bandwidth.h, sel.clamped, sel.fallback
                _warn_rate(kernel, _as_h(h[i]), n)
                surfaces[i] = _window_surfaces(y, _lag_weights(kernel, [h[i]], n, False), phi)[0]
            del s, y, choices  # the last stack's buffers are freed before the eigensolve
    else:  # a fixed or power h does not depend on the sample
        _warn_rate(kernel, _as_h(h[0]), n)
        weights = _lag_weights(kernel, [h[0]], n, unbiased=False)
        surfaces = _window_estimates((spec, weights, True), reps)[:, 0]
    flat, projs = surfaces.reshape(count, g * g), np.empty((count, len(spec.projections)))
    for j, f in enumerate(spec.projections):  # each row sums as np.sum(v * f.values) alone
        projs[:, j] = (flat * f.values.ravel()).sum(axis=1) / g**2
    n_levels = max(spec.eigen_levels, default=0)
    lams, funcs = _eigen_stack(surfaces) if n_levels else (np.empty((count, 0)),) * 2
    return h, projs, lams[:, :n_levels], funcs[:, :n_levels], clamped, fallback


def _window_estimates(job: tuple, reps: range) -> np.ndarray:
    """Each replication's (n_h, G, G) window estimates, one per row of the lag weights."""
    spec, weights, centered = job
    phi, g = fourier_basis(spec.grid, len(spec.dgp.sigmas)), spec.grid.n_points
    out = np.empty((len(reps), len(weights), g, g))
    for rows, s in _score_stacks(spec, reps, centered):
        out[rows] = _window_surfaces(s, weights, phi)
    return out


def run_experiment(spec: ExperimentSpec) -> McReport:
    """Run the replications, center at the Monte Carlo mean, compare to theory."""
    t0 = time.perf_counter()
    truth_set = truth(spec.dgp, spec.grid, spec.kernel)
    workers = min(spec.workers, spec.replications)
    blocks = list(_pooled(_replicate_range, spec, spec.replications, workers, spec.grid.n_points**2))
    h_arr, a, lams, vhats, clamped, fallback = (np.concatenate(p) for p in zip(*blocks))

    n = spec.n_obs
    scale = np.sqrt(n / h_arr)

    centered = (a - a.mean(axis=0)) * scale[:, None]
    projection_stats = tuple(
        ProjectionStats(
            j,
            *sample_moments(centered[:, j]),  # mean, variance, skewness, ex_kurtosis
            ks_distance(centered[:, j]),
            predicted_projection_variance(truth_set.c, spec.kernel, f),
        )
        for j, f in enumerate(spec.projections)
    )

    eigen_stats, corr = [], None
    errs = np.empty((spec.replications, len(spec.eigen_levels)))
    # the corollary's drift lim N/h^(1+2q), at the bandwidths these replications used
    q = spec.kernel.char_exponent
    drift = n / _pow(float(np.mean(h_arr)), 1.0 + 2.0 * q) if math.isfinite(q) else 0.0
    eigen, kernel = truth_set.eigen, spec.kernel
    for j, level in enumerate(spec.eigen_levels):
        lam_true = eigen.eigenvalues[level - 1]
        v_true = eigen.eigenfunctions[level - 1]
        errs[:, j] = scale * (lams[:, level - 1] - lam_true)
        diff = align_sign(vhats[:, level - 1], v_true) - v_true
        devs = (n / h_arr) * np.mean(diff**2, axis=1)
        limit = eigenvalue_clt_params(eigen, kernel, truth_set.bias, drift, level)
        mean, var, _, _ = sample_moments(errs[:, j])
        eigen_stats.append(
            EigenLevelStats(
                level=level,
                error_mean=mean,
                error_sd=math.sqrt(var),
                predicted_sd=limit.sd,
                predicted_mean_shift=limit.mean_shift,
                deviation_mean=float(np.mean(devs)),
                predicted_deviation=eigenfunction_deviation_msd(eigen, kernel, level),
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
        h_clamped=int(np.count_nonzero(clamped)),
        h_fallback=int(np.count_nonzero(fallback)),
        projection_stats=projection_stats,
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


def _checked_h_grid(h_values, replications: int, min_h: int, min_reps: int) -> list:
    """h_values as floats, refused when too few, not finite and positive, or short of replications."""
    h_list = [float(h) for h in h_values]
    if len(h_list) < min_h:
        raise ContractViolationError(f"need at least {min_h} bandwidths, got {len(h_list)}")
    if not all(math.isfinite(h) and h > 0 for h in h_list):
        raise ContractViolationError(f"bandwidths must be positive and finite, got {h_list}")
    if replications < min_reps:
        raise ContractViolationError(f"need at least {min_reps} replications, got {replications}")
    return h_list


def _h_grid_estimates(spec: ExperimentSpec, weights: np.ndarray, replications: int, centered: bool):
    """Each replication's (n_h, G, G) window estimates, in replication order, from the pool."""
    job, workers = (spec, weights, centered), min(spec.workers, replications)
    row_doubles = len(weights) * spec.grid.n_points**2
    return chain.from_iterable(_pooled(_window_estimates, job, replications, workers, row_doubles))


def bias_rate_check(spec: ExperimentSpec, h_values, replications: int) -> BiasRateReport:
    """Measure how fast the mean estimation error shrinks as h grows.

    The process, kernel, N, grid, seed and workers are the experiment's.  For
    each h the Monte Carlo mean surface is compared to the exact truth; the
    squared error norm is debiased by the noise floor of the mean, and the
    log-log slope across h comes from an inverse-variance weighted fit.
    """
    h_list = sorted(_checked_h_grid(h_values, replications, 3, 2))
    if len(set(h_list)) < len(h_list):  # a repeated h leaves the log-log slope undefined
        raise ContractViolationError(f"bandwidths must be distinct, got {h_list}")
    kernel, g = spec.kernel, spec.grid.n_points
    truth_set = truth(spec.dgp, spec.grid, kernel)
    if truth_set.bias is None:
        raise ContractViolationError(f"{kernel.name} has no power-law bias to measure")
    c_true, f_true = truth_set.c.values, truth_set.bias.values
    f_norm = l2_norm_surface(truth_set.bias)
    # uncentered, unbiased divisor: each lag surface has exact expectation
    weights = _lag_weights(kernel, h_list, spec.n_obs, unbiased=True)
    sums = np.zeros((len(h_list), g, g))
    sq_sums = np.zeros_like(sums)
    for est in _h_grid_estimates(spec, weights, replications, centered=False):
        with np.errstate(over="ignore"):  # squares that overflow are refused below
            sums += est
            sq_sums += est**2
    means = sums / replications
    with np.errstate(over="ignore", invalid="ignore"):
        # one np.sum per h slice: a sum over several axes can round differently
        err_raw_sq = np.array([np.sum((mean - c_true) ** 2) for mean in means]) / g**2
        var_fields = (sq_sums - replications * means**2) / (replications - 1)
        noise_floor = np.array([np.sum(v) for v in var_fields]) / g**2 / replications
    if not (np.isfinite(err_raw_sq).all() and np.isfinite(noise_floor).all()):
        raise DimensionError("squared estimates overflow a double")
    err_deb_sq = err_raw_sq - noise_floor
    usable = err_deb_sq > 0.0
    slope = slope_unweighted = constant_ratio = None
    if np.count_nonzero(usable) >= 2:
        deb, floor = err_deb_sq[usable], noise_floor[usable]
        x = np.log(np.array(h_list)[usable])
        y_log = 0.5 * np.log(deb)
        # sigma_ln is a ratio: scaled by a power of two, which is exact, f**2 stays finite
        e = math.frexp(float(max(deb.max(), floor.max())))[1]
        deb, floor = np.ldexp(deb, -e), np.ldexp(floor, -e)
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
    no_bias = not any(p.signal for p in points)
    return BiasRateReport(points, slope, slope_unweighted, constant_ratio, sign_agreement, no_bias)


def mse_curve(spec: ExperimentSpec, h_values, replications: int) -> list:
    """Monte Carlo mean squared error norm of the estimate at each bandwidth.

    The process, kernel, N, grid, seed and workers are the experiment's.  One
    sample per replication is shared across the whole h grid (one window sum
    per replication takes every h as a weight row), so the curve is smooth in
    h and ratios between grid points are stable.
    """
    h_list = _checked_h_grid(h_values, replications, 1, 1)
    g = spec.grid.n_points
    c_true = truth(spec.dgp, spec.grid, spec.kernel).c.values
    weights = _lag_weights(spec.kernel, h_list, spec.n_obs, unbiased=False)
    acc = np.zeros(len(h_list))
    for est in _h_grid_estimates(spec, weights, replications, centered=True):
        with np.errstate(over="ignore"):
            acc += np.sum((est - c_true) ** 2, axis=(1, 2)) / g**2
    if not np.isfinite(acc).all():
        raise DimensionError("squared estimates overflow a double")
    return [(h, float(acc[k] / replications)) for k, h in enumerate(h_list)]
