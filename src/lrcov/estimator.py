"""Kernel lag-window estimation of the long-run covariance kernel.

The central object is the weighted sum over lags of empirical autocovariance
surfaces, with weights K(i/h) from a lag-window kernel.  Around it sit the
spectral-density variant, the asymptotic bias/variance formulas, bandwidth
selection, and the PSD projection used before spectral decompositions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ContractViolationError, DimensionError, KernelSpecError
from .grid import Grid, Surface, l2_norm_surface, surface_integral
from .kernels import KernelSpec, kernel_value

__all__ = [
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
]


@dataclass(frozen=True, eq=False)
class CurveSample:
    """N observed curves over a common grid, one row per time point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.grid.n_points:
            raise DimensionError(f"sample must be (N, {self.grid.n_points}), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ContractViolationError("need at least two observed curves")
        if not np.all(np.isfinite(arr)):
            raise DimensionError("sample contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Bandwidth:
    """Smoothing bandwidth; the number of lags entering the window scales with h."""

    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0):
            raise ContractViolationError(f"bandwidth must be positive and finite, got {self.h}")
        object.__setattr__(self, "h", float(self.h))


BandwidthLike = Union[Bandwidth, float, int]


def _checked_h(bandwidth: BandwidthLike) -> float:
    """The h of a Bandwidth, or of a bare number that ``Bandwidth`` accepts."""
    return (bandwidth if isinstance(bandwidth, Bandwidth) else Bandwidth(bandwidth)).h


def _as_h(bandwidth: BandwidthLike) -> float:
    h = _checked_h(bandwidth)
    if h < 1.0:
        warnings.warn(f"bandwidth {h} < 1 keeps only the lag-0 term", stacklevel=3)
    return h


@dataclass(frozen=True, eq=False)
class LrcovEstimate:
    surface: Surface
    kernel: KernelSpec
    bandwidth: Bandwidth
    n_obs: int
    psd_projected: bool = False


@dataclass(frozen=True, eq=False)
class SpectralDensityEstimate:
    real_part: Surface
    imag_part: Surface


@dataclass(frozen=True)
class BandwidthSelection:
    """Result of a bandwidth rule, with the diagnostics the rule exposes."""

    bandwidth: Bandwidth
    c0: float
    fallback: bool
    f_norm: float
    c_integral: float
    clamped: bool = False
    pilot_h: float | None = None
    m_trunc: int | None = None


def _centered(sample: CurveSample) -> np.ndarray:
    return sample.values - sample.values.mean(axis=0)


def _warn_rate(kernel: KernelSpec, h: float, n: int) -> None:
    q = kernel.char_exponent
    if math.isfinite(q) and h**q > n:
        warnings.warn(
            f"h^{q:g} = {h**q:.3g} exceeds N = {n}; the leading bias approximation degrades",
            stacklevel=3,
        )


def _lag_weights(kernel: KernelSpec, h_values, n: int, unbiased: bool) -> np.ndarray:
    """K(k/h)/d_k, one row per h, halved at lag 0.

    The lags run from 0 to floor(max h), at most N - 1: every kernel vanishes
    beyond [-1, 1].  Applied to the sample by ``_window_sums`` as A, each
    estimate is A + A.T: every lag enters together with its transpose and
    lag 0 exactly once.
    """
    lags = np.arange(min(n - 1, int(math.floor(max(h_values)))) + 1)
    w = kernel_value(kernel, lags / np.asarray(h_values, dtype=float)[:, None])
    w /= n - lags if unbiased else n
    w[:, 0] *= 0.5
    return w


def lag_products(y: np.ndarray, max_lag: int) -> np.ndarray:
    """Undivided lag cross products of an (N, G) array, one (G, G) slice per lag.

    Slice k, for k = 0..max_lag, sums y[j] y[j+k]^T over j: entry (t, s) pairs
    the earlier curve at t with the later curve at s, so lag -k is the
    transpose of slice k.  Every lag-window quantity is a weighted sum of
    these slices.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionError(f"lag products need an (N, G) array, got shape {y.shape}")
    n = y.shape[0]
    if not 0 <= max_lag < n:
        raise ContractViolationError(f"max_lag must lie in [0, N), got {max_lag}")
    out = np.empty((max_lag + 1, y.shape[1], y.shape[1]))
    for k in range(max_lag + 1):
        out[k] = y[: n - k].T @ y[k:]
    return out


# Windows reaching this lag take the FFT path.  A scan of both paths (N 2000
# and 20000; G 1, 4, 16, 64, 256; L 8 to 128) put the crossover at L = 8-48
# for G >= 16, 30-60 for G = 4, and from 30 to beyond 128 for G = 1.  64 also
# keeps the short windows of the Monte Carlo harness (L <= 32) on lag products.
_FFT_MIN_LAG = 64
_FFT_COLUMNS = 8  # columns of the sample transformed at a time; bounds the FFT buffers


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length numpy's FFT transforms quickly."""
    powers = [float(k) ** np.arange(math.ceil(math.log(n, k)) + 1) for k in (2, 3, 5)]
    sizes = np.multiply.outer(np.multiply.outer(powers[0], powers[1]), powers[2]).ravel()
    return int(sizes[sizes >= n].min())


def _window_sums(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over k of weights[r, k] y[:N-k]^T y[k:], one (G, G) slice per row r.

    ``weights`` is (n_w, L+1) with L < N.  Short windows apply the rows to
    ``lag_products``.  Long ones use A = Y^T Z, where Z[j] = sum_k w_k y[j+k]
    is one real-FFT correlation along time, padded to at least N + L so it
    does not wrap; the columns go through it a few at a time.
    """
    max_lag = weights.shape[1] - 1
    if max_lag < _FFT_MIN_LAG:
        return np.tensordot(weights, lag_products(y, max_lag), axes=1)
    n, g = y.shape
    m = _fft_length(n + max_lag)
    w_hat = np.conj(np.fft.rfft(weights, m))
    out = np.empty((len(weights), g, g))
    for c in range(0, g, _FFT_COLUMNS):
        y_hat = np.fft.rfft(y[:, c : c + _FFT_COLUMNS].T, m)
        for r, w_r in enumerate(w_hat):
            z = np.fft.irfft(y_hat * w_r, m)[:, :n]
            out[r, :, c : c + _FFT_COLUMNS] = (z @ y).T
    return out


def estimate_lrcov(
    sample: CurveSample,
    kernel: KernelSpec,
    bandwidth: BandwidthLike,
    unbiased: bool = False,
) -> LrcovEstimate:
    """Lag-window estimate of the long-run covariance surface.

    Weights the lag products by K(i/h) over their divisor; opposite lags
    enter as mutual transposes, so the result is exactly symmetric.
    """
    h = _as_h(bandwidth)
    n = sample.n_obs
    _warn_rate(kernel, h, n)
    a = _window_sums(_centered(sample), _lag_weights(kernel, [h], n, unbiased))[0]
    return LrcovEstimate(Surface(sample.grid, a + a.T), kernel, Bandwidth(h), n)


def estimate_lrcov_naive(
    sample: CurveSample,
    kernel: KernelSpec,
    bandwidth: BandwidthLike,
    unbiased: bool = False,
) -> LrcovEstimate:
    """Reference implementation: explicit sum over every lag and time index.

    Quadratic in N; kept as the oracle the fast accumulation is tested against.
    """
    h = _as_h(bandwidth)
    n = sample.n_obs
    g = sample.grid.n_points
    y = _centered(sample)
    total = np.zeros((g, g))
    for lag in range(-(n - 1), n):
        w = kernel_value(kernel, lag / h)
        gam = np.zeros((g, g))
        if lag >= 0:
            for j in range(n - lag):
                gam += np.outer(y[j], y[j + lag])
        else:
            for j in range(-lag, n):
                gam += np.outer(y[j], y[j + lag])
        total += w * gam / float(n - abs(lag) if unbiased else n)
    return LrcovEstimate(Surface(sample.grid, total), kernel, Bandwidth(h), n)


def estimate_spectral_density(
    sample: CurveSample,
    kernel: KernelSpec,
    bandwidth: BandwidthLike,
    omega: float,
    unbiased: bool = False,
) -> SpectralDensityEstimate:
    """Smoothed spectral density surface at a single frequency.

    Real part weights lags by cos(omega i), imaginary part by -sin(omega i);
    at omega = 0 the real part is the long-run estimate divided by 2 pi.
    """
    omega = float(omega)
    if not 0.0 <= omega < 2.0 * math.pi:
        raise ContractViolationError(f"frequency must lie in [0, 2*pi), got {omega}")
    h = _as_h(bandwidth)
    n = sample.n_obs
    w = _lag_weights(kernel, [h], n, unbiased)[0]
    phase = omega * np.arange(len(w))
    a, b = _window_sums(_centered(sample), np.stack([w * np.cos(phase), w * np.sin(phase)]))
    two_pi = 2.0 * math.pi
    return SpectralDensityEstimate(
        Surface(sample.grid, (a + a.T) / two_pi), Surface(sample.grid, (b.T - b) / two_pi)
    )


def bias_kernel(gammas: np.ndarray, kernel: KernelSpec) -> Surface:
    """Leading-bias surface: flatness coefficient times |lag|^q-weighted autocovariances.

    ``gammas`` is an (L+1, G, G) array of autocovariances at lags 0..L, every
    one of which enters the sum; lags beyond L count as zero, which is exact
    for finite-order truths.  Refused for the flat-top kernel, whose bias
    decays faster than any power.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 3 or gammas.shape[1] != gammas.shape[2]:
        raise DimensionError(f"autocovariances must be (L+1, G, G), got shape {gammas.shape}")
    a = np.tensordot(_bias_weights(kernel, len(gammas) - 1), gammas, axes=1)
    return _bias_from_sum(a, kernel)


def _bias_weights(kernel: KernelSpec, max_lag: int) -> np.ndarray:
    """|k|^q for lags 0..max_lag; refused for a kernel of infinite exponent."""
    if not math.isfinite(kernel.char_exponent):
        raise KernelSpecError(f"{kernel.name} admits no power-law bias expansion")
    return np.arange(max_lag + 1, dtype=float) ** kernel.char_exponent


def _bias_from_sum(a: np.ndarray, kernel: KernelSpec) -> Surface:
    """The bias surface from the one-sided |k|^q-weighted sum A of autocovariances."""
    return Surface(Grid(a.shape[0]), kernel.char_coefficient * (a + a.T))


def gamma1_norm_sq(c: Surface, kernel: KernelSpec) -> float:
    """Variance constant of the estimate integrated against the unit surface."""
    return 2.0 * surface_integral(c) ** 2 * kernel.square_integral


def _power_law_exponent(kernel: KernelSpec, n_obs: int, what: str) -> float:
    """The kernel's characteristic exponent, once it is finite."""
    q = kernel.char_exponent
    if not math.isfinite(q):
        raise KernelSpecError(f"{kernel.name} admits no power-law {what}")
    if n_obs < 2:
        raise ContractViolationError(f"need n_obs >= 2, got {n_obs}")
    return q


def amse(
    c: Surface, bias: Surface, kernel: KernelSpec, bandwidth: BandwidthLike, n_obs: int
) -> float:
    """Asymptotic mean squared error proxy: variance term plus squared bias term."""
    q = _power_law_exponent(kernel, n_obs, "AMSE")
    h = _checked_h(bandwidth)
    return (h / n_obs) * gamma1_norm_sq(c, kernel) + h ** (-2.0 * q) * l2_norm_surface(bias) ** 2


def optimal_bandwidth(
    c: Surface, bias: Surface, kernel: KernelSpec, n_obs: int
) -> BandwidthSelection:
    """Closed-form minimizer of the AMSE proxy in h.

    Falls back to the rate-only rule h = N^(1/(1+2q)) (flagged) when the bias
    surface vanishes or the variance constant is degenerate.
    """
    q = _power_law_exponent(kernel, n_obs, "bandwidth rule")
    power = 1.0 / (1.0 + 2.0 * q)
    f_norm = l2_norm_surface(bias)
    c_int = surface_integral(c)
    denom = c_int**2 * kernel.square_integral
    if f_norm == 0.0 or denom <= 0.0:
        warnings.warn("degenerate bias or variance constant; using rate-only bandwidth")
        return BandwidthSelection(
            Bandwidth(float(n_obs) ** power), math.nan, True, f_norm, c_int
        )
    c0 = (q * f_norm**2) ** power * denom ** (-power)
    return BandwidthSelection(Bandwidth(c0 * float(n_obs) ** power), c0, False, f_norm, c_int)


def plugin_bandwidth(
    sample: CurveSample,
    kernel: KernelSpec,
    pilot_h: BandwidthLike,
    m_trunc: int | None = None,
) -> BandwidthSelection:
    """Data-driven bandwidth: pilot estimates feed the closed-form rule.

    The pilot long-run surface at ``pilot_h`` and the lag-truncated bias
    surface are two weight rows of one window sum; the resulting h is
    clamped to [1, N/2].
    ``m_trunc`` defaults to floor(pilot_h), capped at sqrt(N).
    """
    n = sample.n_obs
    ph = _as_h(pilot_h)
    if m_trunc is None:
        m_trunc = min(int(math.floor(ph)), int(math.floor(math.sqrt(n))))
    if not 0 <= m_trunc < n:
        raise ContractViolationError(f"lag truncation {m_trunc} out of range [0, N)")
    y = _centered(sample)
    if float(np.max(np.abs(y))) == 0.0:
        raise ContractViolationError("zero-variance sample: every curve is constant over time")
    _warn_rate(kernel, ph, n)
    pilot_w = _lag_weights(kernel, [ph], n, False)[0]
    bias_w = _bias_weights(kernel, m_trunc) / n
    weights = np.zeros((2, max(len(pilot_w), len(bias_w))))
    weights[0, : len(pilot_w)] = pilot_w
    weights[1, : len(bias_w)] = bias_w
    a, b = _window_sums(y, weights)
    pilot = Surface(sample.grid, a + a.T)
    sel = optimal_bandwidth(pilot, _bias_from_sum(b, kernel), kernel, n)
    h = sel.bandwidth.h
    lo, hi = 1.0, n / 2.0
    clamped = not lo <= h <= hi
    h = min(max(h, lo), hi)
    return replace(
        sel, bandwidth=Bandwidth(h), clamped=clamped, pilot_h=ph, m_trunc=int(m_trunc)
    )


def project_psd(est: LrcovEstimate) -> LrcovEstimate:
    """Nearest positive-semidefinite surface in the L2 sense (eigenvalue clipping)."""
    s = est.surface
    if not s.is_symmetric():
        raise ContractViolationError("PSD projection requires a symmetric surface")
    sym = 0.5 * (s.values + s.values.T)
    w, v = np.linalg.eigh(sym)
    clipped = np.maximum(w, 0.0)
    out = (v * clipped) @ v.T
    out = 0.5 * (out + out.T)
    return replace(est, surface=Surface(s.grid, out), psd_projected=True)
