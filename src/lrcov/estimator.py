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

from .errors import ContractViolationError, DimensionError
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


@dataclass(frozen=True, eq=False)
class SpectralDensityEstimate:
    real_part: Surface
    imag_part: Surface


@dataclass(frozen=True)
class BandwidthSelection:
    """Result of a bandwidth rule, with the diagnostics the rule exposes."""

    bandwidth: Bandwidth
    c0: float | None  # None when the rule fell back to the rate alone
    fallback: bool
    f_norm: float
    c_integral: float
    clamped: bool = False
    pilot_h: float | None = None
    m_trunc: int | None = None


def _centered(sample: CurveSample) -> np.ndarray:
    return sample.values - sample.values.mean(axis=0)


def _pow(x: float, p: float) -> float:
    """x ** p, or inf where Python's float power overflows; for x >= 0 or an even p."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _warn_rate(kernel: KernelSpec, h: float, n: int) -> None:
    q = kernel.char_exponent
    if math.isfinite(q) and _pow(h, q) > n:
        warnings.warn(
            f"h^{q:g} = {_pow(h, q):.3g} exceeds N = {n}; the leading bias approximation degrades",
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
    these slices.  A (B, N, G) stack gives (B, max_lag + 1, G, G), each as its array alone.
    Each lag is one product of the transposed series, y^T[:, :N-k] (y^T[:, k:])^T, so a
    stack stored component-major, as a (B, N, G) view of a (B, G, N) array, reads every
    series contiguously.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (2, 3):
        raise DimensionError(f"lag products need an (N, G) or (B, N, G) array, got shape {y.shape}")
    n, g = y.shape[-2:]
    if not 0 <= max_lag < n:
        raise ContractViolationError(f"max_lag must lie in [0, N), got {max_lag}")
    yt = y.swapaxes(-1, -2)
    out = np.empty((*y.shape[:-2], max_lag + 1, g, g))
    for k in range(max_lag + 1):
        out[..., k, :, :] = yt[..., : n - k] @ yt[..., k:].swapaxes(-1, -2)
    return out


# A window of lags 0..L over G columns takes the FFT path once L * max(G, 8) reaches
# _FFT_MIN_WORK: lag products cost a G x G GEMM per lag, while the FFT path costs
# about the same for any L, so the wider the sample the shorter the window at which the
# FFT wins.  A scan of both paths (two weight rows, 2-CPU host, interleaved medians of 7),
# lag-product time over FFT time, at L * G = 256 / 512 / 1024 (2048):
#   N  2000: G 16 0.42/0.74/1.26, G 32 0.65/1.20/2.70, G 64 0.37/0.85/1.65,
#            G 128 0.40/0.64/1.22
#   N 50000: G 16 1.18/2.74/5.89, G 32 0.79/1.59/2.38, G 64 0.44/0.93/1.84,
#            G 128 0.27/0.60/0.85, and 2.09 at 2048 (best of 3)
# 512 sits at the crossover for G 16-64 and one doubling early for G 128.  It is 64 * 8,
# so a sample of at most 8 columns keeps the 64-lag rule of an earlier scan (G = 1 crosses
# at 24-64 lags for N 2000, 192-256 for N 50000), and the Monte Carlo score stacks
# (J <= 3, L <= 32) keep their bits on lag products.  The scan covers 2-D samples with
# two weight rows; the FFT path's cost grows with the rows and it loops over a stack's
# replications, so wide Monte Carlo stacks and many-row h grids route unmeasured.
_FFT_MIN_WORK = 512
_FFT_COLUMNS = 8  # columns of the sample transformed at a time; bounds the FFT buffer
_FFT_CHUNK_BYTES = 1 << 19  # size of the (G, bins) half-spectrum slice behind each GEMM


def _takes_fft(max_lag: int, g: int) -> bool:
    """Whether a window of lags 0..max_lag over G columns takes the FFT path."""
    return max_lag * max(g, 8) >= _FFT_MIN_WORK  # 512 = 64 * 8: G <= 8 crosses at 64 lags


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length numpy's FFT transforms quickly."""
    powers = [float(k) ** np.arange(math.ceil(math.log(n, k)) + 1) for k in (2, 3, 5)]
    sizes = np.multiply.outer(np.multiply.outer(powers[0], powers[1]), powers[2]).ravel()
    return int(sizes[sizes >= n].min())


def _window_sums(y: np.ndarray, weights: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """Sum over k of weights[r, k] y[:N-k]^T y[k:], one (G, G) slice per row r.

    ``weights`` is (n_w, L+1) with L < N, one layout for every caller: a (B, N, G) stack
    applies it to each of its arrays and gives (B, n_w, G, G).  A (G,) ``mean`` is
    subtracted from y first, as the same float operation as ``y - mean``.  Windows short
    for their width (``_takes_fft``) apply the rows to one ``lag_products`` call.  The
    others are a Parseval inner product of half spectra:
    with Y_s the real FFT of column s, zero-padded to m >= N + L so the correlation does
    not wrap, and W that of a weight row, A[s, t] = (1/m) sum_f conj(Y_s W) Y_t over the
    full spectrum, in which each half-spectrum bin but 0 and m/2 stands for two.  Each
    block of columns is transformed once; each weight row is then one real GEMM per
    frequency chunk, and no inverse transform is needed.
    """
    g, max_lag = y.shape[-1], weights.shape[1] - 1
    if not _takes_fft(max_lag, g):
        lp = lag_products(y if mean is None else y - mean, max_lag)
        *stack, lags, g, _ = lp.shape
        return (weights @ lp.reshape(*stack, lags, g * g)).reshape(*stack, len(weights), g, g)
    if y.ndim == 3:
        return np.stack([_window_sums(s, weights, mean) for s in y])
    n = y.shape[0]
    m = _fft_length(n + max_lag)
    bin_weights = np.full(m // 2 + 1, 2.0 / m)
    bin_weights[0] = 1.0 / m
    if m % 2 == 0:
        bin_weights[-1] = 1.0 / m
    d = np.conj(np.fft.rfft(weights, m)) * bin_weights
    centre = np.zeros(g) if mean is None else mean
    padded = np.zeros((min(g, _FFT_COLUMNS), m))  # only its first n columns are ever written
    spectra = []  # one per block of columns: no single array as large as the sample
    for c in range(0, g, _FFT_COLUMNS):
        block = padded[: min(g - c, _FFT_COLUMNS), :n]
        np.subtract(y[:, c : c + _FFT_COLUMNS].T, centre[c : c + _FFT_COLUMNS, None], out=block)
        spectra.append(np.fft.rfft(padded[: len(block)]))
    del padded
    out = np.zeros((len(weights), g, g))
    chunk = max(1, _FFT_CHUNK_BYTES // (16 * g))
    for f in range(0, len(bin_weights), chunk):
        y_hat = np.concatenate([s[:, f : f + chunk] for s in spectra])
        y_real = y_hat.view(float)
        for r, d_r in enumerate(d[:, f : f + chunk]):
            out[r] += y_real @ (y_hat * d_r).view(float).T
    return out


def _window_surfaces(
    y: np.ndarray, weights: np.ndarray, phi: np.ndarray | None = None, mean: np.ndarray | None = None
):
    """The symmetric surfaces A + A^T of the window sums A = ``_window_sums(y, weights, mean)``.

    One (G, G) surface per row of the (n_w, L+1) weights, for each array of a stack.  When
    y holds (N, J) scores of the basis ``phi``, a (J, G) array orthonormal under the midpoint
    rule, each surface is phi^T (A + A^T) phi: the same window sum of the sample y phi.
    Every caller's sum that overflows is refused here, with a DimensionError and no numpy
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = _window_sums(y, weights, mean)
        if phi is not None:
            a = phi.T @ a @ phi
        a = a + np.swapaxes(a, -1, -2)
    if not np.isfinite(a).all():  # eigh does not converge on inf or nan
        raise DimensionError("surface contains non-finite values")
    return a


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
    y = sample.values
    surface = _window_surfaces(y, _lag_weights(kernel, [h], n, unbiased), mean=y.mean(axis=0))[0]
    return LrcovEstimate(Surface(sample.grid, surface), kernel, Bandwidth(h), n)


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
    y = sample.values
    two_pi = 2.0 * math.pi
    with np.errstate(over="ignore", invalid="ignore"):  # Surface refuses a sum that overflows
        a, b = _window_sums(y, np.stack([w * np.cos(phase), w * np.sin(phase)]), y.mean(axis=0))
        real, imag = (a + a.T) / two_pi, (b.T - b) / two_pi
    return SpectralDensityEstimate(Surface(sample.grid, real), Surface(sample.grid, imag))


def _bias_weights(kernel: KernelSpec, max_lag: int) -> np.ndarray:
    """|k|^q for lags 0..max_lag; refused for a kernel of infinite exponent."""
    if not math.isfinite(kernel.char_exponent):
        raise ContractViolationError(f"{kernel.name} admits no power-law bias expansion")
    return np.arange(max_lag + 1, dtype=float) ** kernel.char_exponent


def _power_law_exponent(kernel: KernelSpec, n_obs: int, what: str) -> float:
    """The kernel's characteristic exponent, once it is finite."""
    q = kernel.char_exponent
    if not math.isfinite(q):
        raise ContractViolationError(f"{kernel.name} admits no power-law {what}")
    if n_obs < 2:
        raise ContractViolationError(f"need n_obs >= 2, got {n_obs}")
    return q


def amse(
    c: Surface, bias: Surface, kernel: KernelSpec, bandwidth: BandwidthLike, n_obs: int
) -> float:
    """Asymptotic mean squared error proxy: variance term plus squared bias term."""
    q = _power_law_exponent(kernel, n_obs, "AMSE")
    h = _checked_h(bandwidth)
    # the variance constant of the estimate integrated against the unit surface
    variance = 2.0 * _pow(surface_integral(c), 2) * kernel.square_integral
    return (h / n_obs) * variance + _pow(h, -2.0 * q) * _pow(l2_norm_surface(bias), 2)


def _rate_h(kernel: KernelSpec, n: int) -> float:
    """The rate-only bandwidth N^(1/(1+2q)): the plug-in rule's default pilot and fallback."""
    return float(n) ** (1.0 / (1.0 + 2.0 * kernel.char_exponent))


def optimal_bandwidth(
    c: Surface, bias: Surface, kernel: KernelSpec, n_obs: int
) -> BandwidthSelection:
    """Closed-form minimizer of the AMSE proxy in h.

    Falls back to the rate-only rule h = N^(1/(1+2q)) (flagged, with no
    constant ``c0``) when the bias surface vanishes or the variance constant
    is degenerate.  The data enter only through the ratio of the bias norm to
    the variance constant, formed before any power, so h is scale-free.
    """
    q = _power_law_exponent(kernel, n_obs, "bandwidth rule")
    power, rate = 1.0 / (1.0 + 2.0 * q), _rate_h(kernel, n_obs)
    f_norm = l2_norm_surface(bias)
    c_int = surface_integral(c)
    if f_norm == 0.0 or c_int == 0.0:
        warnings.warn("degenerate bias or variance constant; using rate-only bandwidth")
        return BandwidthSelection(Bandwidth(rate), None, True, f_norm, c_int)
    c0 = (q / kernel.square_integral) ** power * (f_norm / abs(c_int)) ** (2.0 * power)
    return BandwidthSelection(Bandwidth(c0 * rate), c0, False, f_norm, c_int)


def plugin_bandwidth(
    sample: CurveSample,
    kernel: KernelSpec,
    pilot_h: BandwidthLike | None = None,
    m_trunc: int | None = None,
) -> BandwidthSelection:
    """Data-driven bandwidth: pilot estimates feed the closed-form rule.

    The pilot long-run surface at ``pilot_h`` and the lag-truncated bias
    surface are two weight rows of one window sum; the resulting h is
    clamped to [1, N/2].
    ``pilot_h`` defaults to the rate N^(1/(1+2q)), and ``m_trunc`` to
    floor(pilot_h), capped at sqrt(N).
    """
    return next(_plugin_choices(_centered(sample)[None], kernel, pilot_h, m_trunc))


def _plugin_choices(
    y: np.ndarray, kernel: KernelSpec, pilot_h: BandwidthLike | None, m_trunc: int | None, phi=None
):
    """Yield the plug-in bandwidth of each replication in a stack y, as ``plugin_bandwidth`` does.

    y stacks centered (N, G) samples, or (N, J) scores of the basis ``phi`` as in
    ``_window_surfaces``.  The pilot and bias sums are the two weight rows of one window
    sum.  Constant curves, whose every column's maximum equals its minimum (raw or centred),
    are refused before the pilot's rate warning.
    """
    n = y.shape[1]
    pilot_h = _as_h(_rate_h(kernel, n) if pilot_h is None else pilot_h)
    if m_trunc is None:
        m_trunc = min(int(math.floor(pilot_h)), int(math.floor(math.sqrt(n))))
    if not 0 <= m_trunc < n:
        raise ContractViolationError(f"lag truncation {m_trunc} out of range [0, N)")
    pilot_w = _lag_weights(kernel, [pilot_h], n, False)[0]
    bias_w = _bias_weights(kernel, m_trunc) / n
    weights = np.zeros((2, max(len(pilot_w), len(bias_w))))
    weights[0, : len(pilot_w)] = pilot_w
    weights[1, : len(bias_w)] = bias_w
    if np.any(np.all(np.max(y, axis=1) == np.min(y, axis=1), axis=-1)):
        raise ContractViolationError("zero-variance sample: every curve is constant over time")
    _warn_rate(kernel, pilot_h, n)
    for pilot, bias in _window_surfaces(y, weights, phi):
        grid = Grid(pilot.shape[0])
        with np.errstate(over="ignore"):  # Surface refuses a bias that overflows
            bias = Surface(grid, kernel.char_coefficient * bias)
        sel = optimal_bandwidth(Surface(grid, pilot), bias, kernel, n)
        h = sel.bandwidth.h
        lo, hi = 1.0, n / 2.0
        clamped = not lo <= h <= hi
        h = min(max(h, lo), hi)
        yield replace(
            sel, bandwidth=Bandwidth(h), clamped=clamped, pilot_h=pilot_h, m_trunc=int(m_trunc)
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
    return replace(est, surface=Surface(s.grid, out))
