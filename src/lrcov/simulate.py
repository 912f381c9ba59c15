"""Synthetic functional time series with closed-form long-run truth.

Every process is driven by finite-basis Gaussian noise: independent standard
normal scores per trigonometric basis function, scaled by per-component
sigmas.  Scalar moving-average and autoregressive recursions act pointwise on
the scores, so each lag's autocovariance is a scalar factor times one noise
surface, and those factors, the long-run surface, its eigensystem and the
leading bias surface are all known exactly and ship with the generator.

Reproducibility: generators are PCG64 streams.  The observation-window
innovations are drawn from the stream before any pre-sample or burn-in
innovations, so degenerate settings (all-zero MA coefficients, zero AR
coefficient) reproduce the IID sample bit-for-bit at equal seeds.  The
autoregression starts from zero ``FAR1_BURN_IN`` steps before the window, so
its variance there falls short of the stationary one by the factor
rho^400 <= 5e-19: the window is stationary to double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, config_number, config_numbers, config_object
from .estimator import CurveSample, _bias_weights
from .fpca import EigenSystem
from .grid import Grid, Surface, fourier_basis, surface_integral
from .kernels import KernelSpec

__all__ = [
    "DgpSpec",
    "TruthSet",
    "generate",
    "truth",
    "replication_rng",
]

DGP_KINDS = ("iid", "fma", "far1")
MAX_AR_COEFF = 0.9
FAR1_TAIL_RTOL = 1e-12
FAR1_BURN_IN = 200


@dataclass(frozen=True)
class DgpSpec:
    """A data generating process: iid, finite moving average, or order-1 autoregression.

    Its noise has scale ``sigmas[j]`` on trigonometric basis element j.
    """

    kind: str
    sigmas: tuple
    theta: tuple = ()
    rho: float = 0.0

    def __post_init__(self) -> None:
        sigmas = tuple(float(v) for v in self.sigmas)
        if len(sigmas) == 0:
            raise ConfigError("noise needs at least one basis component")
        if any(not math.isfinite(v) or v < 0 for v in sigmas):
            raise ConfigError(f"noise scales must be finite and >= 0, got {sigmas}")
        if self.kind not in DGP_KINDS:
            raise ConfigError(f"unknown dgp kind {self.kind!r}; expected one of {DGP_KINDS}")
        theta = tuple(float(v) for v in self.theta)
        if any(not math.isfinite(v) for v in theta):
            raise ConfigError(f"moving-average coefficients must be finite, got {theta}")
        if self.kind != "fma" and theta:
            raise ConfigError(f"theta only applies to the fma kind, got kind={self.kind!r}")
        rho = float(self.rho)
        if self.kind == "far1":
            if not abs(rho) <= MAX_AR_COEFF:
                raise ConfigError(f"|rho| must be <= {MAX_AR_COEFF}, got {rho}")
        elif rho != 0.0:
            raise ConfigError(f"rho only applies to the far1 kind, got kind={self.kind!r}")
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rho", rho)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "sigmas": list(self.sigmas)}
        if self.kind == "fma":
            out["theta"] = list(self.theta)
        if self.kind == "far1":
            out["rho"] = self.rho
        return out

    @staticmethod
    def from_dict(raw: dict) -> "DgpSpec":
        config_object(raw, "dgp", ("kind", "sigmas"), ("theta", "rho"))
        return DgpSpec(
            kind=raw["kind"],
            sigmas=config_numbers(raw["sigmas"], "dgp sigmas"),
            theta=config_numbers(raw.get("theta", []), "dgp theta"),
            rho=config_number(raw.get("rho", 0.0), "dgp rho"),
        )


@dataclass(frozen=True, eq=False)
class TruthSet:
    """Exact population quantities for a DgpSpec on a given grid, each lag as a scalar factor."""

    coeffs: np.ndarray  # (L+1,): lag l's autocovariance is coeffs[l] times Φᵀ diag(σ²) Φ
    c: Surface
    eigen: EigenSystem
    bias: Surface | None = None


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replication; ordering-free and worker-count-free."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def generate(spec: DgpSpec, n_obs: int, grid: Grid, rng: np.random.Generator) -> CurveSample:
    """Draw a mean-zero sample of ``n_obs`` curves from the process."""
    return CurveSample(grid, _scores(spec, n_obs, [rng])[0].T @ fourier_basis(grid, len(spec.sigmas)))


def _pre_sample(spec: DgpSpec) -> int:
    """Innovations drawn before the window: the burn-in of far1, the MA order of fma, 0 for iid."""
    return FAR1_BURN_IN if spec.kind == "far1" else len(spec.theta)


def _work_array(work: dict, key: str, shape: tuple) -> np.ndarray:
    """An uninitialised C-ordered array of ``shape``: a prefix of ``work[key]``, grown to fit."""
    size = math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size)
    return work[key][:size].reshape(shape)


def _scores(spec: DgpSpec, n_obs: int, rngs: list, work: dict | None = None) -> np.ndarray:
    """The sigma-scaled scores that ``generate`` maps onto the grid: (B, J, n_obs), one per stream.

    Each series is contiguous in time; calls sharing ``work`` overwrite one set of arrays.
    """
    if n_obs < 2:
        raise ConfigError(f"need n_obs >= 2, got {n_obs}")
    work = {} if work is None else work
    pre = _pre_sample(spec)
    full = _work_array(work, "draw", (len(rngs), pre + n_obs, len(spec.sigmas)))  # oldest first
    for rng, rows in zip(rngs, full):
        rng.standard_normal(out=rows[pre:])
        if pre:
            rng.standard_normal(out=rows[:pre])
    if spec.kind == "far1":  # from zero before the burn-in, on contiguous (B, J) time steps
        steps = full.swapaxes(0, 1)  # time-major as it lies for one stream, else copied
        if len(rngs) > 1:
            np.copyto(steps := _work_array(work, "steps", steps.shape), full.swapaxes(0, 1))
        for prev, cur in zip(steps, steps[1:]):
            cur += spec.rho * prev
        full = steps.swapaxes(0, 1)  # the time-major steps, read below as they lie
    x, sigmas = full.swapaxes(1, 2), np.asarray(spec.sigmas)[:, None]  # x: (B, J, pre + N)
    out = _work_array(work, "out", (len(rngs), len(spec.sigmas), n_obs))
    if not spec.theta:
        return np.multiply(x[..., pre:], sigmas, out=out)
    np.multiply(spec.theta[0], x[..., pre - 1 : -1], out=out)  # theta_1 x_-1 + x, + theta_k x_-k
    out += x[..., pre:]
    for k, coef in enumerate(spec.theta[1:], start=2):
        out += coef * x[..., pre - k : -k]
    return np.multiply(out, sigmas, out=out)


def _gamma_coeffs(spec: DgpSpec) -> tuple[np.ndarray, float]:
    """Scalar lag coefficients (lag 0, 1, ...) and the long-run scalar factor."""
    if spec.kind != "far1":  # a moving average; iid is the one with theta = ()
        full = np.array([1.0, *spec.theta])
        coeffs = np.array([full[: len(full) - ell] @ full[ell:] for ell in range(len(full))])
        return coeffs, float(np.sum(full) ** 2)  # numpy's pow: inf, not OverflowError
    rho = spec.rho
    long_run = 1.0 / (1.0 - rho) ** 2
    var0 = 1.0 / (1.0 - rho**2)
    coeffs = [var0]
    if rho != 0.0:
        # two-sided tail beyond lag L is 2 var0 |rho|^(L+1) / (1 - |rho|)
        total = long_run if rho > 0 else var0 * (1.0 + abs(rho)) / (1.0 - abs(rho))
        ell = 1
        while 2.0 * var0 * abs(rho) ** ell / (1.0 - abs(rho)) > FAR1_TAIL_RTOL * total:
            coeffs.append(var0 * rho**ell)
            ell += 1
    return np.asarray(coeffs), long_run


def truth(spec: DgpSpec, grid: Grid, kernel: KernelSpec | None = None) -> TruthSet:
    """Exact lag factors, long-run surface, eigensystem, and bias surface.

    Every lag's autocovariance is its scalar factor times one noise surface
    Φᵀ diag(σ²) Φ, so the long-run and bias surfaces are scalars times that
    surface too.  The autoregressive tail is truncated at relative mass 1e-12
    for the lag factors while the long-run factor stays in closed form.  The
    bias surface is built per kernel and is None for the flat-top kernel,
    which has no power-law bias.  A process is refused with ConfigError when
    the grid does not resolve its basis (``fourier_basis``), or when an
    entry of a surface or autocovariance, the long-run integral or an
    eigenvalue overflows a double on this grid.
    """
    phi = fourier_basis(grid, len(spec.sigmas))
    bias = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        s2 = np.asarray(spec.sigmas) ** 2
        noise_surface = (phi.T * s2) @ phi
        coeffs, long_run = _gamma_coeffs(spec)
        c_vals = long_run * noise_surface
        c = Surface(grid, c_vals) if np.isfinite(c_vals).all() else None
        order = np.argsort(-s2, kind="stable")
        lam = long_run * s2[order]
        c_int = math.inf if c is None else surface_integral(c)
        sizes = [c_int, *lam, np.max(np.abs(coeffs)) * np.max(np.abs(noise_surface))]
        if kernel is not None and math.isfinite(kernel.char_exponent):
            bias = (_bias_weights(kernel, len(coeffs) - 1) @ coeffs) * noise_surface
            bias += bias.T  # numpy buffers the overlapping transpose
            bias *= kernel.char_coefficient
            sizes.append(np.max(np.abs(bias)))
    if not np.all(np.isfinite(sizes)):
        what = f"the {spec.kind} process's truth"
        raise ConfigError(f"{what} overflows a double on {grid.n_points} grid points")
    eigen = EigenSystem(grid, lam, phi[order])
    return TruthSet(coeffs, c, eigen, None if bias is None else Surface(grid, bias))
