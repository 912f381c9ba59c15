"""Synthetic functional time series with closed-form long-run truth.

Every process is driven by finite-basis Gaussian noise: independent standard
normal scores per trigonometric basis function, scaled by per-component
sigmas.  Scalar moving-average and autoregressive recursions act pointwise on
the scores, so autocovariances, the long-run surface, its eigensystem and the
leading bias surface are all known exactly and ship with the generator.

Reproducibility: generators are PCG64 streams.  The observation-window
innovations are drawn from the stream before any pre-sample or burn-in
innovations, so degenerate settings (all-zero MA coefficients, zero AR
coefficient) reproduce the IID sample bit-for-bit at equal seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, config_number, config_numbers, config_object
from .estimator import CurveSample, bias_kernel
from .fpca import EigenSystem
from .grid import Grid, Surface, fourier_basis
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


@dataclass(frozen=True)
class DgpSpec:
    """A data generating process: iid, finite moving average, or order-1 autoregression.

    Its noise has scale ``sigmas[j]`` on trigonometric basis element j.
    """

    kind: str
    sigmas: tuple
    theta: tuple = ()
    rho: float = 0.0
    burn_in: int = 200

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
            if self.burn_in < 0:
                raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        elif rho != 0.0:
            raise ConfigError(f"rho only applies to the far1 kind, got kind={self.kind!r}")
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "burn_in", int(self.burn_in))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "sigmas": list(self.sigmas)}
        if self.kind == "fma":
            out["theta"] = list(self.theta)
        if self.kind == "far1":
            out["rho"] = self.rho
            out["burn_in"] = self.burn_in
        return out

    @staticmethod
    def from_dict(raw: dict) -> "DgpSpec":
        config_object(raw, "dgp", ("kind", "sigmas"), ("theta", "rho", "burn_in"))
        return DgpSpec(
            kind=raw["kind"],
            sigmas=config_numbers(raw["sigmas"], "dgp sigmas"),
            theta=config_numbers(raw.get("theta", []), "dgp theta"),
            rho=config_number(raw.get("rho", 0.0), "dgp rho"),
            burn_in=config_number(raw.get("burn_in", 200), "dgp burn_in", integer=True),
        )


@dataclass(frozen=True, eq=False)
class TruthSet:
    """Exact population quantities for a DgpSpec on a given grid."""

    grid: Grid
    gammas: np.ndarray  # (L+1, G, G), lags 0..L; lag -k is the transpose of lag k
    c: Surface
    eigen: EigenSystem
    bias: Surface | None = None


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replication; ordering-free and worker-count-free."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def generate(spec: DgpSpec, n_obs: int, grid: Grid, rng: np.random.Generator) -> CurveSample:
    """Draw a mean-zero sample of ``n_obs`` curves from the process."""
    if n_obs < 2:
        raise ConfigError(f"need n_obs >= 2, got {n_obs}")
    j = len(spec.sigmas)
    main = rng.standard_normal((n_obs, j))
    if spec.kind == "iid":
        scores = main
    elif spec.kind == "fma":
        m = len(spec.theta)
        scores = main.copy()
        if m:
            pre = rng.standard_normal((m, j))
            full = np.vstack([pre, main])  # rows in time order, oldest first
            for k, coef in enumerate(spec.theta, start=1):
                scores += coef * full[m - k : m - k + n_obs]
    else:  # far1
        burn = rng.standard_normal((spec.burn_in, j))
        scores = np.empty((n_obs, j))
        state = np.zeros(j)
        for z in burn:
            state = spec.rho * state + z
        for i in range(n_obs):
            state = spec.rho * state + main[i]
            scores[i] = state
    phi = fourier_basis(grid, j)
    return CurveSample(grid, (scores * spec.sigmas) @ phi)


def _gamma_coeffs(spec: DgpSpec) -> tuple[list[float], float]:
    """Scalar lag coefficients (lag 0, 1, ...) and the long-run scalar factor."""
    if spec.kind == "iid":
        return [1.0], 1.0
    if spec.kind == "fma":
        full = np.array([1.0, *spec.theta])
        m = len(spec.theta)
        coeffs = [float(full[: len(full) - ell] @ full[ell:]) for ell in range(m + 1)]
        return coeffs, float(np.sum(full)) ** 2
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
    return coeffs, long_run


def truth(spec: DgpSpec, grid: Grid, kernel: KernelSpec | None = None) -> TruthSet:
    """Exact autocovariances, long-run surface, eigensystem, and bias surface.

    The long-run surface of a moving average is assembled as the literal sum
    of the stored autocovariance surfaces (ascending lags), so that identity
    holds bit-for-bit.  The autoregressive tail is truncated at relative mass
    1e-12 for the lag list while the long-run factor stays in closed form.
    The bias surface is built per kernel and is None for the flat-top kernel,
    which has no power-law bias.
    """
    phi = fourier_basis(grid, len(spec.sigmas))
    s2 = np.asarray(spec.sigmas) ** 2
    noise_surface = (phi.T * s2) @ phi
    coeffs, long_run = _gamma_coeffs(spec)
    gammas = np.asarray(coeffs)[:, None, None] * noise_surface
    if spec.kind == "far1":
        c = Surface(grid, long_run * noise_surface)
    else:
        c_vals = gammas[0].copy()
        for ell in range(1, len(coeffs)):
            c_vals += gammas[ell] + gammas[ell].T
        c = Surface(grid, c_vals)
    order = np.argsort(-s2, kind="stable")
    lam = long_run * s2[order]
    eigen = EigenSystem(grid, lam, phi[order])
    bias = None
    if kernel is not None and math.isfinite(kernel.char_exponent):
        bias = bias_kernel(gammas, kernel)
    return TruthSet(grid, gammas, c, eigen, bias)
