"""Spectral decomposition of covariance surfaces and eigen-inference limits.

Discretization convention: a surface S acts as the integral operator with the
midpoint rule, so the matrix actually decomposed is S/G; matrix eigenvectors
are rescaled by sqrt(G) to make the returned eigenfunctions unit-norm under
the same quadrature, and returned as the rows of one array.  Inference
refuses to touch eigenvalues whose spacing falls below a relative separation
floor instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DimensionError, SeparationError
from .estimator import BandwidthLike, _checked_h
from .grid import Grid, Surface, _as_values
from .kernels import KernelSpec

__all__ = [
    "SEPARATION_RTOL",
    "EigenSystem",
    "EigenvalueLimit",
    "ConfidenceInterval",
    "eigendecompose",
    "align_sign",
    "eigenvalue_clt_params",
    "eigenfunction_deviation_msd",
    "eigenvalue_ci",
]

# Smallest eigenvalue gap, relative to the leading eigenvalue, that level-wise
# inference will accept.
SEPARATION_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Descending eigenvalues and unit-norm eigenfunctions, the rows of a ``(count, G)`` array."""

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise DimensionError(f"eigenvalues must be one-dimensional, got shape {lam.shape}")
        funcs = _as_values(self.eigenfunctions, (len(lam), self.grid.n_points), "eigenfunctions")
        if np.any(np.diff(lam) > 1e-12 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))):
            raise ContractViolationError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenfunctions", funcs)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


class EigenvalueLimit(NamedTuple):
    """Limiting distribution parameters of a scaled eigenvalue error."""

    sd: float
    mean_shift: float


class ConfidenceInterval(NamedTuple):
    lower: float
    upper: float


def eigendecompose(s: Surface) -> EigenSystem:
    """Eigendecompose a symmetric surface as a midpoint-rule integral operator.

    Eigenfunction signs are fixed by making each one's largest-magnitude
    coordinate positive, so the decomposition is deterministic.
    """
    if not s.is_symmetric():
        raise ContractViolationError("eigendecomposition requires a symmetric surface")
    g = s.grid.n_points
    sym = 0.5 * (s.values + s.values.T)
    w, v = np.linalg.eigh(sym / g)
    order = np.argsort(w)[::-1]
    funcs = v.T[order] * math.sqrt(g)
    peaks = funcs[np.arange(g), np.argmax(np.abs(funcs), axis=1)]
    funcs[peaks < 0] *= -1.0
    return EigenSystem(s.grid, w[order], funcs)


def align_sign(estimates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip each row of the ``(..., G)`` array ``estimates`` whose inner product
    with the curve ``reference`` is negative; an exactly orthogonal row stays.
    """
    estimates = np.asarray(estimates, dtype=float)
    flip = estimates @ np.asarray(reference, dtype=float) < 0.0
    return np.where(flip[..., None], -estimates, estimates)


def _separation_gaps(eigenvalues: np.ndarray) -> np.ndarray:
    """lambda_k - lambda_(k+1) for every level k, the last one measured against 0."""
    return eigenvalues - np.append(eigenvalues[1:], 0.0)


def _require_separation(eigenvalues: np.ndarray, level: int) -> None:
    if not 1 <= level <= len(eigenvalues):
        raise ContractViolationError(f"eigenvalue level {level} outside 1..{len(eigenvalues)}")
    tol = SEPARATION_RTOL * max(abs(float(eigenvalues[0])), 1e-300)
    for k, gap in enumerate(_separation_gaps(eigenvalues)[:level].tolist()):
        if gap < tol:
            raise SeparationError(
                f"eigenvalues {k + 1} and {k + 2} separated by {gap:.3g} "
                f"(< {tol:.3g}); level-{level} inference refused"
            )


def eigenvalue_clt_params(
    truth: EigenSystem,
    kernel: KernelSpec,
    bias: Surface | None,
    drift: float,
    level: int,
) -> EigenvalueLimit:
    """Limit parameters for the scaled error of the level-th eigenvalue.

    ``drift`` is the limit of N/h^(1+2q); the limiting mean is drift times the
    bias surface contracted against the level's eigenfunction on both sides.
    """
    _require_separation(truth.eigenvalues, level)
    lam = float(truth.eigenvalues[level - 1])
    sd = lam * math.sqrt(2.0 * kernel.square_integral)
    mean_shift = 0.0
    if bias is not None and drift != 0.0:
        v = truth.eigenfunctions[level - 1]
        g = truth.grid.n_points
        mean_shift = drift * float(v @ bias.values @ v) / g**2
    return EigenvalueLimit(sd, mean_shift)


def eigenfunction_deviation_msd(truth: EigenSystem, kernel: KernelSpec, level: int) -> float:
    """Limiting mean of the scaled squared deviation of a sign-aligned eigenfunction.

    Sums lambda_k / (lambda_level - lambda_k)^2 over every other level of the
    spectrum, which is finite.  Every gap is at least an adjacent gap that
    ``_require_separation`` has passed.  Scale-invariant in the spectrum: the
    level prefactor cancels the degree -1 of the sum.
    """
    _require_separation(truth.eigenvalues, level)
    lam = truth.eigenvalues.tolist()
    lam_l = lam[level - 1]
    total = 0.0
    for k, lam_k in enumerate(lam):  # a sequential sum: sum() may round differently
        if k != level - 1:
            total += lam_k / (lam_l - lam_k) ** 2
    return lam_l * kernel.square_integral * total


def eigenvalue_ci(
    eigen: EigenSystem,
    kernel: KernelSpec,
    n_obs: int,
    bandwidth: BandwidthLike,
    level: int,
    conf: float = 0.95,
) -> ConfidenceInterval:
    """Two-sided interval for one eigenvalue of the long-run surface.

    Width scales as sqrt(h/N) times the estimated eigenvalue; refused when the
    estimate is not positive or the spectrum is insufficiently separated.
    """
    if not 0.0 < conf < 1.0:
        raise ContractViolationError(f"confidence level must lie in (0, 1), got {conf}")
    if n_obs < 2:
        raise ContractViolationError(f"need n_obs >= 2, got {n_obs}")
    h = _checked_h(bandwidth)
    _require_separation(eigen.eigenvalues, level)
    lam = float(eigen.eigenvalues[level - 1])
    if lam <= 0.0:
        raise ContractViolationError(
            f"eigenvalue {level} is {lam:.3g} <= 0; interval undefined (project to PSD first?)"
        )
    z = NormalDist().inv_cdf(0.5 * (1.0 + conf))
    half = z * math.sqrt(h / n_obs) * lam * math.sqrt(2.0 * kernel.square_integral)
    return ConfidenceInterval(lam - half, lam + half)
