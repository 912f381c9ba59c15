"""Discretization of [0, 1] and the function-space primitives built on it.

Curves and surfaces live on a regular midpoint grid; every integral in the
package is the midpoint rule with weight 1/G per point, so L2 inner products,
norms and operator applications all reduce to dense linear algebra.  A curve
is a row of a float array: ``(..., G)`` arrays hold any number of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = [
    "Grid",
    "Surface",
    "l2_norm_surface",
    "surface_integral",
    "fourier_basis",
]


@dataclass(frozen=True)
class Grid:
    """Regular midpoint grid on [0, 1] with ``n_points`` cells."""

    n_points: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 1:
            raise DimensionError(f"grid needs a positive integer point count, got {self.n_points!r}")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def points(self) -> np.ndarray:
        g = self.n_points
        return (np.arange(1, g + 1) - 0.5) / g


def _as_values(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise DimensionError(f"{what} expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Surface:
    """A real function of two arguments sampled at all midpoint pairs."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid.n_points
        object.__setattr__(self, "values", _as_values(self.values, (g, g), "surface"))

    def is_symmetric(self) -> bool:
        v = self.values
        scale = max(float(np.max(np.abs(v))), 1e-300)
        return float(np.max(np.abs(v - v.T))) <= 1e-10 * scale


def l2_norm_surface(s: Surface) -> float:
    """L2 norm of a surface; the constant-1 surface has norm 1.

    Below 1e-150, where the squared entries fall near or under the smallest normal
    double and lose bits, and where they overflow to inf, the entries are first divided
    by the power of two just above their largest magnitude, so that norm(2^k S) =
    2^k norm(S) holds on both sides of the rescaling.  Every other norm is unscaled.
    """
    g = s.grid.n_points
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(s.values))
    if not 1e-150 <= norm < math.inf and np.any(s.values):
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(s.values))))[1])
        norm = scale * float(np.linalg.norm(s.values / scale))
    return norm / g


def surface_integral(s: Surface) -> float:
    """Integral of the surface over the unit square."""
    g = s.grid.n_points
    return float(np.sum(s.values)) / g**2


def fourier_basis(grid: Grid, count: int) -> np.ndarray:
    """First ``count`` elements of the standard trigonometric basis on [0, 1].

    Returns a ``(count, G)`` array whose row j holds element j+1.  Element 1
    is the constant 1; elements 2k and 2k+1 are sqrt(2)·cos(2·pi·k·t) and
    sqrt(2)·sin(2·pi·k·t).  Exactly orthonormal under the midpoint rule for
    every frequency below G/2; a basis that reaches G/2, where the cosine
    vanishes at every midpoint, is refused.
    """
    if count < 1:
        raise DimensionError(f"basis size must be >= 1, got {count}")
    if 2 * (count // 2) >= grid.n_points:
        raise ConfigError(f"basis of size {count} is under-resolved on a {grid.n_points}-point grid")
    angles = (2.0 * np.pi * np.arange(1, count // 2 + 1))[:, None] * grid.points
    out = np.empty((count, grid.n_points))
    out[0] = 1.0
    out[1::2] = np.sqrt(2.0) * np.cos(angles)
    out[2::2] = np.sqrt(2.0) * np.sin(angles[: (count - 1) // 2])
    return out
