"""Discretization of [0, 1] and the function-space primitives built on it.

Curves and surfaces live on a regular midpoint grid; every integral in the
package is the midpoint rule with weight 1/G per point, so L2 inner products,
norms and operator applications all reduce to dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "Grid",
    "Curve",
    "Surface",
    "inner_product",
    "l2_norm_curve",
    "l2_norm_surface",
    "curve_integral",
    "surface_integral",
    "apply_operator",
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

    @property
    def weight(self) -> float:
        """Quadrature weight of a single cell."""
        return 1.0 / self.n_points


def _as_values(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise DimensionError(f"{what} expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Curve:
    """A real function sampled at the grid midpoints."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.values, (self.grid.n_points,), "curve"))


@dataclass(frozen=True, eq=False)
class Surface:
    """A real function of two arguments sampled at all midpoint pairs."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid.n_points
        object.__setattr__(self, "values", _as_values(self.values, (g, g), "surface"))

    def is_symmetric(self, rel_tol: float = 1e-10) -> bool:
        v = self.values
        scale = max(float(np.max(np.abs(v))), 1e-300)
        return float(np.max(np.abs(v - v.T))) <= rel_tol * scale

    def transpose(self) -> "Surface":
        return Surface(self.grid, self.values.T.copy())


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a.n_points != b.n_points:
        raise DimensionError(f"grids differ: {a.n_points} vs {b.n_points} points")


def inner_product(f: Curve, g: Curve) -> float:
    """Midpoint-rule L2 inner product of two curves."""
    _require_same_grid(f.grid, g.grid)
    return float(f.values @ g.values) / f.grid.n_points


def l2_norm_curve(f: Curve) -> float:
    return float(np.sqrt(f.values @ f.values / f.grid.n_points))


def l2_norm_surface(s: Surface) -> float:
    """L2 norm of a surface; the constant-1 surface has norm 1."""
    g = s.grid.n_points
    return float(np.linalg.norm(s.values)) / g


def curve_integral(f: Curve) -> float:
    return float(np.sum(f.values)) / f.grid.n_points


def surface_integral(s: Surface) -> float:
    """Integral of the surface over the unit square."""
    g = s.grid.n_points
    return float(np.sum(s.values)) / g**2


def apply_operator(s: Surface, f: Curve) -> Curve:
    """Apply the integral operator with kernel ``s`` to the curve ``f``.

    Returns the curve t -> integral of s(t, u) f(u) du under the midpoint rule.
    """
    _require_same_grid(s.grid, f.grid)
    return Curve(s.grid, s.values @ f.values / s.grid.n_points)


def fourier_basis(grid: Grid, count: int) -> list[Curve]:
    """First ``count`` elements of the standard trigonometric basis on [0, 1].

    Element 1 is the constant 1; elements 2k and 2k+1 are sqrt(2)·cos(2·pi·k·t)
    and sqrt(2)·sin(2·pi·k·t).  Exactly orthonormal under the midpoint rule as
    long as the frequencies stay well below the grid resolution.
    """
    if count < 1:
        raise DimensionError(f"basis size must be >= 1, got {count}")
    if count > grid.n_points:
        raise DimensionError(
            f"basis of size {count} is under-resolved on a {grid.n_points}-point grid"
        )
    t = grid.points
    out = [Curve(grid, np.ones_like(t))]
    k = 1
    while len(out) < count:
        out.append(Curve(grid, np.sqrt(2.0) * np.cos(2.0 * np.pi * k * t)))
        if len(out) < count:
            out.append(Curve(grid, np.sqrt(2.0) * np.sin(2.0 * np.pi * k * t)))
        k += 1
    return out
