"""Lag-window weight functions and their analytic constants.

Each kernel carries the constants the asymptotic formulas need: the support
radius, the characteristic exponent and coefficient governing the weight's
flatness at zero (sign kept as-is; all the standard windows curve downward),
and the square integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelSpecError

__all__ = ["KernelSpec", "KERNEL_NAMES", "make_kernel", "kernel_value"]

KERNEL_NAMES = ("bartlett", "parzen", "tukey-hanning", "flat-top")


@dataclass(frozen=True)
class KernelSpec:
    """A named lag-window kernel plus the constants used by the asymptotics."""

    name: str
    support_radius: float
    char_exponent: float  # math.inf for flat-top
    char_coefficient: float  # nan when char_exponent is infinite
    square_integral: float
    flat_width: float = math.nan  # flat-top plateau half-width, nan otherwise

    def __call__(self, u):
        return kernel_value(self, u)


def _bartlett(a: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - a)


def _parzen(a: np.ndarray) -> np.ndarray:
    inner = 1.0 - 6.0 * a**2 + 6.0 * a**3
    outer = 2.0 * (1.0 - a) ** 3
    return np.where(a <= 0.5, inner, np.where(a <= 1.0, outer, 0.0))


def _tukey_hanning(a: np.ndarray) -> np.ndarray:
    return np.where(a <= 1.0, 0.5 * (1.0 + np.cos(np.pi * a)), 0.0)


def make_kernel(name: str, flat_width: float = 0.5) -> KernelSpec:
    """Build the kernel registry entry for ``name``.

    ``flat_width`` is only consulted for the flat-top kernel, where it sets
    the half-width of the plateau (strictly between 0 and 1).
    """
    if name == "bartlett":
        return KernelSpec("bartlett", 1.0, 1.0, -1.0, 2.0 / 3.0)
    if name == "parzen":
        return KernelSpec("parzen", 1.0, 2.0, -6.0, 151.0 / 280.0)
    if name == "tukey-hanning":
        return KernelSpec("tukey-hanning", 1.0, 2.0, -np.pi**2 / 4.0, 0.75)
    if name == "flat-top":
        if not (0.0 < flat_width < 1.0):
            raise KernelSpecError(f"flat-top plateau width must lie in (0, 1), got {flat_width}")
        # square integral: plateau contributes 2*rho, the two linear ramps 2*(1-rho)/3
        ksq = 2.0 * flat_width + 2.0 * (1.0 - flat_width) / 3.0
        return KernelSpec("flat-top", 1.0, math.inf, math.nan, ksq, flat_width)
    raise KernelSpecError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")


def kernel_value(spec: KernelSpec, u):
    """Evaluate the kernel at ``u`` (scalar or array); even in u, zero outside support."""
    a = np.abs(np.asarray(u, dtype=float))
    if spec.name == "bartlett":
        out = _bartlett(a)
    elif spec.name == "parzen":
        out = _parzen(a)
    elif spec.name == "tukey-hanning":
        out = _tukey_hanning(a)
    elif spec.name == "flat-top":
        out = np.clip((1.0 - a) / (1.0 - spec.flat_width), 0.0, 1.0)
    else:  # pragma: no cover - constructor rejects unknown names
        raise KernelSpecError(f"unknown kernel {spec.name!r}")
    return float(out) if np.isscalar(u) else out
