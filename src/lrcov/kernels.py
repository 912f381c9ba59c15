"""Lag-window weight functions and their analytic constants.

Every kernel is supported on [-1, 1] and carries the constants the
asymptotic formulas need: the characteristic exponent and coefficient
governing the weight's flatness at zero (sign kept as-is; all the standard
windows curve downward), and the square integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["KernelSpec", "KERNEL_NAMES", "make_kernel", "kernel_value"]


@dataclass(frozen=True)
class KernelSpec:
    """A named lag-window kernel plus the constants used by the asymptotics."""

    name: str
    char_exponent: float  # math.inf for flat-top
    char_coefficient: float  # nan when char_exponent is infinite
    square_integral: float
    flat_width: float = math.nan  # flat-top plateau half-width, nan otherwise


def _parzen(a: np.ndarray) -> np.ndarray:
    inner = 1.0 - 6.0 * a**2 + 6.0 * a**3
    outer = 2.0 * (1.0 - a) ** 3
    return np.where(a <= 0.5, inner, np.where(a <= 1.0, outer, 0.0))


# name: (shape of |u|, characteristic exponent, coefficient, square integral); flat-top,
# whose shape and square integral depend on its plateau width, is built in make_kernel
_KERNELS = {
    "bartlett": (lambda a: np.maximum(0.0, 1.0 - a), 1.0, -1.0, 2.0 / 3.0),
    "parzen": (_parzen, 2.0, -6.0, 151.0 / 280.0),
    "tukey-hanning": (
        lambda a: np.where(a <= 1.0, 0.5 * (1.0 + np.cos(np.pi * a)), 0.0),
        2.0, -np.pi**2 / 4.0, 0.75,
    ),
}
KERNEL_NAMES = (*_KERNELS, "flat-top")


def make_kernel(name: str, flat_width: float = 0.5) -> KernelSpec:
    """Build the kernel registry entry for ``name``.

    ``flat_width`` must lie strictly between 0 and 1 for every kernel, and only the
    flat-top kernel uses it, as the half-width of its plateau.
    """
    if name not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")
    if not (0.0 < flat_width < 1.0):
        raise ConfigError(f"flat-top plateau width must lie in (0, 1), got {flat_width}")
    if name in _KERNELS:
        return KernelSpec(name, *_KERNELS[name][1:])
    # square integral: plateau contributes 2*rho, the two linear ramps 2*(1-rho)/3
    ksq = 2.0 * flat_width + 2.0 * (1.0 - flat_width) / 3.0
    return KernelSpec("flat-top", math.inf, math.nan, ksq, flat_width)


def kernel_value(spec: KernelSpec, u):
    """Evaluate the kernel at ``u`` (scalar or array); even in u, zero outside support."""
    a = np.abs(np.asarray(u, dtype=float))
    if spec.name == "flat-top":
        out = np.clip((1.0 - a) / (1.0 - spec.flat_width), 0.0, 1.0)
    else:
        out = _KERNELS[spec.name][0](a)
    return float(out) if np.isscalar(u) else out
