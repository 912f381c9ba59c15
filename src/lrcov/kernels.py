"""Lag-window weight functions and their analytic constants.

Each kernel carries the constants the asymptotic formulas need: the support
radius, the characteristic exponent and coefficient governing the weight's
flatness at zero (sign kept as-is; all the standard windows curve downward),
and the square integral.  ``char_exponent_check`` recomputes the flatness
coefficient numerically so a typo in the stored constants cannot survive the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelSpecError

__all__ = ["KernelSpec", "KERNEL_NAMES", "make_kernel", "kernel_value", "char_exponent_check"]

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


def char_exponent_check(spec: KernelSpec, probes=(1e-2, 1e-3, 1e-4)) -> float:
    """Recompute the flatness coefficient lim (K(x)-1)/x^q numerically.

    Evaluates the ratio at the probe points and extrapolates the geometric
    error away (Aitken); raises if the result disagrees with the stored
    constant by more than 1% relative.
    """
    if math.isinf(spec.char_exponent):
        raise KernelSpecError(f"{spec.name} has no finite characteristic exponent")
    x = np.asarray(sorted(probes, reverse=True), dtype=float)
    if len(x) < 3:
        raise KernelSpecError("need at least three probe points")
    r = (kernel_value(spec, x) - 1.0) / x**spec.char_exponent
    r1, r2, r3 = r[-3], r[-2], r[-1]
    d1, d2 = r2 - r1, r3 - r2
    if abs(d2 - d1) <= 1e-12 * max(abs(r3), 1.0):
        est = float(r3)
    else:
        est = float(r3 - d2 * d2 / (d2 - d1))
    if abs(est - spec.char_coefficient) > 0.01 * abs(spec.char_coefficient):
        raise KernelSpecError(
            f"{spec.name}: numerical flatness coefficient {est:.6g} disagrees with "
            f"stored {spec.char_coefficient:.6g}"
        )
    return est
