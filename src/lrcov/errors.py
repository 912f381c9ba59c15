"""Exception taxonomy shared across the package.

The CLI maps each class onto one process exit code.  Library code raises
them where a condition is checked, so programmatic callers and the CLI see
the same failure mode: a bad setting is a ConfigError where it is found
(``make_kernel``, ``fourier_basis`` and so ``truth`` for a basis the grid
does not resolve, the config readers).  The one translation left is
``mc-verify``'s: ``bias_rate_check`` refuses its arguments with
ContractViolationError, which the command reports as a bad ``bias_check``.
"""

import math

__all__ = [
    "LrcovError", "DataFormatError", "ConfigError", "DimensionError",
    "ContractViolationError", "SeparationError",
]


class LrcovError(Exception):
    """Base class for all package errors."""


class DataFormatError(LrcovError):
    """Input data could not be parsed (bad CSV cell, ragged rows, non-finite values)."""


class ConfigError(LrcovError):
    """Invalid or unknown configuration (bad flag value, unknown config key, bad spec)."""


class DimensionError(LrcovError, ValueError):
    """Objects defined on incompatible grids, or shapes that cannot be reconciled."""


class ContractViolationError(LrcovError):
    """A numeric precondition failed (asymmetric surface, degenerate data, h <= 0),
    or the flat-top kernel met a power-law bias formula it has no constants for."""


class SeparationError(LrcovError):
    """Eigenvalue separation too small for the requested spectral inference."""


def config_number(value, what: str, integer: bool = False, low: float = -math.inf):
    """A finite number from a config, an int if ``integer``, at least ``low``; else ConfigError."""
    finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not finite or (integer and value != int(value)) or value < low:
        bound = "" if low == -math.inf else f" >= {low}"
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{what} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def config_numbers(values, what: str, integer: bool = False) -> tuple:
    """A list of numbers read from a config, each checked by ``config_number``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(config_number(v, what, integer) for v in values)


def config_flag(value, what: str) -> bool:
    """A JSON boolean from a config; anything else, "false" and 0 included, is a ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def config_object(raw, what: str, required=(), optional=()) -> dict:
    """An object from a config with every ``required`` key and no key beyond ``optional``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object, got {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{what} requires {missing}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return raw
