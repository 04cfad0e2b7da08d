"""Exception types shared across the package, and the rules settings obey."""

import math

import numpy as np


class BlackedgeError(Exception):
    """Base class for all blackedge errors."""


class DimensionMismatch(BlackedgeError):
    """Operands refer to graphs, vectors or weights of incompatible size."""


class ZeroVector(BlackedgeError):
    """A direction with zero L2 norm cannot be normalized."""


class BudgetExhausted(BlackedgeError):
    """The query budget was hit; the attack must terminate."""


class NoAdversarialFound(BlackedgeError):
    """Initial search exhausted every phase without a label change."""


class NoBoundary(BlackedgeError):
    """No decision boundary exists along the given direction."""


class DegenerateTarget(BlackedgeError):
    """The objective value cannot be inverted along the new direction."""


class ParseError(BlackedgeError):
    """An input file (a dataset or GIN weights) is missing or malformed, or
    names a node or graph that does not exist; carries the offending line
    number when there is one."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ConfigError(BlackedgeError):
    """An experiment configuration or a generator's parameters are invalid."""


def require_int(name: str, value, least: int) -> None:
    """``ConfigError`` unless ``value`` is an int or numpy integer (no bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


def require_real(name: str, value, low: float, high: float = math.inf, *,
                 include_low: bool = False) -> None:
    """``ConfigError`` unless ``value`` is a Python or numpy real number (no
    bool) in (low, high], or in [low, high] with ``include_low``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    above_low = low <= value if include_low else low < value
    if not (-math.inf < value < math.inf and above_low and value <= high):  # NaN fails each
        ends = ("[" if include_low else "(", "]" if high < math.inf else ")")
        raise ConfigError(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")


def require_one_of(name: str, value, choices: tuple) -> None:
    """``ConfigError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
