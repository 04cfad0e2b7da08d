"""Exception types shared across the package."""


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
