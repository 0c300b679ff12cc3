"""Exception types shared across the package.

Each failure mode gets its own class so callers (and the CLI) can map
problems to distinct exit paths instead of parsing messages.
"""

from __future__ import annotations


class BookVolError(Exception):
    """Base class for all package-specific errors."""


class OrderError(BookVolError):
    """Invalid order submission (bad quantity, bad price, duplicate id)."""


class UnknownOrderError(BookVolError):
    """Cancel or modify referenced an order id that is not resting."""


class GridError(BookVolError):
    """Argument outside the relative price grid, or malformed grid config."""


class ConfigError(BookVolError):
    """Model parameter set failed validation or could not be parsed."""


class BoundaryBreachError(BookVolError):
    """Net-demand curve lost its interior zero crossing.

    ``side`` records which failure occurred: ``"bottom"`` means the curve is
    non-positive already at the lowest grid price, ``"top"`` means it is
    non-negative at the highest.
    """

    def __init__(self, side: str, message: str = ""):
        self.side = side
        super().__init__(message or f"net demand curve breached the {side} of the grid")


class UndefinedInverseError(BookVolError):
    """Inverse demand requested outside the curve's range."""


class SingularSystemError(BookVolError):
    """Market-price-of-risk system has no unique solution."""


class ParseError(BookVolError):
    """Malformed message-log line in strict mode."""


class FitError(BookVolError):
    """Calibration failure (unstable AR fit, degenerate panel, ...)."""


class SimulationError(BookVolError):
    """Monte Carlo run could not produce usable paths."""
