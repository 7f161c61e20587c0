"""Exception hierarchy shared by all modules.

Grouped so the CLI can map failures to exit codes: usage problems,
bad input data, and numerical breakdowns are distinguishable.
"""


class SphereletsError(Exception):
    """Base class for all library errors."""


class ParameterError(SphereletsError, ValueError):
    """An argument is out of its documented range (k, sigma, eps, ...)."""


class DimensionError(SphereletsError, ValueError):
    """Array shapes are inconsistent with each other or with the model."""


class InsufficientDataError(SphereletsError, ValueError):
    """Too few samples to determine the requested fit."""


class SingularProjectionError(SphereletsError, ArithmeticError):
    """The point projects onto the sphere center; nearest point undefined.
    ``row`` is that point's index in the projected array, when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NonFiniteError(SphereletsError, ArithmeticError):
    """An output holds a NaN or an infinity; the message names where."""


class DivergenceError(SphereletsError, ArithmeticError):
    """Iterative optimization failed to recover after repeated step halving."""


class ParseError(SphereletsError, ValueError):
    """A file could not be parsed; message carries row/field context."""


class VersionError(ParseError):
    """A model file declares an unsupported format version."""
