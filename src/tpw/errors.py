"""Exception types shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class ShapeError(WorkbenchError):
    """Array dimensions disagree with the declared dimensions."""


class HomInvalid(WorkbenchError):
    """A linear map failed its homomorphism check."""


class NotADerivation(WorkbenchError):
    """A map claimed as a derivation fails the Leibniz identity."""


class CharacterRejected(WorkbenchError):
    """A functional is not a character.

    Carries the violating basis pair (or None when the functional is zero)
    and the multiplicativity residual.
    """

    def __init__(self, message: str, basis_pair=None, residual: float | None = None):
        super().__init__(message)
        self.basis_pair = basis_pair
        self.residual = residual


class ParseError(WorkbenchError):
    """An input file could not be parsed; message carries the position."""


class ValidationError(WorkbenchError):
    """A loaded object failed validation."""
