"""Shared exception taxonomy for the chain_spectra package."""

from __future__ import annotations


class ChainSpectraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(ChainSpectraError):
    """A parameter set violates the validity constraints of its family."""


class DegreeOutOfRange(ChainSpectraError):
    """A polynomial degree lies outside the finite lattice 0..N."""


class DimensionMismatch(ChainSpectraError):
    """Two objects that must share a dimension do not."""


class NoConvergence(ChainSpectraError):
    """The iterative eigensolver exhausted its sweep budget.

    Attributes:
        row: index of the eigenvalue whose deflation failed.
    """

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"eigenvalue iteration failed to deflate row {row}")


class NotPositiveDefinite(ChainSpectraError):
    """The quadratic form of a chain is not positive definite."""


class ClosedFormUnavailable(ChainSpectraError):
    """A closed-form spectrum was requested for a family that has none."""


class UnsupportedFamily(ChainSpectraError):
    """The requested operation is not defined for this interaction family."""


class BudgetExceeded(ChainSpectraError):
    """A request exceeds one of the package's size budgets, checked before
    any array is built: chain.LEVEL_CAP occupation states, chain.NUMERIC_CAP
    modes for numeric mode frequencies, jacobi.VERIFY_CAP modes for
    verify_family."""


class CombinatorialLimit(BudgetExceeded):
    """A level enumeration would exceed the state-count budget."""


class TooFewLevels(ChainSpectraError):
    """A spacing profile needs at least three levels."""


class DegenerateRange(ChainSpectraError):
    """An affine rescale is impossible because all levels coincide."""
