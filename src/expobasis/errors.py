"""Named error types.

Every precondition failure raises a distinct class so callers (and the CLI,
which maps them to exit code 1) can tell failures apart without parsing
messages.
"""


class ExpobasisError(Exception):
    """Base class for all library errors."""


class PreconditionError(ExpobasisError, ValueError):
    """An operation was called outside its contract."""


class OverlapError(PreconditionError):
    """Intervals of a union overlap or are out of order."""


class ResidueClashError(PreconditionError):
    """Left endpoints are not distinct modulo the required modulus."""


class EpsilonError(PreconditionError):
    """A perturbation is missing, irrational in form, or >= 1/2 in size."""


class DeltaWindowError(PreconditionError):
    """A spectral shift delta lies outside its admissible window."""


class SeparationError(PreconditionError):
    """A pair of endpoints violates the wrap-around separation condition."""


class ThresholdError(PreconditionError):
    """An integer shift u does not exceed its admissibility threshold."""


class ClusterSizeError(PreconditionError):
    """A cluster is too large for the closed-form two-column spectrum."""


class LatticeError(PreconditionError):
    """Frequencies do not lie in the required lattice (1/Delta) * Z."""


class ComplementRangeError(PreconditionError):
    """Complement construction needs B < Delta (and a nonempty remainder)."""


class JsonInputError(ExpobasisError):
    """Malformed JSON input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class RankDeficientError(ExpobasisError):
    """A cluster block is numerically rank deficient."""


class VerificationError(ExpobasisError):
    """A certificate failed an oracle or sampling check."""
