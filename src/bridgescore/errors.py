"""Exception types shared across the package.

Two families matter to callers: ValidationError for rejected inputs
(bad shapes, infeasible requests, malformed files) and NumericalError
for failures discovered during computation (lost positive-definiteness,
degenerate estimates). The CLI maps them to exit codes 1 and 2.
"""


class BridgeModelError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BridgeModelError):
    """Input violates a documented precondition or file-format invariant."""


class NumericalError(BridgeModelError):
    """Computation failed numerically on otherwise well-formed input."""


class DimensionMismatchError(ValidationError):
    """Operands carry incompatible dimensions."""


class DegenerateInputError(ValidationError):
    """Input has no usable variation (e.g. all values tied)."""


class InsufficientDataError(ValidationError):
    """Too little pooled data to estimate the requested quantity."""


class EmptySetError(ValidationError):
    """An evaluation set is empty."""


class NotPositiveDefiniteError(NumericalError):
    """Matrix is not positive-definite (a Cholesky pivot was <= 0)."""


class SingularEstimateError(NumericalError):
    """An estimated covariance matrix is singular."""
