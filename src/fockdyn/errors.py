"""Exception hierarchy shared across the package.

Invalid or refused inputs raise subclasses of InvalidInputError; blown
resource caps raise subclasses of BudgetError.  ConditioningError,
NumericalFailureError and NodeSearchError mark inputs the numerics cannot
handle reliably.  The CLI maps InvalidInputError and these three to exit
code 2, and BudgetError to exit code 3, each with a one-line message.
"""


class InvalidInputError(ValueError):
    """Input fails validation (shape, finiteness, schema, value range)."""


class DimensionMismatchError(InvalidInputError):
    """Operands live in different dimensions."""


class PreconditionError(InvalidInputError):
    """Operation refused because a stated precondition does not hold."""


class NoFixedPointError(InvalidInputError):
    """(I - A) x = b has no solution within tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnsupportedInputError(InvalidInputError):
    """Input is valid but outside the supported scope (e.g. factorization budget)."""


class BudgetError(RuntimeError):
    """A resource cap (basis size, enumeration count, search space) was exceeded."""


class DegreeOverflowError(BudgetError):
    """Monomial norm exceeds floating-point range at the requested degree."""


class ConditioningError(RuntimeError):
    """A linear system involved is too ill-conditioned to trust."""


class NumericalFailureError(RuntimeError):
    """A numerical decomposition failed its residual check; carries the residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NodeSearchError(RuntimeError):
    """Random node sampling failed to reach a nondegenerate configuration."""
