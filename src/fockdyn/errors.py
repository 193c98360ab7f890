"""Exceptions shared across the package, one class per exit status of the CLI.

fockdyn.cli.main prints each as one line on stderr and exits with its code:
InvalidInputError "invalid input" and NumericalFailureError "unsupported
input" with 2, BudgetError "budget exceeded" with 3.
"""


class InvalidInputError(ValueError):
    """Input fails validation (shape, dimension, schema, value range), a stated
    precondition does not hold, or it is outside the supported scope."""


class NoFixedPointError(InvalidInputError):
    """(I - A) x = b has no solution within tolerance."""


class NumericalFailureError(RuntimeError):
    """The numerics cannot handle the input reliably: a failed residual check,
    an ill-conditioned system, or a node search that found no usable nodes."""


class BudgetError(RuntimeError):
    """A resource cap (basis size, operations, bytes, float range) was exceeded."""
