"""Exception taxonomy.

The CLI maps these onto exit codes: input-contract problems (preconditions,
assumption violations, parse errors, domain errors) exit with status 2,
runtime failures (convergence, experiments) with status 1.
"""

from __future__ import annotations


class FastSlowError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FastSlowError, ValueError):
    """Dimension, order or arity mismatch between jet-algebra objects."""


class ConstantTermError(StructuralError):
    """Inner series of a composition has a nonzero constant term."""


class DomainError(FastSlowError):
    """Point lies outside the trust region of a local expansion."""


class PreconditionError(FastSlowError):
    """An operation's stated precondition does not hold for the inputs."""


class AssumptionViolationError(PreconditionError):
    """The factored-map contract is violated: the factor matrix must have
    full column rank at the base point."""


class DegenerateCaseError(PreconditionError):
    """Classification is ambiguous: a quantity falls between the zero band
    and the genericity floor.  Carries the offending values in the message."""


class UnsupportedCaseError(FastSlowError):
    """The inputs are valid but outside the implemented regime (for example
    a non-unipotent linear part where only the unipotent solver exists)."""


class ConvergenceError(FastSlowError):
    """An iterative method failed to reach its tolerance."""


class ExperimentError(FastSlowError):
    """A numerical experiment could not produce a well-defined observable."""


class ParseError(FastSlowError):
    """Malformed input file.  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
