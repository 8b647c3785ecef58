"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`PALError` so the CLI can
separate expected failures (exit code 1 with a one-line diagnostic) from bugs.
"""


class PALError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PALError, ValueError):
    """Operand shapes do not conform for an operation."""


class DomainError(PALError, ValueError):
    """Input is outside the mathematical domain of an operation."""


class ParameterError(PALError, ValueError):
    """A configuration value or argument is invalid."""


class ContractError(PALError, RuntimeError):
    """A documented call contract was violated (wrong state, not wrong value)."""


class CapacityError(PALError, ValueError):
    """A sampling request exceeds what the data can provide."""


class FormatError(PALError, ValueError):
    """A file does not conform to its binary or text format."""


class FeasibilityError(PALError, RuntimeError):
    """A randomized construction failed within its attempt budget."""


class DivergenceError(PALError, FloatingPointError):
    """Training produced a non-finite loss; the stage writes no file."""
