"""Shared exception taxonomy.

Callers distinguish four failure modes: bad parameters (caught before any
work), inputs that parse but violate a structural precondition, explicit
resource caps, and numerical non-convergence.  CLI exit codes map usage
errors to 2, cap overruns and memory exhaustion to 3, and verification
failures to 1.
"""


class ParameterError(ValueError):
    """A parameter fails validation (non-prime p, out-of-range index, ...)."""


class InputError(ValueError):
    """External input (file, expression) cannot be parsed or is malformed."""


class StructureError(ValueError):
    """Input parses but violates a structural precondition.

    Examples: a claimed subgroup is not closed, an action is not
    color-preserving, a graph expected to be connected is not.
    """


class ResourceLimitError(RuntimeError):
    """An explicit cap was exceeded.

    Carries the partial count reached so callers can report how far the
    computation got before giving up.
    """

    def __init__(self, message: str, partial_count: int | None = None):
        super().__init__(message)
        self.partial_count = partial_count


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge to tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
