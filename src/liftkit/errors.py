"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration, file header, or command-line input."""


class NumericalError(RuntimeError):
    """Base class for numerical failures (exit code 3 in the CLI)."""


class MetricSolveError(NumericalError):
    """A metric inverse was asked of a non-finite vector."""


class EngineError(NumericalError):
    """A partial-SVD engine failed to converge.

    Carries the best partial result so callers can inspect or log it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoSolutionError(NumericalError):
    """A factorization has no usable leading component."""
