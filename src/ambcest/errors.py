"""Exception types shared across the package."""


class AmbcestError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(AmbcestError, ValueError):
    """An argument or configuration value is out of its allowed range."""


class ShapeError(AmbcestError, ValueError):
    """Array dimensions do not match what an operation requires."""


class NumericError(AmbcestError, ArithmeticError):
    """A numeric failure: non-PD matrix, NaN/Inf in a computation, etc."""


class StateError(AmbcestError, RuntimeError):
    """An object was used in the wrong mode or before required setup."""


class FormatError(AmbcestError, ValueError):
    """A binary file (checkpoint, dataset) is malformed or unsupported."""


class ConfigError(AmbcestError, ValueError):
    """A config file could not be parsed; carries key/line context."""

    def __init__(self, message, *, key=None, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.key = key
        self.line = line


class MetricError(AmbcestError, ValueError):
    """A metric is undefined for the given inputs (e.g. all-zero truth)."""


class ArtifactError(AmbcestError, FileNotFoundError):
    """A required artifact (checkpoint, dataset) is missing or unfit; names its path."""
