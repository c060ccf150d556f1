"""Exception types shared across the package.

The CLI maps these onto process exit codes; library code raises them
directly so callers can distinguish shape bugs from bad configuration.
"""


class HarecastError(Exception):
    """Base class for all package errors."""


class ShapeError(HarecastError):
    """Array dimensions are inconsistent with the requested operation."""


class ConfigError(HarecastError):
    """A configuration value is invalid or inconsistent."""


class StateError(HarecastError):
    """An operation was invoked without the state it depends on."""


class DegenerateInputError(HarecastError):
    """Input has no usable variability (e.g. zero-variance samples)."""


class DataError(HarecastError):
    """An input file is malformed or internally inconsistent."""


class DivergenceError(HarecastError):
    """Training produced a non-finite loss or gradient."""
