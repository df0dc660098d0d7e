"""Exception types shared across the library, and the one integer check
that API preconditions share."""

import numbers


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """A caller violated an API precondition."""


class ConfigurationError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class UnknownTaskError(KeyError):
    """Task ID was never registered with the model."""


class CapacityError(ValueError):
    """More tasks requested than the model was sized for at construction."""


class MemoryConsistencyError(RuntimeError):
    """A stored logit snapshot no longer matches the live model's output shape."""


class FormatError(ValueError):
    """A file read back from disk (dataset, checkpoint, record) is malformed."""


def check_integer(value, what):
    """``value`` if it is an integer (``numbers.Integral``, so numpy's pass)
    and no bool, else ContractError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{what} {value!r} is {type(value).__name__}, "
                            f"not an integer")
    return value


class MetricUndefinedError(ValueError):
    """The requested metric is undefined for the given matrix size."""


class NoDataError(FileNotFoundError):
    """A results directory contains no records."""
