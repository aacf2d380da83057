"""Exception taxonomy shared across the package, and the text-file reader
that turns undecodable input into one of these errors."""


class CatAggError(Exception):
    """Base class for all package errors."""


class DimensionError(CatAggError, ValueError):
    """Tensor shapes or extents are incompatible with the operation."""


class ArgumentError(CatAggError, ValueError):
    """A value-level argument is invalid (empty list, out-of-range point, ...)."""


class ConfigError(CatAggError, ValueError):
    """A configuration is internally inconsistent or unsupported."""


class StateError(CatAggError, RuntimeError):
    """An operation was called in the wrong mode or lifecycle state."""


class NumericError(CatAggError, ArithmeticError):
    """A forward pass produced non-finite values."""


class CheckpointError(CatAggError, RuntimeError):
    """A checkpoint or tensor file could not be read or does not match."""


class UsageError(CatAggError, ValueError):
    """Bad command-line usage; mapped to exit code 2 by the CLI."""


def read_lines(path, error: type[CatAggError]) -> list[str]:
    """Lines of a UTF-8 text file; bytes that do not decode raise `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as e:
        raise error(f"{path} is not UTF-8 text (byte {e.start})") from None
