"""Exception types shared across the toolkit.

Each class carries the exit code the CLI returns for it: 2 for bad
input (TempokitError and any subclass without its own code), 3 for
DurationError and 4 for NumericError. tempokit.cli.main prints one
"error:" line for any of them and returns exit_code; it returns 2 for
any OSError too. Library code should raise the most specific class
that applies.
"""


class TempokitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class FormatError(TempokitError):
    """A file does not conform to its declared binary layout."""


class ValidationError(TempokitError):
    """Input data violates a documented invariant (NaN payloads, ragged
    token lists, out-of-domain arguments)."""


class ShapeError(TempokitError):
    """Operands have inconsistent dimensions."""


class NumericError(TempokitError):
    """A computation produced a non-finite value."""

    exit_code = 4


class DurationError(TempokitError):
    """Audio and video lengths disagree beyond the truncation policy."""

    exit_code = 3
