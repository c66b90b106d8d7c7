"""Exception types shared across the package.

The only distinction a caller draws is the CLI's two exit codes: exit 1 for
ParseError, SchemaError and MissingSeries, exit 2 for any other DynexecError.
So there are exactly four classes. A failure the library detects raises
DynexecError with a message naming it; a bad argument may still raise
ValueError.
"""


class DynexecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DynexecError):
    """A config or data file failed to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(DynexecError):
    """A config violates the technique schema; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class MissingSeries(DynexecError):
    """A report does not contain the series requested for plot emission."""
