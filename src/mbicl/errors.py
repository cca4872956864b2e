"""Exception hierarchy shared across the package.

The package raises only the three families below. Each error is built from
a message that names the fault (and, for input files, the ``file:line``).
Its family sets the CLI exit code and the label that prefixes the message
on stderr; library callers catch a family, or ``MbiclError`` for any.
"""


class MbiclError(Exception):
    """Base class for all package errors."""


class UsageError(MbiclError, ValueError):
    """A bad argument value, from a flag or a library call."""

    exit_code = 1
    label = "error"


class DataError(MbiclError):
    """Malformed or inconsistent input data."""

    exit_code = 2
    label = "data error"


class BackendError(MbiclError):
    """A configured backend (embedding or completion) failed."""

    exit_code = 3
    label = "backend error"
