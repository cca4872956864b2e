"""Exception hierarchy shared across the package.

Every error is built from its message alone. Its family sets the CLI exit
code and the label that prefixes the message on stderr.
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


# -- corpus --------------------------------------------------------------

class MissingFile(DataError):
    pass


class LineCountMismatch(DataError):
    pass


class EmptyLine(DataError):
    pass


class ParseError(DataError):
    pass


class DuplicateId(DataError):
    pass


class EmptyReferences(DataError):
    pass


class EmptySentence(DataError):
    pass


# -- metrics -------------------------------------------------------------

class NoReferences(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyCorpus(DataError):
    pass


class EmptyEmbedding(DataError):
    pass


class DimensionMismatch(DataError):
    pass


# -- selection -----------------------------------------------------------

class SariNeedsMultipleReferences(DataError):
    pass


class EmbeddingBackendMissing(UsageError):
    pass


# -- embeddings ----------------------------------------------------------

class TokenNotFound(DataError):
    pass


# -- prompting -----------------------------------------------------------

class TemplateSlotMissing(DataError):
    pass


class EmptyCompletion(DataError):
    pass


# -- llm -----------------------------------------------------------------

class BackendUnavailable(BackendError):
    pass


class AuthError(BackendError):
    pass


class RateLimited(BackendError):
    pass
