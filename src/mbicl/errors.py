"""Exception hierarchy shared across the package.

Three families, matching the CLI exit codes: UsageError (1), DataError (2),
BackendError (3).
"""


class MbiclError(Exception):
    """Base class for all package errors."""


class UsageError(MbiclError, ValueError):
    """A bad argument value, from a flag or a library call."""


class DataError(MbiclError):
    """Malformed or inconsistent input data."""


class BackendError(MbiclError):
    """A configured backend (embedding or completion) failed."""


# -- corpus --------------------------------------------------------------

class MissingFile(DataError):
    pass


class LineCountMismatch(DataError):
    def __init__(self, file, expected, got):
        super().__init__(f"{file}: expected {expected} lines, got {got}")
        self.file = file
        self.expected = expected
        self.got = got


class EmptyLine(DataError):
    def __init__(self, file, lineno):
        super().__init__(f"{file}:{lineno}: empty line")
        self.file = file
        self.lineno = lineno


class ParseError(DataError):
    def __init__(self, file, lineno, detail):
        super().__init__(f"{file}:{lineno}: {detail}")
        self.file = file
        self.lineno = lineno


class DuplicateId(DataError):
    def __init__(self, id):
        super().__init__(f"duplicate instance id {id!r}")
        self.id = id


class EmptyReferences(DataError):
    def __init__(self, id):
        super().__init__(f"instance {id!r} has no references")
        self.id = id


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
    def __init__(self, token):
        super().__init__(f"no embedding for token {token!r}")
        self.token = token


# -- prompting -----------------------------------------------------------

class TemplateSlotMissing(DataError):
    def __init__(self, slot):
        super().__init__(f"template is missing slot {slot}")
        self.slot = slot


class EmptyCompletion(DataError):
    pass


# -- llm -----------------------------------------------------------------

class BackendUnavailable(BackendError):
    pass


class AuthError(BackendError):
    pass


class RateLimited(BackendError):
    pass
