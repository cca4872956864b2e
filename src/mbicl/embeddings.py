"""Pluggable token-embedding providers.

Three backends share one contract: given a sentence, produce one
unit-normalized vector per token (``embed_tokens``) or a single pooled
unit vector (``embed_sentence``).

* ``HashBackend`` — deterministic pseudo-embeddings derived from a token
  hash; used for tests and offline smoke runs.
* ``FileBackend`` — precomputed static per-token vectors from a JSONL store.
* ``HttpBackend`` — POST /embed per sentence against any embedding server.
"""

import hashlib
import math
import sys

import numpy as np

from .corpus import read_jsonl
from .errors import BackendError, DataError, UsageError
from .llm import post_json

DEFAULT_DIM = 32
TIMEOUT_S = 30  # seconds per embedding request


def _normalize_rows(matrix, labels, kind="token"):
    """Rows at unit length; a row of norm 0 is named by its *kind* and label."""
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise DataError(
            f"the vector of {kind} {labels[zero[0]]!r} cannot be normalized: "
            "its norm is 0 or underflows"
        )
    return matrix / norms


class HashBackend:
    """Deterministic hash-derived pseudo-embeddings.

    Each token maps to a fixed unit vector that is a pure function of
    (token, dim, seed): sha256 output bytes are expanded into floats in
    [-1, 1) and the row is normalized, once per token. Bit-stable across
    runs and platforms.
    """

    def __init__(self, dim=DEFAULT_DIM, seed=0):
        self.dim = dim
        self.seed = seed
        self._rows = {}  # token -> unit row, filled the first time it is seen

    def _token_vector(self, token):
        values = []
        counter = 0
        while len(values) < self.dim:
            digest = hashlib.sha256(
                f"{self.seed}:{counter}:{token}".encode("utf-8")
            ).digest()
            for i in range(0, len(digest) - 1, 2):
                word = digest[i] << 8 | digest[i + 1]
                values.append(word / 32768.0 - 1.0)
            counter += 1
        return values[: self.dim]

    def embed_tokens(self, tokens):
        for token in set(tokens).difference(self._rows):
            self._rows[token] = _normalize_rows([self._token_vector(token)], [token])[0]
        return np.array([self._rows[t] for t in tokens])


def _is_vector(value):
    """A list of finite numbers whose sum of squares is finite too: no
    booleans, NaN, Infinity, or a value or norm that overflows a float."""
    return (
        isinstance(value, list)
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value)
        and math.isfinite(sum(float(v) * float(v) for v in value))
    )


class FileBackend:
    """Embeddings read from a JSONL store of ``{"token": ..., "vector": [...]}``
    lines, normalized at load into one matrix. A duplicate token, a vector
    that cannot be normalized or one of another length than the first is a
    DataError naming its line, a token missing from the store one naming the
    store and the sentence's tokens."""

    def __init__(self, path):
        self.path = path
        self._index = {}  # token -> row of self._table
        dim = None

        def unit_row(obj):
            nonlocal dim
            token, vector = obj["token"], obj["vector"]
            if not isinstance(token, str) or not _is_vector(vector):
                raise TypeError('expected {"token": <string>, '
                                '"vector": [<finite numbers>]}')
            if token in self._index:
                raise DataError(f"duplicate token {token!r}")
            dim = len(vector) if dim is None else dim
            if len(vector) != dim:
                raise DataError(f"a vector of length {len(vector)}, "
                                f"but the first vector has length {dim}")
            self._index[token] = len(self._index)
            return _normalize_rows([vector], [token])[0]

        self._table = np.array(read_jsonl(path, unit_row))

    def embed_tokens(self, tokens):
        try:
            return self._table[[self._index[token] for token in tokens]]
        except KeyError as exc:
            raise DataError(f"{self.path}: no embedding for token {exc.args[0]!r} "
                            f"in sentence {' '.join(tokens)!r}") from exc


class HttpBackend:
    """POST /embed with {"tokens": [...]}, expecting {"vectors": [[...], ...]}."""

    def __init__(self, base_url):
        self.base_url = base_url.rstrip("/")

    def embed_tokens(self, tokens):
        reply = post_json(f"{self.base_url}/embed", {"tokens": list(tokens)}, TIMEOUT_S)
        vectors = reply.get("vectors") if isinstance(reply, dict) else None
        if not (isinstance(vectors, list) and len(vectors) == len(tokens)
                and all(map(_is_vector, vectors))
                and len({len(v) for v in vectors}) == 1):
            raise BackendError("embedding server: malformed vectors")
        return _normalize_rows(vectors, tokens)


def embed_tokens(sentence, backend):
    """One unit row per token of *sentence*, in token order."""
    if not sentence.tokens:
        raise DataError("cannot embed a sentence with no tokens")
    matrix = backend.embed_tokens(sentence.tokens)
    if matrix.shape[0] != len(sentence.tokens):
        raise DataError(
            f"{matrix.shape[0]} rows for {len(sentence.tokens)} tokens"
        )
    return matrix

def embed_sentence(sentence, backend):
    """Mean-pooled, re-normalized sentence vector."""
    matrix = embed_tokens(sentence, backend)
    pooled = matrix.mean(axis=0, keepdims=True)
    return _normalize_rows(pooled, [sentence.raw], "sentence")[0]


def cosine(a, b):
    """Dot product of two unit-normalized vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError(f"{a.shape} vs {b.shape}")
    return float(a @ b)


def make_backend(spec_string):
    """Build a backend from a CLI-style descriptor.

    ``test`` (hash embeddings), ``file:<path>``, or ``http:<base-url>``.
    """
    if spec_string == "test":
        return HashBackend()
    if spec_string.startswith("file:"):
        return FileBackend(spec_string[len("file:") :])
    if spec_string.startswith("http:"):
        url = spec_string[len("http:") :]
        if not url.startswith("//"):
            return HttpBackend(url)
        return HttpBackend("http:" + url)
    raise UsageError(f"unknown embedding backend {spec_string!r}")
