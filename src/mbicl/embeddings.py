"""Pluggable token-embedding providers.

Three backends share one contract: given a sentence, produce one
unit-normalized vector per token (``embed_tokens``) or a single pooled
unit vector (``embed_sentence``).

* ``HashBackend`` — deterministic pseudo-embeddings derived from a token
  hash; used for tests and offline smoke runs.
* ``FileBackend`` — precomputed static per-token vectors from a JSONL store.
* ``HttpBackend`` — POST /embed against any embedding server.
"""

import hashlib
import threading

import numpy as np

from .corpus import read_jsonl
from .errors import (
    BackendUnavailable,
    DimensionMismatch,
    EmptyEmbedding,
    TokenNotFound,
    UsageError,
)
from .llm import post_json

DEFAULT_DIM = 32
TIMEOUT_S = 30  # seconds per embedding request


def _normalize_rows(matrix):
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise EmptyEmbedding("zero vector cannot be normalized")
    return matrix / norms


class HashBackend:
    """Deterministic hash-derived pseudo-embeddings.

    Each token maps to a fixed unit vector that is a pure function of
    (token, dim, seed): sha256 output bytes are expanded into floats in
    [-1, 1) and the row is normalized. Bit-stable across runs and
    platforms.
    """

    def __init__(self, dim=DEFAULT_DIM, seed=0):
        self.dim = dim
        self.seed = seed

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
        return _normalize_rows([self._token_vector(t) for t in tokens])


def _is_vector(value):
    return isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)


def _token_vector_from_json(obj):
    token, vector = obj["token"], obj["vector"]
    if not isinstance(token, str) or not _is_vector(vector):
        raise TypeError('expected {"token": <string>, "vector": [<numbers>]}')
    return token, vector


class FileBackend:
    """Embeddings read from a JSONL store of ``{"token": ..., "vector": [...]}``
    lines. A token missing from the store raises TokenNotFound.
    """

    def __init__(self, path):
        self._by_token = dict(read_jsonl(path, _token_vector_from_json))
        dims = {len(vec) for vec in self._by_token.values()}
        if len(dims) > 1:
            raise DimensionMismatch(f"{path}: vectors of lengths {sorted(dims)}")

    def embed_tokens(self, tokens):
        try:
            rows = [self._by_token[token] for token in tokens]
        except KeyError as exc:
            raise TokenNotFound(exc.args[0]) from exc
        return _normalize_rows(rows)


class HttpBackend:
    """POST /embed with {"tokens": [...]}, expecting {"vectors": [[...], ...]}.

    Results are cached per token tuple; the cache is guarded for concurrent
    access.
    """

    def __init__(self, base_url):
        self.base_url = base_url.rstrip("/")
        self._cache = {}
        self._lock = threading.Lock()

    def embed_tokens(self, tokens):
        key = tuple(tokens)
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        reply = post_json(f"{self.base_url}/embed", {"tokens": list(tokens)}, TIMEOUT_S)
        vectors = reply.get("vectors") if isinstance(reply, dict) else None
        if not (isinstance(vectors, list) and all(map(_is_vector, vectors))
                and len({len(v) for v in vectors}) == 1):
            raise BackendUnavailable("embedding server: malformed vectors")
        matrix = _normalize_rows(vectors)
        with self._lock:
            self._cache[key] = matrix
        return matrix


def embed_tokens(sentence, backend):
    """One unit row per token of *sentence*, in token order."""
    if not sentence.tokens:
        raise EmptyEmbedding("cannot embed a sentence with no tokens")
    matrix = backend.embed_tokens(sentence.tokens)
    if matrix.shape[0] != len(sentence.tokens):
        raise DimensionMismatch(
            f"{matrix.shape[0]} rows for {len(sentence.tokens)} tokens"
        )
    return matrix

def embed_sentence(sentence, backend):
    """Mean-pooled, re-normalized sentence vector."""
    matrix = embed_tokens(sentence, backend)
    return _normalize_rows(matrix.mean(axis=0, keepdims=True))[0]


def cosine(a, b):
    """Dot product of two unit-normalized vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
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
