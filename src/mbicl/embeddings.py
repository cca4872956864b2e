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


def _hash_rows(tokens):
    """HashBackend's unit rows of *tokens*: per token the 32 big-endian
    16-bit words of sha256("0:0:<token>") then of sha256("0:1:<token>"),
    each word w as w / 32768 - 1 in [-1, 1), normalized."""
    digests = b"".join(hashlib.sha256(f"0:{c}:{t}".encode("utf-8")).digest()
                       for t in tokens for c in (0, 1))
    words = np.frombuffer(digests, ">u2").reshape(-1, 32)
    return _normalize_rows(words / 32768.0 - 1.0, tokens)


class HashBackend:
    """Deterministic hash-derived pseudo-embeddings: each token maps to a
    fixed unit row that is a pure function of the token (_hash_rows),
    computed the first time the token is seen. Bit-stable across runs and
    platforms."""

    def __init__(self):
        self._rows = {}  # token -> unit row

    def embed_tokens(self, tokens):
        new = list(set(tokens).difference(self._rows))
        if new:
            self._rows.update(zip(new, _hash_rows(new)))
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
