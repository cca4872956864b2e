import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from conftest import http_reply, sent
from mbicl.embeddings import (
    FileBackend,
    HashBackend,
    HttpBackend,
    cosine,
    embed_sentence,
    embed_tokens,
    make_backend,
)
from mbicl.errors import (
    BackendUnavailable,
    DimensionMismatch,
    EmptyEmbedding,
    TokenNotFound,
)


def test_hash_backend_deterministic():
    backend = HashBackend()
    a = embed_tokens(sent("cat cat"), backend)
    assert np.array_equal(a[0], a[1])
    b = embed_tokens(sent("cat cat"), HashBackend())
    assert np.array_equal(a, b)


def test_hash_backend_distinct_tokens():
    backend = HashBackend(dim=8)
    m = embed_tokens(sent("a b"), backend)
    assert not np.allclose(m[0], m[1])


def test_hash_backend_rows_unit_norm():
    m = embed_tokens(sent("one two three ."), HashBackend())
    assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-6)


def test_embed_tokens_row_order():
    backend = HashBackend()
    ab = embed_tokens(sent("a b"), backend)
    ba = embed_tokens(sent("b a"), backend)
    assert np.array_equal(ab[0], ba[1])
    assert np.array_equal(ab[1], ba[0])


def test_embed_sentence_single_token():
    backend = HashBackend()
    vec = embed_sentence(sent("cat"), backend)
    assert np.allclose(vec, embed_tokens(sent("cat"), backend)[0])


def test_embed_sentence_repeated_token():
    backend = HashBackend()
    assert np.allclose(
        embed_sentence(sent("cat cat"), backend), embed_sentence(sent("cat"), backend)
    )


def test_embed_sentence_mean_of_orthogonal():
    class TwoRows:
        def embed_tokens(self, tokens):
            return np.array([[1.0, 0.0], [0.0, 1.0]])

    vec = embed_sentence(sent("a b"), TwoRows())
    assert np.allclose(vec, [np.sqrt(2) / 2, np.sqrt(2) / 2])


def test_cosine_identity_and_orthogonal():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    r = np.sqrt(2) / 2
    assert cosine([1.0, 0.0], [r, r]) == pytest.approx(r)


def test_cosine_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4), rng.normal(size=4)
    assert cosine(a, b) == cosine(b, a)


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_file_backend_token_mode(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(
        json.dumps({"token": "cat", "vector": [1.0, 0.0]})
        + "\n"
        + json.dumps({"token": "dog", "vector": [0.0, 2.0]})
        + "\n"
    )
    backend = FileBackend(p)
    m = embed_tokens(sent("cat dog"), backend)
    assert np.allclose(m, [[1.0, 0.0], [0.0, 1.0]])


def test_file_backend_strict_missing_token(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"token": "cat", "vector": [1.0, 0.0]}) + "\n")
    with pytest.raises(TokenNotFound):
        embed_tokens(sent("cat dog"), FileBackend(p))


def test_backend_row_count_checked():
    with pytest.raises(DimensionMismatch):
        embed_tokens(sent("."), _NoTokens())


def test_zero_vector_rejected(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"token": "cat", "vector": [0.0, 0.0]}) + "\n")
    with pytest.raises(EmptyEmbedding):
        embed_tokens(sent("cat"), FileBackend(p))


class _NoTokens:
    def embed_tokens(self, tokens):
        return np.empty((0, 2))


class _EmbedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        vectors = [[float(len(t)), 1.0] for t in body["tokens"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_backend(embed_server):
    backend = HttpBackend(embed_server)
    m = embed_tokens(sent("cat bird"), backend)
    assert m.shape == (2, 2)
    assert np.allclose(np.linalg.norm(m, axis=1), 1.0)
    # cached second call returns the same matrix object
    assert embed_tokens(sent("cat bird"), backend) is m


def test_http_backend_unavailable():
    backend = HttpBackend("http://127.0.0.1:1")
    with pytest.raises(BackendUnavailable):
        embed_tokens(sent("cat"), backend)


@pytest.mark.parametrize("reply", [
    {"vectors": [["x", 1.0], [1.0, 2.0]]},
    {"vectors": [[1.0, 2.0], [1.0]]},
    {"vectors": [[None, 1.0], [1.0, 2.0]]},
    {"vectors": [1.0, 2.0]},
    {"vectors": []},
    {"vectors": "ab"},
    {"vectors": 5},
    {"vector": [[1.0, 2.0], [1.0, 2.0]]},
    [[1.0, 2.0], [1.0, 2.0]],
], ids=["string", "ragged", "null", "flat", "empty", "text", "number", "no-vectors",
        "bare-list"])
def test_http_backend_malformed_reply_is_unavailable(reply, fake_post):
    fake_post.script.append(http_reply(200, reply))
    with pytest.raises(BackendUnavailable, match="malformed vectors"):
        embed_tokens(sent("cat bird"), HttpBackend("http://h"))


def test_make_backend_dispatch(tmp_path):
    assert isinstance(make_backend("test"), HashBackend)
    p = tmp_path / "e.jsonl"
    p.write_text(json.dumps({"token": "a", "vector": [1.0]}) + "\n")
    assert isinstance(make_backend(f"file:{p}"), FileBackend)
    assert isinstance(make_backend("http://x"), HttpBackend)
    with pytest.raises(ValueError):
        make_backend("nope")
