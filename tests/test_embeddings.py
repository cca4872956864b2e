import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from conftest import http_reply, sent
from oracles import naive_embed_sentence, naive_embed_tokens
from mbicl.embeddings import (
    FileBackend,
    HashBackend,
    HttpBackend,
    cosine,
    embed_sentence,
    embed_tokens,
    make_backend,
)
from mbicl.errors import BackendError, DataError


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
    with pytest.raises(DataError, match=re.escape("(2,) vs (3,)")):
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
    message = f"{p}: no embedding for token 'dog' in sentence 'cat dog'"
    with pytest.raises(DataError, match=re.escape(message)):
        embed_tokens(sent("cat dog"), FileBackend(p))


def test_backend_row_count_checked():
    with pytest.raises(DataError, match="0 rows for 1 tokens"):
        embed_tokens(sent("."), _NoTokens())


def test_zero_vector_rejected(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"token": "cat", "vector": [0.0, 0.0]}) + "\n")
    with pytest.raises(DataError, match="token 'cat' cannot be normalized"):
        embed_tokens(sent("cat"), FileBackend(p))


@pytest.mark.parametrize("vector", [[0.0, 0.0], [1e-200, 1e-200]],
                         ids=["zero", "underflow"])
def test_zero_norm_names_the_token(tmp_path, vector):
    p = tmp_path / "emb.jsonl"
    p.write_text("".join(
        json.dumps({"token": token, "vector": v}) + "\n"
        for token, v in (("cat", [1.0, 0.0]), ("tiny", vector))
    ))
    with pytest.raises(DataError, match="token 'tiny' .* norm is 0 or underflows"):
        embed_tokens(sent("cat tiny"), FileBackend(p))


@pytest.mark.parametrize("vector", [[0.0, 0.0], [1e-200, 1e-200]],
                         ids=["zero", "underflow"])
def test_zero_norm_fails_at_load_naming_its_line(tmp_path, vector):
    # 'tiny' fails the store even though no sentence uses it
    p = tmp_path / "emb.jsonl"
    p.write_text(f'{{"token": "cat", "vector": [1.0, 0.0]}}\n\n'
                 f'{{"token": "tiny", "vector": {json.dumps(vector)}}}\n')
    message = (f"{p}:3: the vector of token 'tiny' cannot be normalized: "
               "its norm is 0 or underflows")
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        FileBackend(p)


def test_duplicate_token_names_its_line(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text('{"token": "a", "vector": [1, 0]}\n{"token": "a", "vector": [0, 1]}\n')
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: duplicate token 'a'$"):
        FileBackend(p)


def test_empty_store_names_the_missing_token(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text("\n")
    message = f"{p}: no embedding for token 'cat' in sentence 'cat'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        embed_tokens(sent("cat"), FileBackend(p))


def _generated_sentences(rng, vocab, n):
    return [sent(" ".join(rng.choice(vocab, size=rng.integers(1, 25))))
            for _ in range(n)]


@pytest.mark.parametrize("dim, seed", [(32, 0), (7, 3)])
def test_hash_table_rows_equal_the_per_sentence_path(dim, seed):
    rng = np.random.default_rng(dim)
    vocab = [f"w{i}" for i in range(80)] + [".", ",", "the"]
    backend, raw = HashBackend(dim, seed), HashBackend(dim, seed)
    for sentence in _generated_sentences(rng, vocab, 300):
        expected = naive_embed_tokens(raw._token_vector, sentence.tokens)
        assert np.array_equal(embed_tokens(sentence, backend), expected)
        assert np.array_equal(embed_sentence(sentence, backend),
                              naive_embed_sentence(raw._token_vector, sentence))


def test_file_table_rows_equal_the_per_sentence_path(tmp_path):
    # vectors scaled from 1e-3 to 1e3, so each row's norm differs widely
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(120)] + [".", ","]
    vectors = {t: list(rng.normal(size=16) * 10.0 ** rng.uniform(-3, 3)) for t in vocab}
    p = tmp_path / "emb.jsonl"
    p.write_text("".join(json.dumps({"token": t, "vector": v}) + "\n"
                         for t, v in vectors.items()))
    backend = FileBackend(p)
    for sentence in _generated_sentences(rng, vocab, 300):
        expected = naive_embed_tokens(vectors.__getitem__, sentence.tokens)
        assert np.array_equal(embed_tokens(sentence, backend), expected)
        assert np.array_equal(embed_sentence(sentence, backend),
                              naive_embed_sentence(vectors.__getitem__, sentence))


def test_pooled_zero_vector_names_the_sentence():
    class Opposite:
        def embed_tokens(self, tokens):
            return np.array([[1.0, 0.0], [-1.0, 0.0]])

    with pytest.raises(DataError, match="vector of sentence 'up down'"):
        embed_sentence(sent("up down"), Opposite())


class _NoTokens:
    def embed_tokens(self, tokens):
        return np.empty((0, 2))


class _EmbedHandler(BaseHTTPRequestHandler):
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.requests_seen.append(body["tokens"])
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
    _EmbedHandler.requests_seen.clear()
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
    # nothing is cached: a second call asks the server again, for the same rows
    assert np.array_equal(embed_tokens(sent("cat bird"), backend), m)
    assert _EmbedHandler.requests_seen == [["cat", "bird"], ["cat", "bird"]]


def test_http_backend_unavailable():
    backend = HttpBackend("http://127.0.0.1:1")
    with pytest.raises(BackendError, match="Max retries exceeded with url: /embed"):
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
    b'{"vectors": [[NaN, 1.0], [1.0, 2.0]]}',
    b'{"vectors": [[1.0, 2.0], [Infinity, 2.0]]}',
    {"vectors": [[True, 1.0], [1.0, 2.0]]},
    {"vectors": [[1e308, 1e308], [1.0, 0.0]]},
    {"vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
], ids=["string", "ragged", "null", "flat", "empty", "text", "number", "no-vectors",
        "bare-list", "nan", "infinity", "bool", "norm-overflow", "three-rows"])
def test_http_backend_malformed_reply_is_unavailable(reply, fake_post):
    fake_post.script.append(http_reply(200, reply))
    with pytest.raises(BackendError, match="malformed vectors"):
        embed_tokens(sent("cat bird"), HttpBackend("http://h"))


@pytest.mark.parametrize("vectors, name", [
    ([[1.0, 0.0], [0.0, 0.0]], "token 'bird'"),
])
def test_http_zero_vector_names_its_row(vectors, name, fake_post):
    fake_post.script.append(http_reply(200, {"vectors": vectors}))
    with pytest.raises(DataError, match=f"vector of {name} cannot be normalized"):
        embed_tokens(sent("cat bird"), HttpBackend("http://h"))


def test_make_backend_dispatch(tmp_path):
    assert isinstance(make_backend("test"), HashBackend)
    p = tmp_path / "e.jsonl"
    p.write_text(json.dumps({"token": "a", "vector": [1.0]}) + "\n")
    assert isinstance(make_backend(f"file:{p}"), FileBackend)
    assert isinstance(make_backend("http://x"), HttpBackend)
    with pytest.raises(ValueError):
        make_backend("nope")
