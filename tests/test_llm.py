import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import requests

from conftest import CountingBackend, http_reply, make_corpus, sent
import mbicl
from mbicl import embeddings
from mbicl import (
    CompletionClient,
    GenerationParams,
    PromptTemplate,
    ResponseCache,
    build_prompt,
)
from mbicl.errors import AuthError, BackendUnavailable, DataError, RateLimited
from mbicl.llm import (
    HttpBackend,
    MockEchoBackend,
    MockFirstReferenceBackend,
    request_digest,
)

PARAMS = GenerationParams()


def prompt_for(query):
    return build_prompt(PromptTemplate(), None, sent(query))


def test_default_params_match_required_values():
    assert PARAMS.temperature == 0.7
    assert PARAMS.max_tokens == 256
    assert PARAMS.top_p == 1.0
    assert PARAMS.frequency_penalty == 0.0
    assert PARAMS.presence_penalty == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0.0)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


def test_mock_echo():
    client = CompletionClient(MockEchoBackend())
    record = client.complete(prompt_for("A big cat."), PARAMS)
    assert record.completion_text == "A big cat."
    assert record.backend == "mock-echo"


def test_mock_first_reference(toy_corpus):
    backend = MockFirstReferenceBackend.for_corpus(toy_corpus)
    client = CompletionClient(backend)
    record = client.complete(
        prompt_for(toy_corpus.instances[0].source.raw), PARAMS
    )
    assert record.completion_text == toy_corpus.instances[0].references[0].raw


def test_mock_first_reference_rejects_a_source_with_two_first_references():
    same = make_corpus([
        ("0", "Same source.", ["A.", "C."]),
        ("1", "Same source.", ["A.", "D."]),
    ])
    assert MockFirstReferenceBackend.for_corpus(same).reference_lookup == {
        "Same source.": "A."
    }
    clash = make_corpus([
        ("0", "Same source.", ["A."]),
        ("1", "Same source.", ["B."]),
    ])
    with pytest.raises(DataError, match="instance 1 repeats a source"):
        MockFirstReferenceBackend.for_corpus(clash)


def test_cache_hit_skips_backend(tmp_path):
    backend = CountingBackend(MockEchoBackend())
    client = CompletionClient(backend, ResponseCache(tmp_path / "cache.jsonl"))
    client.complete(prompt_for("A big cat."), PARAMS)
    client.complete(prompt_for("A big cat."), PARAMS)
    assert backend.calls == 1


def test_cache_persists_across_clients(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = CompletionClient(MockEchoBackend(), ResponseCache(path))
    record = first.complete(prompt_for("A big cat."), PARAMS)

    backend = CountingBackend(MockEchoBackend())
    second = CompletionClient(backend, ResponseCache(path))
    replay = second.complete(prompt_for("A big cat."), PARAMS)
    assert backend.calls == 0
    assert replay.completion_text == record.completion_text
    assert replay.digest == record.digest


def test_cache_invocations_equal_distinct_digests(tmp_path):
    backend = CountingBackend(MockEchoBackend())
    client = CompletionClient(backend, ResponseCache(tmp_path / "c.jsonl"))
    queries = ["One cat.", "Two cats.", "One cat.", "Three cats.", "Two cats."]
    for q in queries:
        client.complete(prompt_for(q), PARAMS)
    assert backend.calls == 3


def test_digest_covers_params():
    a = request_digest("text", GenerationParams())
    b = request_digest("text", GenerationParams(temperature=0.0))
    c = request_digest("other", GenerationParams())
    assert len({a, b, c}) == 3


def test_record_digest_recomputes(tmp_path):
    client = CompletionClient(MockEchoBackend(), ResponseCache(tmp_path / "c.jsonl"))
    record = client.complete(prompt_for("A cat."), PARAMS)
    assert record.digest == request_digest(record.prompt_text, record.params)


def test_cache_quarantines_damaged_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    client = CompletionClient(MockEchoBackend(), ResponseCache(path))
    client.complete(prompt_for("A cat."), PARAMS)
    client.complete(prompt_for("A dog."), PARAMS)
    # simulate a crash mid-append
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"digest": "truncat')

    backend = CountingBackend(MockEchoBackend())
    reopened = CompletionClient(backend, ResponseCache(path))
    assert len(reopened.cache) == 2
    assert (tmp_path / "cache.jsonl.quarantine").exists()
    reopened.complete(prompt_for("A cat."), PARAMS)
    assert backend.calls == 0
    # cache file itself is clean again
    ResponseCache(path)
    assert not path.read_text().endswith("truncat")

    # a damaged line in the middle loses only itself, not the lines after it
    middle = tmp_path / "middle.jsonl"
    client = CompletionClient(MockEchoBackend(), ResponseCache(middle))
    for i in range(10):
        client.complete(prompt_for(f"Sentence {i}."), PARAMS)
    lines = middle.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:40] + "\n"
    middle.write_text("".join(lines))

    backend = CountingBackend(MockEchoBackend())
    reopened = CompletionClient(backend, ResponseCache(middle))
    assert len(reopened.cache) == 9
    assert (tmp_path / "middle.jsonl.quarantine").read_text() == lines[1]
    assert middle.read_text() == "".join(lines[:1] + lines[2:])
    for i in (0, 2, 9):
        reopened.complete(prompt_for(f"Sentence {i}."), PARAMS)
    assert backend.calls == 0


def test_cache_record_without_newline_keeps_the_next(tmp_path):
    path = tmp_path / "cache.jsonl"
    client = CompletionClient(MockEchoBackend(), ResponseCache(path))
    for q in ("One cat.", "Two cats.", "Three cats."):
        client.complete(prompt_for(q), PARAMS)
    path.write_text(path.read_text().rstrip("\n"))

    client = CompletionClient(MockEchoBackend(), ResponseCache(path))
    client.complete(prompt_for("Four cats."), PARAMS)
    assert len(ResponseCache(path)) == 4
    assert not (tmp_path / "cache.jsonl.quarantine").exists()


def test_cache_keeps_records_holding_unicode_line_breaks(tmp_path):
    path = tmp_path / "cache.jsonl"
    client = CompletionClient(MockEchoBackend(), ResponseCache(path))
    client.complete(prompt_for("A cat\u2028sat\x85down."), PARAMS)

    backend = CountingBackend(MockEchoBackend())
    reopened = CompletionClient(backend, ResponseCache(path))
    assert len(reopened.cache) == 1
    reopened.complete(prompt_for("A cat\u2028sat\x85down."), PARAMS)
    assert backend.calls == 0
    assert not (tmp_path / "cache.jsonl.quarantine").exists()


# Each process puts 25 records whose prompts are over 8 KiB, larger than one
# buffered-file flush, into one shared cache.
PUT_RECORDS = """
import sys
from mbicl import GenerationParams, ResponseCache
from mbicl.llm import GenerationRecord, request_digest

cache = ResponseCache(sys.argv[1])
params = GenerationParams()
for i in range(25):
    prompt = f"{sys.argv[2]}-{i} " + "x" * 9000
    cache.put(GenerationRecord(
        digest=request_digest(prompt, params), prompt_text=prompt,
        completion_text="x", model_id=params.model_id, params=params,
        backend="mock-echo",
    ))
"""


def test_cache_appends_from_processes_do_not_interleave(tmp_path):
    path = tmp_path / "cache.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(mbicl.__file__).parents[1])}
    workers = [
        subprocess.Popen([sys.executable, "-c", PUT_RECORDS, path, str(n)], env=env)
        for n in range(4)
    ]
    assert [w.wait(timeout=60) for w in workers] == [0] * 4
    assert len(ResponseCache(path)) == 100
    assert not (tmp_path / "cache.jsonl.quarantine").exists()


def test_batch_complete_order_and_isolation(toy_corpus):
    backend = MockFirstReferenceBackend.for_corpus(toy_corpus)
    client = CompletionClient(backend)
    prompts = [
        prompt_for(toy_corpus.instances[0].source.raw),
        prompt_for("Unknown sentence entirely."),
        prompt_for(toy_corpus.instances[2].source.raw),
    ]
    results = client.batch_complete(prompts, PARAMS, max_in_flight=2)
    assert results[0].completion_text == toy_corpus.instances[0].references[0].raw
    assert isinstance(results[1], BackendUnavailable)
    assert results[2].completion_text == toy_corpus.instances[2].references[0].raw


def test_batch_complete_sequential():
    backend = CountingBackend(MockEchoBackend())
    client = CompletionClient(backend)
    results = client.batch_complete(
        [prompt_for(f"Cat number {i}.") for i in range(3)], PARAMS, max_in_flight=1
    )
    assert [r.completion_text for r in results] == [
        "Cat number 0.", "Cat number 1.", "Cat number 2."
    ]
    assert backend.calls == 3


# -- HTTP backend --------------------------------------------------------

class _ChatHandler(BaseHTTPRequestHandler):
    status_plan = []
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append((self.path, body, dict(self.headers)))
        status = type(self).status_plan.pop(0) if type(self).status_plan else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        if self.path.endswith("/chat/completions"):
            content = body["messages"][0]["content"].upper()
            payload = {"choices": [{"message": {"content": content}}]}
        else:
            payload = {"choices": [{"text": body["prompt"].upper()}]}
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.status_plan = []
    _ChatHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def http_backend(url, **kwargs):
    return HttpBackend(base_url=url, api_key="k", **kwargs)


def test_http_chat_request_shape(chat_server):
    backend = http_backend(chat_server)
    out = backend.generate("hello there", GenerationParams(model_id="m1"))
    assert out == "HELLO THERE"
    path, body, headers = _ChatHandler.requests_seen[0]
    assert path == "/v1/chat/completions"
    assert body["model"] == "m1"
    assert body["temperature"] == 0.7
    assert body["max_tokens"] == 256
    assert body["top_p"] == 1.0
    assert body["frequency_penalty"] == 0.0
    assert body["presence_penalty"] == 0.0
    assert body["messages"] == [{"role": "user", "content": "hello there"}]
    assert headers["Authorization"] == "Bearer k"


def test_http_legacy_completions(chat_server):
    backend = http_backend(chat_server, legacy_completions=True)
    assert backend.generate("abc", PARAMS) == "ABC"
    path, body, _ = _ChatHandler.requests_seen[0]
    assert path == "/v1/completions"
    assert body["prompt"] == "abc"


def test_http_auth_error(chat_server):
    _ChatHandler.status_plan = [401]
    with pytest.raises(AuthError):
        http_backend(chat_server).generate("x", PARAMS)


def test_http_retries_5xx_then_succeeds(chat_server):
    _ChatHandler.status_plan = [500, 503]
    assert http_backend(chat_server).generate("ok now", PARAMS) == "OK NOW"
    assert len(_ChatHandler.requests_seen) == 3


def test_http_rate_limit_surfaces(chat_server):
    _ChatHandler.status_plan = [429, 429, 429]
    with pytest.raises(RateLimited):
        http_backend(chat_server).generate("x", PARAMS)


def test_http_unreachable():
    backend = http_backend("http://127.0.0.1:1")
    with pytest.raises(BackendUnavailable):
        backend.generate("x", PARAMS)


def test_http_missing_credentials(monkeypatch):
    monkeypatch.delenv("MBICL_API_KEY", raising=False)
    monkeypatch.delenv("MBICL_BASE_URL", raising=False)
    with pytest.raises(BackendUnavailable):
        HttpBackend()
    with pytest.raises(AuthError):
        HttpBackend(base_url="http://x")


# -- one HTTP policy, by fault injection -----------------------------------

# one 200 body that both backends accept
OK_REPLY = {"choices": [{"message": {"content": "ok"}}], "vectors": [[3.0, 4.0]]}

# name: (script, expected exception or None, requests made, sleeps taken)
FAULT_SCRIPTS = {
    "401": ([http_reply(401)], AuthError, 1, []),
    "403": ([http_reply(403)], AuthError, 1, []),
    "429x3": ([http_reply(429)] * 3, RateLimited, 3, [1, 2]),
    "500-503-200": (
        [http_reply(500), http_reply(503), http_reply(200, OK_REPLY)], None, 3, [1, 2]
    ),
    "timeout": ([requests.Timeout] * 3, BackendUnavailable, 3, [1, 2]),
    "refused": ([requests.ConnectionError] * 3, BackendUnavailable, 3, [1, 2]),
    "404": ([http_reply(404)], BackendUnavailable, 1, []),
    "non-json-200": ([http_reply(200, b"<html>")], BackendUnavailable, 1, []),
    "retry-after-7": (
        [http_reply(429, headers={"Retry-After": "7"}), http_reply(503),
         http_reply(200, OK_REPLY)],
        None, 3, [7, 2],
    ),
    "retry-after-date": (
        [http_reply(503, headers={"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"}),
         http_reply(200, OK_REPLY)],
        None, 2, [1],
    ),
}

# name: (call, URL posted to, timeout passed, result of the 200 reply)
HTTP_CLIENTS = {
    "completions": (
        lambda: HttpBackend(base_url="http://h", api_key="k").generate("x", PARAMS),
        "http://h/v1/chat/completions", 120, "ok",
    ),
    "embeddings": (
        lambda: embeddings.HttpBackend("http://h").embed_tokens(("cat",)).tolist(),
        "http://h/embed", 30, [[0.6, 0.8]],
    ),
}


@pytest.mark.parametrize("client", HTTP_CLIENTS)
@pytest.mark.parametrize("fault", FAULT_SCRIPTS)
def test_http_fault_policy_is_shared(fault, client, fake_post, http_sleeps):
    script, expected, n_requests, sleeps = FAULT_SCRIPTS[fault]
    call, url, timeout, result = HTTP_CLIENTS[client]
    fake_post.script.extend(script)
    if expected is None:
        assert call() == result
    else:
        with pytest.raises(expected):
            call()
    assert [(u, t) for u, _, _, t in fake_post.calls] == [(url, timeout)] * n_requests
    assert http_sleeps == sleeps


@pytest.mark.parametrize("legacy, reply", [
    (False, {"choices": [{"message": {"content": None}}]}),
    (True, {"choices": [{"text": None}]}),
])
def test_http_null_completion_is_not_cached(legacy, reply, fake_post, tmp_path):
    fake_post.script.append(http_reply(200, reply))
    backend = HttpBackend(base_url="http://h", api_key="k", legacy_completions=legacy)
    client = CompletionClient(backend, ResponseCache(tmp_path / "cache.jsonl"))
    [result] = client.batch_complete([prompt_for("A cat.")], PARAMS)
    assert isinstance(result, BackendUnavailable)
    assert len(client.cache) == 0
    assert not (tmp_path / "cache.jsonl").exists()


def test_cache_quarantines_a_non_string_completion(tmp_path):
    path = tmp_path / "cache.jsonl"
    client = CompletionClient(MockEchoBackend(), ResponseCache(path))
    client.complete(prompt_for("A cat."), PARAMS)
    poisoned = client.complete(prompt_for("A dog."), PARAMS)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"completion_text": "A dog."', '"completion_text": null')
    path.write_text("".join(lines))

    backend = CountingBackend(MockEchoBackend())
    reopened = CompletionClient(backend, ResponseCache(path))
    assert len(reopened.cache) == 1
    assert (tmp_path / "cache.jsonl.quarantine").read_text() == lines[1]
    assert reopened.complete(prompt_for("A dog."), PARAMS) == poisoned
    assert backend.calls == 1
