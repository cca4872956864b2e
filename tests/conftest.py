import json
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

from mbicl import Corpus, InstanceGroup, Sentence, llm

FIXTURES = Path(__file__).parent / "fixtures"


def sent(raw):
    return Sentence.from_raw(raw)


class CountingBackend:
    """A completion backend wrapper that counts calls under a lock, since
    ``batch_complete`` calls it from worker threads."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt_text, params):
        with self._lock:
            self.calls += 1
        return self.inner.generate(prompt_text, params)


class CountingEmbedder:
    """An embedding backend wrapper that records the tokens of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def embed_tokens(self, tokens):
        self.calls.append(tuple(tokens))
        return self.inner.embed_tokens(tokens)


@pytest.fixture(autouse=True)
def http_sleeps(monkeypatch):
    """The backoff sleeps of ``llm.post_json``, recorded instead of slept.

    Only the helper's sleep is replaced, so test servers' threads still sleep.
    """
    sleeps = []
    monkeypatch.setattr(llm, "_sleep", sleeps.append)
    return sleeps


def http_reply(status=200, body=None, headers=None):
    """A ``requests.Response``: *body* is sent as JSON, or as-is when bytes."""
    resp = requests.Response()
    resp.status_code = status
    resp._content = body if isinstance(body, bytes) else json.dumps(body).encode()
    resp.headers.update(headers or {})
    return resp


@pytest.fixture
def fake_post(monkeypatch):
    """``requests.post`` replaced by a script, with no server.

    Each call is recorded in ``calls`` as (url, json, headers, timeout) and
    takes the next item of ``script``: a Response to return, or an exception
    class to raise.
    """
    fake = SimpleNamespace(script=[], calls=[])

    def post(url, json=None, headers=None, timeout=None):
        fake.calls.append((url, json, headers, timeout))
        item = fake.script.pop(0)
        if isinstance(item, type):
            raise item(f"injected {item.__name__}")
        return item

    monkeypatch.setattr(requests, "post", post)
    return fake


def make_instance(id, source, references):
    return InstanceGroup(
        id=id,
        source=sent(source),
        references=tuple(sent(r) for r in references),
    )


def make_corpus(rows, name="toy", split="validation"):
    """rows: list of (id, source, [references])."""
    return Corpus(
        name=name,
        split=split,
        instances=tuple(make_instance(i, s, refs) for i, s, refs in rows),
    )


@pytest.fixture
def toy_corpus():
    return make_corpus(
        [
            ("0", "The cat sat on the mat today.", ["The cat sat.", "A cat sat down."]),
            ("1", "He returned to the village at dawn.", ["He came back at dawn.", "He returned at dawn."]),
            ("2", "The old house was demolished quickly.", ["The old house was torn down.", "They removed the house fast."]),
        ]
    )


@pytest.fixture
def pin_corpus():
    from mbicl import load_jsonl

    return load_jsonl(FIXTURES / "pin_corpus.jsonl", split="test")


@pytest.fixture
def echo_corpus():
    from mbicl import load_jsonl

    return load_jsonl(FIXTURES / "echo_corpus.jsonl", split="test")


def load_pins(name):
    return json.loads((FIXTURES / name).read_text())
