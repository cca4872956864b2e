import json
import threading
from pathlib import Path

import pytest

from mbicl import Corpus, InstanceGroup, Sentence

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
