"""Completion backends and the persistent response cache.

The cache is the reproducibility boundary: completions are keyed by a
digest of (prompt text, model id, generation parameters), stored append-only
as JSONL, and replayed on any later run with the same key. Sampling
parameters default to temperature 0.7, max_tokens 256, top_p 1, both
penalties 0.
"""

import fcntl
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import requests

from .corpus import decode
from .errors import BackendError, DataError, UsageError
from .prompting import COMPLEX_MARKER, SIMPLE_MARKER

API_KEY_ENV = "MBICL_API_KEY"
BASE_URL_ENV = "MBICL_BASE_URL"
TIMEOUT_S = 120  # seconds per completion request
MAX_IN_FLIGHT = 1  # concurrent completions of a batch_complete call
BACKENDS = ("http", "mock-echo", "mock-first-reference")  # make_backend's names
_sleep = time.sleep  # post_json's backoff; a test replaces this, not time.sleep


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.7
    max_tokens: int = 256
    top_p: float = 1.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    model_id: str = "mock"

    def __post_init__(self):
        if self.temperature < 0:
            raise UsageError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise UsageError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise UsageError("max_tokens must be >= 1")


def field_dict(obj):
    """A dataclass's fields as a dict: asdict without its deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def request_digest(prompt_text, params):
    """Cache key: hash of the prompt text, model id, and sampling params."""
    payload = json.dumps(
        {"prompt": prompt_text, "params": field_dict(params)},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GenerationRecord:
    digest: str
    prompt_text: str
    completion_text: str
    model_id: str
    params: GenerationParams
    backend: str
    timestamp: float = field(compare=False, default=0.0)


def _record_to_json(record):
    obj = {**field_dict(record), "params": field_dict(record.params)}
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _record_from_json(obj):
    record = GenerationRecord(
        digest=obj["digest"],
        prompt_text=obj["prompt_text"],
        completion_text=obj["completion_text"],
        model_id=obj["model_id"],
        params=GenerationParams(**obj["params"]),
        backend=obj["backend"],
        timestamp=obj.get("timestamp", 0.0),
    )
    if not isinstance(record.completion_text, str):
        raise TypeError("completion_text must be a string")
    if record.digest != request_digest(record.prompt_text, record.params):
        raise ValueError("digest mismatch")
    return record


def _extract_query(prompt_text):
    """The complex sentence of the final (query) block of a rendered prompt."""
    start = prompt_text.rfind(COMPLEX_MARKER)
    if start == -1:
        raise BackendError(
            f"mock backend: the prompt has no {COMPLEX_MARKER!r} marker"
        )
    body = prompt_text[start + len(COMPLEX_MARKER) :]
    end = body.find(SIMPLE_MARKER)
    if end != -1:
        body = body[:end]
    return body.strip()


class MockEchoBackend:
    """Returns the query complex sentence verbatim."""

    name = "mock-echo"

    def generate(self, prompt_text, params):
        return _extract_query(prompt_text)


class MockFirstReferenceBackend:
    """Returns the first reference for the query sentence, from a lookup the
    harness supplies (complex raw text -> reference raw text)."""

    name = "mock-first-reference"

    def __init__(self, reference_lookup):
        self.reference_lookup = dict(reference_lookup)

    def generate(self, prompt_text, params):
        query = _extract_query(prompt_text)
        try:
            return self.reference_lookup[query]
        except KeyError as exc:
            raise BackendError(f"no reference for query {query!r}") from exc

    @classmethod
    def for_corpus(cls, corpus):
        """The lookup of *corpus*; a repeated source must keep its first reference."""
        lookup = {}
        for inst in corpus:
            first = lookup.setdefault(inst.source.raw, inst.references[0].raw)
            if first != inst.references[0].raw:
                raise DataError(
                    f"instance {inst.id} repeats a source with another first reference"
                )
        return cls(lookup)


def post_json(url, body, timeout, headers=None):
    """POST *body* as JSON and return the decoded reply: the one HTTP policy.

    Connection errors, timeouts, 429 and 5xx get 3 attempts, sleeping 1 s then
    2 s or a retried reply's whole-second Retry-After. Any failure left is a
    BackendError naming its cause: the HTTP status, or the connection error.
    """
    for attempt in range(3):
        if attempt:
            _sleep(delay)
        delay = 2**attempt
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            error = BackendError(str(exc))
            continue
        status = resp.status_code
        if status < 400:
            try:
                return resp.json()
            except ValueError as exc:
                raise BackendError(f"malformed response: {exc}") from exc
        error = BackendError(f"HTTP {status}: {resp.text[:200]}")
        if status != 429 and status < 500:
            raise error
        if resp.headers.get("Retry-After", "").isdecimal():
            delay = int(resp.headers["Retry-After"])
    raise error


class HttpBackend:
    """OpenAI-compatible client over post_json.

    Chat completions by default; ``legacy_completions=True`` switches to the
    plain completions endpoint.
    """

    name = "http"

    def __init__(self, base_url=None, api_key=None, legacy_completions=False):
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.base_url:
            raise BackendError(f"no base URL configured ({BASE_URL_ENV})")
        if not self.api_key:
            raise BackendError(f"no API key configured ({API_KEY_ENV})")
        self.legacy_completions = legacy_completions

    def generate(self, prompt_text, params):
        body = {
            "model": params.model_id,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "top_p": params.top_p,
            "frequency_penalty": params.frequency_penalty,
            "presence_penalty": params.presence_penalty,
        }
        if self.legacy_completions:
            url = f"{self.base_url}/v1/completions"
            body["prompt"] = prompt_text
        else:
            url = f"{self.base_url}/v1/chat/completions"
            body["messages"] = [{"role": "user", "content": prompt_text}]
        auth = {"Authorization": f"Bearer {self.api_key}"}
        payload = post_json(url, body, TIMEOUT_S, auth)
        try:
            if self.legacy_completions:
                text = payload["choices"][0]["text"]
            else:
                text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed response: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError(f"malformed response: completion {text!r}")
        return text


class ResponseCache:
    """Append-only JSONL cache of generation records, keyed by digest.

    Each line must parse and its stored digest must match a recomputation
    from the stored fields. A damaged line (e.g. a crash mid-append) is
    moved to ``<path>.quarantine`` instead of being silently reused; every
    good line, before or after it, is kept. A missing directory of *path* is
    created; a *path* that is a directory, or below a file that is not one,
    is a UsageError.
    """

    def __init__(self, path):
        self.path = Path(path)
        if self.path.is_dir():
            raise UsageError(f"the cache {str(path)!r} is a directory")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise UsageError(f"the cache {str(path)!r} is below a file that is not "
                             "a directory") from None
        self._records = {}
        self._lock = threading.Lock()
        self._load()

    def _load(self):
        if not self.path.exists():
            return
        with self.path.open(encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # so no append is seen half-written
            lines = list(fh)
            rewrite = bool(lines) and not lines[-1].endswith("\n")
            if rewrite:
                lines[-1] += "\n"  # the next append must start a line of its own
            good, bad = [], []
            for lineno, line in enumerate(lines, start=1):
                if line.strip():
                    try:
                        record = decode(line, _record_from_json, self.path, lineno)
                    except DataError:
                        bad.append(line)
                        continue
                    self._records[record.digest] = record
                good.append(line)
            if bad:
                quarantine = self.path.with_name(self.path.name + ".quarantine")
                with quarantine.open("a", encoding="utf-8") as out:
                    out.writelines(bad)
            if bad or rewrite:
                self.path.write_text("".join(good), encoding="utf-8")

    def get(self, digest):
        with self._lock:
            return self._records.get(digest)

    def put(self, record):
        # one write(2) to an O_APPEND descriptor under the file lock, so that
        # the records of processes sharing the cache do not interleave
        line = (_record_to_json(record) + "\n").encode("utf-8")
        with self._lock:
            if record.digest in self._records:
                return
            self._records[record.digest] = record
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                os.write(fd, line)
            finally:
                os.close(fd)

    def __len__(self):
        return len(self._records)


class CompletionClient:
    """Ties a backend to the cache; the unit every caller goes through."""

    def __init__(self, backend, cache=None):
        self.backend = backend
        self.cache = cache

    def complete(self, prompt, params):
        digest = request_digest(prompt.text, params)
        if self.cache is not None:
            hit = self.cache.get(digest)
            if hit is not None:
                return hit
        completion = self.backend.generate(prompt.text, params)
        record = GenerationRecord(
            digest=digest,
            prompt_text=prompt.text,
            completion_text=completion,
            model_id=params.model_id,
            params=params,
            backend=self.backend.name,
            timestamp=time.time(),
        )
        if self.cache is not None:
            self.cache.put(record)
        return record

    def batch_complete(self, prompts, params, max_in_flight=MAX_IN_FLIGHT):
        """Complete all prompts, results in input order.

        Failures are isolated: each slot holds either a GenerationRecord or
        the exception that killed it. One in flight runs in the calling thread.
        """
        if max_in_flight < 1:
            raise UsageError("max_in_flight must be >= 1")

        def one(prompt):
            try:
                return self.complete(prompt, params)
            except BackendError as exc:
                return exc

        if max_in_flight == 1:
            return [one(prompt) for prompt in prompts]
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            return list(pool.map(one, prompts))


def make_backend(name, test_corpus=None, base_url=None, api_key=None,
                 legacy_completions=False):
    """Backend factory for the CLI: http, mock-echo, or mock-first-reference.

    *test_corpus* feeds mock-first-reference; the rest configure http.
    """
    if name == "mock-echo":
        return MockEchoBackend()
    if name == "mock-first-reference":
        if test_corpus is None:
            raise BackendError("mock-first-reference needs a test corpus")
        return MockFirstReferenceBackend.for_corpus(test_corpus)
    if name == "http":
        return HttpBackend(base_url, api_key, legacy_completions)
    raise UsageError(f"unknown completion backend {name!r}")
