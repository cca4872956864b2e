"""Spans around the library's public functions, with self times.

The traced run replaces module attributes with timing wrappers, so that
every caller that looks the name up at call time goes through a span. A
span's self time is its duration minus the time of the spans it caused,
so self times of all spans opened inside the ``grid`` span add up to the
grid's wall time exactly. Spans opened in a worker thread of
``batch_complete`` count as children of the span the main thread has open,
which is only exact while one worker runs at a time; ``check_accounting``
says so when it is not.
"""

import functools
import threading
import time
from collections import Counter, defaultdict

from mbicl import corpus, embeddings, evaluation, llm, selection


class Tracer:
    """Self and total time, call counts and counters per span name."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.distinct = defaultdict(set)

    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, counter, amount=1):
        with self._lock:
            self.counts[counter] += amount

    def see(self, kind, key):
        with self._lock:
            self.distinct[kind].add(key)

    def call(self, name, fn, args, kwargs, keep_durations=False):
        """Run fn(*args, **kwargs) inside a span called *name*."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.self_s[name] += elapsed - frame[0]
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if keep_durations:
                    self.durations[name].append(elapsed)
                if parent is not None:
                    parent[0] += elapsed

    def wrap(self, owner, attr, name, observe=None, keep_durations=False):
        """Replace owner.attr by a traced version; *observe* sees each call's
        arguments and result (None when it raised) and the error, if any."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = tracer.call(name, fn, args, kwargs, keep_durations)
            except Exception as exc:
                if observe is not None:
                    observe(args, None, exc)
                raise
            if observe is not None:
                observe(args, result, None)
            return result

        setattr(owner, attr, traced)


def install(tracer, cache_class, backend_class):
    """Wrap every layer function the grid reaches, where its caller looks it
    up. *cache_class* and *backend_class* are the benchmark's counting cache
    and backend."""

    def scored(args, result, exc):
        tracer.add("pairs_scored", sum(inst.n_references for inst in args[0]))

    def embedded(args, result, exc):
        sentence = args[0]
        tracer.add("tokens_embedded", len(sentence.tokens))
        tracer.see("sentences_embedded", sentence.raw)

    def prompted(args, result, exc):
        if result is not None:
            tracer.add("prompt_chars", len(result.text))

    def parsed(args, result, exc):
        if exc is not None:
            tracer.add("parse_failures")

    w = tracer.wrap
    w(corpus, "load_jsonl", "corpus.load")
    w(cache_class, "__init__", "llm.cache_load")
    w(selection, "score_pairs", "selection.score_pairs", scored)
    w(selection, "kate_select", "selection.kate_select")
    for name in ("select_top_k", "order_examples", "random_select"):
        w(selection, name, "selection.select_order")
    w(selection, "sari_sentence", "metrics.sari_sentence")
    w(evaluation, "sari_sentence", "metrics.sari_sentence")
    w(evaluation, "bleu_corpus", "metrics.bleu_corpus")
    w(selection, "bertscore_precision", "metrics.bertscore_precision")
    w(embeddings, "embed_tokens", "embeddings.embed_tokens", embedded)
    w(embeddings, "embed_sentence", "embeddings.embed_sentence")
    w(evaluation, "build_prompt", "prompting.build_prompt", prompted)
    w(evaluation, "parse_completion", "prompting.parse_completion", parsed)
    w(llm, "request_digest", "llm.request_digest")
    w(llm.CompletionClient, "batch_complete", "llm.batch_complete")
    w(llm.CompletionClient, "complete", "llm.complete", keep_durations=True)
    w(cache_class, "get", "llm.cache_get")
    w(cache_class, "put", "llm.cache_put")
    w(backend_class, "generate", "llm.backend")
    w(evaluation, "evaluate", "evaluation.evaluate")
    w(evaluation, "write_report", "evaluation.write_report")
    w(evaluation, "write_grid_csv", "evaluation.write_report")


# Per-layer self-time metrics and the spans whose self time each one sums.
# Together with the grid span's own self time they cover every span.
SELF_TIMES = {
    "selection.score_pairs_s": ("selection.score_pairs",),
    "selection.kate_select_s": ("selection.kate_select",),
    "selection.select_order_s": ("selection.select_order",),
    "metrics.sari_sentence_s": ("metrics.sari_sentence",),
    "metrics.bleu_corpus_s": ("metrics.bleu_corpus",),
    "metrics.bertscore_precision_s": ("metrics.bertscore_precision",),
    "embeddings.embed_s": ("embeddings.embed_tokens", "embeddings.embed_sentence"),
    "prompting.build_prompt_s": ("prompting.build_prompt",),
    "prompting.parse_completion_s": ("prompting.parse_completion",),
    "llm.request_digest_s": ("llm.request_digest",),
    "llm.cache_put_s": ("llm.cache_put",),
    "llm.batch_complete_s": ("llm.batch_complete", "llm.complete", "llm.cache_get"),
    "llm.backend_s": ("llm.backend",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "evaluation.write_report_s": ("evaluation.write_report",),
    "evaluation.unattributed_s": ("grid",),
}


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def grid_metrics(tracer, cache, backend, cells, cells_failed):
    """Per-layer metrics of one traced grid, from the spans in *tracer*."""
    out = {name: sum(tracer.self_s[s] for s in spans) for name, spans in SELF_TIMES.items()}
    calls, counts = tracer.calls, tracer.counts
    lookups = cache.hits + cache.misses
    embed_calls = calls["embeddings.embed_tokens"]
    completes = tracer.durations["llm.complete"]
    out.update({
        "selection.pairs_scored": counts["pairs_scored"],
        "selection.kate_calls": calls["selection.kate_select"],
        "metrics.sari_sentence_calls": calls["metrics.sari_sentence"],
        "metrics.bertscore_precision_calls": calls["metrics.bertscore_precision"],
        "embeddings.embed_calls": embed_calls,
        "embeddings.tokens_embedded": counts["tokens_embedded"],
        "embeddings.distinct_sentence_ratio": (
            len(tracer.distinct["sentences_embedded"]) / embed_calls if embed_calls else 0.0
        ),
        "prompting.prompts_built": calls["prompting.build_prompt"],
        "prompting.prompt_kchars": counts["prompt_chars"] / 1000,
        "prompting.parse_failures": counts["parse_failures"],
        "llm.cache_hits": cache.hits,
        "llm.cache_misses": cache.misses,
        "llm.cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
        "llm.cache_writes": cache.writes,
        "llm.complete_calls": len(completes),
        "llm.complete_p50_us": 1e6 * _percentile(completes, 50) if completes else 0.0,
        "llm.complete_p99_us": 1e6 * _percentile(completes, 99) if completes else 0.0,
        "llm.backend_calls": backend.calls,
        "llm.backend_failures": backend.failures,
        "evaluation.cells": cells,
        "evaluation.cells_failed": cells_failed,
        "trace.grid_s": tracer.total_s["grid"],
    })
    return out


def check_accounting(metrics):
    """The self times must add up to the traced grid time; overlapping
    worker-thread spans would break that."""
    total = sum(metrics[name] for name in SELF_TIMES)
    grid = metrics["trace.grid_s"]
    if abs(total - grid) > 1e-6 * max(1.0, grid):
        raise AssertionError(f"layer self times sum to {total} s, traced grid took {grid} s")
