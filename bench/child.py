"""One repetition of a workload, run in a fresh process by ``run.py``.

Usage: ``python3 bench/child.py SPEC.json`` with ``src`` on ``PYTHONPATH``.
The spec names the generated corpora, the cache file, the grids, the report
directory, how many times to repeat set-up, and whether to trace. The
process sets up (load both corpora, open the response cache) that many
times, runs the grids on the last set-up exactly as ``mbicl grid`` does,
and prints one JSON line with its timings, counts, outputs and peak RSS.
"""

import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from mbicl import corpus, embeddings, evaluation, llm

import spans


class CountingBackend:
    """A completion backend wrapper that counts calls and failures under a
    lock, since ``batch_complete`` calls it from worker threads."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self._lock = threading.Lock()
        self.calls = 0
        self.failures = 0

    def generate(self, prompt_text, params):
        with self._lock:
            self.calls += 1
        try:
            return self.inner.generate(prompt_text, params)
        except Exception:
            with self._lock:
                self.failures += 1
            raise


class CountingCache(llm.ResponseCache):
    """The response cache, counting hits, misses and appended records."""

    def __init__(self, path):
        self._count_lock = threading.Lock()
        self.hits = self.misses = self.writes = 0
        super().__init__(path)

    def get(self, digest):
        record = super().get(digest)
        with self._count_lock:
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
        return record

    def put(self, record):
        with self._count_lock:
            before = len(self)
            super().put(record)
            self.writes += len(self) - before


def quarantined_lines(cache_path):
    path = Path(cache_path)
    quarantine = path.with_name(path.name + ".quarantine")
    if not quarantine.exists():
        return 0
    return len(quarantine.read_text(encoding="utf-8").splitlines())


def set_up(spec):
    dev = corpus.load_jsonl(spec["dev"], split="validation")
    test = corpus.load_jsonl(spec["test"], split="test")
    cache = CountingCache(spec["cache"])
    return dev, test, cache


def run_grids(spec, dev, test, cache, backend):
    """Every grid of the workload, as ``mbicl grid`` runs and emits one."""
    client = llm.CompletionClient(backend, cache)
    embedding_backend = embeddings.HashBackend() if spec["embeddings"] else None
    out_dir = Path(spec["out_dir"])
    cells = {}
    failures = {}
    for grid in spec["grids"]:
        config = evaluation.ExperimentConfig(
            tune_corpus=dev,
            test_corpus=test,
            client=client,
            selection_method=grid["method"],
            k_values=tuple(grid["k"]),
            orderings=tuple(grid["orderings"]),
            seeds=(0,),
            embedding_backend=embedding_backend,
            max_in_flight=spec["max_in_flight"],
        )
        reports, failed = evaluation.run_experiment(config)
        grid_dir = out_dir / grid["method"]
        grid_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            evaluation.write_report(report, grid_dir)
        evaluation.write_grid_csv(reports, grid_dir / "grid.csv")
        for report in reports:
            cells[report.run_id] = {
                "sari": report.sari,
                "bleu": report.bleu,
                "selected_pairs": report.manifest["selected_pairs"],
            }
        failures.update({cell: repr(exc) for cell, exc in failed.items()})
    return cells, failures


def tree_digest(root):
    """sha256 over the relative paths and bytes of every file under *root*."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer, CountingCache, CountingBackend)

    setup_s, load_s, cache_load_s = [], [], []
    for _ in range(spec["setups"]):
        start = time.perf_counter()
        dev, test, cache = set_up(spec)
        setup_s.append(time.perf_counter() - start)
        records_loaded = len(cache)
        if tracer is not None:
            load_s.append(tracer.total_s["corpus.load"])
            cache_load_s.append(tracer.total_s["llm.cache_load"])
            tracer.reset()

    backend = CountingBackend(llm.MockEchoBackend())
    start = time.perf_counter()
    if tracer is None:
        cells, failures = run_grids(spec, dev, test, cache, backend)
    else:
        cells, failures = tracer.call(
            "grid", run_grids, (spec, dev, test, cache, backend), {}
        )
    grid_s = time.perf_counter() - start

    layers = None
    if tracer is not None:
        layers = spans.grid_metrics(tracer, cache, backend, len(cells), len(failures))
        spans.check_accounting(layers)
        layers.update({
            "corpus.load_s": statistics.median(load_s),
            "corpus.sentences_loaded": sum(
                1 + inst.n_references for c in (dev, test) for inst in c
            ),
            "llm.cache_load_s": statistics.median(cache_load_s),
            "llm.cache_records_loaded": records_loaded,
            "llm.cache_quarantined_lines": quarantined_lines(spec["cache"]),
        })

    result = {
        "setup_s": setup_s,
        "grid_s": grid_s,
        "test_instances": len(test),
        "cells": cells,
        "failures": failures,
        "reports_sha256": tree_digest(spec["out_dir"]),
        "backend_calls": backend.calls,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_writes": cache.writes,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
