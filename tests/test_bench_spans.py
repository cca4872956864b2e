"""The benchmark's traced run reaches every layer it reports.

``bench/spans.py`` wraps library functions by their module attribute names.
A call site that is renamed or bypassed leaves its span uncalled, and the
per-layer metric built on it silently reads 0. So this runs a small sari,
warm cr, bertprec and kate grid with the spans installed and checks that
every span behind ``spans.SELF_TIMES`` was called. ``spans.install`` patches
module attributes for good, so the grids run in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json
import sys
from pathlib import Path

import child
import corpus_gen
import spans
from mbicl import llm

work = Path(sys.argv[1])
spec = {
    "dev": str(work / "dev.jsonl"),
    "test": str(work / "test.jsonl"),
    "cache": str(work / "cache.jsonl"),
    "out_dir": str(work / "reports"),
    "embeddings": True,
    "max_in_flight": 1,
}
corpus_gen.write_corpus(spec["dev"], 0, "dev", 8)
corpus_gen.write_corpus(spec["test"], 0, "test", 4)
cr = {"method": "cr", "k": [1, 2], "orderings": ["high-to-low", "random"]}
grids = [
    {"method": "sari", "k": [1, 2], "orderings": ["high-to-low"]},
    cr,
    {"method": "bertprec", "k": [1, 2], "orderings": ["high-to-low"]},
    {"method": "kate", "k": [1, 2], "orderings": ["high-to-low"]},
]

# an untraced cold cr pass, so that the traced cr grid replays the cache
dev, test, cache = child.set_up(spec)
child.run_grids({**spec, "grids": [cr]}, dev, test, cache, llm.MockEchoBackend())

tracer = spans.Tracer()
spans.install(tracer, child.CountingCache, child.CountingBackend)
dev, test, cache = child.set_up(spec)
backend = child.CountingBackend(llm.MockEchoBackend())
cells, failures = tracer.call(
    "grid", child.run_grids, ({**spec, "grids": grids}, dev, test, cache, backend), {}
)
print(json.dumps({
    "cells": len(cells),
    "failures": failures,
    "cache_hits": cache.hits,
    "calls": tracer.calls,
    "spans": sorted({s for names in spans.SELF_TIMES.values() for s in names}),
}))
"""


def test_traced_grids_call_every_span(tmp_path):
    paths = [str(ROOT / "bench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failures"] == {}
    assert out["cells"] == 2 + 4 + 2 + 2
    assert out["cache_hits"] > 0
    uncalled = [span for span in out["spans"] if not out["calls"].get(span)]
    assert uncalled == []
