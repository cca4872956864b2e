"""Offline benchmark of the mbicl k-grid pipeline.

Run from the root of a checkout::

    python3 bench/run.py --workload sari-cold --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 1

Each workload generates seeded ASSET-shaped corpora (``corpus_gen.py``) and
runs the grids ``mbicl grid`` would run on them, with the mock-echo
completion backend, hash embeddings and a response cache on disk. Every
repetition runs in a fresh child process (``child.py``) with a fixed
``PYTHONHASHSEED``, one BLAS thread and a directory of its own; repetitions
follow one another until ``--seconds`` is used up, and the figures reported
are medians over them.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` repetitions alternate between untraced
and traced, and it holds the per-layer metrics of the median traced one plus
the tracing overhead. The lines before it give every metric by name and unit,
the corpus shape, the seed, the versions and the git SHA.

Every run checks the outputs and exits 1 if a check fails: the cell count,
no failed cell, per-cell SARI, BLEU and selected pairs equal to the values
pinned in ``pins.json`` (smoke size, seed 0), identical reports on every
repetition, and for ``replay-warm`` reports byte-identical to the untimed
cold pass that filled its cache, with no backend call. After an intended
change of outputs, re-pin by writing the ``cells`` that ``pin_pass`` returns
for each workload into ``pins.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import corpus_gen  # noqa: E402

K_GRID = (1, 2, 4, 6, 8, 10, 15, 20)
ORDERINGS = ("high-to-low", "low-to-high", "random")
# Set-ups per child process; setup_s is their median.
SETUPS = 7
# The mock backend is pure Python, so a second worker thread cannot overlap
# any work under the interpreter lock and only adds scheduling noise; one
# worker also keeps the traced self times exact. Never more than nproc.
MAX_IN_FLIGHT = 1
PIN_SEED = 0
PIN_TOLERANCE = 1e-9
# A run must end within 180 s; no child may start or run past this.
RUN_BUDGET_S = 165.0


@dataclass(frozen=True)
class Workload:
    """Grids as (method, k values, orderings); corpus sizes in instances."""

    grids: tuple
    dev: int
    test: int
    smoke_dev: int
    smoke_test: int
    warm: bool = False
    embeddings: bool = False

    def sizes(self, size):
        return (self.dev, self.test) if size == "full" else (self.smoke_dev, self.smoke_test)

    @property
    def cells(self):
        return sum(len(k) * len(orderings) for _, k, orderings in self.grids)


WORKLOADS = {
    # The paper's headline method with an empty cache: leave-one-out SARI
    # scoring loads selection and metrics, every completion is a miss and a
    # cache write; embeddings are not used.
    "sari-cold": Workload(
        grids=(("sari", K_GRID, ORDERINGS[:1]),), dev=200, test=120,
        smoke_dev=12, smoke_test=10,
    ),
    # The ordering study replayed from a cache an untimed cold pass filled:
    # compression-ratio scoring is nearly free, so time goes to cache load,
    # prompts, request digests, cache hits and evaluation. No backend call.
    "replay-warm": Workload(
        grids=(("cr", (6, 8, 10, 15), ORDERINGS),), dev=200, test=120,
        smoke_dev=12, smoke_test=10, warm=True,
    ),
    # Hash-embedding selection: per-query KATE retrieval, then BERTScore
    # precision scoring, on a small dev pool and a slice of the test set.
    "embed-cold": Workload(
        grids=(("kate", (1, 2, 4, 8), ORDERINGS[:1]), ("bertprec", K_GRID, ORDERINGS[:1])),
        dev=100, test=20, smoke_dev=10, smoke_test=5, embeddings=True,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "sentences_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.sentences_loaded": "count",
    "selection.score_pairs_s": "s",
    "selection.pairs_scored": "count",
    "selection.kate_select_s": "s",
    "selection.kate_calls": "count",
    "selection.select_order_s": "s",
    "metrics.sari_sentence_s": "s",
    "metrics.sari_sentence_calls": "count",
    "metrics.bleu_corpus_s": "s",
    "metrics.bertscore_precision_s": "s",
    "metrics.bertscore_precision_calls": "count",
    "embeddings.embed_s": "s",
    "embeddings.embed_calls": "count",
    "embeddings.tokens_embedded": "count",
    "embeddings.distinct_sentence_ratio": "ratio",
    "prompting.build_prompt_s": "s",
    "prompting.prompts_built": "count",
    "prompting.prompt_kchars": "kchar",
    "prompting.parse_completion_s": "s",
    "prompting.parse_failures": "count",
    "llm.cache_load_s": "s",
    "llm.cache_records_loaded": "count",
    "llm.cache_quarantined_lines": "count",
    "llm.request_digest_s": "s",
    "llm.cache_hits": "count",
    "llm.cache_misses": "count",
    "llm.cache_hit_ratio": "ratio",
    "llm.cache_writes": "count",
    "llm.cache_put_s": "s",
    "llm.batch_complete_s": "s",
    "llm.complete_calls": "count",
    "llm.complete_p50_us": "us",
    "llm.complete_p99_us": "us",
    "llm.backend_calls": "count",
    "llm.backend_failures": "count",
    "llm.backend_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.cells": "count",
    "evaluation.cells_failed": "count",
    "evaluation.write_report_s": "s",
    "evaluation.unattributed_s": "s",
    "trace.grid_s": "s",
    "trace.overhead_s": "s",
}


class RunFailed(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root, workdir, spec, deadline):
    """Run one repetition in a fresh process inside *workdir*."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, out_dir=str(workdir / "reports"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("run budget used up before a repetition could start")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=workdir, env=child_env(root), stdout=subprocess.PIPE, text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RunFailed(f"child process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_inputs(data_dir, workload, seed, size):
    data_dir.mkdir(parents=True, exist_ok=True)
    n_dev, n_test = workload.sizes(size)
    return {
        "dev": corpus_gen.write_corpus(data_dir / "dev.jsonl", seed, "dev", n_dev),
        "test": corpus_gen.write_corpus(data_dir / "test.jsonl", seed, "test", n_test),
    }


def base_spec(workload, data_dir):
    return {
        "dev": str(data_dir / "dev.jsonl"),
        "test": str(data_dir / "test.jsonl"),
        "cache": str(data_dir / "cache.jsonl"),
        "grids": [
            {"method": m, "k": list(k), "orderings": list(o)} for m, k, o in workload.grids
        ],
        "embeddings": workload.embeddings,
        "max_in_flight": min(MAX_IN_FLIGHT, os.cpu_count() or 1),
        "setups": SETUPS,
        "trace": False,
    }


def check_rep(workload, rep, reference_sha, warm):
    """Problems with the outputs of one repetition, as a list of strings."""
    problems = [f"cell {cell} failed: {err}" for cell, err in rep["failures"].items()]
    done = len(rep["cells"]) + len(rep["failures"])
    if done != workload.cells:
        problems.append(f"{done} cells, expected {workload.cells}")
    if reference_sha is not None and rep["reports_sha256"] != reference_sha:
        problems.append("reports differ from the first pass")
    sentences = workload.cells * rep["test_instances"]
    counts = (f"{rep['backend_calls']} backend calls, {rep['cache_hits']} hits, "
              f"{rep['cache_misses']} misses, {rep['cache_writes']} writes "
              f"for {sentences} sentences")
    if warm:
        if rep["backend_calls"] or rep["cache_writes"] or rep["cache_hits"] != sentences:
            problems.append(f"warm replay: {counts}")
    elif not (rep["backend_calls"] == rep["cache_misses"] == rep["cache_writes"] > 0
              and rep["cache_hits"] + rep["cache_misses"] == sentences):
        problems.append(f"cold pass: {counts}")
    return problems


def check_pins(name, cells):
    """Problems with the pin pass's cells against pins.json."""
    pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
    pinned = pins["workloads"][name]
    if sorted(cells) != sorted(pinned):
        return [f"pinned cells {sorted(pinned)}, got {sorted(cells)}"]
    problems = []
    for cell, want in pinned.items():
        got = cells[cell]
        for metric in ("sari", "bleu"):
            if abs(got[metric] - want[metric]) > PIN_TOLERANCE:
                problems.append(f"{cell}: {metric} {got[metric]!r}, pinned {want[metric]!r}")
        if got["selected_pairs"] != want["selected_pairs"]:
            problems.append(f"{cell}: selected pairs differ from the pinned ones")
    return problems


def pin_pass(root, work, workload, deadline):
    """The workload at smoke size on the pin seed; returns the repetition."""
    data_dir = work / "pin"
    make_inputs(data_dir, workload, PIN_SEED, "smoke")
    return run_child(root, work / "pin-run", base_spec(workload, data_dir), deadline)


def versions(root):
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha}


def run_workload(root, work, name, seed, seconds, trace, size):
    """Measure one workload: (metrics with units, details, problems)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    pin = pin_pass(root, work, workload, deadline)
    problems = check_rep(workload, pin, None, warm=False) or check_pins(name, pin["cells"])

    data_dir = work / "data"
    shape = make_inputs(data_dir, workload, seed, size)
    spec = base_spec(workload, data_dir)
    reference_sha = None
    if workload.warm:
        cold = run_child(root, work / "cold-pass", spec, deadline)
        problems += check_rep(workload, cold, None, warm=False)
        reference_sha = cold["reports_sha256"]

    reps = []
    start = time.monotonic()
    while True:
        rep_dir = work / f"rep{len(reps)}"
        rep_dir.mkdir()
        rep_spec = dict(spec, cache=str(rep_dir / "cache.jsonl"),
                        trace=bool(trace and len(reps) % 2))
        if workload.warm:
            shutil.copyfile(data_dir / "cache.jsonl", rep_spec["cache"])
        began = time.monotonic()
        rep = run_child(root, rep_dir, rep_spec, deadline)
        took = time.monotonic() - began
        problems += check_rep(workload, rep, reference_sha, warm=workload.warm)
        reference_sha = rep["reports_sha256"]
        reps.append(rep)
        shutil.rmtree(rep_dir)
        # Stop where the next repetition would end nearer past --seconds
        # than this one ends short of it.
        now = time.monotonic()
        if len(reps) >= 1 + trace and (now - start + took / 2 > seconds or now + took > deadline):
            break

    untraced = [r for r in reps if r["layers"] is None]
    traced = [r for r in reps if r["layers"] is not None]
    sentences = workload.cells * untraced[0]["test_instances"]
    grid_s = statistics.median(r["grid_s"] for r in untraced)
    if trace:
        # All layer metrics come from one repetition, the median traced one,
        # so that its self times still add up to its grid time.
        traced.sort(key=lambda r: r["layers"]["trace.grid_s"])
        metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
        metrics["trace.overhead_s"] = metrics["trace.grid_s"] - grid_s
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(s for r in untraced for s in r["setup_s"]),
            "grid_s": grid_s,
            "sentences_per_s": statistics.median(sentences / r["grid_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["max_rss_kb"] for r in untraced) / 1024,
        }
        units = END_TO_END
    failed = sum(len(r["failures"]) * r["test_instances"] for r in reps)
    details = {
        "workload": name,
        "seed": seed,
        "size": size,
        "shape": shape,
        "grids": spec["grids"],
        "cells": workload.cells,
        "sentences_per_grid": sentences,
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "setups_per_repetition": SETUPS,
        "grid_s_samples": [r["grid_s"] for r in untraced],
        "max_in_flight": spec["max_in_flight"],
        "nproc": os.cpu_count(),
        "attempted": sentences * len(reps),
        "failed": failed,
        **versions(root),
    }
    return {m: (metrics[m], units[m]) for m in units}, details, problems


def report(name, metrics, details, problems):
    """Print the metrics by name and unit, the details, then the result line."""
    print(f"{name}: seed {details['seed']}, {details['repetitions']} untraced and "
          f"{details['traced_repetitions']} traced repetitions")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<38} {value:>14.6f} {unit}")
    failed_share = details["failed"] / details["attempted"]
    print(f"  {'failed_share':<38} {failed_share:>14.6f} ratio")
    print(json.dumps(details))
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Offline benchmark of the mbicl k-grid.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mbicl" / "__init__.py").is_file():
        print("error: run from the root of an mbicl checkout (no src/mbicl here)",
              file=sys.stderr)
        return 2

    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    status = 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
        try:
            metrics, details, problems = run_workload(
                root, work, name, args.seed, args.seconds, args.trace, args.size
            )
        except (RunFailed, subprocess.TimeoutExpired) as exc:
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
            status = 1
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(name, metrics, details, problems)
        if problems:
            status = 1
    try:
        work_root.rmdir()
    except OSError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
