"""Smoke test of the benchmark: every workload at its smoke size, untraced
and traced, plus the generator's and BENCHMARK.json's contracts.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import corpus_gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def results(stdout):
    """Per workload, the details line and the result line."""
    lines = stdout.strip().splitlines()
    out = {}
    for i, line in enumerate(lines):
        if line.startswith('{"correct"'):
            details = json.loads(lines[i - 1])
            out[details["workload"]] = (details, json.loads(line))
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(trace):
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    found = results(proc.stdout)
    assert sorted(found) == sorted(run.WORKLOADS)
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name, (details, result) in found.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == details["attempted"] > 0
        assert details["seed"] == 3 and details["shape"]["test"]["instances"] > 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
        if trace:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            total = sum(m[k] for k in spans.SELF_TIMES)
            assert total == pytest.approx(m["trace.grid_s"], rel=1e-6)
            assert m["evaluation.cells"] == run.WORKLOADS[name].cells
            if run.WORKLOADS[name].warm:
                assert m["llm.backend_calls"] == 0 and m["llm.cache_hit_ratio"] == 1.0
            else:
                assert m["llm.backend_calls"] == m["llm.cache_writes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sari-cold", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_seeded_and_prefix_stable():
    a = [corpus_gen.instance(5, "dev", i) for i in range(20)]
    assert a == [corpus_gen.instance(5, "dev", i) for i in range(20)]
    assert a != [corpus_gen.instance(6, "dev", i) for i in range(20)]
    shape = corpus_gen.shape(a)
    assert shape["references_per_instance"] == 10
    assert all(len(row["references"]) == 10 for row in a)
    assert shape["reference_words_mean"] < shape["source_words_mean"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
