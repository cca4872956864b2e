import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mbicl
from conftest import FIXTURES, http_reply, make_corpus
from mbicl import llm, selection
from mbicl.cli import cli, main
from mbicl.corpus import save_jsonl
from mbicl.errors import BackendError, DataError, MbiclError, UsageError
from mbicl.selection import load_scored_pairs


@pytest.fixture
def corpus_file(toy_corpus, tmp_path):
    path = tmp_path / "dev.jsonl"
    save_jsonl(toy_corpus, path)
    return path


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_cr(corpus_file, tmp_path, capsys):
    out = tmp_path / "scores.jsonl"
    code, _, _ = run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", out)
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 6


def test_score_sari_single_reference_is_data_error(tmp_path, capsys):
    path = tmp_path / "single.jsonl"
    path.write_text('{"id":"0","source":"A cat sat.","references":["A cat."]}\n')
    out = tmp_path / "scores.jsonl"
    code, _, err = run_cli(capsys, "score", path, "--metric", "sari", "-o", out)
    assert code == 2
    assert "reference" in err.lower()


def test_score_bertprec_without_backend_is_usage_error(corpus_file, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "score", corpus_file, "--metric", "bertprec",
        "-o", tmp_path / "s.jsonl",
    )
    assert code == 1


def test_score_bertprec_malformed_embedding_reply_is_backend_error(
    corpus_file, tmp_path, capsys, fake_post
):
    fake_post.script.append(http_reply(200, {"vectors": [["x", 1.0], [1.0, 2.0]]}))
    code, _, err = run_cli(
        capsys, "score", corpus_file, "--metric", "bertprec",
        "--embeddings", "http://h", "-o", tmp_path / "s.jsonl",
    )
    assert code == 3
    assert "backend error: embedding server: malformed vectors" in err


def test_score_prints_a_labelled_warning(tmp_path, capsys):
    path = tmp_path / "dev.jsonl"
    path.write_text(GOOD_INSTANCE.replace('["A cat sat."]', '["A cat sat.", "A cat."]')
                    + '{"id": "1", "source": "A dog ran far.", "references": ["A dog."]}\n')
    code, _, err = run_cli(
        capsys, "score", path, "--metric", "sari", "-o", tmp_path / "s.jsonl"
    )
    assert code == 0
    assert err == "warning: skipped 1 single-reference instance(s) for SARI scoring\n"


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "score", "--nope")
    assert code == 1


def test_select_roundtrip(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    out = tmp_path / "set.jsonl"
    code, _, _ = run_cli(capsys, "select", scores, "--k", "2", "-o", out)
    assert code == 0
    chosen = load_scored_pairs(out)
    assert len(chosen) == 2
    assert chosen[0].score >= chosen[1].score


def test_select_orderings_are_reverses(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    hi = tmp_path / "hi.jsonl"
    lo = tmp_path / "lo.jsonl"
    run_cli(capsys, "select", scores, "--k", "3", "--ordering", "high-to-low", "-o", hi)
    run_cli(capsys, "select", scores, "--k", "3", "--ordering", "low-to-high", "-o", lo)
    hi_keys = [p.key for p in load_scored_pairs(hi)]
    lo_keys = [p.key for p in load_scored_pairs(lo)]
    assert hi_keys == list(reversed(lo_keys))


def test_select_random_same_seed_identical(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "select", scores, "--k", "3", "--ordering", "random",
            "--seed", "7", "-o", out,
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_select_random_without_seed_is_usage_error(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    code, _, _ = run_cli(
        capsys, "select", scores, "--k", "2", "--ordering", "random",
        "-o", tmp_path / "x.jsonl",
    )
    assert code == 1


def test_build_prompt_zero_shot(capsys):
    code, out, _ = run_cli(capsys, "build-prompt", "--query", "A big cat runs.")
    assert code == 0
    assert out.count("Complex sentence:") == 1
    assert out.endswith("Simple sentence:")


def test_build_prompt_with_examples(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    set_path = tmp_path / "set.jsonl"
    run_cli(capsys, "select", scores, "--k", "2", "-o", set_path)
    code, out, _ = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 0
    assert out.count("Complex sentence:") == 3
    pairs = load_scored_pairs(set_path)
    assert out.index(pairs[0].simple.raw) < out.index(pairs[1].simple.raw)


def test_run_end_to_end_echo(corpus_file, tmp_path, capsys):
    report_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "sari",
        "--k-list", "2", "--out-dir", report_dir,
    )
    assert code == 0
    report_files = list(Path(report_dir).glob("*.json"))
    assert len(report_files) == 1
    report = json.loads(report_files[0].read_text())
    pins = json.loads((FIXTURES / "echo_pins.json").read_text())
    assert report["sari"] == pytest.approx(pins["sari"], abs=1e-9)
    # flags appear verbatim in the manifest
    assert report["manifest"] == {
        "backend": "mock-echo",
        "bleu_order": 4,
        "k": 2,
        "ordering": "high-to-low",
        "params": {
            "frequency_penalty": 0.0,
            "max_tokens": 256,
            "model_id": "mock",
            "presence_penalty": 0.0,
            "temperature": 0.7,
            "top_p": 1.0,
        },
        "seed": None,
        "selected_pairs": [
            {"instance_id": "1", "reference_index": 1},
            {"instance_id": "1", "reference_index": 0},
        ],
        "selection_method": "sari",
        "template": {
            "example_format": "Complex sentence: {c}\nSimple sentence: {r}",
            "instruction": "Simplify the following complex sentences.",
            "query_format": "Complex sentence: {c}\nSimple sentence:",
            "separator": "\n\n",
        },
        "test_corpus": "echo_corpus",
        "tune_corpus": "dev",
    }


def test_run_warm_cache_is_identical(corpus_file, tmp_path, capsys):
    args = (
        *_run_args(corpus_file, tmp_path), "--method", "cr", "--k-list", "2"
    )
    run_cli(capsys, *args, "--out-dir", tmp_path / "r1")
    cache_after_first = (tmp_path / "cache.jsonl").read_text()
    run_cli(capsys, *args, "--out-dir", tmp_path / "r2")
    assert (tmp_path / "cache.jsonl").read_text() == cache_after_first
    a = next((tmp_path / "r1").glob("*.json")).read_text()
    b = next((tmp_path / "r2").glob("*.json")).read_text()
    assert a == b


def _run_args(corpus_file, tmp_path, command="grid"):
    return (
        command, "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
        "--cache", tmp_path / "cache.jsonl",
    )


def _cr_report(capsys, corpus_file, tmp_path):
    """The report of a cold k=2 compression-ratio grid cell."""
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--backend", "mock-echo",
        "--method", "cr", "--k-list", "2", "--out-dir", tmp_path / "grid",
    )
    assert code == 0
    return tmp_path / "grid" / "cr-k2-high-to-low.json"


def test_run_replays_a_grid_cell_byte_for_byte(corpus_file, tmp_path, capsys):
    report = _cr_report(capsys, corpus_file, tmp_path)
    code, out, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path, "run"), report,
        "--out-dir", tmp_path / "replay",
    )
    assert (code, err) == (0, "")
    assert "cr-k2-high-to-low" in out
    for name in ("cr-k2-high-to-low.json", "grid.csv"):
        replayed = (tmp_path / "replay" / name).read_bytes()
        assert replayed == (tmp_path / "grid" / name).read_bytes()


# method: the grid arguments of its cold grid
REPLAY_GRIDS = {
    "sari": ("--k-list", "1,2"),
    "cr": ("--k-list", "0,1,2", "--orderings", "high-to-low,low-to-high,random",
           "--seed", "3,4"),
    "random": ("--k-list", "1,2", "--seed", "3,4"),
    "bertprec": ("--k-list", "1,2", "--embeddings", "test"),
    "zero-shot": ("--k-list", "0"),
}


def test_run_replays_every_cold_grid_report(corpus_file, tmp_path, capsys):
    for method, args in REPLAY_GRIDS.items():
        code, _, _ = run_cli(
            capsys, *_run_args(corpus_file, tmp_path), "--method", method, *args,
            "--out-dir", tmp_path / "grid" / method,
        )
        assert code == 0
    cache = tmp_path / "cache.jsonl"
    lines = len(cache.read_text().splitlines())
    reports = sorted((tmp_path / "grid").glob("*/*.json"))
    assert len(reports) == 2 + 9 + 4 + 2 + 1
    assert tmp_path / "grid" / "cr" / "cr-k1-random-seed4.json" in reports
    for report in reports:
        out_dir = tmp_path / "replay" / report.parent.name
        code, _, err = run_cli(
            capsys, *_run_args(corpus_file, tmp_path, "run"), report,
            "--out-dir", out_dir,
        )
        assert (code, err) == (0, ""), report.name
        assert (out_dir / report.name).read_bytes() == report.read_bytes()
    assert len(cache.read_text().splitlines()) == lines


def test_run_names_the_field_a_changed_test_reference_changes(
    corpus_file, tmp_path, capsys
):
    report = _cr_report(capsys, corpus_file, tmp_path)
    test = tmp_path / "changed" / "echo_corpus.jsonl"
    test.parent.mkdir()
    text = (FIXTURES / "echo_corpus.jsonl").read_text()
    test.write_text(text.replace("the nervous child", "the nervous chile", 1))
    code, _, err = run_cli(
        capsys, "run", report, "--tune", corpus_file, "--test", test,
        "--cache", tmp_path / "cache.jsonl", "--out-dir", tmp_path / "replay",
    )
    assert code == 2
    assert err == f"data error: {report}: the replayed report differs in per_sentence\n"
    assert (tmp_path / "replay" / report.name).read_bytes() != report.read_bytes()


def test_run_of_a_kate_report_is_data_error(corpus_file, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "kate",
        "--embeddings", "test", "--k-list", "2", "--out-dir", tmp_path / "grid",
    )
    assert code == 0
    report = tmp_path / "grid" / "kate-k2-high-to-low.json"
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path, "run"), report,
        "--out-dir", tmp_path / "replay",
    )
    assert code == 2
    assert err == (f"data error: {report}:1: "
                   "a KATE report does not record each query's pairs\n")
    assert not (tmp_path / "replay").exists()


def test_run_reports_a_test_corpus_fault_as_grid_does(corpus_file, tmp_path, capsys):
    rows = [("a", "The cat sat down.", ["The cat sat."]),
            ("b", "A dog ran away.", ["A dog ran."]),
            ("c", "The cat sat down.", ["A cat sat."])]
    test, repeats = tmp_path / "test.jsonl", tmp_path / "repeats.jsonl"
    save_jsonl(make_corpus(rows[:2]), test)
    save_jsonl(make_corpus(rows), repeats)
    args = ("--tune", corpus_file, "--cache", tmp_path / "cache.jsonl")
    code, _, _ = run_cli(
        capsys, "grid", *args, "--test", test, "--backend", "mock-first-reference",
        "--method", "cr", "--k-list", "1", "--out-dir", tmp_path / "grid",
    )
    assert code == 0
    report = tmp_path / "grid" / "cr-k1-high-to-low.json"
    code, _, grid_err = run_cli(
        capsys, "grid", *args, "--test", repeats, "--backend", "mock-first-reference",
        "--method", "cr", "--k-list", "1", "--out-dir", tmp_path / "grid2",
    )
    assert (code, grid_err) == (
        2, "data error: instance c repeats a source with another first reference\n"
    )
    code, _, err = run_cli(
        capsys, "run", report, *args, "--test", repeats, "--out-dir", tmp_path / "replay"
    )
    assert (code, err) == (2, grid_err)
    assert str(report) not in err


def _set(path, value):
    """A change to a report object: *value* at the dotted *path*."""
    *parents, last = path.split(".")

    def change(obj):
        for key in parents:
            obj = obj[int(key) if isinstance(obj, list) else key]
        obj[last] = value
    return change


def _delete_k(obj):
    del obj["manifest"]["k"]


# case: (a change to a good report's object, or its new text; the message)
REPORT_FAULTS = {
    "bad-json": ("not json\n", "Expecting value"),
    "missing-field": (_delete_k, "missing field 'k'"),
    "unknown-method": (
        _set("manifest.selection_method", "bogus"), "unknown selection method 'bogus'"
    ),
    "unknown-ordering": (_set("manifest.ordering", "bogus"), "unknown ordering 'bogus'"),
    "bad-params": (_set("manifest.params.temperature", -1), "temperature must be >= 0"),
    "unknown-backend": (
        _set("manifest.backend", "bogus"), "unknown completion backend 'bogus'"
    ),
    "pair-not-in-tune-corpus": (
        _set("manifest.selected_pairs.0.instance_id", "99"), "instance '99' is not in 'dev'"
    ),
    "reference-out-of-range": (
        _set("manifest.selected_pairs.0.reference_index", 2),
        "instance '0' has no reference 2",
    ),
    "k-without-its-pairs": (_set("manifest.k", 3), "k 3 but 2 selected pairs"),
}


@pytest.mark.parametrize("case", list(REPORT_FAULTS))
def test_report_fault_is_data_error(case, corpus_file, tmp_path, capsys):
    report = _cr_report(capsys, corpus_file, tmp_path)
    change, message = REPORT_FAULTS[case]
    if isinstance(change, str):
        report.write_text(change)
    else:
        obj = json.loads(report.read_text())
        change(obj)
        report.write_text(json.dumps(obj))
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path, "run"), report,
        "--out-dir", tmp_path / "replay",
    )
    assert (code, err) == (2, f"data error: {report}:1: {message}\n")
    assert not (tmp_path / "replay").exists()


def test_malformed_example_set_is_data_error(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    set_path = tmp_path / "set.jsonl"
    run_cli(capsys, "select", scores, "--k", "2", "-o", set_path)
    lines = [json.loads(line) for line in set_path.read_text().splitlines()]
    lines[1]["source"] = None
    set_path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    code, _, err = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 2 and f"{set_path}:2: " in err
    del lines[0]["reference_index"]
    set_path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    code, _, err = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 2 and f"{set_path}:1: missing field 'reference_index'" in err


GOOD_INSTANCE = (
    '{"id": "0", "source": "A big cat sat.", "references": ["A cat sat."]}\n'
)
GOOD_VECTOR = '{"token": "a", "vector": [1.0, 0.0]}\n'

# case: (file, its text or None for an absent file, line the error names)
MALFORMED_INPUTS = {
    "null-source": (
        "dev.jsonl",
        GOOD_INSTANCE + '{"id": "1", "source": null, "references": ["B."]}\n',
        2,
    ),
    "null-reference": (
        "dev.jsonl",
        GOOD_INSTANCE + '{"id": "1", "source": "B c.", "references": [null]}\n',
        2,
    ),
    "number-references": (
        "dev.jsonl",
        GOOD_INSTANCE + '{"id": "1", "source": "B c.", "references": 5}\n',
        2,
    ),
    "string-references": (
        "dev.jsonl",
        GOOD_INSTANCE + '{"id": "1", "source": "B c.", "references": "abc"}\n',
        2,
    ),
    "int-and-string-id": (
        "dev.jsonl",
        '{"id": 1, "source": "A b.", "references": ["A."]}\n\n'
        '{"id": "1", "source": "B c.", "references": ["B."]}\n',
        3,
    ),
    "embedding-bad-json": ("emb.jsonl", GOOD_VECTOR + '{"token": "b", \n', 2),
    "embedding-no-vector": ("emb.jsonl", GOOD_VECTOR + '{"token": "b"}\n', 2),
    "embedding-keyed-tok": (
        "emb.jsonl", GOOD_VECTOR + '{"tok": "b", "vector": [0.0, 1.0]}\n', 2
    ),
    "embedding-string-vector": (
        "emb.jsonl", GOOD_VECTOR + '{"token": "b", "vector": "01"}\n', 2
    ),
    "embedding-nan": (
        "emb.jsonl", GOOD_VECTOR + '{"token": "b", "vector": [NaN, 1]}\n', 2
    ),
    "embedding-infinity": (
        "emb.jsonl", GOOD_VECTOR + '{"token": "b", "vector": [0.0, -Infinity]}\n', 2
    ),
    "embedding-bool": (
        "emb.jsonl", GOOD_VECTOR + '{"token": "b", "vector": [true, 0.0]}\n', 2
    ),
    "embedding-norm-overflow": (
        "emb.jsonl", GOOD_VECTOR + '{"token": "b", "vector": [1e308, 1e308]}\n', 2
    ),
    "embedding-file-missing": ("emb.jsonl", None, None),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_names_file_and_line(case, tmp_path, capsys):
    name, text, lineno = MALFORMED_INPUTS[case]
    files = {"dev.jsonl": GOOD_INSTANCE, "emb.jsonl": GOOD_VECTOR, name: text}
    for file, content in files.items():
        if content is not None:
            (tmp_path / file).write_text(content)
    code, _, err = run_cli(
        capsys, "score", tmp_path / "dev.jsonl", "--metric", "bertprec",
        "--embeddings", f"file:{tmp_path / 'emb.jsonl'}", "-o", tmp_path / "s.jsonl",
    )
    assert code == 2
    if lineno is None:
        assert f"{tmp_path / name} not found" in err
    else:
        assert f"{tmp_path / name}:{lineno}: " in err


SECTIONS = "Simplify.\n---\nComplex: {c} Simple: {r}\n---\nComplex: {c} Simple:"
PARALLEL = {"par/complex.txt": "A big cat sat.\nA dog ran far.\n",
            "par/ref.0.txt": "A cat sat.\nA dog ran.\n"}
SCORE_CR = ["score", "{d}/dev.jsonl", "--metric", "cr", "-o", "{d}/s.jsonl"]
BUILD_PROMPT = ["build-prompt", "--query", "A query.", "--template", "{d}/t.txt"]

# case: (files under a fresh directory {d}, CLI arguments, the one stderr line)
DATA_FAULTS = {
    "short-reference-file": (
        {**PARALLEL, "par/ref.1.txt": "A cat sat.\n"},
        ["score", "{d}/par", "--metric", "cr", "-o", "{d}/s.jsonl"],
        "{d}/par/ref.1.txt: expected 2 lines, got 1",
    ),
    "blank-corpus-line": (
        {**PARALLEL, "par/complex.txt": "A big cat sat.\n\n"},
        ["score", "{d}/par", "--metric", "cr", "-o", "{d}/s.jsonl"],
        "{d}/par/complex.txt:2: empty line",
    ),
    "bad-json": (
        {"dev.jsonl": GOOD_INSTANCE + '{"id": "1", \n'},
        SCORE_CR,
        "{d}/dev.jsonl:2: Expecting property name enclosed in double quotes",
    ),
    "missing-field": (
        {"dev.jsonl": GOOD_INSTANCE + '{"id": "1", "source": "B c."}\n'},
        SCORE_CR,
        "{d}/dev.jsonl:2: missing field 'references'",
    ),
    "wrong-type": (
        {"dev.jsonl": GOOD_INSTANCE + '{"id": "1", "source": "B c.", "references": 5}\n'},
        SCORE_CR,
        "{d}/dev.jsonl:2: references must be a list",
    ),
    "duplicate-id": (
        {"dev.jsonl": GOOD_INSTANCE * 2},
        SCORE_CR,
        "{d}/dev.jsonl:2: duplicate instance id '0'",
    ),
    "no-references": (
        {"dev.jsonl": '{"id": "0", "source": "A big cat sat.", "references": []}\n'},
        SCORE_CR,
        "{d}/dev.jsonl:1: instance '0' has no references",
    ),
    "token-not-in-embedding-file": (
        {"dev.jsonl": GOOD_INSTANCE, "emb.jsonl": GOOD_VECTOR},
        ["score", "{d}/dev.jsonl", "--metric", "bertprec",
         "--embeddings", "file:{d}/emb.jsonl", "-o", "{d}/s.jsonl"],
        "{d}/emb.jsonl: no embedding for token 'cat' in sentence 'a cat sat .'",
    ),
    "duplicate-embedding-token": (
        {"dev.jsonl": GOOD_INSTANCE,
         "emb.jsonl": GOOD_VECTOR + '{"token": "a", "vector": [0.0, 1.0]}\n'},
        ["score", "{d}/dev.jsonl", "--metric", "bertprec",
         "--embeddings", "file:{d}/emb.jsonl", "-o", "{d}/s.jsonl"],
        "{d}/emb.jsonl:2: duplicate token 'a'",
    ),
    "unused-zero-norm-embedding": (
        {"dev.jsonl": GOOD_INSTANCE,
         "emb.jsonl": GOOD_VECTOR + '{"token": "zero", "vector": [0.0, 0.0]}\n'},
        ["score", "{d}/dev.jsonl", "--metric", "bertprec",
         "--embeddings", "file:{d}/emb.jsonl", "-o", "{d}/s.jsonl"],
        "{d}/emb.jsonl:2: the vector of token 'zero' cannot be normalized: "
        "its norm is 0 or underflows",
    ),
    "vectors-of-two-lengths": (
        {"dev.jsonl": GOOD_INSTANCE,
         "emb.jsonl": GOOD_VECTOR + '{"token": "b", "vector": [0.0, 1.0, 0.0]}\n'},
        ["score", "{d}/dev.jsonl", "--metric", "bertprec",
         "--embeddings", "file:{d}/emb.jsonl", "-o", "{d}/s.jsonl"],
        "{d}/emb.jsonl:2: a vector of length 3, but the first vector has length 2",
    ),
    "select-from-no-pairs": (
        {"empty.jsonl": ""},
        ["select", "{d}/empty.jsonl", "--k", "2", "-o", "{d}/set.jsonl"],
        "no candidate pairs to select from",
    ),
    "example-format-without-r": (
        {"t.txt": SECTIONS.replace(" Simple: {r}", "")},
        BUILD_PROMPT,
        "template is missing slot {r}",
    ),
    "query-format-without-c": (
        {"t.txt": SECTIONS.replace("Complex: {c} Simple:", "Simple:")},
        BUILD_PROMPT,
        "template is missing slot {c}",
    ),
    "template-with-two-sections": (
        {"t.txt": SECTIONS.rsplit("\n---\n", 1)[0]},
        BUILD_PROMPT,
        "{d}/t.txt: expected 3 sections separated by --- lines, found 2",
    ),
}


@pytest.mark.parametrize("case", list(DATA_FAULTS))
def test_data_fault_prints_one_line_and_exits_2(case, tmp_path, capsys):
    files, args, line = DATA_FAULTS[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    code, _, err = run_cli(capsys, *(a.replace("{d}", str(tmp_path)) for a in args))
    assert (code, err) == (2, f"data error: {line.replace('{d}', str(tmp_path))}\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_a_family_exit_code():
    # the package raises only the three families; the message names the fault
    assert {cls: (cls.exit_code, cls.label) for cls in _subclasses(MbiclError)} == {
        UsageError: (1, "error"),
        DataError: (2, "data error"),
        BackendError: (3, "backend error"),
    }


def test_select_rejects_a_non_numeric_score(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    lines = scores.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "score": "high"}) + "\n"
    scores.write_text("".join(lines))
    code, _, err = run_cli(
        capsys, "select", scores, "--k", "2", "-o", tmp_path / "s.jsonl"
    )
    assert code == 2
    assert f"{scores}:2: " in err


def test_malformed_cache_line_is_quarantined(corpus_file, tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        *_run_args(corpus_file, tmp_path), "--method", "cr", "--k-list", "1",
        "--out-dir", tmp_path / "r",
    ]
    assert run_cli(capsys, *args)[0] == 0
    good = cache.read_text()
    cache.write_text('{"digest": "x"}\n' + good)

    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert cache.read_text() == good
    assert (tmp_path / "cache.jsonl.quarantine").read_text() == '{"digest": "x"}\n'


def test_evaluate_command(tmp_path, capsys):
    preds = tmp_path / "preds.txt"
    corpus = FIXTURES / "pin_corpus.jsonl"
    preds.write_text((FIXTURES / "pin_predictions.txt").read_text())
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "evaluate", "--test", corpus, "--predictions", preds, "-o", out
    )
    assert code == 0
    report = json.loads(out.read_text())
    pins = json.loads((FIXTURES / "metric_pins.json").read_text())
    assert report["sari"] == pytest.approx(pins["corpus_sari"], abs=1e-4)
    assert report["bleu"] == pytest.approx(pins["corpus_bleu_order4"], abs=1e-4)


def test_empty_test_corpus_is_data_error(corpus_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    preds = tmp_path / "empty.txt"
    preds.write_text("")
    code, _, err = run_cli(
        capsys, "evaluate", "--test", empty, "--predictions", preds,
        "-o", tmp_path / "report.json",
    )
    assert code == 2
    assert "data error: test corpus 'empty' has no instances" in err

    code, _, err = run_cli(
        capsys, "grid", "--tune", corpus_file, "--test", empty, "--method", "cr",
        "--k-list", "1,2", "--out-dir", tmp_path / "g",
    )
    assert code == 2
    for cell in ("cr-k1-high-to-low", "cr-k2-high-to-low"):
        assert f"cell {cell} failed: test corpus 'empty' has no instances" in err
    assert "Traceback" not in err


def test_evaluate_scores_a_grid_cell_as_the_grid_does(corpus_file, tmp_path, capsys):
    # mock-first-reference predicts each test instance's first reference; the
    # 20-instance test corpus spans two blocks of the n-gram table
    test = FIXTURES / "pin_corpus.jsonl"
    code, _, _ = run_cli(
        capsys, "grid", "--tune", corpus_file, "--test", test,
        "--backend", "mock-first-reference", "--method", "cr", "--k-list", "1",
        "--out-dir", tmp_path / "grid",
    )
    assert code == 0
    cell = json.loads((tmp_path / "grid" / "cr-k1-high-to-low.json").read_text())
    predictions = tmp_path / "predictions.txt"
    predictions.write_text(
        "".join(inst.references[0].raw + "\n" for inst in mbicl.load_jsonl(test))
    )
    code, _, _ = run_cli(
        capsys, "evaluate", "--test", test, "--predictions", predictions,
        "-o", tmp_path / "evaluated.json",
    )
    assert code == 0
    evaluated = json.loads((tmp_path / "evaluated.json").read_text())
    assert evaluated["per_sentence"] == cell["per_sentence"]
    assert (evaluated["sari"], evaluated["bleu"]) == (cell["sari"], cell["bleu"])


def test_evaluate_rejects_a_blank_prediction_line(tmp_path, capsys):
    corpus = tmp_path / "test.jsonl"
    lines = (FIXTURES / "pin_corpus.jsonl").read_text().splitlines(keepends=True)
    corpus.write_text("".join(lines[:3]))
    preds = tmp_path / "preds.txt"
    lines = (FIXTURES / "pin_predictions.txt").read_text().splitlines()[:3]
    lines[1] = ""
    preds.write_text("\n".join(lines + ["An extra line."]) + "\n")
    code, _, err = run_cli(
        capsys, "evaluate", "--test", corpus, "--predictions", preds,
        "-o", tmp_path / "report.json",
    )
    assert code == 2
    assert f"{preds}:2: empty line" in err


def test_grid_needs_a_seed_only_for_random_cells(corpus_file, tmp_path, capsys):
    args = ("grid", "--tune", corpus_file, "--test", corpus_file, "--k-list", "1,2")
    code, _, _ = run_cli(capsys, *args, "--out-dir", tmp_path / "sari")
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "sari").iterdir()) == [
        "grid.csv", "sari-k1-high-to-low.json", "sari-k2-high-to-low.json"
    ]
    code, _, err = run_cli(
        capsys, *args, "--method", "random", "--out-dir", tmp_path / "random"
    )
    assert code == 1
    assert "--seed" in err


_RUN = ("run", "--tune", "{dev}", "--test", "{test}", "--out-dir", "{out}")
_GRID = ("grid", "--tune", "{dev}", "--test", "{test}", "--out-dir", "{out}",
         "--method", "cr", "--k-list", "1")

# case: (the error it reports, its arguments)
BAD_ARGUMENTS = {
    "select --k 0": (
        "k must be >= 1", ("select", "{scores}", "--k", "0", "-o", "{out}")
    ),
    "grid --k-list -1": ("k must be >= 1", (*_GRID[:-1], "-1")),
    "grid --max-in-flight 0": (
        "max_in_flight must be >= 1", (*_GRID, "--max-in-flight", "0")
    ),
    "--temperature -1": (
        "temperature must be >= 0", (*_GRID, "--temperature", "-1")
    ),
    "--top-p 0": ("top_p must be in (0, 1]", (*_GRID, "--top-p", "0")),
    "--embeddings bogus": (
        "unknown embedding backend 'bogus'",
        (*_GRID, "--embeddings", "bogus"),
    ),
    "grid --orderings bogus": (
        "unknown ordering 'bogus'", (*_GRID, "--orderings", "bogus")
    ),
    "grid random ordering without --seed": (
        "needs --seed", (*_GRID, "--orderings", "random")
    ),
    "run without --example-set": (
        "No such option '--example-set'", (*_RUN, "--example-set", "{scores}")
    ),
    "run without a report": ("Missing argument 'REPORT'", _RUN),
    "run --method": ("No such option '--method'", (*_RUN, "{scores}", "--method", "cr")),
    "run --backend": (
        "No such option '--backend'", (*_RUN, "{scores}", "--backend", "mock-echo")
    ),
    "run --out-dir of the report": (
        "--out-dir must not hold the report it replays",
        (*_RUN[:-1], "{scores_dir}", "{scores}"),
    ),
    "grid --k-list ''": ("at least one k value", (*_GRID[:-1], "")),
    "grid --orderings ,": ("at least one k value and one ordering",
                           (*_GRID, "--orderings", ",")),
    "grid --k-list 1,1": ("a k value, ordering or seed is listed twice",
                          (*_GRID[:-1], "1,1")),
    "grid zero-shot at k 1": (
        "zero-shot runs only at k 0", (*_GRID, "--method", "zero-shot")
    ),
    "grid --k-list 1,x": (
        "not a list of integers: '1,x'", (*_GRID[:-1], "1,x")
    ),
    "grid --method random --seed a": (
        "not a list of integers: 'a'", (*_GRID, "--method", "random", "--seed", "a")
    ),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_bad_argument_is_usage_error(case, corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    paths = {"dev": corpus_file, "test": FIXTURES / "echo_corpus.jsonl",
             "scores": scores, "scores_dir": tmp_path, "out": tmp_path / "out"}
    message, args = BAD_ARGUMENTS[case]
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in args))
    assert code == 1
    assert "error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["grid", "run"])
def test_max_in_flight_0_is_rejected_before_any_work(
    command, corpus_file, tmp_path, capsys, monkeypatch
):
    def no_load(*args, **kwargs):
        raise AssertionError("a corpus was loaded")

    monkeypatch.setattr("mbicl.cli._load_corpus", no_load)
    message, args = BAD_ARGUMENTS["grid --max-in-flight 0"]
    if command == "run":
        args = (*_RUN, corpus_file, "--max-in-flight", "0")
    paths = {"dev": corpus_file, "test": FIXTURES / "echo_corpus.jsonl",
             "out": tmp_path / "out"}
    code, _, err = run_cli(capsys, *(str(a).format(**paths) for a in args))
    assert code == 1
    assert "error: " in err and message in err
    assert not any(line.startswith("cell ") for line in err.splitlines())
    assert not (tmp_path / "out" / "grid.csv").exists()


@pytest.mark.parametrize("command", ["grid", "run"])
@pytest.mark.parametrize("below", [(), ("sub", "dir")], ids=["file", "below-file"])
def test_out_dir_at_or_below_a_file_is_rejected_before_any_work(
    command, below, corpus_file, tmp_path, capsys, monkeypatch
):
    def no_load(*args, **kwargs):
        raise AssertionError("a corpus was loaded")

    monkeypatch.setattr("mbicl.cli._load_corpus", no_load)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    args = _GRID if command == "grid" else (*_RUN, corpus_file)
    paths = {"dev": corpus_file, "test": FIXTURES / "echo_corpus.jsonl",
             "out": blocker.joinpath(*below)}
    code, _, err = run_cli(capsys, *(str(a).format(**paths) for a in args))
    assert (code, err) == (
        1, f"error: Invalid value for '--out-dir': {str(blocker)!r} is not a directory\n"
    )
    assert blocker.read_text() == "kept\n"


# command: (its arguments but -o, and the first work a bad -o must prevent)
_OUTPUT_COMMANDS = {
    "score": (("score", "{dev}", "--metric", "cr"), "mbicl.cli._load_corpus"),
    "select": (("select", "{dev}", "--k", "1"), "mbicl.selection.load_scored_pairs"),
    "evaluate": (("evaluate", "--test", "{dev}", "--predictions", "{dev}"),
                 "mbicl.cli._load_corpus"),
}


@pytest.mark.parametrize("command", list(_OUTPUT_COMMANDS))
@pytest.mark.parametrize("at", ["dir", "file/x.jsonl", "file/sub/x.jsonl"])
def test_output_that_cannot_be_written_is_rejected_before_any_work(
    command, at, corpus_file, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("work was done")

    args, work = _OUTPUT_COMMANDS[command]
    monkeypatch.setattr(work, no_work)
    (tmp_path / "dir").mkdir()
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = tmp_path / at
    code, _, err = run_cli(capsys, *(a.format(dev=corpus_file) for a in args), "-o", out)
    fault = (f"{str(out)!r} is a directory" if at == "dir"
             else f"{str(blocker)!r} is not a directory")
    assert (code, err) == (1, f"error: Invalid value for '-o' / '--output': {fault}\n")
    assert blocker.read_text() == "kept\n"


def test_output_in_a_new_directory_is_created(corpus_file, tmp_path, capsys):
    scores, chosen, report = (tmp_path / "new" / name for name in ("s/x", "c/x", "r/x"))
    predictions = tmp_path / "preds.txt"
    predictions.write_text("A cat sat.\nHe came back.\nThe house was torn down.\n")
    for args in (("score", corpus_file, "--metric", "cr", "-o", scores),
                 ("select", scores, "--k", "2", "-o", chosen),
                 ("evaluate", "--test", corpus_file, "--predictions", predictions,
                  "-o", report)):
        assert run_cli(capsys, *args)[0] == 0
    assert [len(p.read_text().splitlines()) for p in (scores, chosen)] == [6, 2]
    assert '"sari"' in report.read_text()


def test_kate_grid_on_an_empty_tune_corpus_fails_each_cell(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run_cli(
        capsys, "grid", "--tune", empty, "--test", FIXTURES / "echo_corpus.jsonl",
        "--method", "kate", "--embeddings", "test", "--k-list", "1,2",
        "--out-dir", tmp_path / "out",
    )
    assert (code, err) == (2, "cell kate-k1-high-to-low failed: no candidate pairs "
                              "to select from\n"
                              "cell kate-k2-high-to-low failed: no candidate pairs "
                              "to select from\n"
                              "data error: no candidate pairs to select from\n")


def test_grid_at_one_or_four_in_flight_writes_the_same_bytes(corpus_file, tmp_path, capsys):
    outputs, digests = {}, {}
    for n in ("1", "4"):
        cache = tmp_path / f"cache{n}.jsonl"
        code, _, _ = run_cli(
            capsys, "grid", "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
            "--cache", cache, "--method", "cr", "--k-list", "0,1,2",
            "--orderings", "high-to-low,random", "--seed", "0,1",
            "--max-in-flight", n, "--out-dir", tmp_path / n,
        )
        assert code == 0
        outputs[n] = {p.name: p.read_bytes() for p in (tmp_path / n).iterdir()}
        digests[n] = {json.loads(line)["digest"] for line in cache.read_text().splitlines()}
    assert len(outputs["1"]) == 8  # k 0; k 1 and 2 x (high-to-low, 2 seeds); grid.csv
    assert outputs["1"] == outputs["4"]
    assert digests["1"] == digests["4"]


def _cr_grid_with_cache(capsys, corpus_file, cache, out_dir):
    return run_cli(
        capsys, "grid", "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
        "--cache", cache, "--method", "cr", "--k-list", "1", "--out-dir", out_dir,
    )


def test_cache_in_a_new_directory_is_created(corpus_file, tmp_path, capsys):
    cache = tmp_path / "new" / "dir" / "cache.jsonl"
    code, _, err = _cr_grid_with_cache(capsys, corpus_file, cache, tmp_path / "g")
    assert (code, err) == (0, "")
    assert len(cache.read_text().splitlines()) == 10


def test_cache_that_is_a_directory_is_usage_error(corpus_file, tmp_path, capsys):
    code, _, err = _cr_grid_with_cache(capsys, corpus_file, tmp_path, tmp_path / "g")
    assert code == 1
    assert err == f"error: the cache {str(tmp_path)!r} is a directory\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["in-file", "below-file"])
def test_cache_below_a_file_is_usage_error(below, corpus_file, tmp_path, capsys):
    cache = (tmp_path / "file").joinpath(*below, "c.jsonl")
    (tmp_path / "file").write_text("kept\n")
    code, _, err = _cr_grid_with_cache(capsys, corpus_file, cache, tmp_path / "g")
    assert (code, err) == (
        1, f"error: the cache {str(cache)!r} is below a file that is not a directory\n"
    )
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not (tmp_path / "g").exists()


def test_choice_lists_are_the_library_tuples():
    def choices(command, name):
        [param] = [p for p in cli.commands[command].params if p.name == name]
        return tuple(param.type.choices)

    assert choices("score", "metric") == selection.METRICS
    assert choices("select", "ordering") == selection.ORDERINGS
    assert choices("grid", "method") == selection.METHODS
    assert choices("grid", "backend_name") == llm.BACKENDS
    assert selection.METHODS[:len(selection.METRICS)] == selection.METRICS


def test_run_whose_every_cell_fails_reports_the_cell(corpus_file, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "bertprec",
        "--k-list", "2", "--out-dir", tmp_path / "fresh",
    )
    assert code == 1
    assert "cell bertprec-k2-high-to-low failed: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("backend", ["mock-echo", "mock-first-reference"])
def test_mock_backend_needs_the_default_markers(backend, corpus_file, tmp_path, capsys):
    template = tmp_path / "t.txt"
    template.write_text("Rewrite.\n---\nHard: {c}\nEasy: {r}\n---\nHard: {c}\nEasy:")
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--backend", backend,
        "--template", template, "--method", "cr", "--k-list", "1",
        "--out-dir", tmp_path / "g",
    )
    assert code == 3
    assert err.endswith(
        "backend error: 10 of 10 completions failed; first, instance 0: "
        "mock backend: the prompt has no 'Complex sentence:' marker\n"
    )


def test_failed_cell_is_reported_once(corpus_file, tmp_path):
    # a separate process, so that nothing but the program handles its logging
    template = tmp_path / "t.txt"
    template.write_text("Rewrite.\n---\nHard: {c}\nEasy: {r}\n---\nHard: {c}\nEasy:")
    proc = subprocess.run(
        [sys.executable, "-m", "mbicl.cli", *_run_args(corpus_file, tmp_path),
         "--template", template, "--method", "cr", "--k-list", "1",
         "--out-dir", tmp_path / "g"],
        env={**os.environ, "PYTHONPATH": str(Path(mbicl.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    failed = [line for line in proc.stderr.splitlines()
              if line.startswith("cell cr-k1-high-to-low failed: ")]
    assert len(failed) == 1


# case: (tune corpus, grid arguments, the cells with no pair to select)
NO_CANDIDATE_PAIRS = {
    # every reference restates its source, so bertprec drops every pair
    "bertprec-duplicates": (
        '{"id": "0", "source": "A big cat sat.", "references": ["A big cat sat."]}\n'
        '{"id": "1", "source": "A dog ran far.", "references": ["A dog ran far."]}\n',
        ("--method", "bertprec", "--embeddings", "test"),
        ["bertprec-k1-high-to-low", "bertprec-k2-high-to-low"],
    ),
    "random-empty-tune": (
        "", ("--method", "random", "--seed", "0"),
        ["random-k1-high-to-low-seed0", "random-k2-high-to-low-seed0"],
    ),
}


@pytest.mark.parametrize("case", list(NO_CANDIDATE_PAIRS))
def test_grid_cell_with_no_candidate_pairs_fails(case, tmp_path, capsys):
    text, args, cells = NO_CANDIDATE_PAIRS[case]
    tune = tmp_path / "tune.jsonl"
    tune.write_text(text)
    out_dir = tmp_path / "g"
    code, _, err = run_cli(
        capsys, "grid", "--tune", tune, "--test", FIXTURES / "echo_corpus.jsonl",
        *args, "--k-list", "0,1,2", "--out-dir", out_dir,
    )
    assert code == 2
    assert err.splitlines() == [
        *(f"cell {cell} failed: no candidate pairs to select from" for cell in cells),
        "data error: no candidate pairs to select from",
    ]
    assert {p.name for p in out_dir.iterdir()} == {f"{args[1]}-k0.json", "grid.csv"}


def test_grid_cell_with_k_above_the_pool_fails(tmp_path, capsys):
    tune = tmp_path / "tune.jsonl"
    tune.write_text("".join((FIXTURES / "pin_corpus.jsonl").read_text().splitlines(
        keepends=True)[:2]))
    out_dir = tmp_path / "g"
    code, _, err = run_cli(
        capsys, "grid", "--tune", tune, "--test", FIXTURES / "echo_corpus.jsonl",
        "--method", "cr", "--k-list", "4,20", "--out-dir", out_dir,
    )
    assert code == 2
    assert err.splitlines() == [
        "cell cr-k20-high-to-low failed: k 20 exceeds the candidate pool of 4 pairs",
        "data error: k 20 exceeds the candidate pool of 4 pairs",
    ]
    assert {p.name for p in out_dir.iterdir()} == {"cr-k4-high-to-low.json", "grid.csv"}


def test_grid_emits_reports_and_csv(corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "g"
    code, out, _ = run_cli(
        capsys, "grid", "--tune", corpus_file, "--test",
        FIXTURES / "echo_corpus.jsonl", "--method", "cr",
        "--k-list", "1,2,4", "--seed", "0", "--out-dir", out_dir,
    )
    assert code == 0
    assert len(list(Path(out_dir).glob("cr-*.json"))) == 3
    assert (Path(out_dir) / "grid.csv").exists()
    assert "SARI" in out


def test_zero_shot_grid_writes_one_report(corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "g"
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "zero-shot",
        "--k-list", "0", "--out-dir", out_dir,
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["grid.csv", "zero-shot-k0.json"]
    report = json.loads((out_dir / "zero-shot-k0.json").read_text())
    assert report["manifest"]["selected_pairs"] == []
    assert report["manifest"]["ordering"] is report["manifest"]["seed"] is None

    # k 0 has no examples to order: one cell whatever the orderings, no --seed
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "zero-shot",
        "--k-list", "0", "--orderings", "random,high-to-low", "--out-dir", out_dir,
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["grid.csv", "zero-shot-k0.json"]
    assert json.loads((out_dir / "zero-shot-k0.json").read_text()) == report


def test_readme_commands_use_declared_flags(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S)[1]
    commands = [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("mbicl ")
    ]
    assert len(commands) >= 6
    for line in commands:
        command = cli.commands[line.split()[1]]
        declared = {opt for param in command.params for opt in param.opts}
        for flag in re.findall(r"(?<!\S)--[\w-]+", line):
            assert flag in declared, f"mbicl {command.name} has no {flag}: {line}"

    # the documented workflows run, in order, on small corpora
    (tmp_path / "dev.jsonl").write_text((FIXTURES / "pin_corpus.jsonl").read_text())
    test = (FIXTURES / "echo_corpus.jsonl").read_text()
    (tmp_path / "test.jsonl").write_text(test)
    (tmp_path / "preds.txt").write_text(
        "".join(json.loads(line)["source"] + "\n" for line in test.splitlines())
    )
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"


def test_http_backend_missing_credentials_is_backend_error(
    corpus_file, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("MBICL_API_KEY", raising=False)
    code, _, _ = run_cli(
        capsys, "grid", "--tune", corpus_file, "--test", corpus_file,
        "--backend", "http", "--base-url", "http://127.0.0.1:1",
        "--method", "cr", "--k-list", "1", "--out-dir", tmp_path / "r",
    )
    assert code == 3
