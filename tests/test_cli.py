import json
from pathlib import Path

import pytest

from conftest import FIXTURES, http_reply
from mbicl.cli import main
from mbicl.corpus import save_jsonl
from mbicl.selection import load_example_set


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


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "score", "--nope")
    assert code == 1


def test_select_roundtrip(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    out = tmp_path / "set.json"
    code, _, _ = run_cli(capsys, "select", scores, "--k", "2", "-o", out)
    assert code == 0
    chosen = load_example_set(out)
    assert len(chosen.pairs) == 2
    assert chosen.ordering == "high-to-low"


def test_select_orderings_are_reverses(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    hi = tmp_path / "hi.json"
    lo = tmp_path / "lo.json"
    run_cli(capsys, "select", scores, "--k", "3", "--ordering", "high-to-low", "-o", hi)
    run_cli(capsys, "select", scores, "--k", "3", "--ordering", "low-to-high", "-o", lo)
    hi_keys = [p.key for p in load_example_set(hi).pairs]
    lo_keys = [p.key for p in load_example_set(lo).pairs]
    assert hi_keys == list(reversed(lo_keys))


def test_select_random_same_seed_identical(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
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
        "-o", tmp_path / "x.json",
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
    set_path = tmp_path / "set.json"
    run_cli(capsys, "select", scores, "--k", "2", "-o", set_path)
    code, out, _ = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 0
    assert out.count("Complex sentence:") == 3


def test_run_end_to_end_echo(corpus_file, tmp_path, capsys):
    report_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, "run", "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
        "--backend", "mock-echo", "--method", "sari", "--k", "2",
        "--cache", tmp_path / "cache.jsonl", "--report", report_dir,
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
        "run", "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
        "--backend", "mock-echo", "--method", "cr", "--k", "2",
        "--cache", tmp_path / "cache.jsonl",
    )
    run_cli(capsys, *args, "--report", tmp_path / "r1")
    cache_after_first = (tmp_path / "cache.jsonl").read_text()
    run_cli(capsys, *args, "--report", tmp_path / "r2")
    assert (tmp_path / "cache.jsonl").read_text() == cache_after_first
    a = next((tmp_path / "r1").glob("*.json")).read_text()
    b = next((tmp_path / "r2").glob("*.json")).read_text()
    assert a == b


def _cr_example_set(capsys, corpus_file, tmp_path, *select_args):
    """A k=2 example set selected from compression-ratio scores."""
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    set_path = tmp_path / "set.json"
    run_cli(capsys, "select", scores, "--k", "2", *select_args, "-o", set_path)
    return set_path


def _run_args(corpus_file, tmp_path):
    return (
        "run", "--tune", corpus_file, "--test", FIXTURES / "echo_corpus.jsonl",
        "--backend", "mock-echo", "--cache", tmp_path / "cache.jsonl",
    )


def test_run_example_set_matches_selection(corpus_file, tmp_path, capsys):
    set_path = _cr_example_set(capsys, corpus_file, tmp_path)
    args = _run_args(corpus_file, tmp_path)
    code, _, _ = run_cli(
        capsys, *args, "--example-set", set_path, "--report", tmp_path / "fixed"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, *args, "--method", "cr", "--k", "2", "--report", tmp_path / "selected"
    )
    assert code == 0
    for name in ("cr-k2-high-to-low.json", "grid.csv"):
        fixed = (tmp_path / "fixed" / name).read_bytes()
        assert fixed == (tmp_path / "selected" / name).read_bytes()


def test_run_random_example_set_cell_id(corpus_file, tmp_path, capsys):
    set_path = _cr_example_set(
        capsys, corpus_file, tmp_path, "--ordering", "random", "--seed", "7"
    )
    report_dir = tmp_path / "r"
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--example-set", set_path,
        "--report", report_dir,
    )
    assert code == 0
    report = json.loads((report_dir / "cr-k2-random-seed7.json").read_text())
    assert report["manifest"]["seed"] == 7


def test_malformed_example_set_is_data_error(corpus_file, tmp_path, capsys):
    set_path = _cr_example_set(capsys, corpus_file, tmp_path)
    obj = json.loads(set_path.read_text())
    obj["pairs"][1]["source"] = None
    set_path.write_text(json.dumps(obj))
    code, _, _ = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 2
    del obj["pairs"][0]["reference_index"]
    set_path.write_text(json.dumps(obj))
    code, _, err = run_cli(
        capsys, "build-prompt", "--example-set", set_path, "--query", "A query."
    )
    assert code == 2 and "reference_index" in err

    obj = json.loads(_cr_example_set(capsys, corpus_file, tmp_path).read_text())
    set_path.write_text(json.dumps({**obj, "ordering": "bogus"}))
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--example-set", set_path,
        "--report", tmp_path / "r",
    )
    assert code == 2 and f"{set_path}:1: " in err
    assert not (tmp_path / "r").exists()

    set_path.write_text("not json\n")
    code, _, _ = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--example-set", set_path,
        "--report", tmp_path / "r",
    )
    assert code == 2


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


def test_select_rejects_a_non_numeric_score(corpus_file, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    run_cli(capsys, "score", corpus_file, "--metric", "cr", "-o", scores)
    lines = scores.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "score": "high"}) + "\n"
    scores.write_text("".join(lines))
    code, _, err = run_cli(
        capsys, "select", scores, "--k", "2", "-o", tmp_path / "s.json"
    )
    assert code == 2
    assert f"{scores}:2: " in err


def test_malformed_cache_line_is_quarantined(corpus_file, tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        *_run_args(corpus_file, tmp_path), "--method", "cr", "--k", "1",
        "--report", tmp_path / "r",
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


_RUN = ("run", "--tune", "{dev}", "--test", "{test}", "--report", "{out}")
_GRID = ("grid", "--tune", "{dev}", "--test", "{test}", "--out-dir", "{out}",
         "--method", "cr", "--k-list", "1")

# case: (the error it reports, its arguments)
BAD_ARGUMENTS = {
    "select --k 0": (
        "k must be >= 1", ("select", "{scores}", "--k", "0", "-o", "{out}")
    ),
    "run --k -1": ("k must be >= 1", (*_RUN, "--method", "cr", "--k", "-1")),
    "grid --max-in-flight 0": (
        "max_in_flight must be >= 1", (*_GRID, "--max-in-flight", "0")
    ),
    "--temperature -1": (
        "temperature must be >= 0", (*_RUN, "--k", "1", "--temperature", "-1")
    ),
    "--top-p 0": ("top_p must be in (0, 1]", (*_GRID, "--top-p", "0")),
    "--bleu-order 0": (
        "BLEU order must be >= 1", (*_RUN, "--k", "1", "--bleu-order", "0")
    ),
    "--embeddings bogus": (
        "unknown embedding backend 'bogus'",
        (*_RUN, "--k", "1", "--embeddings", "bogus"),
    ),
    "grid --orderings bogus": (
        "unknown ordering 'bogus'", (*_GRID, "--orderings", "bogus")
    ),
    "grid random ordering without --seed": (
        "needs --seed", (*_GRID, "--orderings", "random")
    ),
    "run random ordering without --seed": (
        "needs --seed", (*_RUN, "--k", "1", "--ordering", "random")
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
             "scores": scores, "out": tmp_path / "out"}
    message, args = BAD_ARGUMENTS[case]
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in args))
    assert code == 1
    assert "error: " in err and message in err
    assert "Traceback" not in err


def test_run_whose_every_cell_fails_reports_the_cell(corpus_file, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, *_run_args(corpus_file, tmp_path), "--method", "bertprec",
        "--k", "2", "--report", tmp_path / "fresh",
    )
    assert code == 1
    assert "cell bertprec-k2-high-to-low failed: " in err
    assert "Traceback" not in err


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


def test_http_backend_missing_credentials_is_backend_error(
    corpus_file, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("MBICL_API_KEY", raising=False)
    code, _, _ = run_cli(
        capsys, "run", "--tune", corpus_file, "--test", corpus_file,
        "--backend", "http", "--base-url", "http://127.0.0.1:1",
        "--method", "cr", "--k", "1", "--report", tmp_path / "r",
    )
    assert code == 3
