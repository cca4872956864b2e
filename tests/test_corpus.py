import re

import pytest

from mbicl import load_jsonl, load_parallel, tokenize
from mbicl.corpus import save_jsonl
from mbicl.errors import DataError


def write(path, text):
    path.write_text(text, encoding="utf-8")


def make_parallel_dir(tmp_path, sources, ref_columns):
    write(tmp_path / "complex.txt", "\n".join(sources) + "\n")
    for i, col in enumerate(ref_columns):
        write(tmp_path / f"ref.{i}.txt", "\n".join(col) + "\n")
    return tmp_path


def test_tokenize_splits_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_plain_words():
    assert tokenize("Dawn until he returned") == ["dawn", "until", "he", "returned"]


def test_tokenize_idempotent_on_rejoined_text():
    tokens = tokenize("Hello, world! It's 95 degrees.")
    assert tokenize(" ".join(tokens)) == tokens


def test_load_parallel_two_refs(tmp_path):
    d = make_parallel_dir(
        tmp_path, ["A big cat.", "A small dog."],
        [["A cat.", "A dog."], ["Big cat.", "Small dog."]],
    )
    corpus = load_parallel(d)
    assert len(corpus) == 2
    assert [inst.n_references for inst in corpus] == [2, 2]
    assert corpus.instances[0].id == "0"
    assert corpus.instances[1].references[1].raw == "Small dog."


def test_load_parallel_line_count_mismatch(tmp_path):
    d = make_parallel_dir(
        tmp_path, ["A big cat.", "A small dog."],
        [["A cat.", "A dog."], ["Big cat.", "Small dog.", "Extra."]],
    )
    with pytest.raises(DataError, match="ref.1.txt: expected 2 lines, got 3"):
        load_parallel(d)


def test_load_parallel_missing_complex(tmp_path):
    write(tmp_path / "ref.0.txt", "A cat.\n")
    with pytest.raises(DataError, match="complex.txt not found"):
        load_parallel(tmp_path)


def test_load_parallel_empty_line(tmp_path):
    write(tmp_path / "complex.txt", "A big cat.\n\nAnother.\n")
    write(tmp_path / "ref.0.txt", "A cat.\nB.\nC.\n")
    with pytest.raises(DataError, match="complex.txt:2: empty line"):
        load_parallel(tmp_path)


@pytest.mark.parametrize("extra, message", [
    ("ref.a.txt", "ref.a.txt: reference files are named ref.<i>.txt"),
    ("ref.01.txt", "ref.01.txt: reference files are named ref.<i>.txt"),
    ("ref.1.2.txt", "ref.1.2.txt: reference files are named ref.<i>.txt"),
    ("ref.2.txt", "ref.1.txt not found"),
], ids=["letter", "leading-zero", "two-dots", "gap"])
def test_load_parallel_rejects_bad_reference_names(tmp_path, extra, message):
    d = make_parallel_dir(tmp_path, ["A big cat."], [["A cat."]])
    write(d / extra, "Big cat.\n")
    with pytest.raises(DataError, match=re.escape(str(d / message))):
        load_parallel(d)


def test_load_jsonl_single(tmp_path):
    p = tmp_path / "c.jsonl"
    write(p, '{"id":"0","source":"A b.","references":["A b."]}\n')
    corpus = load_jsonl(p)
    assert len(corpus) == 1
    assert corpus.instances[0].n_references == 1


def test_load_jsonl_empty_references(tmp_path):
    p = tmp_path / "c.jsonl"
    write(p, '{"id":"0","source":"A b.","references":[]}\n')
    with pytest.raises(DataError, match="c.jsonl:1: instance '0' has no references"):
        load_jsonl(p)


def test_load_jsonl_duplicate_id(tmp_path):
    p = tmp_path / "c.jsonl"
    write(
        p,
        '{"id":"7","source":"A.","references":["A."]}\n'
        '{"id":"7","source":"B.","references":["B."]}\n',
    )
    with pytest.raises(DataError, match="c.jsonl:2: duplicate instance id '7'"):
        load_jsonl(p)


def test_load_jsonl_parse_error(tmp_path):
    p = tmp_path / "c.jsonl"
    write(p, "not json\n")
    with pytest.raises(DataError, match="c.jsonl:1: Expecting value"):
        load_jsonl(p)


def test_jsonl_round_trip(tmp_path, toy_corpus):
    p = tmp_path / "out.jsonl"
    save_jsonl(toy_corpus, p)
    reloaded = load_jsonl(p)
    assert len(reloaded) == len(toy_corpus)
    for a, b in zip(toy_corpus, reloaded):
        assert a.id == b.id
        assert a.source.raw == b.source.raw
        assert [r.raw for r in a.references] == [r.raw for r in b.references]


def test_parallel_and_jsonl_agree(tmp_path):
    sources = ["A big cat.", "A small dog."]
    refs = [["A cat.", "A dog."], ["Big cat.", "Small dog."]]
    d = make_parallel_dir(tmp_path, sources, refs)
    parallel = load_parallel(d)
    p = tmp_path / "same.jsonl"
    save_jsonl(parallel, p)
    jsonl = load_jsonl(p)
    assert [i.source.raw for i in parallel] == [i.source.raw for i in jsonl]
    assert [i.id for i in parallel] == [i.id for i in jsonl]

