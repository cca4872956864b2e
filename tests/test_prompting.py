import pytest

from conftest import sent
from mbicl import PromptTemplate, build_prompt, parse_completion, select_top_k
from mbicl.errors import DataError
from mbicl.prompting import load_template
from test_selection import make_pair


def example_set(n):
    return select_top_k([make_pair(str(i), score=n - i) for i in range(n)], n)


def test_zero_shot_structure():
    prompt = build_prompt(PromptTemplate(), None, sent("A big cat runs."))
    assert prompt.text.split("\n\n")[1:] == [
        "Complex sentence: A big cat runs.\nSimple sentence:"
    ]
    assert prompt.text.count("Complex sentence:") == 1
    assert prompt.text.count("Simple sentence:") == 1
    assert prompt.text.startswith("Simplify the following complex sentences.")
    assert prompt.text.endswith("Simple sentence:")


def test_two_shot_structure():
    prompt = build_prompt(PromptTemplate(), example_set(2), sent("A big cat runs."))
    assert prompt.text.split("\n\n")[1:3] == [
        "Complex sentence: src 0\nSimple sentence: simple 0",
        "Complex sentence: src 1\nSimple sentence: simple 1",
    ]
    assert prompt.text.count("Complex sentence:") == 3
    assert prompt.text.count("Simple sentence:") == 3


@pytest.mark.parametrize("k", [0, 1, 2, 4, 6, 8, 10, 15, 20])
def test_marker_counts_for_all_k(k):
    prompt = build_prompt(
        PromptTemplate(), example_set(k) if k else None, sent("Query text here.")
    )
    assert prompt.text.count("Complex sentence:") == k + 1
    assert prompt.text.count("Simple sentence:") == k + 1


def test_build_prompt_deterministic():
    a = build_prompt(PromptTemplate(), example_set(3), sent("Same query."))
    b = build_prompt(PromptTemplate(), example_set(3), sent("Same query."))
    assert a.text == b.text
    assert a.text.endswith("\n\nComplex sentence: Same query.\nSimple sentence:")


def test_example_order_changes_text():
    from mbicl import order_examples

    chosen = example_set(3)
    reversed_set = order_examples(chosen, "low-to-high")
    a = build_prompt(PromptTemplate(), chosen, sent("Same query."))
    b = build_prompt(PromptTemplate(), reversed_set, sent("Same query."))
    assert a.text != b.text


def test_template_slot_validation():
    with pytest.raises(DataError, match="template is missing slot {r}"):
        PromptTemplate(example_format="Complex: {c}")
    with pytest.raises(DataError, match="template is missing slot {c}"):
        PromptTemplate(query_format="no slot")


def test_template_file(tmp_path):
    p = tmp_path / "template.txt"
    p.write_text(
        "Rewrite simply.\n---\nComplex sentence: {c}, Simple sentence: {r}\n---\n"
        "Complex sentence: {c}, Simple sentence:"
    )
    template = load_template(p)
    prompt = build_prompt(template, None, sent("A thing."))
    assert prompt.text == (
        "Rewrite simply.\n\nComplex sentence: A thing., Simple sentence:"
    )


def test_parse_completion_trims():
    assert parse_completion(" The cat sat.\n").raw == "The cat sat."


def test_parse_completion_truncates_pattern_continuation():
    assert parse_completion("Simple.\n\nComplex sentence: next one").raw == "Simple."


def test_parse_completion_strips_leading_marker():
    assert parse_completion(" Simple sentence: The cat sat.").raw == "The cat sat."


def test_parse_completion_empty():
    with pytest.raises(DataError, match="model returned no usable text"):
        parse_completion("")
    with pytest.raises(DataError, match="model returned no usable text"):
        parse_completion("   \n\n  ")


def test_parse_completion_round_trip():
    assert parse_completion("Any single-line sentence.").raw == (
        "Any single-line sentence."
    )
