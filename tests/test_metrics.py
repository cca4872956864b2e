import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, make_corpus, sent
from mbicl import (
    Sentence,
    bertscore_precision,
    bleu_corpus,
    compression_ratio,
    evaluate,
    load_jsonl,
    sari_sentence,
    score_pairs,
)
from mbicl.errors import DataError
from mbicl.corpus import read_lines
from mbicl.metrics import ReferenceCounts, all_ngrams, leave_one_out_sari, ngram_counts
from oracles import (
    bleu_oracle,
    naive_bleu_corpus,
    naive_leave_one_out,
    naive_sari_sentence,
    sari_oracle,
)

ROOT2 = math.sqrt(2) / 2


# -- compression ratio ---------------------------------------------------

def test_cr_halving():
    assert compression_ratio(sent("abcdefgh"), sent("abcd")) == 2.0


def test_cr_identity():
    assert compression_ratio(sent("same text"), sent("same text")) == 1.0


def test_cr_expansion():
    assert compression_ratio(sent("a" * 11), sent("b" * 22)) == 0.5


def test_cr_empty_raises():
    with pytest.raises(DataError, match="sentence text is empty"):
        sent("   ")


@given(st.text(min_size=1, max_size=30), st.text(min_size=1, max_size=30))
def test_cr_reciprocal(a, b):
    if not a.strip() or not b.strip():
        return
    sa, sb = sent(a), sent(b)
    assert compression_ratio(sa, sb) * compression_ratio(sb, sa) == pytest.approx(1.0)


# -- bertscore precision -------------------------------------------------

def unit_rows(rows):
    m = np.asarray(rows, dtype=float)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_bertprec_identity():
    m = unit_rows([[1.0, 2.0], [3.0, -1.0]])
    assert bertscore_precision(m, m) == pytest.approx(1.0, abs=1e-9)


def test_bertprec_orthogonal():
    cand = np.array([[1.0, 0.0], [1.0, 0.0]])
    ref = np.array([[0.0, 1.0]])
    assert bertscore_precision(cand, ref) == pytest.approx(0.0, abs=1e-12)


def test_bertprec_hand_derived():
    cand = np.array([[1.0, 0.0], [0.0, 1.0]])
    ref = np.array([[ROOT2, ROOT2]])
    assert bertscore_precision(cand, ref) == pytest.approx(ROOT2, abs=1e-4)


def test_bertprec_matches_brute_force():
    rng = np.random.default_rng(7)
    cand = unit_rows(rng.normal(size=(5, 8)))
    ref = unit_rows(rng.normal(size=(3, 8)))
    from oracles import max_cosine_mean_oracle

    expected = max_cosine_mean_oracle(cand.tolist(), ref.tolist())
    assert bertscore_precision(cand, ref) == pytest.approx(expected, abs=1e-12)


def test_bertprec_row_permutation_invariance():
    rng = np.random.default_rng(3)
    cand = unit_rows(rng.normal(size=(4, 6)))
    ref = unit_rows(rng.normal(size=(5, 6)))
    base = bertscore_precision(cand, ref)
    for seed in range(5):
        perm_rng = np.random.default_rng(seed)
        assert bertscore_precision(
            cand[perm_rng.permutation(4)], ref[perm_rng.permutation(5)]
        ) == pytest.approx(base, abs=1e-12)


def test_bertprec_errors():
    m = np.array([[1.0, 0.0]])
    with pytest.raises(DataError, match="empty embedding matrix"):
        bertscore_precision(np.empty((0, 2)), m)
    with pytest.raises(DataError, match="^2 vs 3$"):
        bertscore_precision(m, np.array([[1.0, 0.0, 0.0]]))


# -- SARI ----------------------------------------------------------------

def test_sari_perfect_operations():
    # prediction identical to the single reference, source disjoint
    score = sari_sentence(sent("x y z"), sent("p q r"), [sent("p q r")])
    # keep and add where defined are perfect; value pinned by the oracle
    expected = sari_oracle(["x", "y", "z"], ["p", "q", "r"], [["p", "q", "r"]])
    assert score == pytest.approx(expected, abs=1e-12)


def test_sari_all_identical_pinned_by_oracle():
    s = sent("a b c d")
    expected = sari_oracle(list(s.tokens), list(s.tokens), [list(s.tokens)])
    assert sari_sentence(s, s, [s]) == pytest.approx(expected, abs=1e-12)
    # keep is perfect, add/del vacuous -> (1 + 0 + 0) / 3 per order
    assert sari_sentence(s, s, [s]) == pytest.approx(100 / 3, abs=1e-9)


def test_sari_species_example():
    src = sent("about 95 species are currently accepted .")
    pred = sent("about 95 species are currently known .")
    refs = [
        sent("about 95 species are currently known ."),
        sent("about 95 species are now accepted ."),
    ]
    expected = sari_oracle(
        list(src.tokens), list(pred.tokens), [list(r.tokens) for r in refs]
    )
    assert sari_sentence(src, pred, refs) == pytest.approx(expected, abs=1e-12)
    # frozen from the oracle run
    assert sari_sentence(src, pred, refs) == pytest.approx(76.7845931518, abs=1e-9)


def test_sari_no_references():
    with pytest.raises(DataError, match="SARI needs at least one reference"):
        sari_sentence(sent("a"), sent("b"), [])


# corpus SARI is evaluate(...).sari, the mean of sentence SARI

def test_sari_corpus_mean():
    s1 = sari_sentence(sent("a b"), sent("a"), [sent("a")])
    s2 = sari_sentence(sent("c d"), sent("c"), [sent("c")])
    corpus = make_corpus([("0", "a b", ["a"]), ("1", "c d", ["c"])])
    got = evaluate(corpus, [sent("a"), sent("c")]).sari
    assert got == pytest.approx((s1 + s2) / 2, abs=1e-12)


def test_sari_corpus_single_equals_sentence():
    args = (sent("a b c"), sent("a b"), [sent("a b"), sent("a c")])
    corpus = make_corpus([("0", "a b c", ["a b", "a c"])])
    assert evaluate(corpus, [args[1]]).sari == pytest.approx(sari_sentence(*args))


def test_sari_corpus_empty():
    with pytest.raises(DataError, match="test corpus 'toy' has no instances"):
        evaluate(make_corpus([]), [])
    with pytest.raises(DataError, match="0 predictions for 1 instances"):
        evaluate(make_corpus([("0", "a", ["a"])]), [])


token_strategy = st.text(alphabet="abcdefghij", min_size=1, max_size=3)
sentence_strategy = st.lists(token_strategy, min_size=1, max_size=8).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(
    sentence_strategy,
    sentence_strategy,
    st.lists(sentence_strategy, min_size=2, max_size=3),
)
def test_sari_matches_oracle_on_random_inputs(src, pred, refs):
    got = sari_sentence(sent(src), sent(pred), [sent(r) for r in refs])
    expected = sari_oracle(src.split(), pred.split(), [r.split() for r in refs])
    assert got == pytest.approx(expected, abs=1e-9)
    assert 0.0 <= got <= 100.0


# -- BLEU ----------------------------------------------------------------

def test_bleu_perfect_match():
    preds = [sent("the cat sat on the mat"), sent("he ran home quickly today")]
    refs = [
        [sent("the cat sat on the mat"), sent("a cat sat")],
        [sent("he ran home quickly today")],
    ]
    assert bleu_corpus(preds, refs) == pytest.approx(100.0, abs=1e-9)


def test_bleu_zero_overlap():
    preds = [sent("x y z w v")]
    refs = [[sent("a b c d e")]]
    assert bleu_corpus(preds, refs) == 0.0


def test_bleu_matches_oracle():
    preds = [
        sent("the cat sat on the mat"),
        sent("he went home at dawn"),
        sent("a dog barked loudly at night"),
    ]
    refs = [
        [sent("the cat sat on a mat"), sent("the cat rested on the mat")],
        [sent("he returned home at dawn"), sent("he came home early")],
        [sent("the dog barked at night"), sent("a dog barked all night")],
    ]
    expected = bleu_oracle(
        [list(p.tokens) for p in preds],
        [[list(r.tokens) for r in rl] for rl in refs],
    )
    assert bleu_corpus(preds, refs) == pytest.approx(expected, abs=1e-9)


def test_bleu_reference_order_invariance():
    preds = [sent("the cat sat on the mat")]
    refs = [sent("the cat sat on a mat"), sent("a cat sat on the mat")]
    a = bleu_corpus(preds, [refs])
    b = bleu_corpus(preds, [list(reversed(refs))])
    assert a == pytest.approx(b, abs=1e-12)


def test_bleu_brevity_penalty():
    # shorter prediction than reference triggers the penalty; every n-gram of
    # the prediction matches, so BLEU-4 is the penalty alone
    preds = [sent("the cat sat on the mat")]
    refs = [[sent("the cat sat on the mat today")]]
    expected = bleu_oracle([list(preds[0].tokens)], [[list(refs[0][0].tokens)]])
    assert bleu_corpus(preds, refs) == pytest.approx(expected)
    assert bleu_corpus(preds, refs) == pytest.approx(100 * math.exp(1 - 7 / 6))
    assert 0.0 < bleu_corpus(preds, refs) < 100.0


def test_bleu_errors():
    with pytest.raises(DataError, match="cannot score an empty corpus"):
        bleu_corpus([], [])
    with pytest.raises(DataError, match="1 predictions, 0 reference lists"):
        bleu_corpus([sent("a")], [])
    preds = [sent("a b"), sent("c d")]
    with pytest.raises(ValueError, match="zip"):
        bleu_corpus(preds, [[p] for p in preds], counts=[all_ngrams(preds[0].tokens)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(sentence_strategy, st.lists(sentence_strategy, min_size=1, max_size=3)),
        min_size=1,
        max_size=4,
    )
)
def test_bleu_range_property(rows):
    preds = [sent(p) for p, _ in rows]
    refs = [[sent(r) for r in rl] for _, rl in rows]
    score = bleu_corpus(preds, refs)
    assert 0.0 <= score <= 100.0


# -- reference tables ----------------------------------------------------

def _generated_corpus(seed, n=30):
    """Instances over a small vocabulary, so references repeat n-grams (BLEU
    clip maxima above 1), with predictions that mix source, reference and
    foreign words (n-grams absent from both source and references)."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(16)]

    def words(pool, lo, hi):
        return " ".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))

    rows, predictions = [], []
    for i in range(n):
        source = words(vocab, 4, 30)
        refs = [words(source.split() + ["g"], 1, 24) for _ in range(rng.randint(2, 10))]
        rows.append({"id": str(i), "source": source, "references": refs})
        predictions.append(sent(words(source.split() + ["x", "y", "g"], 1, 24)))
    return "\n".join(json.dumps(r) for r in rows) + "\n", predictions


def _exactness_corpora(tmp_path):
    pin = load_jsonl(FIXTURES / "pin_corpus.jsonl")
    pin_predictions = [
        Sentence.from_raw(line) for line in read_lines(FIXTURES / "pin_predictions.txt")
    ]
    yield pin, pin_predictions
    text, predictions = _generated_corpus(seed=0)
    path = tmp_path / "generated.jsonl"
    path.write_text(text)
    yield load_jsonl(path), predictions


def test_reference_tables_equal_the_naive_path_exactly(tmp_path):
    saw_clip_above_one = saw_foreign_ngram = False
    for corpus, generated in _exactness_corpora(tmp_path):
        naive_loo = [
            naive_sari_sentence(
                inst.source, ref, inst.references[:j] + inst.references[j + 1 :]
            )
            for inst in corpus
            for j, ref in enumerate(inst.references)
        ]
        assert [p.score for p in score_pairs(corpus, "sari")] == naive_loo

        prediction_sets = [
            generated,
            [inst.source for inst in corpus],
            [inst.references[-1] for inst in corpus],
            [sent(inst.source.raw + " zzz qqq") for inst in corpus],
        ]
        for predictions in prediction_sets:
            for inst, pred in zip(corpus, predictions):
                expected = naive_sari_sentence(inst.source, pred, inst.references)
                table = ReferenceCounts(inst.source, inst.references)
                assert sari_sentence(inst.source, pred, table) == expected
                assert sari_sentence(inst.source, pred, inst.references) == expected
                saw_foreign_ngram |= any(
                    g not in table.summed[0] and g not in table.source[0]
                    for g in ngram_counts(pred.tokens, 1)
                )
        refs = [inst.references for inst in corpus]
        tables = [ReferenceCounts(inst.source, inst.references) for inst in corpus]
        saw_clip_above_one |= any(t.clip[0] for t in tables)
        for predictions in prediction_sets:
            for inst, pred, table in zip(corpus, predictions, tables):
                expected = naive_bleu_corpus([pred], [inst.references])
                assert bleu_corpus([pred], [table]) == expected
            expected = naive_bleu_corpus(predictions, refs)
            assert bleu_corpus(predictions, tables) == expected
            assert bleu_corpus(predictions, refs) == expected
    assert saw_clip_above_one and saw_foreign_ngram


def test_leave_one_out_tables_hold_the_other_references():
    source = sent("a b c")
    inst_refs = [sent("a b a"), sent("a c"), sent("b b")]
    # "c" occurs only in reference 1, so holding it out drops the n-gram
    predictions = [source, *inst_refs, sent("c"), sent("a b"), sent("a c d"), sent("d")]
    for j in range(len(inst_refs)):
        rest = inst_refs[:j] + inst_refs[j + 1 :]
        # each prediction is held out as the last reference of an instance
        # whose other references are *rest*
        corpus = make_corpus([(str(i), source.raw, [r.raw for r in (*rest, pred)])
                              for i, pred in enumerate(predictions)])
        held_out = [p for p in score_pairs(corpus, "sari")
                    if p.reference_index == len(rest)]
        for pred, pair in zip(predictions, held_out, strict=True):
            assert pair.simple == pred
            assert pair.score == naive_sari_sentence(source, pred, rest)
            expected = sari_oracle(
                list(source.tokens), list(pred.tokens), [list(r.tokens) for r in rest]
            )
            assert pair.score == pytest.approx(expected, abs=1e-12)


@st.composite
def loo_instance(draw):
    """A source, 2-5 references and a prediction over a 3-5 letter alphabet.

    References may repeat the source, an earlier reference, or the source
    with its n-grams repeated more often than the source has them; the
    prediction may hold a letter foreign to both sides."""
    letters = "abcde"[: draw(st.integers(3, 5))]
    words = st.lists(st.sampled_from(letters), min_size=1, max_size=8)
    source = draw(words)
    refs = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["free", "source", "earlier", "overcount"]))
        if kind == "source":
            refs.append(source)
        elif kind == "earlier" and refs:
            refs.append(draw(st.sampled_from(refs)))
        elif kind == "overcount":
            refs.append(source + source[: draw(st.integers(1, len(source)))])
        else:
            refs.append(draw(words))
    foreign = draw(st.lists(st.sampled_from(letters + "z"), min_size=1, max_size=8))
    return " ".join(source), [" ".join(r) for r in refs], " ".join(foreign)


@settings(max_examples=150, deadline=None)
@given(st.lists(loo_instance(), min_size=1, max_size=3))
def test_shared_counts_equal_the_naive_path_exactly(rows):
    corpus = make_corpus(
        [(str(i), source, refs) for i, (source, refs, _) in enumerate(rows)]
    )
    naive_loo = [
        naive_sari_sentence(
            inst.source, ref, inst.references[:j] + inst.references[j + 1 :]
        )
        for inst in corpus
        for j, ref in enumerate(inst.references)
    ]
    assert [p.score for p in score_pairs(corpus, "sari")] == naive_loo
    for inst, (_, _, foreign) in zip(corpus, rows):
        table = ReferenceCounts(inst.source, inst.references)
        for pred in (inst.source, inst.references[-1], sent(foreign)):
            expected = naive_sari_sentence(inst.source, pred, inst.references)
            assert sari_sentence(inst.source, pred, table) == expected


def test_leave_one_out_counts_each_sentence_once(monkeypatch):
    from mbicl import metrics

    calls = []
    real = metrics.ngram_counts

    def counting(tokens, order):
        calls.append(order)
        return real(tokens, order)

    monkeypatch.setattr(metrics, "ngram_counts", counting)
    refs = [f"The cat number {i} sat on the mat." for i in range(10)]
    corpus = make_corpus([("0", "The big cat sat down on the old mat.", refs)])
    scores = [p.score for p in score_pairs(corpus, "sari")]
    # the kernel counts interned tokens, never through ngram_counts
    assert calls == []
    assert scores == naive_leave_one_out(corpus)


# case: rows of (id, source, references) whose leave-one-out scores must equal
# naive_leave_one_out exactly
LOO_EDGE_CASES = {
    "sentences-shorter-than-4-tokens": [
        ("0", "a b", ["a", "a b c", "b"]),
        ("1", "c", ["c d", "d", "c d e f g"]),
        ("2", "a b c d e", ["a b", "e"]),
    ],
    "no-4-gram-anywhere": [("0", "a b c", ["a b", "b c a"]), ("1", "x", ["x y", "y"])],
    "reference-equals-source": [
        ("0", "the cat sat on the mat", ["the cat sat on the mat", "the cat sat",
                                         "a cat sat on a mat"]),
        ("1", "he left", ["he left", "he left"]),
    ],
    "duplicate-references": [
        ("0", "the big cat sat",
         ["the cat sat", "the cat sat", "a cat sat", "the cat sat"]),
    ],
    "repeated-source-n-gram": [
        ("0", "the cat and the cat and the dog",
         ["the cat and the dog", "the cat the cat the cat",
          "a dog and the cat and the cat"]),
        ("1", "a a a a a", ["a a", "a a a a a a", "b a a"]),
    ],
    "two-references": [
        ("0", "the old house was demolished",
         ["the house was torn down", "they removed it"]),
        ("1", "she ran home fast", ["she ran home", "she ran home fast"]),
        ("2", "x y", ["z", "x y z w"]),
    ],
}


@pytest.mark.parametrize("case", list(LOO_EDGE_CASES))
def test_leave_one_out_edge_cases_equal_the_naive_path(case):
    corpus = make_corpus(LOO_EDGE_CASES[case])
    scores = leave_one_out_sari(corpus.instances)
    assert scores == naive_leave_one_out(corpus)
    assert [p.score for p in score_pairs(corpus, "sari")] == scores


def test_leave_one_out_skips_single_reference_instances(caplog):
    corpus = make_corpus([
        ("0", "a cat sat", ["a cat"]),
        ("1", "the dog ran far away", ["the dog ran", "a dog ran far", "dog ran"]),
        ("2", "it rained", ["rain"]),
        ("3", "the sun rose early", ["the sun rose", "sun up"]),
    ])
    pairs = score_pairs(corpus, "sari")
    assert [p.key for p in pairs] == [("1", 0), ("1", 1), ("1", 2), ("3", 0), ("3", 1)]
    assert [p.score for p in pairs] == naive_leave_one_out(corpus)
    assert caplog.messages == ["skipped 2 single-reference instance(s) for SARI scoring"]


def test_leave_one_out_blocks_equal_the_naive_path():
    from mbicl import metrics

    rng = random.Random(5)
    letters = "abcdef"

    def words(lo, hi):
        return " ".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    n = 2 * metrics._LOO_BLOCK + 5
    rows = []
    for i in range(n):
        # the whole second block has sources too short for 4-grams
        short = metrics._LOO_BLOCK <= i < 2 * metrics._LOO_BLOCK
        source = words(1, 3) if short else words(1, 12)
        refs = [words(1, 10) for _ in range(rng.randint(2, 7))]
        if rng.random() < 0.3:
            refs[rng.randrange(len(refs))] = source
        rows.append((str(i), source, refs))
    corpus = make_corpus(rows)
    assert leave_one_out_sari(corpus.instances) == naive_leave_one_out(corpus)
