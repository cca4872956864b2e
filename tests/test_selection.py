import collections
import random

import pytest

from conftest import CountingEmbedder, make_corpus, sent
from mbicl import (
    Ordering,
    ScoredPair,
    bertscore_precision,
    kate_select,
    order_examples,
    random_select,
    score_pairs,
    select_top_k,
)
from mbicl.embeddings import HashBackend, cosine, embed_sentence, embed_tokens
from mbicl.errors import DataError, UsageError
from mbicl.selection import (
    DUPLICATE_SCORE,
    load_scored_pairs,
    pair_ref,
    pairs_from_refs,
    save_scored_pairs,
)
from oracles import naive_sari_sentence


def make_pair(id, ref_index=0, score=1.0, metric="cr"):
    return ScoredPair(
        instance_id=id,
        reference_index=ref_index,
        source=sent("src " + id),
        simple=sent("simple " + id),
        metric=metric,
        score=score,
    )


def test_score_pairs_cardinality():
    corpus = make_corpus(
        [
            ("0", "One two three four.", ["One two.", "One.", "Two three."]),
            ("1", "Five six seven eight.", ["Five.", "Six seven.", "Eight."]),
        ]
    )
    pairs = score_pairs(corpus, "cr")
    assert len(pairs) == 6
    # canonical order: instance order then reference index
    assert [(p.instance_id, p.reference_index) for p in pairs] == [
        ("0", 0), ("0", 1), ("0", 2), ("1", 0), ("1", 1), ("1", 2),
    ]


def test_score_pairs_cr_values(toy_corpus):
    pairs = score_pairs(toy_corpus, "cr")
    first = toy_corpus.instances[0]
    assert pairs[0].score == pytest.approx(
        len(first.source.raw) / len(first.references[0].raw)
    )


def test_score_pairs_sari_leave_one_out(toy_corpus):
    pairs = score_pairs(toy_corpus, "sari")
    assert len(pairs) == 6
    # 2 references each -> 1 left after holdout
    for pair in pairs:
        inst = next(i for i in toy_corpus if i.id == pair.instance_id)
        (rest,) = [r for j, r in enumerate(inst.references) if j != pair.reference_index]
        assert pair.simple == inst.references[pair.reference_index]
        assert pair.score == naive_sari_sentence(inst.source, pair.simple, [rest])


def test_score_pairs_sari_makes_no_per_pair_call(monkeypatch):
    from mbicl import metrics
    from mbicl import selection as sel

    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(metrics, "sari_sentence")
    spy(sel, "sari_sentence")
    spy(metrics, "sari_rows")
    spy(collections.Counter, "__init__")
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(300)]

    def words():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 30)))

    corpus = make_corpus(
        [(str(i), words(), [words() for _ in range(10)]) for i in range(200)]
    )
    pairs = score_pairs(corpus, "sari")
    assert len(pairs) == 2000
    # one kernel call per block of instances; scoring per pair made 2000
    # sari_sentence calls, each counting n-grams in Counters
    assert calls == ["sari_rows"] * -(-200 // metrics._BLOCK)


def test_score_pairs_sari_rejects_single_reference():
    corpus = make_corpus([("0", "A cat sat.", ["A cat."])])
    with pytest.raises(DataError, match="SARI scoring needs instances with"):
        score_pairs(corpus, "sari")


def test_score_pairs_sari_skips_single_reference_instances():
    corpus = make_corpus(
        [
            ("0", "A cat sat.", ["A cat."]),
            ("1", "A dog ran fast.", ["A dog ran.", "The dog ran."]),
        ]
    )
    pairs = score_pairs(corpus, "sari")
    assert {p.instance_id for p in pairs} == {"1"}


def test_score_pairs_bertprec_discards_duplicates():
    corpus = make_corpus(
        [("0", "A cat sat.", ["A cat sat.", "The cat."])]
    )
    pairs = score_pairs(corpus, "bertprec", HashBackend())
    # reference 0 token-equals the source -> discarded; reference 1 brings a
    # token absent from the source, so its score stays below 1
    assert [(p.instance_id, p.reference_index) for p in pairs] == [("0", 1)]


def test_score_pairs_bertprec_embeds_each_source_once(toy_corpus):
    backend = CountingEmbedder(HashBackend())
    pairs = score_pairs(toy_corpus, "bertprec", backend)
    expected = []
    for inst in toy_corpus:
        refs = [ref.tokens for ref in inst.references]
        expected += [refs[0], inst.source.tokens, *refs[1:]]
    assert backend.calls == expected
    scores = [
        (inst.id, j, bertscore_precision(embed_tokens(ref, HashBackend()),
                                         embed_tokens(inst.source, HashBackend())))
        for inst in toy_corpus for j, ref in enumerate(inst.references)
    ]
    assert [(p.instance_id, p.reference_index, p.score) for p in pairs] == [
        row for row in scores if row[2] < DUPLICATE_SCORE
    ]


def test_score_pairs_bertprec_needs_backend(toy_corpus):
    with pytest.raises(UsageError, match="BERTScore precision needs --embeddings"):
        score_pairs(toy_corpus, "bertprec")


def test_score_pairs_empty_corpus():
    with pytest.raises(DataError, match="cannot score an empty corpus"):
        score_pairs(make_corpus([]), "cr")


def test_select_top_k_basic():
    pairs = [make_pair("a", score=5), make_pair("b", score=3), make_pair("c", score=9)]
    chosen = select_top_k(pairs, 2)
    assert [p.score for p in chosen] == [9, 5]


def test_select_top_k_overflow():
    pairs = [make_pair("a"), make_pair("b")]
    assert len(select_top_k(pairs, 2)) == 2
    with pytest.raises(DataError, match="^k 10 exceeds the candidate pool of 2 pairs$"):
        select_top_k(pairs, 10)


def test_select_top_k_lexicographic_tie_break():
    pairs = [make_pair("2", score=4.0), make_pair("10", score=4.0)]
    chosen = select_top_k(pairs, 1)
    assert chosen[0].instance_id == "10"  # "10" < "2" lexicographically


def test_select_top_k_permutation_invariant():
    rng = random.Random(1)
    pool = [make_pair(str(i), score=rng.random()) for i in range(30)]
    baseline = select_top_k(pool, 10)
    for seed in range(20):
        shuffled = pool[:]
        random.Random(seed).shuffle(shuffled)
        assert select_top_k(shuffled, 10) == baseline


def test_order_examples_reversal():
    chosen = select_top_k([make_pair(str(i), score=i) for i in range(5)], 5)
    high = order_examples(chosen, "high-to-low")
    low = order_examples(chosen, "low-to-high")
    assert low == high[::-1]


def test_order_examples_random_deterministic():
    chosen = select_top_k([make_pair(str(i), score=i) for i in range(6)], 6)
    a = order_examples(chosen, "random", seed=42)
    b = order_examples(chosen, "random", seed=42)
    assert a == b


def test_order_examples_seeds_vary():
    chosen = select_top_k([make_pair(str(i), score=i) for i in range(6)], 6)
    orders = {
        tuple(p.instance_id for p in order_examples(chosen, "random", seed=s))
        for s in (1, 2, 3)
    }
    assert len(orders) >= 2


def test_order_examples_preserves_multiset():
    chosen = select_top_k([make_pair(str(i), score=i % 3) for i in range(7)], 7)
    for ordering, seed in (("high-to-low", None), ("low-to-high", None), ("random", 5)):
        rearranged = order_examples(chosen, ordering, seed)
        assert sorted(p.key for p in rearranged) == sorted(p.key for p in chosen)


def test_random_select_deterministic(toy_corpus):
    a = random_select(toy_corpus, 4, seed=17)
    b = random_select(toy_corpus, 4, seed=17)
    assert a == b
    assert all(p.score is None for p in a)


def test_random_select_seeds_differ():
    corpus = make_corpus(
        [(str(i), f"Sentence number {i} is long.", ["Short one.", "Short two."])
         for i in range(10)]
    )
    a = random_select(corpus, 6, seed=17)
    b = random_select(corpus, 6, seed=18)
    assert {p.key for p in a} != {p.key for p in b}


def test_random_select_needs_a_seed(toy_corpus):
    with pytest.raises(UsageError, match="random selection needs a seed"):
        random_select(toy_corpus, 2, None)


def test_random_select_whole_population(toy_corpus):
    chosen = random_select(toy_corpus, 6, seed=0)
    assert len(chosen) == 6
    assert len({p.key for p in chosen}) == 6


def test_random_select_caps_k(toy_corpus):
    with pytest.raises(DataError, match="^k 99 exceeds the candidate pool of 6 pairs$"):
        random_select(toy_corpus, 99, seed=0)


def test_kate_select_exact_match(toy_corpus):
    backend = HashBackend()
    query = toy_corpus.instances[1].source
    [chosen] = kate_select(toy_corpus, [query], 1, backend)
    assert chosen[0].instance_id == "1"
    assert chosen[0].reference_index == 0


def test_kate_select_orders_most_similar_last(toy_corpus):
    backend = HashBackend()
    query = sent("He returned to the village at dusk.")
    [ranked] = kate_select(toy_corpus, [query], 3, backend)
    sims = [p.score for p in ranked]
    assert sims == sorted(sims, reverse=True)  # ranked, most similar first
    # a low-to-high cell prompts with its top k the other way round
    chosen = order_examples(select_top_k(ranked, 3), Ordering.LOW_TO_HIGH)
    sims = [p.score for p in chosen]
    assert sims == sorted(sims)  # ascending, nearest adjacent to the query


def test_kate_select_matches_brute_force_cosines(toy_corpus):
    backend = HashBackend()
    query = sent("The dog barked at dawn.")
    qv = embed_sentence(query, backend)
    expected = sorted(
        toy_corpus,
        key=lambda inst: (-cosine(embed_sentence(inst.source, backend), qv), inst.id),
    )
    [chosen] = kate_select(toy_corpus, [query], 2, backend)
    assert [p.instance_id for p in chosen] == [inst.id for inst in expected[:2]]


KATE_DEV = [
    ("a", "The cat sat on the mat.", ["The cat sat."]),
    ("b", "A dog barked at the moon all night.", ["A dog barked."]),
    ("c", "He returned to the village at dawn.", ["He came back."]),
    ("d", "The old house was demolished quickly.", ["The house was torn down."]),
    ("e", "She sold the old car to a neighbour.", ["She sold the car."]),
    ("f", "He returned to the village at dawn.", ["He went home."]),
    ("g", "Rain fell on the village all night.", ["It rained."]),
]


def test_kate_select_every_query_and_k_match_brute_force():
    dev = make_corpus(KATE_DEV)
    backend = HashBackend()
    queries = [sent(q) for q in (
        "He returned to the village at dawn.",  # ties c and f exactly
        "The cat barked at the old moon.",
        "Rain fell all night.",
    )]
    ranked = kate_select(dev, queries, 5, backend)
    assert len(ranked) == len(queries)
    for query, pairs in zip(queries, ranked):
        qv = embed_sentence(query, backend)
        brute = sorted(
            (-cosine(embed_sentence(inst.source, backend), qv), inst.id) for inst in dev
        )
        for k in range(1, 6):
            top = select_top_k(pairs, k)
            assert [(-p.score, p.instance_id) for p in top] == brute[:k]
            assert all(p.reference_index == 0 for p in top)
    assert [p.instance_id for p in ranked[0][:2]] == ["c", "f"]


def test_kate_select_needs_backend(toy_corpus):
    with pytest.raises(UsageError, match="similarity retrieval needs --embeddings"):
        kate_select(toy_corpus, [sent("A query.")], 1, None)


def test_scored_pair_round_trip(tmp_path, toy_corpus):
    pairs = score_pairs(toy_corpus, "cr")
    p = tmp_path / "scores.jsonl"
    save_scored_pairs(pairs, p)
    reloaded = load_scored_pairs(p)
    assert [(r.key, r.metric, r.score) for r in reloaded] == [
        (r.key, r.metric, r.score) for r in pairs
    ]


def test_pair_refs_name_the_pairs_of_the_tune_corpus(toy_corpus):
    chosen = order_examples(select_top_k(score_pairs(toy_corpus, "cr"), 3), "random", 9)
    rebuilt = pairs_from_refs(toy_corpus, [pair_ref(p) for p in chosen], "cr")
    assert [(p.key, p.source, p.simple) for p in rebuilt] == [
        (p.key, p.source, p.simple) for p in chosen
    ]
    for ref, message in (
        ({"instance_id": "9", "reference_index": 0}, "instance '9' is not in 'toy'"),
        ({"instance_id": "0", "reference_index": 2}, "instance '0' has no reference 2"),
        ({"instance_id": "0", "reference_index": True},
         "instance '0' has no reference True"),
    ):
        with pytest.raises(DataError, match=f"^{message}$"):
            pairs_from_refs(toy_corpus, [ref], "cr")
