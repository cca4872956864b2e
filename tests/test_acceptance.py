"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import FIXTURES, CountingBackend, load_pins, make_corpus, sent
from mbicl import (
    CompletionClient,
    ExperimentConfig,
    GenerationParams,
    PromptTemplate,
    ResponseCache,
    bertscore_precision,
    bleu_corpus,
    build_prompt,
    evaluate,
    order_examples,
    run_experiment,
    sari_sentence,
    score_pairs,
    select_top_k,
)
from mbicl.errors import DataError
from mbicl.llm import MockEchoBackend
from oracles import naive_sari_sentence, sari_oracle
from test_selection import make_pair


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def random_instance(rng):
    vocab = [f"w{i}" for i in range(10)]

    def sentence():
        return [rng.choice(vocab) for _ in range(rng.randint(1, 8))]

    return sentence(), sentence(), [sentence() for _ in range(rng.randint(2, 3))]


def test_criterion_1_sari_oracle_equivalence():
    with criterion("1 SARI oracle equivalence (200 random instances, 1e-9)"):
        rng = random.Random(1234)
        start = time.perf_counter()
        for _ in range(200):
            src, pred, refs = random_instance(rng)
            got = sari_sentence(
                sent(" ".join(src)), sent(" ".join(pred)),
                [sent(" ".join(r)) for r in refs],
            )
            expected = sari_oracle(src, pred, refs)
            assert math.isclose(got, expected, abs_tol=1e-9)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_fixture_pin(pin_corpus):
    with criterion("2 fixture pin: corpus SARI and BLEU within 1e-4"):
        start = time.perf_counter()
        pins = load_pins("metric_pins.json")
        predictions = [
            sent(line)
            for line in (FIXTURES / "pin_predictions.txt")
            .read_text()
            .splitlines()
        ]
        refs = [inst.references for inst in pin_corpus]
        sari = evaluate(pin_corpus, predictions).sari
        bleu = bleu_corpus(predictions, refs)
        assert sari == pytest.approx(pins["corpus_sari"], abs=1e-4)
        assert bleu == pytest.approx(pins["corpus_bleu_order4"], abs=1e-4)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_bleu_boundaries():
    with criterion("3 BLEU boundary properties"):
        preds = [sent("the cat sat on the mat"), sent("he went home at dawn")]
        refs = [
            [sent("a cat sat on it"), sent("the cat sat on the mat")],
            [sent("he went home at dawn")],
        ]
        assert bleu_corpus(preds, refs) == pytest.approx(100.0, abs=1e-9)

        disjoint = bleu_corpus(
            [sent("x y z w v u")], [[sent("a b c d e f")]]
        )
        assert disjoint == 0.0

        rng = random.Random(7)
        shuffle_refs = [
            [sent("the cat sat on a mat"), sent("a cat sat there now"),
             sent("the cat rested on the mat")],
            [sent("he came home at dawn"), sent("he returned home early")],
        ]
        shuffle_preds = [sent("the cat sat on the mat"), sent("he went home at dawn")]
        base = bleu_corpus(shuffle_preds, shuffle_refs)
        for _ in range(100):
            shuffled = [list(rl) for rl in shuffle_refs]
            for rl in shuffled:
                rng.shuffle(rl)
            assert bleu_corpus(shuffle_preds, shuffled) == pytest.approx(
                base, abs=1e-12
            )


def test_criterion_4_bertscore_precision():
    with criterion("4 BERTScore precision identities and hand-derived value"):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 16))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        assert bertscore_precision(m, m) == pytest.approx(1.0, abs=1e-9)

        cand = np.array([[1.0, 0.0], [1.0, 0.0]])
        ref = np.array([[0.0, 1.0]])
        assert bertscore_precision(cand, ref) == pytest.approx(0.0, abs=1e-9)

        hand = bertscore_precision(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([[math.sqrt(2) / 2, math.sqrt(2) / 2]]),
        )
        assert hand == pytest.approx(0.7071, abs=1e-4)

        cand = rng.normal(size=(5, 8))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        ref = rng.normal(size=(4, 8))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        base = bertscore_precision(cand, ref)
        for seed in range(50):
            perm = np.random.default_rng(seed)
            assert bertscore_precision(
                cand[perm.permutation(5)], ref[perm.permutation(4)]
            ) == pytest.approx(base, abs=1e-12)


def test_criterion_5_selection_determinism():
    with criterion("5 selection determinism under input permutation"):
        rng = random.Random(99)
        pool = [
            make_pair(str(i), ref_index=i % 3, score=rng.choice([1.0, 2.5, 4.0, 7.0]))
            for i in range(50)
        ]
        baseline = select_top_k(pool, 12)
        for i in range(1000):
            shuffled = pool[:]
            random.Random(i).shuffle(shuffled)
            assert select_top_k(shuffled, 12) == baseline
        for ordering, seed in (("high-to-low", None), ("low-to-high", None),
                               ("random", 3)):
            rearranged = order_examples(baseline, ordering, seed)
            assert sorted(p.key for p in rearranged) == sorted(
                p.key for p in baseline
            )


def test_criterion_6_leave_one_out():
    with criterion("6 leave-one-out SARI contract"):
        corpus = make_corpus(
            [("0", "The big cat sat down.",
              ["The cat sat.", "A cat sat down.", "The big cat sat."])]
        )
        pairs = score_pairs(corpus, "sari")
        assert len(pairs) == 3
        # each reference is scored against the 2 others, never against itself
        inst = corpus.instances[0]
        for j, pair in enumerate(pairs):
            rest = inst.references[:j] + inst.references[j + 1 :]
            assert len(rest) == 2
            assert pair.score == naive_sari_sentence(inst.source, pair.simple, rest)
            assert pair.score != naive_sari_sentence(
                inst.source, pair.simple, inst.references
            )

        single = make_corpus([("0", "A cat sat.", ["A cat."])])
        with pytest.raises(DataError, match="SARI scoring needs instances with"):
            score_pairs(single, "sari")


def test_criterion_7_duplicate_discard():
    with criterion("7 duplicate pairs absent from BERTPrec selection"):
        from mbicl.embeddings import HashBackend

        corpus = make_corpus(
            [
                ("0", "A cat sat.", ["A cat sat.", "The cat."]),
                ("1", "The dog ran home.", ["The dog ran home.", "A dog went home."]),
            ]
        )
        pairs = score_pairs(corpus, "bertprec", HashBackend())
        assert ("0", 0) not in {p.key for p in pairs}
        assert ("1", 0) not in {p.key for p in pairs}


def _echo_config(tune, test, cache_path, **kwargs):
    kwargs.setdefault("selection_method", "sari")
    kwargs.setdefault("k_values", (2,))
    client = CompletionClient(
        CountingBackend(MockEchoBackend()),
        ResponseCache(cache_path) if cache_path else None,
    )
    return (
        ExperimentConfig(
            tune_corpus=tune, test_corpus=test, client=client,
            params=GenerationParams(), **kwargs,
        ),
        client,
    )


def test_criterion_8_end_to_end_echo(toy_corpus, echo_corpus, tmp_path):
    with criterion("8 end-to-end echo run matches frozen oracle values"):
        start = time.perf_counter()
        pins = load_pins("echo_pins.json")
        cache = tmp_path / "cache.jsonl"

        config, client = _echo_config(toy_corpus, echo_corpus, cache)
        reports_a, failures = run_experiment(config)
        assert not failures
        assert reports_a[0].sari == pytest.approx(pins["sari"], abs=1e-9)
        assert reports_a[0].bleu == pytest.approx(pins["bleu_order4"], abs=1e-9)
        assert client.backend.calls == len(echo_corpus)

        config, client = _echo_config(toy_corpus, echo_corpus, cache)
        reports_b, _ = run_experiment(config)
        assert client.backend.calls == 0
        assert reports_a[0].to_json() == reports_b[0].to_json()
        assert time.perf_counter() - start < 2.0


def test_criterion_9_grid_shapes(pin_corpus, echo_corpus, tmp_path):
    with criterion("9 grid shapes and out-of-domain provenance"):
        # the tune corpus has 40 pairs, more than the largest k
        config, _ = _echo_config(
            pin_corpus, echo_corpus, None, k_values=(1, 2, 4, 6, 8, 10, 15, 20)
        )
        reports, failures = run_experiment(config)
        assert not failures and len(reports) == 8

        config, _ = _echo_config(
            pin_corpus, echo_corpus, None,
            k_values=(6, 8, 10, 15),
            orderings=("high-to-low", "low-to-high", "random"),
            seeds=(0,),
        )
        reports, failures = run_experiment(config)
        assert not failures and len(reports) == 12

        tune = make_corpus(
            [("tune-a", "A long winding sentence here.", ["Short.", "Tiny one."]),
             ("tune-b", "Another elaborate formulation follows.", ["Brief.", "Small."])],
            name="tune-set",
        )
        config, _ = _echo_config(tune, echo_corpus, None, k_values=(2,))
        reports, _ = run_experiment(config)
        tune_ids = {"tune-a", "tune-b"}
        for report in reports:
            assert report.manifest["selected_pairs"]
            for pair in report.manifest["selected_pairs"]:
                assert pair["instance_id"] in tune_ids


def test_criterion_10_prompt_structure():
    with criterion("10 prompt marker counts and default generation params"):
        for k in (0, 1, 2, 4, 6, 8, 10, 15, 20):
            examples = (
                select_top_k([make_pair(str(i), score=i) for i in range(k)], k)
                if k
                else None
            )
            prompt = build_prompt(PromptTemplate(), examples, sent("Query text."))
            assert prompt.text.count("Complex sentence:") == k + 1
            assert prompt.text.count("Simple sentence:") == k + 1

        params = GenerationParams()
        assert (
            params.temperature,
            params.max_tokens,
            params.top_p,
            params.frequency_penalty,
            params.presence_penalty,
        ) == (0.7, 256, 1.0, 0.0, 0.0)
