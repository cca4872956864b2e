import collections
import dataclasses
import json

import pytest

from conftest import CountingBackend, CountingEmbedder, load_pins, make_corpus, sent
from oracles import left_sum, naive_bleu_corpus, naive_sari_sentence
from mbicl import (
    CompletionClient,
    ExperimentConfig,
    GenerationParams,
    ResponseCache,
    evaluate,
    run_experiment,
)
from mbicl import evaluation, metrics
from mbicl import selection as sel
from mbicl.embeddings import HashBackend, cosine, embed_sentence
from mbicl.errors import BackendError, DataError, UsageError
from mbicl.evaluation import format_grid_table, write_grid_csv, write_report
from mbicl.llm import MockEchoBackend, MockFirstReferenceBackend
from mbicl.metrics import bleu_corpus, sari_sentence
from mbicl.prompting import PromptTemplate, build_prompt
from mbicl.selection import ScoredPair


def echo_client(cache_path=None):
    cache = ResponseCache(cache_path) if cache_path else None
    return CompletionClient(CountingBackend(MockEchoBackend()), cache)


def config_for(tune, test, client, **kwargs):
    kwargs.setdefault("selection_method", "sari")
    kwargs.setdefault("params", GenerationParams(temperature=0.0))
    return ExperimentConfig(tune_corpus=tune, test_corpus=test, client=client, **kwargs)


def test_evaluate_matches_metric_kernels(echo_corpus):
    predictions = [inst.source for inst in echo_corpus]
    report = evaluate(echo_corpus, predictions)
    refs = [inst.references for inst in echo_corpus]
    sentence_sari = [
        sari_sentence(inst.source, pred, inst.references)
        for inst, pred in zip(echo_corpus, predictions)
    ]
    assert report.sari == pytest.approx(sum(sentence_sari) / len(sentence_sari))
    assert report.bleu == pytest.approx(bleu_corpus(predictions, refs))
    assert report.corpus_name == echo_corpus.name


def test_evaluate_mean_consistency(echo_corpus):
    predictions = [inst.references[0] for inst in echo_corpus]
    report = evaluate(echo_corpus, predictions)
    assert report.sari == left_sum(r["sari"] for r in report.per_sentence) / len(
        report.per_sentence
    )


def test_evaluate_reference_predictions_bleu_100(echo_corpus):
    predictions = [inst.references[0] for inst in echo_corpus]
    assert evaluate(echo_corpus, predictions).bleu == pytest.approx(100.0)


def test_evaluate_length_mismatch(echo_corpus):
    with pytest.raises(DataError, match="1 predictions for 10 instances"):
        evaluate(echo_corpus, [sent("short list.")])


def test_evaluate_counts_each_prediction_once(echo_corpus, monkeypatch):
    table = metrics.NgramTable(echo_corpus.instances)
    predictions = [
        inst.source if i % 3 == 0 else inst.references[0] if i % 3 == 1
        else sent("The sun was hidden for days .")
        for i, inst in enumerate(echo_corpus)
    ]
    counted, countered = [], []
    real_count, real_counter = metrics.NgramTable.count, collections.Counter.__init__

    def count(self, sentences):
        counted.append(list(sentences))
        return real_count(self, sentences)

    def counter(self, *args, **kwargs):
        countered.append(args)
        real_counter(self, *args, **kwargs)

    def build(self, *args, **kwargs):
        raise AssertionError("evaluate built a table it was given")

    monkeypatch.setattr(metrics.NgramTable, "count", count)
    monkeypatch.setattr(metrics.NgramTable, "__init__", build)
    monkeypatch.setattr(collections.Counter, "__init__", counter)
    report = evaluate(echo_corpus, predictions, table=table)
    monkeypatch.undo()
    # the predictions are interned once, for SARI and BLEU, and no Counter
    # counts an n-gram
    assert counted == [predictions]
    assert countered == []
    expected = [
        naive_sari_sentence(inst.source, pred, inst.references)
        for inst, pred in zip(echo_corpus, predictions)
    ]
    assert [row["sari"] for row in report.per_sentence] == expected
    assert report.sari == left_sum(expected) / len(expected)
    refs = [inst.references for inst in echo_corpus]
    assert report.bleu == naive_bleu_corpus(predictions, refs)


def test_grid_builds_each_test_table_once(toy_corpus, echo_corpus, monkeypatch):
    built = []
    real_init = metrics.NgramTable.__init__

    def count_init(self, instances, *args, **kwargs):
        built.append(instances)
        real_init(self, instances, *args, **kwargs)

    evaluated = []
    real_evaluate = evaluation.evaluate

    def record_evaluate(*args, **kwargs):
        evaluated.append((args, kwargs))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(metrics.NgramTable, "__init__", count_init)
    monkeypatch.setattr(evaluation, "evaluate", record_evaluate)
    config = config_for(
        toy_corpus, echo_corpus, echo_client(), k_values=(1, 2, 4),
        orderings=("high-to-low", "low-to-high", "random"), seeds=(0,),
    )
    reports, failures = run_experiment(config)
    monkeypatch.undo()
    assert not failures and len(reports) == 9
    # one table of the test corpus for the grid; the sari grid's
    # leave-one-out scoring builds its own of the tune corpus
    assert [b for b in built if b is echo_corpus.instances] == [echo_corpus.instances]
    for report, (args, kwargs) in zip(reports, evaluated, strict=True):
        assert kwargs.pop("table") is not None
        assert evaluate(*args, **kwargs).to_json() == report.to_json()


def test_echo_run_matches_pins(toy_corpus, echo_corpus, tmp_path):
    config = config_for(
        toy_corpus, echo_corpus, echo_client(tmp_path / "cache.jsonl"), k_values=(2,)
    )
    reports, failures = run_experiment(config)
    assert not failures
    assert len(reports) == 1
    pins = load_pins("echo_pins.json")
    assert reports[0].sari == pytest.approx(pins["sari"], abs=1e-9)
    assert reports[0].bleu == pytest.approx(pins["bleu_order4"], abs=1e-9)


def test_replay_is_byte_identical_with_zero_backend_calls(
    toy_corpus, echo_corpus, tmp_path
):
    path = tmp_path / "cache.jsonl"
    first_client = echo_client(path)
    config = config_for(toy_corpus, echo_corpus, first_client, k_values=(1, 2))
    reports_a, _ = run_experiment(config)
    assert first_client.backend.calls == 2 * len(echo_corpus)

    second_client = echo_client(path)
    config = config_for(toy_corpus, echo_corpus, second_client, k_values=(1, 2))
    reports_b, _ = run_experiment(config)
    assert second_client.backend.calls == 0
    assert [r.to_json() for r in reports_a] == [r.to_json() for r in reports_b]


def test_grid_shape_default_k(pin_corpus, echo_corpus):
    # the tune corpus has 40 pairs, more than the largest k
    config = config_for(pin_corpus, echo_corpus, echo_client())
    reports, failures = run_experiment(config)
    assert not failures
    assert len(reports) == 8
    assert [r.manifest["k"] for r in reports] == [1, 2, 4, 6, 8, 10, 15, 20]


def test_grid_shape_ordering_study(pin_corpus, echo_corpus):
    config = config_for(
        pin_corpus,
        echo_corpus,
        echo_client(),
        k_values=(6, 8, 10, 15),
        orderings=("high-to-low", "low-to-high", "random"),
        seeds=(0,),
    )
    reports, failures = run_experiment(config)
    assert not failures
    assert len(reports) == 12


def test_zero_shot_cell(toy_corpus, echo_corpus):
    config = config_for(toy_corpus, echo_corpus, echo_client(), k_values=(0,))
    reports, _ = run_experiment(config)
    assert reports[0].manifest["selected_pairs"] == []


def test_zero_shot_cell_completes_the_test_corpus_once(toy_corpus, echo_corpus):
    client = echo_client()
    config = config_for(
        toy_corpus, echo_corpus, client, selection_method="cr", k_values=(0, 1),
        orderings=("high-to-low", "low-to-high", "random"), seeds=(0, 1),
    )
    reports, failures = run_experiment(config)
    assert not failures
    assert [r.run_id for r in reports] == [
        "cr-k0", "cr-k1-high-to-low", "cr-k1-low-to-high",
        "cr-k1-random-seed0", "cr-k1-random-seed1",
    ]
    zero_shot = reports[0].manifest
    assert (zero_shot["k"], zero_shot["ordering"], zero_shot["seed"]) == (0, None, None)
    # one pass over the test corpus for k 0, one per k 1 cell
    assert client.backend.calls == 5 * len(echo_corpus)


def test_out_of_domain_provenance(echo_corpus):
    tune = make_corpus(
        [
            ("tune-0", "A very long sentence about weather.", ["Weather talk.", "About rain."]),
            ("tune-1", "Another lengthy statement on traffic.", ["Traffic note.", "On cars."]),
        ],
        name="tune-set",
    )
    config = config_for(tune, echo_corpus, echo_client(), k_values=(2,))
    reports, _ = run_experiment(config)
    tune_ids = {inst.id for inst in tune}
    for report in reports:
        assert report.manifest["tune_corpus"] == "tune-set"
        for pair in report.manifest["selected_pairs"]:
            assert pair["instance_id"] in tune_ids


def test_cell_failure_is_isolated(toy_corpus, echo_corpus):
    # first-reference mock knows no echo-corpus queries when built from toy
    backend = MockFirstReferenceBackend({"nope": "nope"})
    config = config_for(
        toy_corpus, echo_corpus, CompletionClient(backend), k_values=(1, 2)
    )
    reports, failures = run_experiment(config)
    assert reports == []
    assert len(failures) == 2


@pytest.mark.parametrize("missing, blank, expected, count, first", [
    ((3, 7), (), BackendError, 2, "3: no reference for query"),
    ((7,), (1,), BackendError, 2, "7: no reference for query"),
    ((), (1, 4), DataError, 2, "1: model returned no usable text"),
], ids=["two-missing", "missing-outranks-blank", "two-blank"])
def test_failed_cell_names_count_and_first_instance(
    toy_corpus, echo_corpus, missing, blank, expected, count, first
):
    lookup = MockFirstReferenceBackend.for_corpus(echo_corpus).reference_lookup
    for i in missing:
        del lookup[echo_corpus.instances[i].source.raw]
    for i in blank:
        lookup[echo_corpus.instances[i].source.raw] = "\n\n"
    client = CompletionClient(MockFirstReferenceBackend(lookup))
    config = config_for(
        toy_corpus, echo_corpus, client, selection_method="cr", k_values=(1,)
    )
    reports, failures = run_experiment(config)
    assert reports == []
    [exc] = failures.values()
    assert type(exc) is expected
    assert str(exc).startswith(
        f"{count} of 10 completions failed; first, instance {first}"
    )


def test_random_selection_cells_per_seed(toy_corpus, echo_corpus):
    config = config_for(
        toy_corpus,
        echo_corpus,
        echo_client(),
        selection_method="random",
        k_values=(2,),
        seeds=(1, 2, 3),
    )
    reports, _ = run_experiment(config)
    assert len(reports) == 3
    assert [r.manifest["seed"] for r in reports] == [1, 2, 3]


def test_kate_cells(toy_corpus, echo_corpus):
    config = config_for(
        toy_corpus,
        echo_corpus,
        echo_client(),
        selection_method="kate",
        k_values=(2,),
        embedding_backend=HashBackend(),
    )
    reports, failures = run_experiment(config)
    assert not failures
    assert len(reports) == 1
    assert set(reports[0].manifest["selected_pairs"]) <= {"0", "1", "2"}


class RecordingBackend(MockEchoBackend):
    def __init__(self):
        self.prompts = []

    def generate(self, prompt_text, params):
        self.prompts.append(prompt_text)
        return super().generate(prompt_text, params)


def test_kate_grid_matches_brute_force_and_embeds_each_sentence_once(
    toy_corpus, echo_corpus
):
    backend, embedder = RecordingBackend(), CountingEmbedder(HashBackend())
    config = config_for(
        toy_corpus,
        echo_corpus,
        CompletionClient(backend),
        selection_method="kate",
        k_values=(1, 2, 3),
        orderings=("high-to-low", "low-to-high"),
        embedding_backend=embedder,
        max_in_flight=1,
    )
    reports, failures = run_experiment(config)
    assert not failures and len(reports) == 6
    queries = [inst.source for inst in echo_corpus]
    sources = [inst.source.tokens for inst in toy_corpus]
    assert embedder.calls == [
        queries[0].tokens, *sources, *(q.tokens for q in queries[1:])
    ]

    rankings = []
    for query in queries:
        qv = embed_sentence(query, HashBackend())
        rankings.append(sorted(
            toy_corpus,
            key=lambda i: (-cosine(embed_sentence(i.source, HashBackend()), qv), i.id),
        ))
    expected = []
    for k in (1, 2, 3):
        # high-to-low: most similar first; low-to-high: most similar last
        for arrange in (list, reversed):
            for query, ranked in zip(queries, rankings):
                pairs = tuple(
                    ScoredPair(i.id, 0, i.source, i.references[0], "kate", None)
                    for i in arrange(ranked[:k])
                )
                expected.append(build_prompt(PromptTemplate(), pairs, query).text)
    assert backend.prompts == expected


@pytest.mark.parametrize("method", ["sari", "cr", "bertprec", "kate"])
def test_low_to_high_cells_prompt_the_high_to_low_examples_reversed(
    method, toy_corpus, echo_corpus
):
    backend = RecordingBackend()
    config = config_for(
        toy_corpus,
        echo_corpus,
        CompletionClient(backend),
        selection_method=method,
        k_values=(2,),
        orderings=("high-to-low", "low-to-high"),
        embedding_backend=HashBackend(),
        max_in_flight=1,
    )
    reports, failures = run_experiment(config)
    assert not failures and len(reports) == 2
    n, separator = len(echo_corpus), PromptTemplate().separator
    for high, low in zip(backend.prompts[:n], backend.prompts[n:], strict=True):
        instruction, *examples, query = high.split(separator)
        assert len(set(examples)) == 2
        assert low.split(separator) == [instruction, *reversed(examples), query]


def test_kate_and_bertprec_grids_hash_each_distinct_token_once(
    toy_corpus, echo_corpus, monkeypatch
):
    calls = []
    real = HashBackend._token_vector

    def counting(self, token):
        calls.append(token)
        return real(self, token)

    monkeypatch.setattr(HashBackend, "_token_vector", counting)
    embedder = HashBackend()
    for method in ("kate", "bertprec"):
        config = config_for(toy_corpus, echo_corpus, echo_client(),
                            selection_method=method, k_values=(1, 2),
                            embedding_backend=embedder)
        reports, failures = run_experiment(config)
        assert not failures and len(reports) == 2
    embedded = [inst.source for inst in echo_corpus]
    embedded += [s for inst in toy_corpus for s in (inst.source, *inst.references)]
    assert sorted(calls) == sorted({t for s in embedded for t in s.tokens})


def test_random_cells_need_a_seed(toy_corpus, echo_corpus):
    for method, ordering in (("random", "high-to-low"), ("cr", "random")):
        with pytest.raises(UsageError, match="needs --seed"):
            config_for(toy_corpus, echo_corpus, echo_client(), selection_method=method,
                       k_values=(1,), orderings=(ordering,))
    config = config_for(toy_corpus, echo_corpus, echo_client(), k_values=(1,))
    assert config.cells == ((1, "high-to-low", None),)


UNKNOWN_VALUES = {
    "metric": (lambda dev, test: sel.score_pairs(dev, "bogus"), "metric"),
    "ordering": (
        lambda dev, test: sel.order_examples(sel.random_select(dev, 1, 0), "bogus"),
        "ordering",
    ),
    "method": (
        lambda dev, test: config_for(dev, test, echo_client(),
                                     selection_method="bogus", k_values=(0, 1)),
        "selection method",
    ),
}


@pytest.mark.parametrize("case", list(UNKNOWN_VALUES))
def test_unknown_metric_ordering_or_method_is_usage_error(toy_corpus, echo_corpus, case):
    call, name = UNKNOWN_VALUES[case]
    with pytest.raises(UsageError, match=f"^unknown {name} 'bogus'$"):
        call(toy_corpus, echo_corpus)


def test_report_emission(toy_corpus, echo_corpus, tmp_path):
    config = config_for(toy_corpus, echo_corpus, echo_client(), k_values=(1, 2))
    reports, _ = run_experiment(config)
    for r in reports:
        path = write_report(r, tmp_path)
        assert path.exists()
    csv_path = tmp_path / "grid.csv"
    write_grid_csv(reports, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    table = format_grid_table(reports)
    assert "SARI" in table and len(table.splitlines()) == 4


@pytest.mark.parametrize("method, k_values", [
    ("cr", (1, 2)), ("kate", (1, 2)), ("zero-shot", (0,)),
])
def test_report_json_keeps_the_asdict_bytes(method, k_values, toy_corpus, echo_corpus):
    config = config_for(
        toy_corpus, echo_corpus, echo_client(), selection_method=method,
        k_values=k_values, orderings=("high-to-low", "low-to-high"),
        embedding_backend=HashBackend(),
    )
    reports, failures = run_experiment(config)
    assert not failures and reports
    for report in reports:
        assert report.to_json() == json.dumps(
            dataclasses.asdict(report), sort_keys=True, ensure_ascii=False, indent=2
        ) + "\n"
