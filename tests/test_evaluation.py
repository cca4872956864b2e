import pytest

from conftest import CountingBackend, load_pins, make_corpus, sent
from mbicl import (
    CompletionClient,
    ExperimentConfig,
    GenerationParams,
    ResponseCache,
    evaluate,
    run_experiment,
)
from mbicl import evaluation, metrics
from mbicl.embeddings import HashBackend
from mbicl.errors import BackendUnavailable, EmptyCompletion, LengthMismatch
from mbicl.evaluation import format_grid_table, write_grid_csv, write_report
from mbicl.llm import MockEchoBackend, MockFirstReferenceBackend
from mbicl.metrics import bleu_corpus, sari_corpus


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
    sources = [inst.source for inst in echo_corpus]
    refs = [inst.references for inst in echo_corpus]
    assert report.sari == pytest.approx(sari_corpus(sources, predictions, refs))
    assert report.bleu == pytest.approx(bleu_corpus(predictions, refs))
    assert report.corpus_name == echo_corpus.name


def test_evaluate_mean_consistency(echo_corpus):
    predictions = [inst.references[0] for inst in echo_corpus]
    report = evaluate(echo_corpus, predictions)
    mean = sum(r["sari"] for r in report.per_sentence) / len(report.per_sentence)
    assert report.sari == pytest.approx(mean, abs=1e-9)


def test_evaluate_reference_predictions_bleu_100(echo_corpus):
    predictions = [inst.references[0] for inst in echo_corpus]
    assert evaluate(echo_corpus, predictions).bleu == pytest.approx(100.0)


def test_evaluate_length_mismatch(echo_corpus):
    with pytest.raises(LengthMismatch):
        evaluate(echo_corpus, [sent("short list.")])


def test_grid_builds_each_test_table_once(toy_corpus, echo_corpus, monkeypatch):
    built = []
    real_init = metrics.ReferenceCounts.__init__

    def count_init(self, source, references, max_order=4):
        built.append(source)
        real_init(self, source, references, max_order)

    evaluated = []
    real_evaluate = evaluation.evaluate

    def record_evaluate(*args, **kwargs):
        evaluated.append((args, kwargs))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(metrics.ReferenceCounts, "__init__", count_init)
    monkeypatch.setattr(evaluation, "evaluate", record_evaluate)
    config = config_for(
        toy_corpus, echo_corpus, echo_client(), k_values=(1, 2, 4),
        orderings=("high-to-low", "low-to-high", "random"), seeds=(0,), bleu_order=6,
    )
    reports, failures = run_experiment(config)
    monkeypatch.undo()
    assert not failures and len(reports) == 9
    assert built == [inst.source for inst in echo_corpus]
    for report, (args, kwargs) in zip(reports, evaluated, strict=True):
        assert kwargs.pop("tables") is not None
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


def test_grid_shape_default_k(toy_corpus, echo_corpus):
    config = config_for(toy_corpus, echo_corpus, echo_client())
    reports, failures = run_experiment(config)
    assert not failures
    assert len(reports) == 8
    assert [r.manifest["k"] for r in reports] == [1, 2, 4, 6, 8, 10, 15, 20]


def test_grid_shape_ordering_study(toy_corpus, echo_corpus):
    config = config_for(
        toy_corpus,
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
    ((3, 7), (), BackendUnavailable, 2, "3: no reference for query"),
    ((7,), (1,), BackendUnavailable, 2, "7: no reference for query"),
    ((), (1, 4), EmptyCompletion, 2, "1: model returned no usable text"),
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
