"""Corpus-level evaluation and the experiment grid runner.

A grid cell is one (selection method, k, ordering[, seed]) combination:
select and order examples on the tune corpus, build one prompt per test
sentence, complete, parse, and score. Each cell yields one EvalReport;
reports carry the full manifest needed to replay them against the cache.
"""

import csv
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import selection as sel
from .errors import EmptyCompletion, EmptyCorpus, LengthMismatch, MbiclError, UsageError
from .llm import CompletionClient, GenerationParams
from .metrics import ReferenceCounts, bleu_corpus, sari_sentence
from .prompting import PromptTemplate, build_prompt, parse_completion

log = logging.getLogger(__name__)

DEFAULT_K_GRID = (1, 2, 4, 6, 8, 10, 15, 20)
METHODS = ("sari", "cr", "bertprec", "random", "kate", "zero-shot")


@dataclass(frozen=True)
class EvalReport:
    run_id: str
    corpus_name: str
    sari: float
    bleu: float
    bleu_order: int
    per_sentence: tuple
    manifest: dict

    def to_json(self):
        text = json.dumps(asdict(self), sort_keys=True, ensure_ascii=False, indent=2)
        return text + "\n"


def reference_tables(test_corpus, bleu_order):
    """One ReferenceCounts per test instance, shared by SARI and BLEU."""
    return [ReferenceCounts(i.source, i.references, bleu_order) for i in test_corpus]


def evaluate(
    test_corpus, predictions, bleu_order=4, run_id="adhoc", manifest=None, tables=None
):
    """Score *predictions* against *test_corpus* with corpus SARI and BLEU,
    reading the corpus's reference_tables (built when *tables* is None)."""
    if len(predictions) != len(test_corpus):
        raise LengthMismatch(
            f"{len(predictions)} predictions for {len(test_corpus)} instances"
        )
    if not predictions:
        raise EmptyCorpus(f"test corpus {test_corpus.name!r} has no instances")
    tables = tables or reference_tables(test_corpus, bleu_order)
    per_sentence = []
    for inst, pred, table in zip(test_corpus, predictions, tables, strict=True):
        score = sari_sentence(inst.source, pred, table)
        per_sentence.append({"id": inst.id, "sari": score})
    sari = sum(row["sari"] for row in per_sentence) / len(per_sentence)
    bleu = bleu_corpus(predictions, tables, max_order=bleu_order)
    return EvalReport(
        run_id=run_id,
        corpus_name=test_corpus.name,
        sari=sari,
        bleu=bleu,
        bleu_order=bleu_order,
        per_sentence=tuple(per_sentence),
        manifest=manifest or {},
    )


@dataclass
class ExperimentConfig:
    tune_corpus: object  # Corpus examples are selected from
    test_corpus: object  # Corpus prompts are evaluated on
    client: CompletionClient
    selection_method: str  # one of METHODS
    k_values: tuple = DEFAULT_K_GRID
    orderings: tuple = (sel.Ordering.HIGH_TO_LOW.value,)
    seeds: tuple = (0,)
    template: PromptTemplate = field(default_factory=PromptTemplate)
    params: GenerationParams = field(default_factory=GenerationParams)
    embedding_backend: object = None
    bleu_order: int = 4
    max_in_flight: int = 4

    def __post_init__(self):
        for ordering in self.orderings:
            cell_seeds(self.selection_method, ordering, self.seeds)

    def base_manifest(self):
        return {
            "tune_corpus": self.tune_corpus.name,
            "test_corpus": self.test_corpus.name,
            "selection_method": self.selection_method,
            "template": asdict(self.template),
            "params": asdict(self.params),
            "backend": self.client.backend.name,
            "bleu_order": self.bleu_order,
        }


def cell_id(method, k, ordering, seed):
    cell = f"{method}-k{k}-{ordering}"
    if seed is not None:
        cell += f"-seed{seed}"
    return cell


def cell_seeds(method, ordering, seeds):
    """The seeds the cells of *method* and *ordering* run with.

    A cell that draws no random numbers runs once, with seed None; a random
    selection or ordering runs once per seed and needs at least one.
    """
    try:
        ordering = sel.Ordering(ordering)
    except ValueError:
        raise UsageError(f"unknown ordering {ordering!r}") from None
    if method != "random" and ordering is not sel.Ordering.RANDOM:
        return (None,)
    if not seeds or None in seeds:
        raise UsageError("random selection or ordering needs --seed")
    return tuple(seeds)


def _example_sets(config, scored_cache, k, ordering, seed):
    """One ExampleSet per test instance, and the manifest's selected_pairs.

    KATE retrieves its own examples for each query; every other method
    selects one set on the tune corpus and shares it across the test corpus.
    """
    method = config.selection_method
    if method == "kate" and k > 0:
        example_sets = [
            sel.kate_select(config.tune_corpus, inst.source, k, config.embedding_backend)
            for inst in config.test_corpus
        ]
        tune_ids = {p.instance_id for s in example_sets for p in s.pairs}
        return example_sets, sorted(tune_ids)
    if k == 0 or method == "zero-shot":
        chosen = sel.ExampleSet(
            pairs=(), k=0, ordering=ordering, selection_method="zero-shot", seed=seed
        )
    else:
        if method == "random":
            chosen = sel.random_select(config.tune_corpus, k, seed)
        else:
            if method not in scored_cache:
                scored_cache[method] = sel.score_pairs(
                    config.tune_corpus, method, config.embedding_backend
                )
            chosen = sel.select_top_k(scored_cache[method], k)
        chosen = sel.order_examples(chosen, ordering, seed)
    selected_pairs = [sel.pair_ref(p) for p in chosen.pairs]
    return [chosen] * len(config.test_corpus), selected_pairs


def run_cell(config, example_sets, selected_pairs, k, ordering, seed, tables=None):
    """Prompt each test instance with its ExampleSet, complete, parse, score.

    *example_sets* holds one ExampleSet per test instance, in corpus order;
    *tables* go to evaluate. A failed or unparsable completion fails the cell,
    with the count of failures and the first failing instance in the message.
    """
    prompts = [
        build_prompt(config.template, examples, inst.source)
        for examples, inst in zip(example_sets, config.test_corpus, strict=True)
    ]
    results = config.client.batch_complete(
        prompts, config.params, max_in_flight=config.max_in_flight
    )
    predictions, failed = [], []
    for inst, result in zip(config.test_corpus, results, strict=True):
        try:
            if isinstance(result, Exception):
                raise result
            predictions.append(parse_completion(result.completion_text))
        except MbiclError as exc:
            failed.append((inst.id, exc))
    if failed:
        # a backend failure outranks a parse failure, so the exit code is kept
        instance_id, exc = min(failed, key=lambda f: isinstance(f[1], EmptyCompletion))
        exc.args = (f"{len(failed)} of {len(results)} completions failed; "
                    f"first, instance {instance_id}: {exc}",)
        raise exc

    manifest = config.base_manifest()
    manifest.update(
        {"k": k, "ordering": ordering, "seed": seed, "selected_pairs": selected_pairs}
    )
    return evaluate(
        config.test_corpus,
        predictions,
        bleu_order=config.bleu_order,
        run_id=cell_id(config.selection_method, k, ordering, seed),
        manifest=manifest,
        tables=tables,
    )


def run_experiment(config):
    """Run every grid cell; a failing cell is reported, not fatal.

    Returns (reports, failures) where failures maps cell id to the error.
    """
    scored_cache = {}
    tables = reference_tables(config.test_corpus, config.bleu_order)
    reports = []
    failures = {}
    for k in config.k_values:
        for ordering in config.orderings:
            for seed in cell_seeds(config.selection_method, ordering, config.seeds):
                try:
                    chosen = _example_sets(config, scored_cache, k, ordering, seed)
                    reports.append(run_cell(config, *chosen, k, ordering, seed, tables))
                except MbiclError as exc:
                    cell = cell_id(config.selection_method, k, ordering, seed)
                    log.error("cell %s failed: %s", cell, exc)
                    failures[cell] = exc
    return reports, failures


# -- report emission -----------------------------------------------------

def write_report(report, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report.run_id}.json"
    path.write_text(report.to_json(), encoding="utf-8")
    return path


def write_grid_csv(reports, path):
    """Plot-ready summary: one row per cell."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "selection_method", "k", "ordering", "seed", "sari", "bleu"]
        )
        for r in reports:
            m = r.manifest
            writer.writerow(
                [
                    r.run_id,
                    m.get("selection_method"),
                    m.get("k"),
                    m.get("ordering"),
                    m.get("seed"),
                    f"{r.sari:.4f}",
                    f"{r.bleu:.4f}",
                ]
            )


def format_grid_table(reports):
    """Aligned plain-text summary of a grid run."""
    header = f"{'cell':<40} {'SARI':>8} {'BLEU':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.run_id:<40} {r.sari:>8.2f} {r.bleu:>8.2f}")
    return "\n".join(lines)
