"""Corpus-level evaluation and the experiment grid runner.

A grid cell is one (selection method, k, ordering[, seed]) combination:
select and order examples on the tune corpus, build one prompt per test
sentence, complete, parse, and score. A k 0 (zero-shot) cell has no examples
to order, so it runs once per grid, with no ordering and no seed. Each cell
yields one EvalReport; its manifest records what ``replay`` needs to rerun
the cell from the tune and test corpora, against the cache.
"""

import csv
import json
import operator
from dataclasses import asdict, dataclass, field, fields
from functools import cache, reduce
from pathlib import Path

from . import selection as sel
from .corpus import decode
from .errors import DataError, MbiclError, UsageError
from .llm import BACKENDS, MAX_IN_FLIGHT, CompletionClient, GenerationParams, field_dict
from .metrics import MAX_ORDER, NgramTable
# bench/spans.py times the SARI and BLEU layers by these two names, until the
# library counts its own run statistics (ROADMAP item 4); evaluate calls each
# once per cell.
from .metrics import bleu_counts as bleu_corpus
from .metrics import sari_rows as sari_sentence
from .prompting import PromptTemplate, build_prompt, parse_completion


@dataclass(frozen=True)
class EvalReport:
    # What the cell is and what it ran, then its scores from the finest to the
    # corpus's: replay_difference names the first field that differs.
    run_id: str
    corpus_name: str
    manifest: dict
    bleu_order: int
    per_sentence: tuple
    sari: float
    bleu: float

    def to_json(self):
        text = json.dumps(field_dict(self), sort_keys=True, ensure_ascii=False, indent=2)
        return text + "\n"


def evaluate(test_corpus, predictions, run_id="adhoc", manifest=None, table=None):
    """Score *predictions* against *test_corpus* with corpus SARI (the mean
    of sentence SARI, added left to right) and BLEU-4, from the corpus's
    NgramTable (built when *table* is None) and one count of the predictions."""
    if len(predictions) != len(test_corpus):
        raise DataError(
            f"{len(predictions)} predictions for {len(test_corpus)} instances"
        )
    if not predictions:
        raise DataError(f"test corpus {test_corpus.name!r} has no instances")
    if table is None:
        table = NgramTable(test_corpus.instances)
    counts = table.count(predictions)
    scores = sari_sentence(table, counts)
    per_sentence = tuple(
        {"id": inst.id, "sari": score}
        for inst, score in zip(test_corpus, scores, strict=True)
    )
    return EvalReport(
        run_id=run_id, corpus_name=test_corpus.name, manifest=manifest or {},
        bleu_order=MAX_ORDER, per_sentence=per_sentence,
        sari=reduce(operator.add, scores, 0.0) / len(scores),
        bleu=bleu_corpus(table, counts),
    )


@dataclass
class ExperimentConfig:
    tune_corpus: object  # Corpus examples are selected from
    test_corpus: object  # Corpus prompts are evaluated on
    client: CompletionClient
    selection_method: str  # one of selection.METHODS
    k_values: tuple = (1, 2, 4, 6, 8, 10, 15, 20)  # the full k grid
    orderings: tuple = (sel.DEFAULT_ORDERING,)
    seeds: tuple = ()
    template: PromptTemplate = field(default_factory=PromptTemplate)
    params: GenerationParams = field(default_factory=GenerationParams)
    embedding_backend: object = None
    max_in_flight: int = MAX_IN_FLIGHT
    cells: tuple = field(init=False)  # (k, ordering, seed) of every cell

    def __post_init__(self):
        """List the cells; reject an unknown method or ordering, and a grid
        that would run no cell or the same cell twice."""
        if not self.k_values or not self.orderings:
            raise UsageError("a grid needs at least one k value and one ordering")
        listed = (self.k_values, self.orderings, self.seeds)
        if any(len(set(values)) < len(values) for values in listed):
            raise UsageError("a k value, ordering or seed is listed twice")
        if self.selection_method not in sel.METHODS:
            raise UsageError(f"unknown selection method {self.selection_method!r}")
        if self.selection_method == "zero-shot" and set(self.k_values) != {0}:
            raise UsageError("zero-shot runs only at k 0 (--k-list 0)")
        for ordering in self.orderings:
            sel.member(sel.Ordering, ordering)
        cells = []
        for k in self.k_values:
            if k == 0:
                cells.append((0, None, None))
                continue
            for ordering in self.orderings:
                seeds = cell_seeds(self.selection_method, ordering, self.seeds)
                cells += [(k, ordering, seed) for seed in seeds]
        self.cells = tuple(cells)

    def base_manifest(self):
        return {
            "tune_corpus": self.tune_corpus.name,
            "test_corpus": self.test_corpus.name,
            "selection_method": self.selection_method,
            "template": asdict(self.template),
            "params": asdict(self.params),
            "backend": self.client.backend.name,
            "bleu_order": MAX_ORDER,
        }

    @classmethod
    def from_manifest(cls, manifest, tune_corpus, test_corpus, max_in_flight):
        """The config of the cell that *manifest* records, as base_manifest and
        run_cell wrote it, with no client yet; the name of its backend; and its
        run_cell arguments: the recorded pairs, read from *tune_corpus*."""
        method, k = manifest["selection_method"], manifest["k"]
        ordering, seed = manifest["ordering"], manifest["seed"]
        if method == "kate" and k != 0:
            raise DataError("a KATE report does not record each query's pairs")
        backend = manifest["backend"]
        if backend not in BACKENDS:
            raise UsageError(f"unknown completion backend {backend!r}")
        config = cls(
            tune_corpus, test_corpus, None, method,
            k_values=(k,), orderings=(ordering or sel.DEFAULT_ORDERING,),
            seeds=() if seed is None else (seed,), max_in_flight=max_in_flight,
            template=PromptTemplate(**manifest["template"]),
            params=GenerationParams(**manifest["params"]),
        )
        pairs = sel.pairs_from_refs(tune_corpus, manifest["selected_pairs"], method)
        if len(pairs) != k:
            raise DataError(f"k {k!r} but {len(pairs)} selected pairs")
        refs = [sel.pair_ref(p) for p in pairs]
        return config, backend, ([pairs] * len(test_corpus), refs, *config.cells[0])


def cell_id(method, k, ordering, seed):
    cell = f"{method}-k{k}"
    if ordering is not None:
        cell += f"-{ordering}"
    if seed is not None:
        cell += f"-seed{seed}"
    return cell


def cell_seeds(method, ordering, seeds):
    """The seeds the cells of *method* and *ordering* run with.

    A cell that draws no random numbers runs once, with seed None; a random
    selection or ordering runs once per seed and needs at least one.
    """
    ordering = sel.member(sel.Ordering, ordering)
    if method != "random" and ordering is not sel.Ordering.RANDOM:
        return (None,)
    if not seeds or None in seeds:
        raise UsageError("random selection or ordering needs --seed")
    return tuple(seeds)


def _rankings(config):
    """The grid's ranked candidates: one ranking per test query for KATE, one
    shared by every test query for a scoring metric."""
    tune, embedder = config.tune_corpus, config.embedding_backend
    if config.selection_method == "kate":
        queries = [inst.source for inst in config.test_corpus]
        return sel.kate_select(tune, queries, max(config.k_values), embedder)
    return [sel.score_pairs(tune, config.selection_method, embedder)]


def _examples(config, rankings, k, ordering, seed):
    """One tuple of pairs per test instance, and the manifest's selected_pairs.

    A cell orders the top k of each of rankings(), the grid's _rankings, or
    random selection's own draw. KATE follows the ordering as every method
    does: high-to-low puts the most similar example first. k 0 has no
    examples. KATE records the sorted union of the instance ids it showed.
    """
    if k == 0:
        return [()] * len(config.test_corpus), []
    if config.selection_method == "random":
        chosen = [sel.random_select(config.tune_corpus, k, seed)]
    else:
        chosen = [sel.select_top_k(ranking, k) for ranking in rankings()]
    examples = [sel.order_examples(pairs, ordering, seed) for pairs in chosen]
    if config.selection_method == "kate":
        return examples, sorted({p.instance_id for pairs in examples for p in pairs})
    return examples * len(config.test_corpus), [sel.pair_ref(p) for p in examples[0]]


def run_cell(config, examples, selected_pairs, k, ordering, seed, table=None):
    """Prompt each test instance with its examples, complete, parse, score.

    *examples* holds one sequence of pairs (empty at k 0) per test instance,
    in corpus order; *table*, the test corpus's NgramTable, goes to evaluate.
    A failed or unparsable completion fails the cell, with the count of
    failures and the first failing instance in the message.
    """
    prompts = [
        build_prompt(config.template, pairs, inst.source)
        for pairs, inst in zip(examples, config.test_corpus, strict=True)
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
        instance_id, exc = min(failed, key=lambda f: isinstance(f[1], DataError))
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
        run_id=cell_id(config.selection_method, k, ordering, seed),
        manifest=manifest,
        table=table,
    )


def run_experiment(config):
    """Run every grid cell; a failing cell is reported, not fatal.

    Returns (reports, failures) where failures maps cell id to the error.
    """
    rankings = cache(lambda: _rankings(config))
    table = NgramTable(config.test_corpus.instances)
    reports = []
    failures = {}
    for k, ordering, seed in config.cells:
        try:
            chosen = _examples(config, rankings, k, ordering, seed)
            reports.append(run_cell(config, *chosen, k, ordering, seed, table))
        except MbiclError as exc:
            failures[cell_id(config.selection_method, k, ordering, seed)] = exc
    return reports, failures


def replay(text, path, tune_corpus, test_corpus, make_client, max_in_flight):
    """Rerun the cell of the report *text*, read from *path*, from its
    manifest; a fault in the report is a DataError naming ``path:1``.
    make_client(name) makes the backend's client after the report is read,
    so a fault it finds, as in the test corpus, is reported as its own."""
    config, backend, cell = decode(text, lambda obj: ExperimentConfig.from_manifest(
        obj["manifest"], tune_corpus, test_corpus, max_in_flight
    ), path)
    config.client = make_client(backend)
    return run_cell(config, *cell)


def replay_difference(text, report):
    """None if *report* has the bytes of the report *text*; otherwise the
    first field that differs, in EvalReport's order, as ``per_sentence``, or
    inside the manifest as ``manifest.params``."""
    if report.to_json() == text:
        return None
    old, new = json.loads(text), json.loads(report.to_json())
    names = [f.name for f in fields(EvalReport)] + sorted(old.keys() - new.keys())
    name = _first_difference(old, new, names)
    if name == "manifest":
        old, new = old[name], new[name]
        name += "." + _first_difference(old, new, sorted(old.keys() | new.keys()))
    return name


def _first_difference(old, new, names):
    absent = object()
    return next((n for n in names if old.get(n, absent) != new.get(n, absent)),
                "formatting")


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
