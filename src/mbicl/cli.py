"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error; a
package error's code comes from its family in ``errors``.
Every command reads/writes plain files so outputs of one stage feed the
next; the response cache is the only shared state.
"""

import logging
import sys
from pathlib import Path

import click

from . import embeddings as emb
from . import evaluation, llm, selection
from .corpus import Sentence, load_jsonl, load_parallel, read_lines
from .errors import DataError, MbiclError
from .llm import GenerationParams
from .prompting import PromptTemplate, build_prompt, load_template

ORDERING_CHOICES = [o.value for o in selection.Ordering]


def _load_corpus(path, split="validation"):
    path = Path(path)
    if path.is_dir():
        return load_parallel(path, split=split)
    return load_jsonl(path, split=split)


def _template(path):
    return load_template(path) if path else PromptTemplate()


def _int_list(ctx, param, value):
    try:
        return tuple(int(v) for v in (value or "").split(",") if v.strip())
    except ValueError:
        raise click.BadParameter(f"not a list of integers: {value!r}") from None


@click.group()
def cli():
    """Metric-based example selection for in-context text simplification."""


@cli.command()
@click.argument("corpus_path", type=click.Path(exists=True))
@click.option("--metric", required=True, type=click.Choice(["sari", "cr", "bertprec"]))
@click.option("--embeddings", "embeddings_spec", default=None,
              help="test, file:<path>, or http:<url>")
@click.option("-o", "--output", required=True, type=click.Path())
def score(corpus_path, metric, embeddings_spec, output):
    """Score every (complex, reference) pair of a dev corpus."""
    corpus = _load_corpus(corpus_path)
    backend = emb.make_backend(embeddings_spec) if embeddings_spec else None
    pairs = selection.score_pairs(corpus, metric, backend)
    selection.save_scored_pairs(pairs, output)
    click.echo(f"wrote {len(pairs)} scored pairs to {output}")


@cli.command()
@click.argument("scores_path", type=click.Path(exists=True))
@click.option("--k", required=True, type=int)
@click.option("--ordering", default="high-to-low", type=click.Choice(ORDERING_CHOICES))
@click.option("--seed", type=int, default=None)
@click.option("-o", "--output", required=True, type=click.Path())
def select(scores_path, k, ordering, seed, output):
    """Pick the top-k pairs from a scored-pair dump and write them, as scored
    pairs, in prompt order."""
    pairs = selection.load_scored_pairs(scores_path)
    chosen = selection.order_examples(selection.select_top_k(pairs, k), ordering, seed)
    selection.save_scored_pairs(chosen, output)
    click.echo(f"wrote {len(chosen)} pairs in prompt order to {output}")


@cli.command("build-prompt")
@click.option("--example-set", "example_set_path", type=click.Path(exists=True),
              default=None, help="pairs written by select; omit for a zero-shot prompt")
@click.option("--query", required=True)
@click.option("--template", "template_path", type=click.Path(exists=True), default=None)
def build_prompt_cmd(example_set_path, query, template_path):
    """Render a prompt to stdout."""
    examples = (
        selection.load_scored_pairs(example_set_path) if example_set_path else None
    )
    prompt = build_prompt(_template(template_path), examples, Sentence.from_raw(query))
    click.echo(prompt.text, nl=False)


_run_options = [
    click.option("--tune", "tune_path", required=True, type=click.Path(exists=True)),
    click.option("--test", "test_path", required=True, type=click.Path(exists=True)),
    click.option("--cache", "cache_path", type=click.Path(), default=None),
    click.option("--base-url", default=None),
    click.option("--api-key", default=None),
    click.option("--legacy-completions", is_flag=True, default=False),
    click.option("--max-in-flight", type=int, default=4),
    click.option("--out-dir", required=True, type=click.Path()),
]


def _with_run_options(fn):
    for option in reversed(_run_options):
        fn = option(fn)
    return fn


def _inputs(tune_path, test_path, cache_path, base_url, api_key, legacy_completions):
    """The tune and test corpora, and make_client(backend name)."""
    tune = _load_corpus(tune_path, split="validation")
    test = _load_corpus(test_path, split="test")

    def make_client(name):
        backend = llm.make_backend(name, test, base_url, api_key, legacy_completions)
        cache = llm.ResponseCache(cache_path) if cache_path else None
        return llm.CompletionClient(backend, cache)

    return tune, test, make_client


def _emit(reports, failures, out_dir):
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for report in reports:
        evaluation.write_report(report, out_dir)
    evaluation.write_grid_csv(reports, Path(out_dir) / "grid.csv")
    click.echo(evaluation.format_grid_table(reports))
    if failures:
        for cell, exc in failures.items():
            click.echo(f"cell {cell} failed: {exc}", err=True)
        raise next(iter(failures.values()))


@cli.command()
@click.argument("report_path", metavar="REPORT", type=click.Path(exists=True))
@_with_run_options
def run(report_path, max_in_flight, out_dir, **inputs):
    """Replay the grid cell of a report and check its bytes.

    The method, k, ordering, seed, selected pairs, template, parameters and
    backend come from the report's manifest. The new report and grid.csv go
    to --out-dir; a report that differs from the old one exits 2, naming
    the first field that differs.
    """
    if Path(out_dir).resolve() == Path(report_path).resolve().parent:
        raise click.UsageError("--out-dir must not hold the report it replays")
    tune, test, make_client = _inputs(**inputs)
    text = Path(report_path).read_text(encoding="utf-8")
    report = evaluation.replay(text, report_path, tune, test, make_client, max_in_flight)
    _emit([report], {}, out_dir)
    field = evaluation.replay_difference(text, report)
    if field is not None:
        raise DataError(f"{report_path}: the replayed report differs in {field}")


@cli.command("evaluate")
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--predictions", "predictions_path", required=True,
              type=click.Path(exists=True), help="one prediction per line")
@click.option("-o", "--output", required=True, type=click.Path())
def evaluate_cmd(test_path, predictions_path, output):
    """Score an existing prediction file against a test corpus."""
    test = _load_corpus(test_path, split="test")
    predictions = [Sentence.from_raw(line) for line in read_lines(predictions_path)]
    report = evaluation.evaluate(test, predictions)
    Path(output).write_text(report.to_json(), encoding="utf-8")
    click.echo(f"SARI {report.sari:.2f}  BLEU {report.bleu:.2f}")


@cli.command()
@_with_run_options
@click.option("--backend", "backend_name", default="mock-echo",
              type=click.Choice(llm.BACKENDS))
@click.option("--template", "template_path", type=click.Path(exists=True), default=None)
@click.option("--model", default="mock")
@click.option("--temperature", type=float, default=0.7)
@click.option("--max-tokens", type=int, default=256)
@click.option("--top-p", type=float, default=1.0)
@click.option("--method", default="sari", type=click.Choice(selection.METHODS))
@click.option("--k-list", "k_values", default="1,2,4,6,8,10,15,20", callback=_int_list,
              help="comma-separated k values; 0 means zero-shot")
@click.option("--orderings", "orderings_csv", default="high-to-low",
              help="comma-separated ordering strategies")
@click.option("--seed", "seeds", default=None, callback=_int_list,
              help="comma-separated seeds; required for random selection or ordering")
@click.option("--embeddings", "embeddings_spec", default=None,
              help="test, file:<path>, or http:<url>; for bertprec and kate")
def grid(backend_name, template_path, model, temperature, max_tokens, top_p, method,
         k_values, orderings_csv, seeds, embeddings_spec, max_in_flight, out_dir,
         **inputs):
    """Run a full (k x ordering[ x seed]) experiment grid."""
    orderings = tuple(v.strip() for v in orderings_csv.split(",") if v.strip())
    tune, test, make_client = _inputs(**inputs)
    config = evaluation.ExperimentConfig(
        tune, test, make_client(backend_name), method, k_values, orderings, seeds,
        template=_template(template_path),
        params=GenerationParams(
            temperature=temperature, max_tokens=max_tokens, top_p=top_p, model_id=model
        ),
        embedding_backend=emb.make_backend(embeddings_spec) if embeddings_spec else None,
        max_in_flight=max_in_flight,
    )
    reports, failures = evaluation.run_experiment(config)
    _emit(reports, failures, out_dir)


class _StderrHandler(logging.Handler):
    """Prints ``warning: <message>`` to the current sys.stderr."""

    def emit(self, record):
        click.echo(f"{record.levelname.lower()}: {record.getMessage()}", err=True)


def main(argv=None):
    log = logging.getLogger(__package__)
    if not log.handlers:
        log.addHandler(_StderrHandler())
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    except MbiclError as exc:
        click.echo(f"{exc.label}: {exc}", err=True)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
