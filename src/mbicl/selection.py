"""Scoring and selecting in-context examples from a development corpus.

Every (complex, reference) pair is a candidate. Pairs are scored by one of
the selection metrics, the top k are kept, and the kept pairs are arranged
by an ordering strategy. Random and similarity-retrieval baselines live
here too.
"""

import json
import logging
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from . import embeddings as emb
from .corpus import Sentence, decode, read_jsonl
from .errors import DataError, UsageError
from .metrics import (
    Metric, ReferenceCounts, bertscore_precision, compression_ratio, sari_sentence
)

log = logging.getLogger(__name__)

# BERTScore precision at or above this is treated as an exact duplicate
# (the simple side restates the complex side) and dropped from selection.
DUPLICATE_SCORE = 1.0 - 1e-9

# The methods a grid or an example set may name.
METHODS = ("sari", "cr", "bertprec", "random", "kate", "zero-shot")


class Ordering(str, Enum):
    HIGH_TO_LOW = "high-to-low"
    LOW_TO_HIGH = "low-to-high"
    RANDOM = "random"


@dataclass(frozen=True)
class ScoredPair:
    instance_id: str
    reference_index: int
    source: object  # Sentence
    simple: object  # Sentence
    metric: str
    score: float | None  # None for unscored (random baseline) pairs

    @property
    def key(self):
        return (self.instance_id, self.reference_index)


@dataclass(frozen=True)
class ExampleSet:
    pairs: tuple
    k: int
    ordering: str
    selection_method: str
    seed: int | None = None

    def __len__(self):
        return len(self.pairs)


def member(enum, value):
    """The member of *enum* with *value*; an unknown value is a UsageError."""
    try:
        return enum(value)
    except ValueError:
        raise UsageError(f"unknown {enum.__name__.lower()} {value!r}") from None


def _candidate_pairs(corpus):
    for inst in corpus:
        for j, ref in enumerate(inst.references):
            yield inst, j, ref


def _pair(inst, j, metric, score):
    """The pair of *inst*'s complex sentence and its reference *j*."""
    return ScoredPair(inst.id, j, inst.source, inst.references[j], metric, score)


def score_pairs(corpus, metric, embedding_backend=None):
    """Score every (complex, reference) pair of *corpus* with *metric*.

    Output is in canonical order: corpus instance order, then reference
    index, so parallel scoring would be unobservable.
    """
    metric = member(Metric, metric)
    if len(corpus) == 0:
        raise DataError("cannot score an empty corpus")
    if metric is Metric.BERTPREC and embedding_backend is None:
        raise UsageError("BERTScore precision needs --embeddings")
    if metric is Metric.SARI and all(inst.n_references < 2 for inst in corpus):
        raise DataError(
            "leave-one-out SARI scoring needs instances with at least 2 references"
        )

    pairs = []
    skipped = 0
    for inst, j, ref in _candidate_pairs(corpus):
        if metric is Metric.CR:
            score = compression_ratio(inst.source, ref)
        elif metric is Metric.SARI:
            if inst.n_references < 2:
                skipped += 1
                continue
            if j == 0:
                rest = ReferenceCounts.leave_one_out(inst.source, inst.references)
            score = sari_sentence(inst.source, ref, rest[j])
        else:  # Metric.BERTPREC
            cand = emb.embed_tokens(ref, embedding_backend)
            if j == 0:
                source = emb.embed_tokens(inst.source, embedding_backend)
            score = bertscore_precision(cand, source)
            if score >= DUPLICATE_SCORE:
                continue
        pairs.append(_pair(inst, j, metric.value, score))
    if skipped:
        log.warning(
            "skipped %d single-reference instance(s) for SARI scoring", skipped
        )
    return pairs


def _rank_key(pair):
    # unscored pairs sort last, by id
    score = pair.score if pair.score is not None else float("-inf")
    return (-score, pair.instance_id, pair.reference_index)


def select_top_k(pairs, k):
    """The k best-scoring pairs, ties broken by (score desc, id asc, ref asc)."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if not pairs:
        raise DataError("no candidate pairs to select from")
    ranked = sorted(pairs, key=_rank_key)
    if k > len(ranked):
        log.warning("k=%d exceeds candidate pool of %d; returning all", k, len(ranked))
    return ExampleSet(
        pairs=tuple(ranked[:k]),
        k=k,
        ordering=Ordering.HIGH_TO_LOW.value,
        selection_method=ranked[0].metric,
    )


def order_examples(example_set, ordering, seed=None):
    """Rearrange the pairs of *example_set* per the ordering strategy.

    Random ordering uses a Fisher-Yates shuffle driven by Python's seeded
    Mersenne Twister; same seed, same order, within this implementation. Only
    a random ordering records *seed*; the others keep the set's own seed.
    """
    ordering = member(Ordering, ordering)
    pairs = list(example_set.pairs)
    if ordering is Ordering.HIGH_TO_LOW:
        pairs.sort(key=_rank_key)
    elif ordering is Ordering.LOW_TO_HIGH:
        pairs.sort(key=_rank_key, reverse=True)
    else:
        if seed is None:
            raise UsageError("random ordering needs a seed")
        random.Random(seed).shuffle(pairs)
        example_set = replace(example_set, seed=seed)
    return replace(example_set, pairs=tuple(pairs), ordering=ordering.value)


def random_select(corpus, k, seed):
    """k distinct (complex, reference) pairs drawn uniformly without
    replacement from the whole candidate population."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if seed is None:
        raise UsageError("random selection needs a seed")
    population = [
        _pair(inst, j, "random", None) for inst, j, _ in _candidate_pairs(corpus)
    ]
    if not population:
        raise DataError("no candidate pairs to select from")
    if k > len(population):
        log.warning("k=%d exceeds population of %d; taking all", k, len(population))
        k = len(population)
    chosen = random.Random(seed).sample(population, k)
    return ExampleSet(
        pairs=tuple(chosen),
        k=k,
        ordering=Ordering.RANDOM.value,
        selection_method="random",
        seed=seed,
    )


def kate_select(dev, queries, k, embedding_backend):
    """Per query sentence, the k dev pairs (complex sentence, first reference)
    whose complex-sentence embedding is most similar to the query's, most
    similar first. Each dev source and each query is embedded once."""
    if embedding_backend is None:
        raise UsageError("similarity retrieval needs --embeddings")
    ranked, dev_vecs = [], None
    for query in queries:
        query_vec = emb.embed_sentence(query, embedding_backend)
        if dev_vecs is None:  # after the first query, whose failure is reported first
            dev_vecs = [emb.embed_sentence(i.source, embedding_backend) for i in dev]
        scored = [_pair(inst, 0, "kate", emb.cosine(vec, query_vec))
                  for inst, vec in zip(dev, dev_vecs)]
        ranked.append(sorted(scored, key=_rank_key)[:k])
    return ranked


# -- on-disk formats -----------------------------------------------------

def pair_ref(pair):
    """The manifest's record of a selected pair."""
    return {"instance_id": pair.instance_id, "reference_index": pair.reference_index}


def _pair_to_json(pair):
    return {
        **pair_ref(pair),
        "source": pair.source.raw,
        "simple": pair.simple.raw,
        "metric": pair.metric,
        "score": pair.score,
    }


def _pair_from_json(obj):
    reference_index, score = obj["reference_index"], obj["score"]
    if not isinstance(reference_index, int) or not isinstance(
        score, (int, float, type(None))
    ):
        raise TypeError("reference_index must be an integer and score a number or null")
    return ScoredPair(
        instance_id=str(obj["instance_id"]),
        reference_index=reference_index,
        source=Sentence.from_raw(obj["source"]),
        simple=Sentence.from_raw(obj["simple"]),
        metric=obj["metric"],
        score=score,
    )


def save_scored_pairs(pairs, path):
    """Audit dump: one JSON object per scored pair."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps(_pair_to_json(p), ensure_ascii=False) + "\n")


def load_scored_pairs(path):
    return read_jsonl(path, _pair_from_json)


def save_example_set(example_set, path):
    obj = {
        "k": example_set.k,
        "ordering": example_set.ordering,
        "selection_method": example_set.selection_method,
        "seed": example_set.seed,
        "pairs": [_pair_to_json(p) for p in example_set.pairs],
    }
    Path(path).write_text(
        json.dumps(obj, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


def _example_set_from_json(obj):
    if obj["selection_method"] not in METHODS:
        raise DataError(f"unknown selection method {obj['selection_method']!r}")
    return ExampleSet(
        pairs=tuple(_pair_from_json(p) for p in obj["pairs"]),
        k=obj["k"],
        ordering=Ordering(obj["ordering"]).value,
        selection_method=obj["selection_method"],
        seed=obj.get("seed"),
    )


def load_example_set(path):
    return decode(Path(path).read_text(encoding="utf-8"), _example_set_from_json, path)
