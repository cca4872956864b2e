"""Scoring and selecting in-context examples from a development corpus.

Every (complex, reference) pair is a candidate. Pairs are scored by one of
the selection metrics, the top k are kept, and the kept pairs are arranged
by an ordering strategy. Random and similarity-retrieval baselines live
here too.
"""

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embeddings as emb
from .corpus import Sentence, read_jsonl
from .errors import DataError, UsageError
from .metrics import bertscore_precision, compression_ratio, leave_one_out_sari

# Unused here: bench/spans.py traces selection.sari_sentence by this name,
# until the library counts its own run statistics (ROADMAP item 4).
from .metrics import sari_sentence  # noqa: F401

log = logging.getLogger(__name__)

# BERTScore precision at or above this is treated as an exact duplicate
# (the simple side restates the complex side) and dropped from selection.
DUPLICATE_SCORE = 1.0 - 1e-9


# The metrics that score (complex, reference) pairs for selection, the
# methods a grid or a report may name, and the orderings of a cell's examples.
METRICS = ("sari", "cr", "bertprec")
METHODS = (*METRICS, "random", "kate", "zero-shot")
ORDERINGS = ("high-to-low", "low-to-high", "random")
DEFAULT_ORDERING = ORDERINGS[0]  # the best-scoring example first


@dataclass(frozen=True)
class ScoredPair:
    instance_id: str
    reference_index: int
    source: object  # Sentence
    simple: object  # Sentence
    metric: str
    score: float | None  # None for unscored pairs: random, or read from a report

    @property
    def key(self):
        return (self.instance_id, self.reference_index)


def check_name(kind, value, names):
    """Raise a UsageError naming *kind* unless *value* is one of *names*."""
    if value not in names:
        raise UsageError(f"unknown {kind} {value!r}")


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
    check_name("metric", metric, METRICS)
    if len(corpus) == 0:
        raise DataError("cannot score an empty corpus")
    if metric == "bertprec" and embedding_backend is None:
        raise UsageError("BERTScore precision needs --embeddings")
    if metric == "sari":
        scored = [inst for inst in corpus if inst.n_references >= 2]
        if not scored:
            raise DataError(
                "leave-one-out SARI scoring needs instances with at least 2 references"
            )
        if len(scored) < len(corpus):
            log.warning("skipped %d single-reference instance(s) for SARI scoring",
                        len(corpus) - len(scored))
        scores = leave_one_out_sari(scored)
        return [_pair(inst, j, metric, score) for (inst, j, _), score
                in zip(_candidate_pairs(scored), scores, strict=True)]

    pairs = []
    for inst, j, ref in _candidate_pairs(corpus):
        if metric == "cr":
            score = compression_ratio(inst.source, ref)
        else:  # bertprec
            cand = emb.embed_tokens(ref, embedding_backend)
            if j == 0:
                source = emb.embed_tokens(inst.source, embedding_backend)
            score = bertscore_precision(cand, source)
            if score >= DUPLICATE_SCORE:
                continue
        pairs.append(_pair(inst, j, metric, score))
    return pairs


def _rank_key(pair):
    # unscored pairs sort last, by id
    score = pair.score if pair.score is not None else float("-inf")
    return (-score, pair.instance_id, pair.reference_index)


def _check_k(k, pool):
    if k < 1:
        raise UsageError("k must be >= 1")
    if not pool:
        raise DataError("no candidate pairs to select from")
    if k > len(pool):
        raise DataError(f"k {k} exceeds the candidate pool of {len(pool)} pairs")


def select_top_k(pairs, k):
    """The k best-scoring pairs, ties broken by (score desc, id asc, ref asc)."""
    _check_k(k, pairs)
    return tuple(sorted(pairs, key=_rank_key)[:k])


def order_examples(pairs, ordering, seed=None):
    """*pairs* rearranged per the ordering strategy, as a tuple.

    Random ordering uses a Fisher-Yates shuffle driven by Python's seeded
    Mersenne Twister; same seed, same order, within this implementation.
    """
    check_name("ordering", ordering, ORDERINGS)
    pairs = list(pairs)
    if ordering == "high-to-low":
        pairs.sort(key=_rank_key)
    elif ordering == "low-to-high":
        pairs.sort(key=_rank_key, reverse=True)
    else:
        if seed is None:
            raise UsageError("random ordering needs a seed")
        random.Random(seed).shuffle(pairs)
    return tuple(pairs)


def random_select(corpus, k, seed):
    """k distinct (complex, reference) pairs drawn uniformly without
    replacement from the whole candidate population."""
    if seed is None:
        raise UsageError("random selection needs a seed")
    population = [
        _pair(inst, j, "random", None) for inst, j, _ in _candidate_pairs(corpus)
    ]
    _check_k(k, population)
    return tuple(random.Random(seed).sample(population, k))


def kate_select(dev, queries, k, embedding_backend):
    """Per query sentence, the k dev pairs (complex sentence, first reference)
    whose complex-sentence embedding is most similar to the query's, most
    similar first, then by instance id. The similarity of two unit vectors is
    the sum of their elementwise products. Each sentence is embedded once."""
    if embedding_backend is None:
        raise UsageError("similarity retrieval needs --embeddings")
    dim = None

    def embed(sentence):
        nonlocal dim
        vec = emb.embed_sentence(sentence, embedding_backend)
        dim = len(vec) if dim is None else dim
        if len(vec) != dim:
            raise DataError(f"sentence {sentence.raw!r}: a vector of length "
                            f"{len(vec)}, but the first vector has length {dim}")
        return vec

    ranked, dev_matrix, by_id = [], None, sorted(dev, key=lambda inst: inst.id)
    for query in queries:
        query_vec = embed(query)
        if dev_matrix is None:  # after the first query, whose failure is reported first
            vecs = {inst.id: embed(inst.source) for inst in dev}
            dev_matrix = np.array([vecs[inst.id] for inst in by_id]).reshape(-1, dim)
        # the stable sort of id-sorted rows gives _rank_key's order; a row-wise
        # sum, unlike a BLAS product, gives identical rows equal scores
        sims = (dev_matrix * query_vec).sum(axis=1)
        ranked.append([_pair(by_id[i], 0, "kate", float(sims[i]))
                       for i in np.argsort(-sims, kind="stable")[:k]])
    return ranked


# -- on-disk formats -----------------------------------------------------

def pair_ref(pair):
    """The manifest's record of a selected pair."""
    return {"instance_id": pair.instance_id, "reference_index": pair.reference_index}


def pairs_from_refs(corpus, refs, metric):
    """The pairs of *corpus* that the pair_ref records *refs* name, in order."""
    instances = {inst.id: inst for inst in corpus}
    pairs = []
    for ref in refs:
        instance_id, j = ref["instance_id"], ref["reference_index"]
        inst = instances.get(instance_id)
        if inst is None:
            raise DataError(f"instance {instance_id!r} is not in {corpus.name!r}")
        if type(j) is not int or not 0 <= j < inst.n_references:
            raise DataError(f"instance {instance_id!r} has no reference {j!r}")
        pairs.append(_pair(inst, j, metric, None))
    return tuple(pairs)


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
    """One JSON object per scored pair, in the order given: a scoring dump, or
    the pairs ``select`` chose, in prompt order. Missing directories are made."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in pairs:
            obj = {**pair_ref(p), "source": p.source.raw, "simple": p.simple.raw,
                   "metric": p.metric, "score": p.score}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load_scored_pairs(path):
    return read_jsonl(path, _pair_from_json)
