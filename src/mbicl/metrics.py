"""Metric kernels: n-gram machinery, SARI, BLEU, compression ratio, and
token-level embedding precision (BERTScore precision).

SARI follows the original counting rules as fixed by the standard evaluation
tooling for simplification: add and keep are scored with F1, deletion with
precision only, reference n-gram counts are fractional (divided by the number
of references), and the final score averages n-gram orders 1..4 on a 0-100
scale. All zero-denominator precisions/recalls are 0, and an F1 with
p + r = 0 is 0.
"""

import math
from collections import Counter
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyEmbedding,
    EmptySentence,
    LengthMismatch,
    NoReferences,
    UsageError,
)

SARI_MAX_ORDER = 4


class Metric(str, Enum):
    """The metrics that score (complex, reference) pairs for selection."""

    SARI = "sari"
    CR = "cr"
    BERTPREC = "bertprec"


def ngram_counts(tokens, order):
    """Multiset of n-grams of the given order, as a Counter of tuples."""
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def compression_ratio(source, simple):
    """Characters in the complex sentence divided by characters in the simple
    one, counted on the raw strings."""
    if not source.raw or not simple.raw:
        raise EmptySentence("compression ratio needs non-empty sentences")
    return len(source.raw) / len(simple.raw)


def bertscore_precision(candidate_embeddings, reference_embeddings):
    """Mean over candidate token vectors of the maximum inner product against
    any reference token vector.

    Rows must be unit-normalized (the embeddings module enforces this), so
    inner products are cosine similarities.
    """
    cand = np.asarray(candidate_embeddings, dtype=float)
    ref = np.asarray(reference_embeddings, dtype=float)
    if cand.size == 0 or ref.size == 0:
        raise EmptyEmbedding("empty embedding matrix")
    if cand.shape[1] != ref.shape[1]:
        raise DimensionMismatch(f"{cand.shape[1]} vs {ref.shape[1]}")
    sims = cand @ ref.T
    return float(sims.max(axis=1).mean())


def _sari_operation_scores(src_counts, pred_counts, ref_counts, n_refs):
    """Keep-F1, delete-precision, and add-F1 for one n-gram order.

    ref_counts holds summed counts over all references; they enter the
    arithmetic divided by n_refs.
    """
    ref_frac = {g: c / n_refs for g, c in ref_counts.items()}

    # keep: n-grams present in both source and prediction
    kept = {
        g: min(c, pred_counts[g]) for g, c in src_counts.items() if g in pred_counts
    }
    kept_in_src_and_ref = {
        g: min(c, ref_frac[g]) for g, c in src_counts.items() if g in ref_frac
    }
    keep_p = keep_r = 0.0
    if kept:
        keep_p = sum(min(c, ref_frac.get(g, 0.0)) / c for g, c in kept.items()) / len(
            kept
        )
    if kept_in_src_and_ref:
        keep_r = sum(
            min(kept.get(g, 0.0), ref_frac[g]) / c
            for g, c in kept_in_src_and_ref.items()
        ) / len(kept_in_src_and_ref)

    # delete: n-grams of the source absent (or less frequent) in the prediction
    deleted = {
        g: c - pred_counts.get(g, 0)
        for g, c in src_counts.items()
        if c > pred_counts.get(g, 0)
    }
    del_p = 0.0
    if deleted:
        del_p = sum(
            max(0.0, c - ref_frac.get(g, 0.0)) / c for g, c in deleted.items()
        ) / len(deleted)

    # add: n-gram types new in the prediction relative to the source
    added = set(pred_counts) - set(src_counts)
    addable = set(ref_counts) - set(src_counts)
    add_good = added & set(ref_counts)
    add_p = len(add_good) / len(added) if added else 0.0
    add_r = len(add_good) / len(addable) if addable else 0.0

    return _f1(keep_p, keep_r), del_p, _f1(add_p, add_r)


def sari_sentence(source, prediction, references):
    """Sentence-level SARI on the 0-100 scale."""
    if not references:
        raise NoReferences("SARI needs at least one reference")
    n_refs = len(references)
    total = 0.0
    for order in range(1, SARI_MAX_ORDER + 1):
        src_counts = ngram_counts(source.tokens, order)
        pred_counts = ngram_counts(prediction.tokens, order)
        ref_counts = Counter()
        for ref in references:
            ref_counts.update(ngram_counts(ref.tokens, order))
        keep_f, del_p, add_f = _sari_operation_scores(
            src_counts, pred_counts, ref_counts, n_refs
        )
        total += (keep_f + del_p + add_f) / 3
    return 100.0 * total / SARI_MAX_ORDER


def sari_corpus(sources, predictions, reference_lists):
    """Corpus SARI: the arithmetic mean of sentence SARI values."""
    if not (len(sources) == len(predictions) == len(reference_lists)):
        raise LengthMismatch(
            f"{len(sources)} sources, {len(predictions)} predictions, "
            f"{len(reference_lists)} reference lists"
        )
    if not sources:
        raise EmptyCorpus("cannot score an empty corpus")
    scores = [
        sari_sentence(s, p, refs)
        for s, p, refs in zip(sources, predictions, reference_lists)
    ]
    return sum(scores) / len(scores)


def bleu_corpus(predictions, reference_lists, max_order=4):
    """Corpus BLEU on the 0-100 scale.

    Multi-reference clipped n-gram precision, geometric mean over orders
    1..max_order, brevity penalty from the closest reference length
    (ties resolved toward the shorter reference), no smoothing.
    """
    if len(predictions) != len(reference_lists):
        raise LengthMismatch(
            f"{len(predictions)} predictions, {len(reference_lists)} reference lists"
        )
    if not predictions:
        raise EmptyCorpus("cannot score an empty corpus")
    if max_order < 1:
        raise UsageError("BLEU order must be >= 1")

    matches = [0] * max_order
    totals = [0] * max_order
    pred_len = 0
    ref_len = 0
    for pred, refs in zip(predictions, reference_lists):
        if not refs:
            raise NoReferences("BLEU needs at least one reference per sentence")
        pred_len += len(pred.tokens)
        ref_len += min(
            (len(r.tokens) for r in refs),
            key=lambda rl: (abs(rl - len(pred.tokens)), rl),
        )
        for order in range(1, max_order + 1):
            pred_counts = ngram_counts(pred.tokens, order)
            if not pred_counts:
                continue
            max_ref = Counter()
            for ref in refs:
                for g, c in ngram_counts(ref.tokens, order).items():
                    if c > max_ref[g]:
                        max_ref[g] = c
            matches[order - 1] += sum(
                min(c, max_ref[g]) for g, c in pred_counts.items()
            )
            totals[order - 1] += sum(pred_counts.values())

    if any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = math.fsum(
        math.log(m / t) for m, t in zip(matches, totals)
    ) / max_order
    brevity = 1.0 if pred_len >= ref_len else math.exp(1 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_precision)
