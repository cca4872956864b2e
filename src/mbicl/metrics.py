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

from .errors import DataError

MAX_ORDER = 4  # SARI and BLEU both score n-gram orders 1..4


class Metric(str, Enum):
    """The metrics that score (complex, reference) pairs for selection."""

    SARI = "sari"
    CR = "cr"
    BERTPREC = "bertprec"


def ngram_counts(tokens, order):
    """Multiset of n-grams of the given order, as a Counter of tuples."""
    return Counter(zip(*(tokens[i:] for i in range(order))))


def all_ngrams(tokens):
    """The ngram_counts of *tokens* for each order 1..4."""
    return [ngram_counts(tokens, n) for n in range(1, MAX_ORDER + 1)]


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def compression_ratio(source, simple):
    """Characters in the complex sentence divided by characters in the simple
    one, counted on the raw strings."""
    if not source.raw or not simple.raw:
        raise DataError("compression ratio needs non-empty sentences")
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
        raise DataError("empty embedding matrix")
    if cand.shape[1] != ref.shape[1]:
        raise DataError(f"{cand.shape[1]} vs {ref.shape[1]}")
    sims = cand @ ref.T
    return float(sims.max(axis=1).mean())


class ReferenceCounts:
    """The reference side of SARI and BLEU for one instance, counted once.

    For each order 1..4 it holds the references' summed n-gram counts, the
    source's counts as g -> (count, summed count) in source order, and the
    counts of one held-out reference, which SARI subtracts from the sums
    (empty for a full table). BLEU's clip maxima (an n-gram's largest count
    in one reference) are stored only where above 1. A *source* of None
    skips SARI.
    """

    def __init__(self, source, references):
        per_ref, self.summed = _reference_ngrams(references)
        self.source = _source_counts(source, self.summed)
        self.n_refs, self.held_out, self.held = len(references), None, [{}] * MAX_ORDER
        self.lengths = tuple(len(r.tokens) for r in references)
        self.clip = [{} for _ in self.summed]
        for counts in per_ref:
            for clip, order_counts in zip(self.clip, counts):
                for g, c in order_counts.items():
                    if c > clip.get(g, 1):
                        clip[g] = c

    @classmethod
    def leave_one_out(cls, source, references):
        """SARI views of *references* with each one held out in turn; they
        share one count of the source and of every reference."""
        per_ref, summed = _reference_ngrams(references)
        source_counts, n_refs = _source_counts(source, summed), len(references) - 1
        views = []
        for ref, counts in zip(references, per_ref):
            view = cls.__new__(cls)
            view.summed, view.source, view.n_refs = summed, source_counts, n_refs
            view.held_out, view.held = ref, counts
            views.append(view)
        return views

    def __len__(self):
        return self.n_refs


def _reference_ngrams(references):
    """Each reference's n-gram counts for orders 1..4, and their sums over
    the references."""
    per_ref = [all_ngrams(r.tokens) for r in references]
    summed = [Counter() for _ in range(MAX_ORDER)]
    for counts in per_ref:
        for total, c in zip(summed, counts):
            total.update(c)
    return per_ref, summed


def _source_counts(source, summed):
    """Per order, the source's n-gram counts as g -> (count, summed count)."""
    if source is None:
        return []
    return [
        {g: (c, total.get(g, 0)) for g, c in ngram_counts(source.tokens, n).items()}
        for n, total in enumerate(summed, 1)
    ]


def _sari_operation_scores(pred_counts, summed, src_counts, held, n_refs):
    """Keep-F1, delete-precision, and add-F1 for one n-gram order. A
    reference fraction is f = (summed - held) / n_refs, and f == 0 is absent."""
    keep_p, keep_r, delete = [], [], []
    for g, (c, s) in src_counts.items():
        f = (s - held.get(g, 0)) / n_refs
        p = pred_counts.get(g, 0)
        good = 0.0
        if p:  # kept: in both source and prediction
            kept = min(c, p)
            good = min(kept, f)
            keep_p.append(good / kept)
        if f:
            keep_r.append(good / min(c, f))
        if c > p:  # deleted: absent from (or less frequent in) the prediction
            delete.append(max(0.0, c - p - f) / (c - p))
    # add: n-gram types new in the prediction relative to the source
    added = add_good = 0
    for g in pred_counts:
        if g not in src_counts:
            added += 1
            add_good += summed.get(g, 0) > held.get(g, 0)
    # addable: reference n-grams left after the hold-out, less the source's
    n_addable = len(summed) - len(keep_r) - len(held.items() & summed.items())
    add_p = add_good / added if added else 0.0
    add_r = add_good / n_addable if n_addable else 0.0
    keep_p = sum(keep_p) / len(keep_p) if keep_p else 0.0
    keep_r = sum(keep_r) / len(keep_r) if keep_r else 0.0
    del_p = sum(delete) / len(delete) if delete else 0.0
    return _f1(keep_p, keep_r), del_p, _f1(add_p, add_r)


def sari_sentence(source, prediction, references, counts=None):
    """Sentence-level SARI on the 0-100 scale, against a list of references
    or their ReferenceCounts; *counts* are the prediction's all_ngrams."""
    if not references:
        raise DataError("SARI needs at least one reference")
    if not isinstance(references, ReferenceCounts):
        references = ReferenceCounts(source, references)
    if prediction is references.held_out:
        counts = references.held
    counts = counts or all_ngrams(prediction.tokens)
    total = 0.0
    tables = zip(references.summed, references.source, references.held, counts)
    for summed, src_counts, held, pred_counts in tables:
        keep_f, del_p, add_f = _sari_operation_scores(
            pred_counts, summed, src_counts, held, references.n_refs
        )
        total += (keep_f + del_p + add_f) / 3
    return 100.0 * total / MAX_ORDER


def bleu_corpus(predictions, reference_lists, counts=None):
    """Corpus BLEU-4 on the 0-100 scale.

    Multi-reference clipped n-gram precision, geometric mean over orders
    1..4, brevity penalty from the closest reference length
    (ties resolved toward the shorter reference), no smoothing. Each entry of
    *reference_lists* is a list of Sentences or their ReferenceCounts, and
    of *counts* a prediction's all_ngrams (counted here when None).
    """
    if len(predictions) != len(reference_lists):
        raise DataError(
            f"{len(predictions)} predictions, {len(reference_lists)} reference lists"
        )
    if not predictions:
        raise DataError("cannot score an empty corpus")

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    pred_len = 0
    ref_len = 0
    counts = counts or [all_ngrams(pred.tokens) for pred in predictions]
    for pred, table, pred_tables in zip(predictions, reference_lists, counts,
                                        strict=True):
        if not table:
            raise DataError("BLEU needs at least one reference per sentence")
        if not isinstance(table, ReferenceCounts):
            table = ReferenceCounts(None, table)
        pred_len += len(pred.tokens)
        ref_len += min(table.lengths, key=lambda rl: (abs(rl - len(pred.tokens)), rl))
        for n, pred_counts in enumerate(pred_tables):
            clip, present = table.clip[n], table.summed[n]
            # no stored maximum: 1 if some reference has the n-gram, else 0
            matches[n] += sum(
                min(c, clip.get(g, g in present)) for g, c in pred_counts.items()
            )
            totals[n] += sum(pred_counts.values())

    if any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = math.fsum(
        math.log(m / t) for m, t in zip(matches, totals)
    ) / MAX_ORDER
    brevity = 1.0 if pred_len >= ref_len else math.exp(1 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_precision)
