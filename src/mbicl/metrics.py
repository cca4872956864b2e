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

    Orders 1..4 hold SARI's terms: source counts, reference fractions (one
    float object per distinct count), keep-recall terms in source-count order
    and the number of addable n-grams. BLEU's clip maxima (an n-gram's
    largest count in one reference) are stored only where above 1. A *source*
    of None skips SARI.
    """

    def __init__(self, source, references):
        per_ref, summed = _reference_ngrams(references)
        self._tabulate(source, summed, len(references))
        self.lengths = tuple(len(r.tokens) for r in references)
        self.clip = [{} for _ in summed]
        for counts in per_ref:
            for clip, order_counts in zip(self.clip, counts):
                for g, c in order_counts.items():
                    if c > clip.get(g, 1):
                        clip[g] = c

    @classmethod
    def leave_one_out(cls, source, references):
        """The SARI tables of *references* with each one held out in turn: the
        summed counts minus the held-out reference's, zeros dropped."""
        per_ref, summed = _reference_ngrams(references)
        tables = [cls.__new__(cls) for _ in references]
        for table, counts in zip(tables, per_ref):
            rest = [dict(total) for total in summed]
            for left, held in zip(rest, counts):
                for g, c in held.items():
                    if left[g] == c:
                        del left[g]
                    else:
                        left[g] -= c
            table._tabulate(source, rest, len(references) - 1)
        return tables

    def _tabulate(self, source, summed, n_refs):
        self.n_refs = n_refs
        fracs = {c: c / n_refs for counts in summed for c in set(counts.values())}
        self.frac = [dict(zip(c, map(fracs.__getitem__, c.values()))) for c in summed]
        self.sari_terms = []
        for n, frac in enumerate(self.frac if source is not None else (), 1):
            src = ngram_counts(source.tokens, n)
            keep = [(g, frac[g], min(c, frac[g])) for g, c in src.items() if g in frac]
            self.sari_terms.append((src, frac, keep, len(frac) - len(keep)))

    def __len__(self):
        return self.n_refs


def _reference_ngrams(references):
    """Each reference's n-gram counts for orders 1..4, and their sums over
    the references."""
    per_ref = [
        [ngram_counts(r.tokens, n) for n in range(1, MAX_ORDER + 1)] for r in references
    ]
    summed = [Counter() for _ in range(MAX_ORDER)]
    for counts in per_ref:
        for total, c in zip(summed, counts):
            total.update(c)
    return per_ref, summed


def _sari_operation_scores(pred_counts, src_counts, ref_frac, keep_terms, n_addable):
    """Keep-F1, delete-precision, and add-F1 for one n-gram order; every
    argument but *pred_counts* comes from the instance's ReferenceCounts."""
    # keep: n-grams present in both source and prediction
    kept = {
        g: min(c, pred_counts[g]) for g, c in src_counts.items() if g in pred_counts
    }
    keep_p = keep_r = 0.0
    if kept:
        keep_p = sum(min(c, ref_frac.get(g, 0.0)) / c for g, c in kept.items()) / len(
            kept
        )
    if keep_terms:
        keep_r = sum(
            min(kept.get(g, 0.0), frac) / c for g, frac, c in keep_terms
        ) / len(keep_terms)

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
    added = [g for g in pred_counts if g not in src_counts]
    add_good = sum(g in ref_frac for g in added)
    add_p = add_good / len(added) if added else 0.0
    add_r = add_good / n_addable if n_addable else 0.0

    return _f1(keep_p, keep_r), del_p, _f1(add_p, add_r)


def sari_sentence(source, prediction, references):
    """Sentence-level SARI on the 0-100 scale, against a list of references
    or their ReferenceCounts."""
    if not references:
        raise DataError("SARI needs at least one reference")
    if not isinstance(references, ReferenceCounts):
        references = ReferenceCounts(source, references)
    total = 0.0
    for order, terms in enumerate(references.sari_terms, 1):
        pred_counts = ngram_counts(prediction.tokens, order)
        keep_f, del_p, add_f = _sari_operation_scores(pred_counts, *terms)
        total += (keep_f + del_p + add_f) / 3
    return 100.0 * total / MAX_ORDER


def bleu_corpus(predictions, reference_lists):
    """Corpus BLEU-4 on the 0-100 scale.

    Multi-reference clipped n-gram precision, geometric mean over orders
    1..4, brevity penalty from the closest reference length
    (ties resolved toward the shorter reference), no smoothing. Each entry of
    *reference_lists* is a list of Sentences or their ReferenceCounts.
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
    for pred, table in zip(predictions, reference_lists):
        if not table:
            raise DataError("BLEU needs at least one reference per sentence")
        if not isinstance(table, ReferenceCounts):
            table = ReferenceCounts(None, table)
        pred_len += len(pred.tokens)
        ref_len += min(table.lengths, key=lambda rl: (abs(rl - len(pred.tokens)), rl))
        for n, (clip, present) in enumerate(zip(table.clip, table.frac)):
            pred_counts = ngram_counts(pred.tokens, n + 1)
            # no stored maximum: 1 with a reference fraction, else 0
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
