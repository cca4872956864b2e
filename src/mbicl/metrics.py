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

    For each order 1..4 it holds the references' summed n-gram counts and
    the source's counts as g -> (count, summed count) in source order. BLEU's
    clip maxima (an n-gram's largest count in one reference) are stored only
    where above 1. A *source* of None skips SARI.
    """

    def __init__(self, source, references):
        per_ref, self.summed = _reference_ngrams(references)
        self.source = _source_counts(source, self.summed)
        self.n_refs = len(references)
        self.lengths = tuple(len(r.tokens) for r in references)
        self.clip = [{} for _ in self.summed]
        for counts in per_ref:
            for clip, order_counts in zip(self.clip, counts):
                for g, c in order_counts.items():
                    if c > clip.get(g, 1):
                        clip[g] = c

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


def _sari_operation_scores(pred_counts, summed, src_counts, n_refs):
    """Keep-F1, delete-precision, and add-F1 for one n-gram order. A
    reference fraction is f = summed / n_refs, and f == 0 is absent."""
    keep_p, keep_r, delete = [], [], []
    for g, (c, s) in src_counts.items():
        f = s / n_refs
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
            add_good += g in summed
    n_addable = len(summed) - len(keep_r)  # reference n-grams, less the source's
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
    counts = counts or all_ngrams(prediction.tokens)
    total = 0.0
    tables = zip(references.summed, references.source, counts)
    for summed, src_counts, pred_counts in tables:
        keep_f, del_p, add_f = _sari_operation_scores(
            pred_counts, summed, src_counts, references.n_refs
        )
        total += (keep_f + del_p + add_f) / 3
    return 100.0 * total / MAX_ORDER


# Instances scored together. A block's counts, and its rows padded to its
# longest source, are the kernel's temporaries, so the block bounds them.
_LOO_BLOCK = 16


def leave_one_out_sari(instances):
    """Leave-one-out SARI of every (source, reference) pair of *instances*,
    each with at least 2 references: reference j is the prediction, scored
    against the other references. Scores come in instance order, then
    reference index, and equal sari_sentence's exactly.

    Tokens are interned to integers. An n-gram's id pairs the id of its
    (n-1)-gram prefix with its last token, and the empty prefix's id is the
    instance's index, so an id names an n-gram within one instance and every
    count is an integer array. Each cell does the IEEE operations of
    _sari_operation_scores, and each mean adds its terms left to right in
    the source's order, as sum() does on Python 3.11.
    """
    scores = []
    for b in range(0, len(instances), _LOO_BLOCK):
        scores += _loo_block(instances[b : b + _LOO_BLOCK])
    return scores


def _loo_block(instances):
    """leave_one_out_sari of one block of instances."""
    sentences = [s for inst in instances for s in (inst.source, *inst.references)]
    vocab = {}
    tokens = np.array(
        [vocab.setdefault(t, len(vocab)) for s in sentences for t in s.tokens],
        dtype=np.int64,
    )
    lengths = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
    n_refs = np.array([inst.n_references for inst in instances], dtype=np.int64)
    sent_inst = np.repeat(np.arange(len(instances)), n_refs + 1)
    is_source = np.zeros(len(sentences), dtype=bool)
    is_source[np.cumsum(n_refs + 1) - n_refs - 1] = True
    sent = np.repeat(np.arange(len(sentences)), lengths)  # each token's sentence
    ends = np.repeat(np.cumsum(lengths), lengths)  # where that sentence ends
    pos, ids = np.arange(len(tokens)), sent_inst[sent]
    total = np.zeros(int(n_refs.sum()))
    for n in range(1, MAX_ORDER + 1):
        longer = pos + n - 1 < ends[pos]  # the n-gram at pos fits its sentence
        pos = pos[longer]
        ngrams, ids = np.unique(
            ids[longer] * len(vocab) + tokens[pos + n - 1], return_inverse=True
        )
        total += _loo_order_scores(
            sent[pos], ids, len(ngrams), sent_inst, is_source, n_refs
        )
    return (100.0 * total / MAX_ORDER).tolist()


def _loo_order_scores(sent, ids, n_ids, sent_inst, is_source, n_refs):
    """(keep-F1 + delete-precision + add-F1) / 3 of one order for every
    leave-one-out row, from the sentence and the id of each n-gram."""
    rows = np.flatnonzero(~is_source)  # each reference sentence is one row
    row_inst = sent_inst[rows]
    in_src = is_source[sent]
    inst_of = np.zeros(n_ids, dtype=np.int64)
    inst_of[ids] = sent_inst[sent]
    src_c = np.bincount(ids[in_src], minlength=n_ids)
    summed = np.bincount(ids[~in_src], minlength=n_ids)
    ref_types, held = np.unique(sent[~in_src] * n_ids + ids[~in_src], return_counts=True)
    ref_sent, ref_id = np.divmod(ref_types, n_ids)

    # add: a row's types new to the source, those also in another reference,
    # and the types of the other references new to the source
    new = src_c[ref_id] == 0
    added = np.bincount(ref_sent[new], minlength=len(sent_inst))[rows]
    alone = new & (summed[ref_id] == held)
    only_held = np.bincount(ref_sent[alone], minlength=len(sent_inst))[rows]
    addable = np.bincount(inst_of[(src_c == 0) & (summed > 0)], minlength=len(n_refs))
    add_good = added - only_held
    add_f = _f1_rows(
        _ratio(add_good, added), _ratio(add_good, addable[row_inst] - only_held)
    )

    # keep and delete: a column per source type, in first-occurrence order
    _, first = np.unique(ids[in_src], return_index=True)
    columns = ids[in_src][np.sort(first)]
    keep_f = del_p = np.zeros(len(rows))
    if len(columns):  # else no source n-gram of this order: no keep or delete term
        widths = np.bincount(inst_of[columns], minlength=len(n_refs))
        starts = np.cumsum(widths) - widths
        col_of = np.zeros(n_ids, dtype=np.int64)
        col_of[columns] = np.arange(len(columns)) - starts[inst_of[columns]]
        col = np.arange(widths.max())
        cell = col < widths[row_inst][:, None]
        g = columns[np.where(cell, starts[row_inst][:, None] + col, 0)]
        c, s = np.where(cell, src_c[g], 0), np.where(cell, summed[g], 0)
        h = np.zeros(cell.shape, dtype=np.int64)  # held-out counts of source types
        row_of = np.cumsum(~is_source) - 1
        h[row_of[ref_sent[~new]], col_of[ref_id[~new]]] = held[~new]
        keep_f, del_p = _keep_delete(c, s, h, n_refs[row_inst] - 1)
    return (keep_f + del_p + add_f) / 3


def _keep_delete(c, s, h, n_refs):
    """Keep-F1 and delete-precision per row, from the source count *c*, the
    summed count *s* and the held-out count *h* of each source type (the
    held-out reference is the prediction). A padding cell has c = s = h = 0."""
    f = (s - h) / n_refs[:, None]
    kept = np.minimum(c, h)
    good = np.where(h > 0, np.minimum(kept, f), 0.0)
    zeros = np.zeros(c.shape)
    keep_p = _row_mean(np.divide(good, kept, out=zeros.copy(), where=h > 0), h > 0)
    recall = np.divide(good, np.minimum(c, f), out=zeros.copy(), where=f != 0)
    deleted = np.divide(np.maximum(0.0, c - h - f), c - h, out=zeros, where=c > h)
    return _f1_rows(keep_p, _row_mean(recall, f != 0)), _row_mean(deleted, c > h)


def _row_mean(terms, present):
    """Each row's mean of its present terms, added left to right (an absent
    term is 0.0); 0.0 for a row with none."""
    return _ratio(np.add.accumulate(terms, axis=1)[:, -1], present.sum(axis=1))


def _ratio(a, b):
    """a / b elementwise, and 0.0 where b is 0."""
    return np.divide(a, b, out=np.zeros(len(b)), where=b != 0)


def _f1_rows(p, r):
    d = p + r
    return np.divide(2 * p * r, d, out=np.zeros(len(d)), where=d > 0)


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
