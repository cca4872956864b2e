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
from collections import namedtuple
from enum import Enum
from itertools import chain, count, filterfalse
from types import SimpleNamespace

import numpy as np

from .errors import DataError

MAX_ORDER = 4  # SARI and BLEU both score n-gram orders 1..4


class Metric(str, Enum):
    """The metrics that score (complex, reference) pairs for selection."""

    SARI = "sari"
    CR = "cr"
    BERTPREC = "bertprec"


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


# An instance as NgramTable reads it.
_Instance = namedtuple("_Instance", "source references")

# The source of an instance that only BLEU reads: it has no n-grams.
_NO_SOURCE = SimpleNamespace(tokens=())

# Each row's instance, its length, and per order its distinct n-grams as
# (row, id, count) arrays: what NgramTable.count gives sari_rows and bleu_counts.
_Counts = namedtuple("_Counts", "rows lengths orders")

# Instances counted together. A block's n-gram arrays, and the leave-one-out
# rows of a block padded to its longest source, are the kernels' largest
# temporaries, so the block bounds them.
_BLOCK = 16


def _key(prefix, token):
    """An n-gram's key: its prefix's id in the high bits, its last token's id
    in the low 32, so that keys sort by prefix and pair each with one token."""
    return (prefix << 32) | token


class NgramTable:
    """The sources and references of *instances* as integer n-gram counts,
    built once and read by SARI and BLEU; count() interns the sentences to
    score against it.

    Tokens are interned to integers. An n-gram's id pairs the id of its
    (n-1)-gram prefix with its last token, and the empty prefix's id is the
    instance's index, so an id names an n-gram within one instance and ids
    never collide across instances. The ids of an order number its sorted
    keys; one more id, past the last, stands for every n-gram the table
    lacks. An instance's keys all sort before the next instance's, so blocks
    of instances are counted one after another and their arrays joined. With
    *keep_reference_rows*, the n-grams of each reference, one row each in
    instance order, are kept as reference_rows, in the form count() gives.
    """

    def __init__(self, instances, keep_reference_rows=False):
        self.n_refs = np.array([len(i.references) for i in instances], dtype=np.int64)
        self.ref_lengths = np.array(
            [len(r.tokens) for inst in instances for r in inst.references],
            dtype=np.int64,
        )
        self.vocab, seen = {}, np.zeros((MAX_ORDER, 2), dtype=np.int64)
        blocks = [
            _count_block(instances[b : b + _BLOCK], b, int(self.n_refs[:b].sum()),
                         seen, self.vocab)
            for b in range(0, len(instances), _BLOCK)
        ]
        self.orders, ref_orders = [], []
        for _ in range(MAX_ORDER):
            parts = [block.pop(0) for block in blocks]
            self.orders.append(_OrderCounts(*(
                np.concatenate([*(getattr(part, name) for part, _ in parts),
                                np.array(absent, dtype=np.int64)])
                for name, absent in zip(_OrderCounts._fields, _ABSENT)
            )))
            if keep_reference_rows:
                refs = zip(*(refs for _, refs in parts))
                ref_orders.append(tuple(map(np.concatenate, refs)))
        if keep_reference_rows:
            rows = np.repeat(np.arange(len(instances)), self.n_refs)
            self.reference_rows = _Counts(rows, self.ref_lengths, ref_orders)

    def count(self, sentences):
        """The n-grams of *sentences*, one per instance in order, each a row
        to score against its instance. An n-gram the table lacks gets a fresh
        id, one per distinct n-gram of an instance, so that it counts as a
        type of its own; its counts are read at the table's all-zero id. A
        token the table lacks gets a fresh id too, so no key of an n-gram
        with a fresh token or prefix is one of the table's."""
        tokens = _intern(sentences, dict(self.vocab))
        lengths = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
        rows = np.arange(len(sentences))

        def number(n, sent, prefix, last):
            keys, key = self.orders[n].keys, _key(prefix, last)
            at = np.searchsorted(keys, key)  # the last key is above every n-gram's
            found = keys[at] == key
            fresh_ids, fresh, _, _ = _runs(key[~found], sent[~found])
            ids = np.where(found, at, 0)
            ids[~found] = len(keys) + fresh_ids
            return ids, None

        orders = []
        for order, (sent, ids, _) in zip(
            self.orders, _ngrams(tokens, lengths, rows, number)
        ):
            _, _, first, p = _runs(ids, sent)  # each row's distinct n-grams
            orders.append((sent[first], np.minimum(ids[first], len(order.keys) - 1), p))
        return _Counts(rows, lengths, orders)


def _runs(values, sent):
    """Sort *values*, each in sentence *sent*, by one stable argsort: each
    value's index among the distinct values, those values in order, and per
    run of one value in one sentence its first position and its length. A
    run's first position is the value's first in its sentence."""
    order = np.argsort(values, kind="stable")
    ordered, sent = values[order], sent[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    index = np.empty(len(values), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    distinct = ordered[new]
    new[1:] |= sent[1:] != sent[:-1]
    at = np.flatnonzero(new)
    return index, distinct, order[at], np.diff(np.append(at, len(values)))


def _intern(sentences, vocab):
    """The tokens of *sentences* as ids; a token *vocab* lacks is added to
    it, numbered past its ids in first-occurrence order."""
    tokens = list(chain.from_iterable(s.tokens for s in sentences))
    new = dict.fromkeys(filterfalse(vocab.__contains__, tokens))
    vocab.update(zip(new, count(len(vocab))))
    return np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _ngrams(tokens, lengths, first, number):
    """Per order 1..MAX_ORDER, the sentence and the id of each n-gram of the
    sentences whose interned *tokens* and *lengths* are given, and what else
    number(n, their sentences, prefix ids, last tokens) returned with the ids
    of order n + 1. The empty prefix's id is *first* of the sentence's."""
    sent = np.repeat(np.arange(len(lengths)), lengths)  # each token's sentence
    ends = np.cumsum(lengths)  # where each sentence ends
    pos, ids = np.arange(len(tokens)), first[sent]
    for n in range(MAX_ORDER):
        longer = pos + n < ends[sent]  # the n-gram at pos fits its sentence
        pos, sent = pos[longer], sent[longer]
        ids, extra = number(n, sent, ids[longer], tokens[pos + n])
        yield sent, ids, extra


# One order of an NgramTable. Per id: the summed reference count, the clip
# maximum (the largest count in one reference) and, for a source type, its
# column, else -1; the last id has 0, 0 and -1. The columns list each
# instance's source types in first-occurrence order, instance after instance,
# with their source and summed counts. Per instance: how many columns it has,
# where they start, and how many addable types (in a reference, not in the
# source) it has.
_OrderCounts = namedtuple(
    "_OrderCounts", "keys summed clip column col_src col_summed widths starts addable"
)


# What each field of _OrderCounts holds at the all-zero last id.
_ABSENT = _OrderCounts((np.iinfo(np.int64).max,), (0,), (0,), (-1,), (), (), (), (), ())


def _count_block(instances, first_inst, first_ref, seen, vocab):
    """Per order, the _OrderCounts of a block of instances, the first of
    them the table's instance *first_inst* and its first reference the table's
    *first_ref*, without the all-zero id; and the (reference, id, count) of
    its references' n-gram types. *seen* holds per order the ids and columns
    of the blocks before, and is moved past this block's; new tokens are
    added to *vocab*."""
    sentences = [s for inst in instances for s in (inst.source, *inst.references)]
    tokens = _intern(sentences, vocab)
    lengths = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
    n_refs = np.array([len(i.references) for i in instances], dtype=np.int64)
    sent_inst = np.repeat(np.arange(len(instances)), n_refs + 1)
    is_source = np.zeros(len(sentences), dtype=bool)
    is_source[np.cumsum(n_refs + 1) - n_refs - 1] = True
    ref_of = np.arange(len(sentences)) - sent_inst - 1  # a reference's row

    def number(n, sent, prefix, last):
        ids, keys, first, per_sent = _runs(_key(prefix, last), sent)
        return ids + seen[n, 0], (keys, first, per_sent)

    orders = []
    for n, (sent, ids, (keys, first, per_sent)) in enumerate(
        _ngrams(tokens, lengths, sent_inst + first_inst, number)
    ):
        (id_off, col_off), n_ids = seen[n], len(keys)
        # each sentence's n-gram types: their ids, counts and instances
        g, in_src = ids[first] - id_off, is_source[sent[first]]
        inst_of = np.zeros(n_ids, dtype=np.int64)
        inst_of[g] = sent_inst[sent[first]]
        src, summed, clip = (np.zeros(n_ids, dtype=np.int64) for _ in range(3))
        src[g[in_src]] = per_sent[in_src]
        ref_g, per_ref = g[~in_src], per_sent[~in_src]
        np.add.at(summed, ref_g, per_ref)
        np.maximum.at(clip, ref_g, per_ref)
        is_first = np.zeros(len(sent), dtype=bool)  # a source type's first position
        is_first[first[in_src]] = True
        columns = ids[is_first] - id_off
        column = np.full(n_ids, -1, dtype=np.int64)
        column[columns] = np.arange(len(columns)) + col_off
        widths = np.bincount(inst_of[columns], minlength=len(instances))
        addable = np.bincount(
            inst_of[(src == 0) & (summed > 0)], minlength=len(instances)
        )
        orders.append((
            _OrderCounts(keys, summed, clip, column, src[columns], summed[columns],
                         widths, np.cumsum(widths) - widths + col_off, addable),
            (ref_of[sent[first[~in_src]]] + first_ref, ref_g + id_off, per_ref),
        ))
        seen[n] += n_ids, len(columns)
    return orders


def sari_sentence(source, prediction, references):
    """Sentence-level SARI on the 0-100 scale."""
    if not references:
        raise DataError("SARI needs at least one reference")
    table = NgramTable([_Instance(source, references)])
    return sari_rows(table, table.count([prediction]))[0]


def sari_rows(table, counts, held_out=False):
    """SARI on the 0-100 scale of each row of *counts* (NgramTable.count),
    against the references of its instance in *table*. With *held_out*, each
    row is one of those references, scored against the others.

    Each cell does the IEEE operations of the counting rules, the add counts
    stay integers, and each mean adds its terms left to right in the source's
    first-occurrence order (np.add.accumulate along the row, with 0.0 for an
    absent term), so that a row's score does not depend on the rows, or the
    instances, it is scored with.
    """
    total = np.zeros(len(counts.rows))
    for order, (row, g, p) in zip(table.orders, counts.orders):
        total += _order_scores(order, table.n_refs, counts.rows, row, g, p, held_out)
    return (100.0 * total / MAX_ORDER).tolist()


def leave_one_out_sari(instances):
    """Leave-one-out SARI of every (source, reference) pair of *instances*,
    each with at least 2 references: reference j is the prediction, scored
    against the other references. Scores come in instance order, then
    reference index, and equal sari_sentence's exactly."""
    scores = []
    for b in range(0, len(instances), _BLOCK):
        table = NgramTable(instances[b : b + _BLOCK], keep_reference_rows=True)
        scores += sari_rows(table, table.reference_rows, held_out=True)
    return scores


def _order_scores(order, n_refs, rows, row, g, p, held_out):
    """(keep-F1 + delete-precision + add-F1) / 3 of one order for every row,
    from each row's distinct n-grams: the row, the id *g* and the count *p*.
    A held-out row's counts leave its instance's summed reference counts."""
    n, summed, column = len(rows), order.summed[g], order.column[g]
    rest = summed - p if held_out else summed  # in the scoring references
    new = column < 0

    # add: a row's types new to the source, those also in a scoring
    # reference, and the addable types only the held-out row has
    added = np.bincount(row[new], minlength=n)
    add_good = np.bincount(row[new & (rest > 0)], minlength=n)
    lost = np.bincount(row[new & (rest == 0) & (summed > 0)], minlength=n)
    add_f = _f1_rows(
        _ratio(add_good, added), _ratio(add_good, order.addable[rows] - lost)
    )

    # keep and delete: the row's instance's columns, padded to the widest
    keep_f = del_p = np.zeros(n)
    widths, starts = order.widths[rows], order.starts[rows]
    if widths.max(initial=0):  # else no source n-gram of this order
        col = np.arange(widths.max())
        cell = col < widths[:, None]
        at = np.where(cell, starts[:, None] + col, 0)
        c = np.where(cell, order.col_src[at], 0)
        s = np.where(cell, order.col_summed[at], 0)
        pc = np.zeros(cell.shape, dtype=np.int64)  # the row's counts of source types
        kept = row[~new]
        pc[kept, column[~new] - starts[kept]] = p[~new]
        scoring = s - pc if held_out else s
        keep_f, del_p = _keep_delete(c, scoring, pc, n_refs[rows] - held_out)
    return (keep_f + del_p + add_f) / 3


def _keep_delete(c, s, p, n_refs):
    """Keep-F1 and delete-precision per row, from the source count *c*, the
    count *s* summed over the *n_refs* scoring references and the prediction
    count *p* of each source type. A padding cell has c = s = p = 0."""
    f = s / n_refs[:, None]
    kept = np.minimum(c, p)
    good = np.where(p > 0, np.minimum(kept, f), 0.0)
    zeros = np.zeros(c.shape)
    keep_p = _row_mean(np.divide(good, kept, out=zeros.copy(), where=p > 0), p > 0)
    recall = np.divide(good, np.minimum(c, f), out=zeros.copy(), where=f != 0)
    deleted = np.divide(np.maximum(0.0, c - p - f), c - p, out=zeros, where=c > p)
    return _f1_rows(keep_p, _row_mean(recall, f != 0)), _row_mean(deleted, c > p)


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


def bleu_corpus(predictions, reference_lists):
    """Corpus BLEU-4 on the 0-100 scale; each entry of *reference_lists* is
    a list of Sentences.

    Multi-reference clipped n-gram precision, geometric mean over orders
    1..4, brevity penalty from the closest reference length
    (ties resolved toward the shorter reference), no smoothing.
    """
    if len(predictions) != len(reference_lists):
        raise DataError(
            f"{len(predictions)} predictions, {len(reference_lists)} reference lists"
        )
    if not predictions:
        raise DataError("cannot score an empty corpus")
    if not all(reference_lists):
        raise DataError("BLEU needs at least one reference per sentence")
    table = NgramTable([_Instance(_NO_SOURCE, refs) for refs in reference_lists])
    return bleu_counts(table, table.count(predictions))


def bleu_counts(table, counts):
    """bleu_corpus of the rows of *counts* (NgramTable.count), one per
    instance of *table*, in order. Matches, totals and lengths are integers."""
    matches, totals = [], []
    for order, (_, g, p) in zip(table.orders, counts.orders):
        matches.append(int(np.minimum(p, order.clip[g]).sum()))
        totals.append(int(p.sum()))
    # each instance's reference length closest to its prediction's, the
    # shorter one on a tie
    lengths = table.ref_lengths
    span = int(lengths.max()) + 1
    pred_lens = np.repeat(counts.lengths, table.n_refs)
    closest = np.abs(lengths - pred_lens) * span + lengths
    starts = np.cumsum(table.n_refs) - table.n_refs
    ref_len = int((np.minimum.reduceat(closest, starts) % span).sum())
    pred_len = int(counts.lengths.sum())

    if any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = math.fsum(
        math.log(m / t) for m, t in zip(matches, totals)
    ) / MAX_ORDER
    brevity = 1.0 if pred_len >= ref_len else math.exp(1 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_precision)
