"""Independent brute-force metric oracles for the test suite.

Deliberately written as direct transcriptions of the published counting
rules, with integer counts scaled by the number of references, so they
share no structure with the library's fractional-count implementation.
The naive kernels at the end are the exception: they keep the library's
per-call counting, and its per-sentence embedding, as the reference for
exact-equality tests.
"""

import hashlib
import math
import operator
from collections import Counter
from functools import reduce

import numpy as np

from mbicl.embeddings import _normalize_rows
from mbicl.errors import DataError, UsageError


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _sari_one_order(src, pred, ref_lists):
    numref = len(ref_lists)
    src_scaled = Counter()
    for g, c in Counter(src).items():
        src_scaled[g] = c * numref
    pred_scaled = Counter()
    for g, c in Counter(pred).items():
        pred_scaled[g] = c * numref
    ref_counts = Counter()
    for ref in ref_lists:
        ref_counts.update(Counter(ref))

    # keep
    kept = src_scaled & pred_scaled
    kept_good = kept & ref_counts
    kept_all = src_scaled & ref_counts
    keep_p_sum = 0.0
    keep_r_sum = 0.0
    for g in kept_good:
        keep_p_sum += kept_good[g] / kept[g]
        keep_r_sum += kept_good[g] / kept_all[g]
    keep_p = keep_p_sum / len(kept) if kept else 0.0
    keep_r = keep_r_sum / len(kept_all) if kept_all else 0.0
    keep_f = (
        2 * keep_p * keep_r / (keep_p + keep_r) if keep_p + keep_r > 0 else 0.0
    )

    # delete (precision only)
    deleted = src_scaled - pred_scaled
    deleted_good = deleted - ref_counts
    del_p_sum = 0.0
    for g in deleted_good:
        del_p_sum += deleted_good[g] / deleted[g]
    del_p = del_p_sum / len(deleted) if deleted else 0.0

    # add (set-based)
    added = set(pred_scaled) - set(src_scaled)
    added_good = added & set(ref_counts)
    addable = set(ref_counts) - set(src_scaled)
    add_p = len(added_good) / len(added) if added else 0.0
    add_r = len(added_good) / len(addable) if addable else 0.0
    add_f = 2 * add_p * add_r / (add_p + add_r) if add_p + add_r > 0 else 0.0

    return keep_f, del_p, add_f


def sari_oracle(src_tokens, pred_tokens, ref_token_lists):
    """Sentence SARI on the 0-100 scale from raw token lists."""
    keep_total = del_total = add_total = 0.0
    for n in range(1, 5):
        keep_f, del_p, add_f = _sari_one_order(
            ngrams(src_tokens, n),
            ngrams(pred_tokens, n),
            [ngrams(r, n) for r in ref_token_lists],
        )
        keep_total += keep_f
        del_total += del_p
        add_total += add_f
    return 100.0 * (keep_total / 4 + del_total / 4 + add_total / 4) / 3


def bleu_oracle(pred_token_lists, ref_token_lists_per_pred, max_order=4):
    """Corpus BLEU on the 0-100 scale from raw token lists.

    Written sentence-by-sentence with explicit clipping, independently of
    the library's accumulator implementation.
    """
    clipped = {n: 0 for n in range(1, max_order + 1)}
    total = {n: 0 for n in range(1, max_order + 1)}
    pred_length = 0
    effective_ref_length = 0
    for pred, refs in zip(pred_token_lists, ref_token_lists_per_pred):
        pred_length += len(pred)
        best = None
        for ref in refs:
            delta = (abs(len(ref) - len(pred)), len(ref))
            if best is None or delta < best:
                best = delta
        effective_ref_length += best[1]
        for n in range(1, max_order + 1):
            pred_ngrams = Counter(ngrams(pred, n))
            for g, c in pred_ngrams.items():
                allowed = max(
                    (Counter(ngrams(ref, n))[g] for ref in refs), default=0
                )
                clipped[n] += min(c, allowed)
            total[n] += sum(pred_ngrams.values())
    score = 0.0
    for n in range(1, max_order + 1):
        if total[n] == 0 or clipped[n] == 0:
            return 0.0
        score += math.log(clipped[n] / total[n])
    score /= max_order
    if pred_length < effective_ref_length:
        score += 1 - effective_ref_length / pred_length
    return 100.0 * math.exp(score)


def max_cosine_mean_oracle(candidate_rows, reference_rows):
    """Brute-force double loop over token vectors."""
    best_sum = 0.0
    for cand in candidate_rows:
        best = None
        for ref in reference_rows:
            dot = sum(a * b for a, b in zip(cand, ref))
            if best is None or dot > best:
                best = dot
        best_sum += best
    return best_sum / len(candidate_rows)


# -- naive library kernels ----------------------------------------------
# The library's sentence SARI and corpus BLEU as they were before reference
# counts were tabled once per instance: every call re-counts every
# reference. The table path must equal these exactly, not approximately.

SARI_MAX_ORDER = 4


def left_sum(terms):
    """Float terms added left to right: the order sum() adds in before
    Python 3.12, which compensates float rounding."""
    return reduce(operator.add, terms, 0.0)


def ngram_counts(tokens, order):
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _naive_sari_operation_scores(src_counts, pred_counts, ref_counts, n_refs):
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
        keep_p = left_sum(
            min(c, ref_frac.get(g, 0.0)) / c for g, c in kept.items()
        ) / len(kept)
    if kept_in_src_and_ref:
        keep_r = left_sum(
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
        del_p = left_sum(
            max(0.0, c - ref_frac.get(g, 0.0)) / c for g, c in deleted.items()
        ) / len(deleted)

    # add: n-gram types new in the prediction relative to the source
    added = set(pred_counts) - set(src_counts)
    addable = set(ref_counts) - set(src_counts)
    add_good = added & set(ref_counts)
    add_p = len(add_good) / len(added) if added else 0.0
    add_r = len(add_good) / len(addable) if addable else 0.0

    return _f1(keep_p, keep_r), del_p, _f1(add_p, add_r)


def naive_sari_sentence(source, prediction, references):
    """Sentence-level SARI on the 0-100 scale."""
    if not references:
        raise DataError("SARI needs at least one reference")
    n_refs = len(references)
    total = 0.0
    for order in range(1, SARI_MAX_ORDER + 1):
        src_counts = ngram_counts(source.tokens, order)
        pred_counts = ngram_counts(prediction.tokens, order)
        ref_counts = Counter()
        for ref in references:
            ref_counts.update(ngram_counts(ref.tokens, order))
        keep_f, del_p, add_f = _naive_sari_operation_scores(
            src_counts, pred_counts, ref_counts, n_refs
        )
        total += (keep_f + del_p + add_f) / 3
    return 100.0 * total / SARI_MAX_ORDER


def naive_leave_one_out(instances):
    """Leave-one-out SARI by naive_sari_sentence: each reference of each
    instance with at least 2 references, scored against the instance's other
    references, in instance order, then reference index."""
    return [
        naive_sari_sentence(
            inst.source, ref, inst.references[:j] + inst.references[j + 1 :]
        )
        for inst in instances
        if inst.n_references >= 2
        for j, ref in enumerate(inst.references)
    ]


def naive_bleu_corpus(predictions, reference_lists, max_order=4):
    """Corpus BLEU on the 0-100 scale.

    Multi-reference clipped n-gram precision, geometric mean over orders
    1..max_order, brevity penalty from the closest reference length
    (ties resolved toward the shorter reference), no smoothing.
    """
    if len(predictions) != len(reference_lists):
        raise DataError(
            f"{len(predictions)} predictions, {len(reference_lists)} reference lists"
        )
    if not predictions:
        raise DataError("cannot score an empty corpus")
    if max_order < 1:
        raise UsageError("BLEU order must be >= 1")

    matches = [0] * max_order
    totals = [0] * max_order
    pred_len = 0
    ref_len = 0
    for pred, refs in zip(predictions, reference_lists):
        if not refs:
            raise DataError("BLEU needs at least one reference per sentence")
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


# -- naive static embeddings ---------------------------------------------
# The static embedding backends as they were before they kept one table of
# unit rows: every sentence builds its tokens' raw vectors and normalizes
# that matrix. The table path must give the same bits.

def hash_vector(token):
    """HashBackend's raw vector of *token*, byte by byte: the big-endian
    16-bit words of sha256("0:<counter>:<token>") for counters 0, 1, ...,
    each word w as w / 32768 - 1, the first 32 of them."""
    values = []
    counter = 0
    while len(values) < 32:
        digest = hashlib.sha256(f"0:{counter}:{token}".encode("utf-8")).digest()
        for i in range(0, len(digest) - 1, 2):
            word = digest[i] << 8 | digest[i + 1]
            values.append(word / 32768.0 - 1.0)
        counter += 1
    return values[:32]


def naive_embed_tokens(vector_of, tokens):
    """One unit row per token: *vector_of* gives a token's raw vector."""
    return _normalize_rows([vector_of(t) for t in tokens], tokens)


def naive_embed_sentence(vector_of, sentence):
    pooled = naive_embed_tokens(vector_of, sentence.tokens).mean(axis=0, keepdims=True)
    return _normalize_rows(pooled, [sentence.raw], "sentence")[0]


def naive_similarity(a, b):
    """KATE's similarity of two unit vectors, one pair at a time: the sum of
    their elementwise products."""
    return float(np.sum(a * b))
