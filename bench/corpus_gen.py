"""Seeded generator of ASSET-shaped simplification corpora.

Each instance is one complex sentence with ten reference simplifications,
written as the JSONL layout ``mbicl`` loads. References are made from the
source the way crowd-sourced simplifications are: some words deleted, some
replaced by a more frequent word, now and then a clause split off into its
own sentence or the whole sentence copied unchanged. Lengths follow
ASSET's: complex sentences of about 20 tokens, references about 15% shorter.

Instance ``i`` of a split depends only on ``(seed, split, i)``, so a corpus
of n instances is the first n instances of any larger one with the same
seed: smoke sizes are prefixes of the measured sizes. Its source length
depends on ``i`` alone.

Run as a script to write a pair of corpora::

    python3 bench/corpus_gen.py --seed 0 --dev 200 --test 359 --out-dir /tmp/c
"""

import argparse
import itertools
import json
import random
import statistics
from pathlib import Path

N_REFERENCES = 10

_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "n", "r", "s", "t", "l", "nd", "st")


def _syllables():
    for onset, vowel, coda in itertools.product(_ONSETS, _VOWELS, _CODAS):
        yield onset + vowel + coda


def _vocabulary():
    """A fixed vocabulary: short frequent "simple" words and long rare
    "complex" words, in rank order."""
    syl = list(_syllables())
    return syl[:600], [a + b for a, b in zip(syl[600:], reversed(syl))]


_SIMPLE, _COMPLEX = _vocabulary()
_FUNCTION = ("the", "of", "and", "to", "in", "a", "was", "is", "for", "on",
             "with", "as", "by", "at", "from", "it", "that", "which", "his", "their")


def _zipf_cum_weights(n, s=1.1):
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        cum.append(total)
    return cum


_SIMPLE_CUM = _zipf_cum_weights(len(_SIMPLE))
_COMPLEX_CUM = _zipf_cum_weights(len(_COMPLEX))
_SOURCE_LENGTHS = statistics.NormalDist(20.0, 7.0)
_GOLDEN = (5**0.5 - 1) / 2


def _content_word(rng, complexity):
    if rng.random() < complexity:
        return rng.choices(_COMPLEX, cum_weights=_COMPLEX_CUM)[0]
    return rng.choices(_SIMPLE, cum_weights=_SIMPLE_CUM)[0]


def _source_length(index):
    """Token count of source *index*: quantiles of N(20, 7) at the golden-ratio
    sequence, so that every prefix of a corpus has the same length profile
    whatever the seed, and seeds change words, not the amount of work."""
    u = (0.5 + index * _GOLDEN) % 1.0
    return max(8, min(48, round(_SOURCE_LENGTHS.inv_cdf(u))))


def _source_words(rng, n):
    words = []
    for _ in range(n):
        if rng.random() < 0.35:
            words.append(rng.choice(_FUNCTION))
        else:
            words.append(_content_word(rng, complexity=0.45))
    return words


def _render(words, rng):
    """Words to a sentence: capitalised, commas every so often, full stop."""
    out = []
    for i, word in enumerate(words):
        if word == ".":
            out[-1] += "."
            continue
        if i == 0 or (out and out[-1].endswith(".")):
            word = word.capitalize()
        if i and i < len(words) - 1 and rng.random() < 0.06:
            out[-1] += ","
        out.append(word)
    return " ".join(out) + "."


def _simplify(words, rng):
    if rng.random() < 0.05:
        return list(words)
    p_delete = rng.uniform(0.05, 0.25)
    p_substitute = rng.uniform(0.05, 0.2)
    out = []
    for word in words:
        r = rng.random()
        if r < p_delete:
            continue
        if r < p_delete + p_substitute and word not in _FUNCTION:
            out.append(_content_word(rng, complexity=0.05))
        else:
            out.append(word)
    if len(out) >= 12 and rng.random() < 0.2:
        cut = rng.randrange(5, len(out) - 4)
        out = out[:cut] + ["."] + out[cut:]
    return out or list(words[:3])


def instance(seed, split, index):
    """One ASSET-shaped instance as a JSONL object."""
    rng = random.Random(f"{seed}:{split}:{index}")
    words = _source_words(rng, _source_length(index))
    return {
        "id": f"{split}-{index}",
        "source": _render(words, rng),
        "references": [_render(_simplify(words, rng), rng) for _ in range(N_REFERENCES)],
    }


def write_corpus(path, seed, split, n):
    """Write instances 0..n-1 of *split* to *path*; return their shape."""
    rows = [instance(seed, split, i) for i in range(n)]
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return shape(rows)


def shape(rows):
    """Size and length statistics of a list of instances."""
    src = [len(r["source"].split()) for r in rows]
    ref = [len(x.split()) for r in rows for x in r["references"]]
    return {
        "instances": len(rows),
        "references_per_instance": N_REFERENCES,
        "source_words_mean": round(statistics.fmean(src), 2),
        "reference_words_mean": round(statistics.fmean(ref), 2),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dev", type=int, default=200)
    parser.add_argument("--test", type=int, default=359)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split, n in (("dev", args.dev), ("test", args.test)):
        print(split, json.dumps(write_corpus(out / f"{split}.jsonl", args.seed, split, n)))


if __name__ == "__main__":
    main()
