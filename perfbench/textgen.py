"""Seeded generator for the text-wide workload's labelled TSV corpus.

Each line is `label<TAB>text`. Five balanced classes draw most tokens from one
shared Zipfian background vocabulary; a small share of tokens comes from a few
class-specific words. So the class signal is weak, far more than 2500 terms
have positive information gain (IG keeps the full 2500 cap), and accuracies
stay well below 1.0.

The document structure (which word id sits where) is fixed by STRUCTURE_SEED.
The spelling of every word id is drawn from the workload seed: a seeded
bijection onto distinct lower-case strings of the same length. Different
seeds therefore give different texts that vectorize to the same matrix, so
timed work is equal across seeds while tokenization and vocabulary hashing
see new strings.

Regenerate a corpus file with:

    python3 perfbench/textgen.py --seed 0 --out corpus.tsv
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

STRUCTURE_SEED = 0
N_DOCS = 400
N_CLASSES = 5
N_WORDS = 20000  # background vocabulary size before sampling
ZIPF_S = 1.05
ZIPF_OFFSET = 2.7
TOPIC_WORDS = 40  # class-specific words per class
TOPIC_SHARE = 0.015  # share of a document's tokens drawn from its class's topic words
DOC_LEN = (60, 180)  # tokens per document, uniform
SENTENCE_LEN = (6, 14)
CLASS_NAMES = ("arts", "business", "health", "science", "sports")

# Every generated word is at least 3 letters and avoids this list, so the
# program's tokenizer keeps it (it drops tokens shorter than 2 and stopwords).
_RESERVED = frozenset(
    """a an and are as at be but by for from has have he her his if in into is it
    its no not of on or she that the their them then there these they this to was
    we were what which who will with you your""".split()
)


def _structure() -> tuple[list[int], list[list[list[int]]], np.ndarray]:
    """Labels, per-document sentences of word ids, and per-id word lengths."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    ranks = np.arange(N_WORDS)
    p = 1.0 / (ranks + ZIPF_OFFSET) ** ZIPF_S
    p /= p.sum()
    # topic words come from the middle of the frequency range, disjoint per class
    pool = rng.permutation(np.arange(300, 6000))[: TOPIC_WORDS * N_CLASSES]
    topics = pool.reshape(N_CLASSES, TOPIC_WORDS)
    lengths = rng.integers(3, 11, size=N_WORDS)

    labels = [i % N_CLASSES for i in range(N_DOCS)]
    docs = []
    for c in labels:
        n = int(rng.integers(DOC_LEN[0], DOC_LEN[1] + 1))
        ids = rng.choice(N_WORDS, size=n, p=p)
        topical = rng.random(n) < TOPIC_SHARE
        ids[topical] = rng.choice(topics[c], size=int(topical.sum()))
        sentences, start = [], 0
        while start < n:
            step = int(rng.integers(SENTENCE_LEN[0], SENTENCE_LEN[1] + 1))
            sentences.append([int(w) for w in ids[start : start + step]])
            start += step
        docs.append(sentences)
    return labels, docs, lengths


def _spellings(seed: int, lengths: np.ndarray) -> list[str]:
    rng = np.random.default_rng([seed, 0x7E47])
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    seen: set[str] = set()
    words = []
    for n in lengths:
        while True:
            w = "".join(rng.choice(letters, size=int(n)))
            if w not in seen and w not in _RESERVED:
                break
        seen.add(w)
        words.append(w)
    return words


def corpus_lines(seed: int) -> list[str]:
    labels, docs, lengths = _structure()
    words = _spellings(seed, lengths)
    lines = []
    for c, sentences in zip(labels, docs):
        text = " ".join(
            " ".join(words[w] for w in s).capitalize() + "." for s in sentences
        )
        lines.append(f"{CLASS_NAMES[c]}\t{text}")
    return lines


def write_corpus(path, seed: int) -> Path:
    path = Path(path)
    path.write_text("\n".join(corpus_lines(seed)) + "\n", encoding="utf-8")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(write_corpus(args.out, args.seed))


if __name__ == "__main__":
    main()
