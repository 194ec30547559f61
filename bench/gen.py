"""Seeded input generator for the benchmark workloads.

Every corpus is drawn from one `numpy.random.Generator` seeded by the
benchmark's `--seed`, so the same seed gives the same inputs.  fewtag's cost
depends on these input properties, set here and in `workloads.Sizes`:

  * sentence length sets padding waste (every input is padded to
    `max_len` = 128 positions) and the number of context tokens;
  * tokens per batch set the batch-wide O(n^2) context-context loss;
  * classes per task set the label-prompt length;
  * support and test sizes set support-bank rows and the decode count.

Entities are preceded by a class-specific cue word and drawn from a small
per-class word pool, so a model could learn them from context or surface
form, and query entities reuse support words, so a trained model could tag
them by nearest support token.  Whether it does is not verified: the
benchmark's cheap fixed source checkpoint leaves F1 near chance.
"""

from __future__ import annotations

import numpy as np

from fewtag.data import Episode, LabelMap, LabelSet, Sentence

SOURCE_PHRASES = {
    "per": "person name",
    "org": "organization",
    "loc": "location place",
    "date": "calendar date",
    "event": "named event",
    "prod": "commercial product",
}
TARGET_PHRASES = {
    "dis": "medical disease",
    "chem": "chemical compound",
    "gene": "gene or protein",
    "spec": "living species",
    "anat": "body part",
    "proc": "medical procedure",
    "dev": "medical device",
    "symp": "clinical symptom",
}
O_VOCAB = 400
ENTITY_VOCAB = 12   # surface forms per class
CUE_VOCAB = 3       # context cue words per class


# Sentence lengths in context tokens: tens of tokens, as in real NER corpora.
MIN_LEN = 6
MAX_LEN = 30
MIN_MENTIONS = 1
MAX_MENTION_LEN = 3
# Mentions per sentence: source sentences have 1-3, target sentences 1-2.
SOURCE_MAX_MENTIONS = 3
TARGET_MAX_MENTIONS = 2


def label_map() -> LabelMap:
    """One map over source and target classes, as a checkpoint carries it."""
    return LabelMap({**SOURCE_PHRASES, **TARGET_PHRASES, "O": "other"})


def source_label_set() -> LabelSet:
    return LabelSet(tuple(SOURCE_PHRASES), role="source")


def _source_class(cls: str) -> tuple[str, int]:
    """Source class whose surface forms a class draws from, and which half.

    Target classes are finer-grained types over the source vocabulary, as
    when a few-shot label set splits coarse source types: target class i
    takes half of source class i's words, wrapping round the source list.
    """
    if cls in SOURCE_PHRASES:
        return cls, -1
    i = list(TARGET_PHRASES).index(cls)
    src = list(SOURCE_PHRASES)
    return src[i % len(src)], i // len(src)


def _entity_words(cls: str) -> list[str]:
    src, half = _source_class(cls)
    words = [f"{src}{i}" for i in range(ENTITY_VOCAB)]
    if half < 0:
        return words
    return words[half * ENTITY_VOCAB // 2:(half + 1) * ENTITY_VOCAB // 2]


def _cue_words(cls: str) -> list[str]:
    src, _ = _source_class(cls)
    return [f"{src}cue{i}" for i in range(CUE_VOCAB)]


def lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """n sentence lengths spread evenly over MIN_LEN..MAX_LEN, in seeded order.

    Stratifying keeps the work a set of sentences holds the same from seed
    to seed, which matters because every input is padded to `max_len`: a
    seed with shorter sentences would read as fewer tokens per second.
    """
    span = MAX_LEN - MIN_LEN + 1
    return rng.permutation(MIN_LEN + (np.arange(n) * span) // n)


def sentence(rng: np.random.Generator, classes, n_tokens: int, n_mentions: int) -> Sentence:
    """About `n_tokens` tokens with `n_mentions` cue-marked mentions of `classes`.

    The sentence is longer than `n_tokens` only when its mentions and their
    cue words do not fit.
    """
    mentions = []
    for _ in range(n_mentions):
        cls = str(classes[int(rng.integers(len(classes)))])
        length = int(rng.integers(1, MAX_MENTION_LEN + 1))
        words = _entity_words(cls)
        mentions.append((cls, [words[int(rng.integers(len(words)))] for _ in range(length)]))
    used = sum(len(m) + 1 for _, m in mentions)  # +1 for each cue word
    n_o = max(0, n_tokens - used)
    # split the O tokens into n_mentions + 1 runs around the mentions
    cuts = np.sort(rng.integers(0, n_o + 1, size=n_mentions))
    runs = np.diff(np.concatenate([[0], cuts, [n_o]]))
    tokens: list[str] = []
    tags: list[str] = []
    for i, run in enumerate(runs):
        tokens += [f"w{int(rng.integers(O_VOCAB))}" for _ in range(int(run))]
        tags += ["O"] * int(run)
        if i < n_mentions:
            cls, words = mentions[i]
            cues = _cue_words(cls)
            tokens.append(cues[int(rng.integers(len(cues)))])
            tags.append("O")
            tokens += words
            tags += [f"I-{cls}"] * len(words)
    return Sentence(tuple(tokens), tuple(tags))


def corpus(rng: np.random.Generator, classes, n: int, max_mentions: int,
           block: int | None = None) -> list[Sentence]:
    """n sentences with MIN_MENTIONS..max_mentions mentions each; lengths are
    stratified within each block of `block` sentences (default: the whole
    corpus)."""
    block = block or n
    lens = np.concatenate([lengths(rng, min(block, n - lo)) for lo in range(0, n, block)])
    return [sentence(rng, classes, int(k), int(rng.integers(MIN_MENTIONS, max_mentions + 1)))
            for k in lens]


def episode(rng: np.random.Generator, n_way: int, k_shot: int, n_query: int) -> Episode:
    """N-way K-shot episode over target classes: K one-mention support
    sentences per class, queries with mentions of the episode's classes."""
    classes = [str(c) for c in rng.choice(list(TARGET_PHRASES), size=n_way, replace=False)]
    support_lens = lengths(rng, n_way * k_shot)
    support = [sentence(rng, [c], int(support_lens[i * k_shot + j]), n_mentions=1)
               for i, c in enumerate(classes) for j in range(k_shot)]
    query = corpus(rng, classes, n_query, TARGET_MAX_MENTIONS)
    return Episode(support=support, query=query, n_way=n_way, k_shot=k_shot)
