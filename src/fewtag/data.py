"""Corpus readers, label sets and maps, vocabulary, and support sampling.

Tags use the IO scheme throughout: "O" or "I-<class>".  BIO input is
normalized at ingest (B-X becomes I-X); `tag_class` and `extract_spans`
read the scheme for the sampler, the losses and the scorer.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, get_args, get_origin

import numpy as np

from .rngutil import make_rng

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)

O_TAG = "O"
DEFAULT_O_PHRASE = "other"


class DataError(ValueError):
    """Malformed input data (file contents, constraint violations)."""


def normalize_tag(tag: str) -> str:
    """BIO -> IO: B-X and I-X both become I-X; O stays O."""
    if tag == O_TAG:
        return O_TAG
    if tag.startswith(("B-", "I-")):
        cls = tag[2:]
        if not cls:
            raise DataError(f"tag {tag!r} has an empty class name")
        return "I-" + cls
    raise DataError(f"unrecognized tag {tag!r} (expected O, B-cls, or I-cls)")


def tag_class(tag: str) -> Optional[str]:
    """Entity class of an IO tag, or None for O."""
    return None if tag == O_TAG else tag[2:]


@dataclass(frozen=True)
class Span:
    start: int
    end: int  # inclusive
    cls: str

    def __post_init__(self):
        if not (0 <= self.start <= self.end) or self.cls == "O":
            raise DataError(f"invalid span ({self.start}, {self.end}, {self.cls})")


def extract_spans(tags) -> list[Span]:
    """Maximal runs of identical I-class tags; a class change starts a new span."""
    tags = list(tags)
    spans: list[Span] = []
    start = None
    current = None
    for i, tag in enumerate(tags):
        cls = tag_class(tag)
        if cls != current:
            if current is not None:
                spans.append(Span(start, i - 1, current))
            start, current = (i, cls) if cls is not None else (None, None)
    if current is not None:
        spans.append(Span(start, len(tags) - 1, current))
    return spans


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags) or len(self.tokens) == 0:
            raise DataError(
                f"sentence needs equal, non-zero token/tag counts "
                f"({len(self.tokens)} vs {len(self.tags)})")

    def entity_classes(self) -> set[str]:
        return {c for c in (tag_class(t) for t in self.tags) if c is not None}


@dataclass(frozen=True)
class LabelSet:
    """Ordered entity class names; O is implicit and always last."""

    classes: tuple[str, ...]
    role: str = "source"  # "source" or "target"; disjointness is the caller's contract

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DataError("duplicate class names in label set")
        if O_TAG in self.classes:
            raise DataError("O must not be listed among entity classes")

    @property
    def with_o(self) -> tuple[str, ...]:
        return self.classes + (O_TAG,)

    def __len__(self):
        return len(self.classes)


@dataclass(frozen=True)
class LabelMap:
    """class name -> natural-language phrase, O included."""

    phrases: dict[str, str] = field(default_factory=dict)

    def phrase(self, cls: str) -> str:
        return self.phrases[cls]

    def check_covers(self, label_set: LabelSet, name: str = "label map") -> None:
        missing = [c for c in label_set.with_o if c not in self.phrases]
        if missing:
            raise DataError(f"{name} is missing phrases for: {', '.join(missing)}")


@dataclass
class Episode:
    support: list[Sentence]
    query: list[Sentence]
    n_way: int
    k_shot: int

    def __post_init__(self):
        support_classes = set()
        for s in self.support:
            support_classes |= s.entity_classes()
        if len(support_classes) != self.n_way:
            raise DataError(
                f"support has {len(support_classes)} entity classes, declared N={self.n_way}")
        for s in self.query:
            extra = s.entity_classes() - support_classes
            if extra:
                raise DataError(f"query uses classes absent from support: {sorted(extra)}")
        self.classes = tuple(sorted(support_classes))


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, self.token_to_id[UNK])


def _text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file; DataError naming `path` if it is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from f
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


def read_conll(path: str) -> list[Sentence]:
    """Read `token<sep>tag` lines (tab or space separated), blank line = new sentence."""
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                sentences.append(Sentence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected `token<sep>tag`, got {line!r}")
        try:
            tag = normalize_tag(parts[1])
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        tokens.append(parts[0])
        tags.append(tag)
    if tokens:
        sentences.append(Sentence(tuple(tokens), tuple(tags)))
    return sentences


def write_conll(sentences: Iterable[Sentence], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for sent in sentences:
            for tok, tag in zip(sent.tokens, sent.tags):
                f.write(f"{tok}\t{tag}\n")
            f.write("\n")


def _label_to_io(label: str) -> str:
    if label == O_TAG:
        return O_TAG
    if label.startswith(("B-", "I-")):
        return normalize_tag(label)
    return "I-" + label  # bare class names, as in episode files


def fits_json(value, kind) -> bool:
    """Whether a JSON value fits the annotation `kind`: int, float (finite),
    str, bool, Optional[X], tuple[X, ...] (a list) or dict[str, X]."""
    args = get_args(kind)
    if type(None) in args:  # Optional[X]
        return value is None or fits_json(value, args[0])
    if get_origin(kind) is tuple:  # tuple[X, ...]
        return isinstance(value, (list, tuple)) and all(fits_json(v, args[0]) for v in value)
    if get_origin(kind) is dict:
        return isinstance(value, dict) and all(fits_json(v, args[1]) for v in value.values())
    if isinstance(value, bool):  # a JSON true is not a number
        return kind is bool
    if kind is float:
        try:
            return math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            return False
    return isinstance(value, kind)


def _record_sentences(part: dict) -> list[Sentence]:
    words, labels = part["word"], part["label"]
    if not all(fits_json(x, tuple[tuple[str, ...], ...]) for x in (words, labels)):
        raise DataError("word and label must be lists of lists of strings")
    if len(words) != len(labels):
        raise DataError(f"{len(words)} word lists but {len(labels)} label lists")
    return [Sentence(tuple(w), tuple(_label_to_io(t) for t in l))
            for w, l in zip(words, labels)]


def read_fewnerd_episodes(path: str) -> list[Episode]:
    """One JSON record per line: support/query word+label arrays plus `types`."""
    episodes: list[Episode] = []
    for raw in _text_lines(path):
        if not raw.strip():
            continue
        idx = len(episodes)
        try:
            rec = json.loads(raw)
            types = rec["types"]
            if not fits_json(types, tuple[str, ...]):
                raise DataError(f"types must be a list of class names, got {types!r}")
            k = rec.get("K", 0)
            ep = Episode(_record_sentences(rec["support"]), _record_sentences(rec["query"]),
                         n_way=len(types), k_shot=k)
        except (KeyError, json.JSONDecodeError, TypeError) as e:
            raise DataError(f"{path}: episode {idx}: malformed record ({e})") from None
        except DataError as e:
            raise DataError(f"{path}: episode {idx}: {e}") from None
        if set(ep.classes) != set(types):
            raise DataError(
                f"{path}: episode {idx}: support classes {sorted(ep.classes)} "
                f"do not match declared types {sorted(types)}")
        episodes.append(ep)
    return episodes


def load_label_map(path: str, label_set: Optional[LabelSet] = None) -> LabelMap:
    """Parse `class = phrase` lines; `#` starts a comment; O defaults to "other"."""
    phrases: dict[str, str] = {}
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected `class = phrase`, got {line!r}")
        cls, phrase = (part.strip() for part in line.split("=", 1))
        if not cls or not phrase:
            raise DataError(f"{path}:{lineno}: empty class or phrase")
        phrases[cls] = phrase
    phrases.setdefault(O_TAG, DEFAULT_O_PHRASE)
    label_map = LabelMap(phrases)
    if label_set is not None:
        label_map.check_covers(label_set, f"label map {path}")
    return label_map


@dataclass
class SupportSample:
    sentences: list[Sentence]
    counts: dict[str, int]
    overshoot: dict[str, int]  # classes pushed past the bound, and by how much


def greedy_sample_support(sentences: list[Sentence], label_set: LabelSet,
                          n_way: int, k_shot: int, seed: int,
                          strict_k: bool = False) -> SupportSample:
    """Greedy N-way K-shot support sampling over a seed-shuffled corpus.

    Entity mentions (`extract_spans`) are counted per class against a bound
    of 2K (K with strict_k).  While a sampled class has fewer than K
    mentions, the sampler takes the untaken sentence that helps such a class
    with the smallest total overshoot past the bound (0 when it fits), the
    earliest in the shuffled order on ties.  Classes pushed past the bound
    are reported in `overshoot`; DataError when no sentence can help.
    """
    rng = make_rng(seed, "support_sampler")
    if len(label_set) < n_way:
        raise DataError(f"label set has {len(label_set)} classes, need n_way={n_way}")
    classes = (set(label_set.classes) if len(label_set) == n_way
               else set(rng.choice(list(label_set.classes), size=n_way, replace=False)))

    # only sentences whose entity classes fall inside the episode label set
    candidates = [s for s in sentences if s.entity_classes() and s.entity_classes() <= classes]
    order = [candidates[i] for i in rng.permutation(len(candidates))]

    bound = k_shot if strict_k else 2 * k_shot
    counts: Counter = Counter({c: 0 for c in classes})
    selected: list[Sentence] = []
    overshoot: dict[str, int] = {}
    untaken = list(range(len(order)))
    spans: dict[int, Counter] = {}  # filled on first look, most samples stop early

    while any(counts[c] < k_shot for c in classes):
        best = None  # (overshoot, position in untaken)
        for j, i in enumerate(untaken):
            if i not in spans:
                spans[i] = Counter(m.cls for m in extract_spans(order[i].tags))
            if not any(counts[c] < k_shot for c in spans[i]):
                continue
            over = sum(max(0, counts[c] + n - bound) for c, n in spans[i].items())
            if best is None or over < best[0]:
                best = (over, j)
                if over == 0:
                    break
        if best is None:
            missing = ", ".join(sorted(c for c in classes if counts[c] < k_shot))
            raise DataError(f"cannot reach k_shot={k_shot} shots for class(es): {missing}")
        i = untaken.pop(best[1])
        selected.append(order[i])
        counts.update(spans[i])
        for c in spans[i]:
            if counts[c] > bound:
                overshoot[c] = counts[c] - bound

    return SupportSample(sentences=selected, counts=dict(counts), overshoot=overshoot)


def build_vocab(sentences: Iterable[Sentence], label_map: Optional[LabelMap] = None,
                extra_words: Iterable[str] = ()) -> Vocabulary:
    """Reserved tokens, then label phrase words, then corpus tokens in sorted
    order, then `extra_words` in their order; a word repeated keeps its first id."""
    phrases = label_map.phrases.values() if label_map is not None else ()
    words = (*RESERVED, *(w for phrase in phrases for w in phrase.split()),
             *sorted({tok for sent in sentences for tok in sent.tokens}), *extra_words)
    return Vocabulary({tok: i for i, tok in enumerate(dict.fromkeys(words))})
