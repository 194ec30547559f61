"""Nearest-neighbor decoding, span extraction, micro-F1, and the two
evaluation protocols (episode evaluation and low-resource evaluation).

Decoding runs on raw encoder hidden states; the projection heads are not
used at inference time.  Each query token takes the tag of its nearest
support token under squared Euclidean distance, ties broken by the lowest
bank row index.

Support banks, query decoding and embedding dumps all encode through
`_context_hiddens`: consecutive sentences share one eval-mode encoder pass
of up to PACK_ROWS rows, over the parameters wrapped as constants, so a
pass builds no autodiff graph.  `decode_sentences` decodes the queries of
each pass sentence by sentence, through `decode_sentence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .autodiff import Tensor
from .data import (DataError, Episode, LabelSet, Sentence, greedy_sample_support,
                   tag_class)
from .encoder import encode
from .prompt import assemble_input, build_label_prompt, pack
from .training import Checkpoint, TrainConfig, finetune


# Upper bound on the (queries, bank rows, d) difference block nn_decode
# builds at once: 2 MB of float64, which stays in cache.
NN_CHUNK_ELEMENTS = 1 << 18

# Upper bound on the rows one eval-mode encoder pass packs.  A pass builds no
# graph, so it holds only the arrays of the op it is in, which grow with the
# pack.  Encoding 120 `bench/gen.py` test sentences (2 shared vCPUs, one BLAS
# thread) took 50-75 ms in 256-row packs, 60-107 ms in 512-row packs and
# 109-135 ms one sentence per pass, at traced peaks of 3.2, 5.1 and 1.6 MB.
PACK_ROWS = 256


@dataclass
class SupportBank:
    vectors: np.ndarray                       # (n, d) support token representations
    tags: tuple[str, ...]                     # parallel IO tags
    provenance: tuple[tuple[int, int], ...]   # (sentence index, token position)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.tags):
            raise DataError("support bank rows and tags must align")
        if len(self.tags) == 0:
            raise DataError("support bank is empty")


@dataclass(frozen=True)
class Span:
    start: int
    end: int  # inclusive
    cls: str

    def __post_init__(self):
        if not (0 <= self.start <= self.end) or self.cls == "O":
            raise DataError(f"invalid span ({self.start}, {self.end}, {self.cls})")


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    per_run: list[float] = field(default_factory=list)
    skipped_seeds: list[int] = field(default_factory=list)  # runs whose sampling failed

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_run)) if self.per_run else self.f1

    @property
    def std(self) -> float:
        # sample standard deviation over runs
        return float(np.std(self.per_run, ddof=1)) if len(self.per_run) > 1 else 0.0

    def summary(self) -> dict:
        out = {"tp": self.tp, "fp": self.fp, "fn": self.fn,
               "precision": self.precision, "recall": self.recall, "f1": self.f1}
        if self.per_run:
            out.update({"per_run": self.per_run, "mean": self.mean, "std": self.std})
        if self.skipped_seeds:
            out["skipped_seeds"] = self.skipped_seeds
        return out


def _context_hiddens(ckpt: Checkpoint, sentences: list[Sentence],
                     max_len: int) -> Iterator[tuple[np.ndarray, tuple[str, ...]]]:
    """Per sentence, in order: eval-mode hidden states of its context tokens
    and their gold tags.

    Consecutive sentences share one encoder pass of at most PACK_ROWS rows;
    a sentence longer than that has a pass of its own.  The parameters are
    wrapped as constants (no copy), so a pass builds no graph.
    """
    params = {k: Tensor(p.data) for k, p in ckpt.params.items()}
    prompt = build_label_prompt(ckpt.label_set, ckpt.label_map)
    # positions past the checkpoint's positional table are truncated away
    max_len = min(max_len, ckpt.encoder_config.max_len)
    seqs = [assemble_input(s, prompt, ckpt.vocab, max_len=max_len) for s in sentences]
    lo = 0
    while lo < len(seqs):
        hi, rows = lo + 1, seqs[lo].n_occupied
        while hi < len(seqs) and rows + seqs[hi].n_occupied <= PACK_ROWS:
            rows += seqs[hi].n_occupied
            hi += 1
        packed = pack(seqs[lo:hi])
        h = encode(params, ckpt.encoder_config, packed, train_mode=False).data
        h, ends = h[packed.context_rows], np.cumsum([seq.n_context for seq in packed.seqs])
        for seq, end in zip(packed.seqs, ends.tolist()):
            yield h[end - seq.n_context:end], seq.gold_tags
        lo = hi


def build_support_bank(ckpt: Checkpoint, support: list[Sentence],
                       max_len: int = 128) -> SupportBank:
    """Eval-mode hidden states of every valid support context token."""
    vectors: list[np.ndarray] = []
    tags: list[str] = []
    provenance: list[tuple[int, int]] = []
    for si, (rows, gold) in enumerate(_context_hiddens(ckpt, support, max_len)):
        vectors.append(rows)
        tags += gold
        provenance += ((si, pos) for pos in range(len(gold)))
    if not tags:
        raise DataError("support set produced no context tokens")
    return SupportBank(vectors=np.concatenate(vectors), tags=tuple(tags),
                       provenance=tuple(provenance))


def nn_decode(query_hidden: np.ndarray, bank: SupportBank) -> list[str]:
    """Tag of the globally nearest support token, per query row."""
    query_hidden = np.atleast_2d(np.asarray(query_hidden, dtype=np.float64))
    if query_hidden.shape[1] != bank.vectors.shape[1]:
        raise DataError(
            f"query dim {query_hidden.shape[1]} != bank dim {bank.vectors.shape[1]}")
    n, d = bank.vectors.shape
    rows = max(1, NN_CHUNK_ELEMENTS // (n * d))
    out = []
    for lo in range(0, len(query_hidden), rows):
        diff = query_hidden[lo:lo + rows, None, :] - bank.vectors  # (rows, n, d)
        np.square(diff, out=diff)
        # argmin takes the first minimum, so the lowest bank row wins ties
        out.extend(bank.tags[j] for j in diff.sum(axis=-1).argmin(axis=1))
    return out


def decode_sentence(ckpt: Checkpoint, sentence: Sentence, bank: SupportBank,
                    max_len: int = 128, rows: Optional[np.ndarray] = None) -> list[str]:
    """Predicted IO tags for a sentence; truncated positions default to O.

    `rows` are the sentence's context hidden states, as `_context_hiddens`
    yields them; without them the sentence is encoded alone.
    """
    if rows is None:
        [(rows, _)] = _context_hiddens(ckpt, [sentence], max_len)
    tags = nn_decode(rows, bank)
    return tags + ["O"] * (len(sentence.tokens) - len(tags))


def decode_sentences(ckpt: Checkpoint, sentences: list[Sentence], bank: SupportBank,
                     max_len: int = 128) -> list[list[str]]:
    """`decode_sentence` of each sentence, from packed encoder passes."""
    return [decode_sentence(ckpt, sentence, bank, max_len, rows=rows)
            for sentence, (rows, _) in zip(sentences,
                                           _context_hiddens(ckpt, sentences, max_len))]


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


def span_counts(gold: list[list[Span]], pred: list[list[Span]]) -> tuple[int, int, int]:
    if len(gold) != len(pred):
        raise DataError("gold and predicted sentence lists must align")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gs, ps = set(g), set(p)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    return tp, fp, fn


def micro_f1(gold: list[list[Span]], pred: list[list[Span]]) -> EvalReport:
    """Exact-match (start, end, class) span scoring, pooled over sentences."""
    tp, fp, fn = span_counts(gold, pred)
    return EvalReport(tp=tp, fp=fp, fn=fn)


def _fit_and_score(checkpoint: Checkpoint, support: list[Sentence], label_set: LabelSet,
                   config: TrainConfig, queries: list[Sentence]) -> tuple[int, int, int]:
    """Fine-tune on the support, decode the queries against it; span tp, fp, fn."""
    tuned, _ = finetune(checkpoint, support, label_set, checkpoint.label_map, config)
    bank = build_support_bank(tuned, support, max_len=config.max_len)
    gold = [extract_spans(s.tags) for s in queries]
    pred = [extract_spans(tags)
            for tags in decode_sentences(tuned, queries, bank, max_len=config.max_len)]
    return span_counts(gold, pred)


def _prefixed(e: Exception, prefix: str) -> Exception:
    """A copy of `e` whose message is `prefix` + str(e).

    The copy is an instance of a subclass of type(e) that only overrides
    __str__, so every handler of e's class (and the CLI's exit code for it)
    still applies, and it keeps e's args and attributes.  Calling type(e)
    with the new message would not do: constructors differ (UnicodeDecodeError
    takes five arguments) and some classes format their message themselves
    (KeyError quotes it).
    """
    message = prefix + str(e)
    cls = type(type(e).__name__, (type(e),),
               {"__str__": lambda self: message, "__module__": type(e).__module__})
    copy = cls.__new__(cls, *e.args)
    try:
        copy.__init__(*e.args)  # fills fields such as UnicodeDecodeError.reason
    except TypeError:
        pass  # a constructor that takes other arguments than its args; args still kept
    copy.__dict__.update(vars(e))
    return copy


def evaluate_episodes(checkpoint: Checkpoint, episodes: list[Episode],
                      config: TrainConfig) -> EvalReport:
    """Per episode: re-start from the source checkpoint, fine-tune on the
    support, decode the queries; counts are pooled over all episodes before
    F1 is computed."""
    if not episodes:
        raise DataError("no episodes to evaluate")
    tp = fp = fn = 0
    for idx, ep in enumerate(episodes):
        try:
            a, b, c = _fit_and_score(checkpoint, ep.support,
                                     LabelSet(tuple(ep.classes), role="target"),
                                     config, ep.query)
        except Exception as e:
            raise _prefixed(e, f"episode {idx}: ") from e
        tp, fp, fn = tp + a, fp + b, fn + c
    return EvalReport(tp=tp, fp=fp, fn=fn)


def low_resource_eval(checkpoint: Checkpoint, target_label_set: LabelSet,
                      support_corpus: list[Sentence], test_corpus: list[Sentence],
                      n_way: int, k_shot: int, seeds: list[int],
                      config: TrainConfig, strict_k: bool = False,
                      skip_failed_runs: bool = False) -> EvalReport:
    """T sampled supports; fine-tune on each and score the full test corpus.

    Reports per-run F1 plus mean and sample standard deviation.  A sampling
    failure aborts unless skip_failed_runs is set, in which case the run's
    seed is recorded in `skipped_seeds`; DataError when no run remains.
    """
    if not seeds:
        raise DataError("low-resource evaluation needs at least one seed")
    per_run: list[float] = []
    skipped: list[int] = []
    pooled = (0, 0, 0)
    for seed in seeds:
        try:
            sample = greedy_sample_support(support_corpus, target_label_set,
                                           n_way, k_shot, seed=seed, strict_k=strict_k)
        except DataError:
            if not skip_failed_runs:
                raise
            skipped.append(seed)
            continue
        counts = _fit_and_score(checkpoint, sample.sentences, target_label_set,
                                replace(config, seed=seed), test_corpus)
        per_run.append(EvalReport(*counts).f1)
        pooled = tuple(a + b for a, b in zip(pooled, counts))
    if not per_run:
        raise DataError(f"every low-resource run failed to sample a support "
                        f"(seeds {skipped})")
    return EvalReport(*pooled, per_run=per_run, skipped_seeds=skipped)


def dump_embeddings(checkpoint: Checkpoint, sentences: list[Sentence], path: str,
                    max_len: int = 128) -> int:
    """Tab-separated dump: token, gold tag, hidden-state components.

    Returns the number of data rows written.
    """
    d = checkpoint.encoder_config.d
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write("token\ttag\t" + "\t".join(f"h{i}" for i in range(d)) + "\n")
        for sent, (rows, gold) in zip(sentences,
                                      _context_hiddens(checkpoint, sentences, max_len)):
            for tok, tag, row in zip(sent.tokens, gold, rows):
                comps = "\t".join(f"{v:.10g}" for v in row)
                f.write(f"{tok}\t{tag}\t{comps}\n")
                n += 1
    return n
