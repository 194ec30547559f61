"""Nearest-neighbor decoding, span counts, and the two evaluation protocols
(episode evaluation and low-resource evaluation).

Decoding runs on raw encoder hidden states; the projection heads are not
used at inference time.  Each query token takes the tag of its nearest
support token under squared Euclidean distance, ties broken by the lowest
bank row index.  `nn_decode` searches in two stages: one BLAS product per
block of query rows gives |b|^2 - 2 q.b for every bank row, and a query with
a second row within a proven rounding bound of its best one is recomputed
from the exact-difference sums sum((q - b)**2), so every tag is the one those
sums give.  Hidden states that are not finite, in the bank or in a query,
raise NumericError.

Support banks, query decoding and embedding dumps all encode through
`_context_hiddens`: consecutive sentences share one eval-mode encoder pass
of up to PACK_ROWS rows, over the parameters wrapped as constants, so a
pass builds no autodiff graph.  `decode_sentences` is the one encoder of
queries; it decodes each pass's sentences one by one from their rows, through
`decode_sentence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .autodiff import NumericError, Tensor
from .data import (DataError, Episode, LabelSet, Sentence, Span, extract_spans,
                   greedy_sample_support)
from .encoder import encode
from .prompt import assemble_input, build_label_prompt, pack
from .training import Checkpoint, TrainConfig, finetune, replacing


_F64 = np.finfo(np.float64)

# Upper bound on the elements of the blocks nn_decode builds at once (each
# holds at least one query row): its (query rows, bank rows) first-stage
# distances and the (query rows, bank rows, d) differences of its exact
# re-check.  Either is at most 2 MB of float64, which stays in cache.
NN_CHUNK_ELEMENTS = 1 << 18

# Near-tie gap of nn_decode's first stage, per unit of (d + 3) (|q| + max |b|)^2:
# 8 u (u = eps / 2, the unit roundoff), twice the rounding bound derived there.
NN_TIE_SLACK = 4 * _F64.eps

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
        _require_finite(self.vectors, "support bank rows",
                        lambda i: "sentence {} token {}".format(*self.provenance[i]))


def _require_finite(vectors: np.ndarray, what: str, name=lambda i: f"row {i}") -> None:
    """NumericError naming the first few rows of `vectors` that hold a NaN
    or an infinity; `name` maps a row index to its name."""
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        shown = ", ".join(name(i) for i in bad[:5]) + (", ..." if len(bad) > 5 else "")
        raise NumericError(f"{len(bad)} of {len(vectors)} {what} hold non-finite "
                           f"hidden states: {shown}")


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


def _context_hiddens(ckpt: Checkpoint, sentences: list[Sentence]
                     ) -> Iterator[tuple[np.ndarray, tuple[str, ...]]]:
    """Per sentence, in order: eval-mode hidden states of its context tokens
    within the checkpoint's length budget, and their gold tags.

    Consecutive sentences share one encoder pass of at most PACK_ROWS rows;
    a sentence longer than that has a pass of its own.  The parameters are
    wrapped as constants (no copy), so a pass builds no graph.
    """
    params = {k: Tensor(p.data) for k, p in ckpt.params.items()}
    prompt = build_label_prompt(ckpt.label_set, ckpt.label_map)
    seqs = [assemble_input(s, prompt, ckpt.vocab, max_len=ckpt.encoder_config.max_len)
            for s in sentences]
    lo = 0
    while lo < len(seqs):
        hi, rows = lo + 1, seqs[lo].n_occupied
        while hi < len(seqs) and rows + seqs[hi].n_occupied <= PACK_ROWS:
            rows += seqs[hi].n_occupied
            hi += 1
        packed = pack(seqs[lo:hi])
        h = encode(params, ckpt.encoder_config, packed).data
        h, c = h[packed.context_rows], packed.context_bounds.tolist()
        for i, seq in enumerate(packed.seqs):
            yield h[c[i]:c[i + 1]], seq.gold_tags
        lo = hi


def build_support_bank(ckpt: Checkpoint, support: list[Sentence]) -> SupportBank:
    """Eval-mode hidden states of every support context token in the length budget."""
    vectors: list[np.ndarray] = []
    tags: list[str] = []
    provenance: list[tuple[int, int]] = []
    for si, (rows, gold) in enumerate(_context_hiddens(ckpt, support)):
        vectors.append(rows)
        tags += gold
        provenance += ((si, pos) for pos in range(len(gold)))
    if not tags:
        raise DataError("support set produced no context tokens")
    return SupportBank(vectors=np.concatenate(vectors), tags=tuple(tags),
                       provenance=tuple(provenance))


def nn_decode(query_hidden: np.ndarray, bank: SupportBank) -> list[str]:
    """Tag of the globally nearest support token, per query row.

    Nearest is under the exact-difference distance sum((q - b)**2), the
    lowest bank row winning ties, bit for bit: a first stage finds each
    query's nearest row from one BLAS product, and a query for which it
    cannot rule out a tie is recomputed exactly.  NumericError names the
    query rows that are not finite.
    """
    q = np.atleast_2d(np.asarray(query_hidden, dtype=np.float64))
    b = bank.vectors
    if q.shape[1] != b.shape[1]:
        raise DataError(f"query dim {q.shape[1]} != bank dim {b.shape[1]}")
    n, d = b.shape
    qq, bb = np.einsum("ij,ij->i", q, q), np.einsum("ij,ij->i", b, b)
    if not np.isfinite(qq).all():
        _require_finite(q, "query rows")
    # Stage 1 compares E = |b|^2 - 2 q.b, the distance less |q|^2, which is
    # the same for every bank row of a query.  Let S = |q - b|^2 in exact
    # arithmetic, D = fl(sum((q - b)**2)) the distance stage 2 computes,
    # u the unit roundoff, g_k = k u / (1 - k u) and M = (|q| + |b|)^2 >= S.
    # For any summation order, with or without FMA (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., sec. 3.1):
    #   - D adds d terms fl(fl(q_k - b_k)^2) >= 0, each within a relative g_3
    #     of (q_k - b_k)^2, so |D - S| <= g_(d+2) S <= g_(d+2) M;
    #   - fl(|b|^2) is within g_d |b|^2 and fl(q.b) within g_d |q| |b|
    #     (Cauchy-Schwarz), and the subtraction rounds once, on a value of
    #     at most M (1 + g_d), so |E - (S - |q|^2)| <= g_(d+1) M.
    # Hence |(D - |q|^2) - E| <= 2 g_(d+2) M <= 2 (d + 3) u M for d < 10^7,
    # and a row j can be nearest only if E_j <= min E + 4 (d + 3) u M.  The
    # gap below is twice that, over M's upper bound (|q| + max |b|)^2, so the
    # roundings of the gap itself and of min E + gap (a few u M in all) stay
    # inside it; `tiny` covers underflow, where each of the fewer than 2^50
    # operations is off by less than 2^-1075.  A query takes its best row
    # when every other row lies past min E + gap.  The other queries (a NaN
    # from an overflow fails that test) and every query whose 4 M could
    # overflow take stage 2: the exact-difference sums over the whole bank,
    # lowest row on ties.
    reach = (np.sqrt(qq) + np.sqrt(bb.max())) ** 2
    gap = reach * (NN_TIE_SLACK * (d + 3)) + _F64.tiny
    nearest = np.empty(len(q), dtype=np.intp)
    rows = max(1, NN_CHUNK_ELEMENTS // n)
    for lo in range(0, len(q), rows):
        e = q[lo:lo + rows] @ b.T
        e *= -2.0
        e += bb
        best = e.argmin(axis=1)
        i = np.arange(len(best))
        cut = e[i, best] + gap[lo:lo + rows]
        e[i, best] = np.inf
        nearest[lo:lo + rows] = np.where(e.min(axis=1) > cut, best, -1)
    nearest[reach >= _F64.max / 4] = -1
    redo = np.flatnonzero(nearest < 0)
    rows = max(1, NN_CHUNK_ELEMENTS // (n * d))
    for lo in range(0, len(redo), rows):
        at = redo[lo:lo + rows]
        diff = q[at, None, :] - b  # (rows, n, d)
        np.square(diff, out=diff)
        # argmin takes the first minimum, so the lowest bank row wins ties
        nearest[at] = diff.sum(axis=-1).argmin(axis=1)
    return [bank.tags[j] for j in nearest.tolist()]


def decode_sentence(ckpt: Checkpoint, sentence: Sentence, bank: SupportBank,
                    rows: np.ndarray) -> list[str]:
    """Predicted IO tags for a sentence from its rows, the context hidden
    states `_context_hiddens` yields for it; tokens past the length budget
    default to O."""
    tags = nn_decode(rows, bank)
    return tags + ["O"] * (len(sentence.tokens) - len(tags))


def decode_sentences(ckpt: Checkpoint, sentences: list[Sentence],
                     bank: SupportBank) -> list[list[str]]:
    """`decode_sentence` of each sentence, from packed encoder passes; a
    NumericError is re-raised with the note `query sentence i`."""
    out = []
    for i, (sentence, (rows, _)) in enumerate(zip(sentences, _context_hiddens(ckpt, sentences))):
        try:
            out.append(decode_sentence(ckpt, sentence, bank, rows=rows))
        except NumericError as e:
            _noted(e, f"query sentence {i}")
            raise
    return out


def span_counts(gold: list[list[Span]], pred: list[list[Span]]) -> tuple[int, int, int]:
    """Exact-match (start, end, class) span tp, fp, fn, pooled over sentences."""
    if len(gold) != len(pred):
        raise DataError("gold and predicted sentence lists must align")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gs, ps = set(g), set(p)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    return tp, fp, fn


def _fit_and_score(checkpoint: Checkpoint, support: list[Sentence], label_set: LabelSet,
                   config: TrainConfig, queries: list[Sentence]) -> tuple[int, int, int]:
    """Fine-tune on the support, decode the queries against it; span tp, fp, fn."""
    tuned, _ = finetune(checkpoint, support, label_set, checkpoint.label_map, config)
    bank = build_support_bank(tuned, support)
    gold = [extract_spans(s.tags) for s in queries]
    pred = [extract_spans(tags) for tags in decode_sentences(tuned, queries, bank)]
    return span_counts(gold, pred)


def _noted(e: BaseException, note: str) -> None:
    """Add `note` to e's notes, as BaseException.add_note does on Python 3.11+."""
    e.__notes__ = [*getattr(e, "__notes__", ()), note]


def evaluate_episodes(checkpoint: Checkpoint, episodes: list[Episode],
                      config: TrainConfig) -> EvalReport:
    """Per episode: re-start from the source checkpoint, fine-tune on the
    support, decode the queries; counts are pooled over all episodes before
    F1 is computed.  An error is re-raised with the note `episode i`."""
    if not episodes:
        raise DataError("no episodes to evaluate")
    tp = fp = fn = 0
    for idx, ep in enumerate(episodes):
        try:
            a, b, c = _fit_and_score(checkpoint, ep.support,
                                     LabelSet(tuple(ep.classes), role="target"),
                                     config, ep.query)
        except Exception as e:
            _noted(e, f"episode {idx}")
            raise
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
    seed is recorded in `skipped_seeds`; DataError when no run remains.  An
    error that ends a run, an unskipped sampling failure included, is
    re-raised with the note `low-resource run seed s`.
    """
    if not seeds:
        raise DataError("low-resource evaluation needs at least one seed")
    per_run: list[float] = []
    skipped: list[int] = []
    pooled = (0, 0, 0)
    for seed in seeds:
        try:
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
        except Exception as e:
            _noted(e, f"low-resource run seed {seed}")
            raise
        per_run.append(EvalReport(*counts).f1)
        pooled = tuple(a + b for a, b in zip(pooled, counts))
    if not per_run:
        raise DataError(f"every low-resource run failed to sample a support "
                        f"(seeds {skipped})")
    return EvalReport(*pooled, per_run=per_run, skipped_seeds=skipped)


def dump_embeddings(checkpoint: Checkpoint, sentences: list[Sentence], path: str) -> int:
    """Tab-separated dump: token, gold tag, hidden-state components.

    Returns the number of data rows written: a sentence's tokens within the
    checkpoint's length budget.  A sentence with a non-finite
    hidden state is a NumericError naming it and its tokens.  The file is
    written through `training.replacing`, so `path` never holds a partly
    written dump.
    """
    d = checkpoint.encoder_config.d
    n = 0
    with replacing(path, "w", encoding="utf-8") as f:
        f.write("token\ttag\t" + "\t".join(f"h{i}" for i in range(d)) + "\n")
        for i, (sent, (rows, gold)) in enumerate(
                zip(sentences, _context_hiddens(checkpoint, sentences))):
            _require_finite(rows, f"rows of sentence {i}", lambda j: f"token {j}")
            for tok, tag, row in zip(sent.tokens, gold, rows):
                comps = "\t".join(f"{v:.10g}" for v in row)
                f.write(f"{tok}\t{tag}\t{comps}\n")
                n += 1
    return n
