"""Token-level contrastive losses over a batch of encoded sentences.

Two objectives are combined:

  * context-context: pull same-tag tokens together across the whole batch,
    push different-tag tokens apart.  Two variants exist: the original form
    (OCL) takes the log of the averaged positive similarity; the improved
    form (ICL) averages the per-positive logs.
  * context-label: each token's single positive is its gold class's prompt
    representative from its own sentence; the softmax runs over all class
    representatives, O included.

The training metric is the symmetrized KL between Gaussian embeddings; the
squared Euclidean distance on the mu projections is used in 1-shot mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gaussian import (GaussianEmbedding, pairwise_sq_euclidean, pairwise_symkl,
                       project)
from .prompt import InputSequence

METRIC_SYMKL = "symkl"
METRIC_SQEUCLID = "sqeuclid"
VARIANT_OCL = "ocl"
VARIANT_ICL = "icl"

# instrumentation: how many times each loss body actually ran
call_counts: dict[str, int] = {"context_context": 0, "context_label": 0}


def reset_call_counts() -> None:
    for k in call_counts:
        call_counts[k] = 0


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.5
    tau: float = 1.0
    loss_variant: str = VARIANT_ICL
    metric: str = METRIC_SYMKL
    use_context_context: bool = True
    use_context_label: bool = True
    o_keep_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.loss_variant not in (VARIANT_OCL, VARIANT_ICL):
            raise ValueError(f"unknown loss variant {self.loss_variant!r}")
        if self.metric not in (METRIC_SYMKL, METRIC_SQEUCLID):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not (self.use_context_context or self.use_context_label):
            raise ValueError("at least one loss must be enabled")
        if not 0.0 < self.o_keep_fraction <= 1.0:
            raise ValueError("o_keep_fraction must be in (0, 1]")


@dataclass
class BatchView:
    """Projected embeddings of all valid context tokens across a batch."""

    embeddings: GaussianEmbedding          # (n, l)
    tags: tuple[str, ...]                  # per token, IO form
    sentence_index: np.ndarray             # (n,) which sentence each token came from
    # per sentence: (representatives as (k, l) embeddings, class order)
    label_reps: list[tuple[GaussianEmbedding, tuple[str, ...]]] = field(default_factory=list)

    @property
    def n_tokens(self) -> int:
        return len(self.tags)

    def positive_set(self, p: int) -> list[int]:
        return [q for q, t in enumerate(self.tags) if q != p and t == self.tags[p]]


def build_batch_view(hiddens: list[Tensor], seqs: list[InputSequence],
                     proj_params: dict[str, Tensor],
                     o_keep_fraction: float = 1.0,
                     rng: Optional[np.random.Generator] = None) -> BatchView:
    """Gather valid context tokens and label representatives, then project."""
    if len(hiddens) != len(seqs) or not hiddens:
        raise ValueError("need one hidden-state matrix per input sequence")
    if o_keep_fraction < 1.0 and rng is None:
        raise ValueError("O subsampling needs an rng")

    token_rows: list[Tensor] = []
    tags: list[str] = []
    sent_idx: list[int] = []
    label_reps = []
    for si, (h, seq) in enumerate(zip(hiddens, seqs)):
        positions = seq.context_positions()
        kept = []
        for j, pos in enumerate(positions):
            tag = seq.gold_tags[j]
            if tag == "O" and o_keep_fraction < 1.0 and rng.random() >= o_keep_fraction:
                continue
            kept.append(pos)
            tags.append(tag)
            sent_idx.append(si)
        if kept:
            token_rows.append(ad.row_gather(h, kept))
        rep_positions = [seq.label_rep_index[c] for c in seq.class_order]
        reps = project(proj_params, ad.row_gather(h, rep_positions))
        label_reps.append((reps, seq.class_order))
    if not token_rows:
        raise ValueError("batch has no valid context tokens")
    embeddings = project(proj_params, ad.concat(token_rows, axis=0))
    return BatchView(embeddings=embeddings, tags=tuple(tags),
                     sentence_index=np.asarray(sent_idx), label_reps=label_reps)


def _pairwise(a: GaussianEmbedding, b: GaussianEmbedding, metric: str) -> Tensor:
    if metric == METRIC_SYMKL:
        return pairwise_symkl(a, b)
    return pairwise_sq_euclidean(a.mu, b.mu)


def _masks(tags: tuple[str, ...]):
    t = np.asarray(tags, dtype=object)
    same = t[:, None] == t[None, :]
    offdiag = ~np.eye(len(tags), dtype=bool)
    return same & offdiag, offdiag


def _anchor_terms(batch: BatchView, anchors, pos: np.ndarray, offdiag: np.ndarray,
                  variant: str, metric: str) -> Tensor:
    """Context-context term of each anchor row; every anchor needs a positive.

    OCL: -log(mean positive weight / all weights).  ICL: the mean over the
    positives of -log(positive weight / all weights).
    """
    d_rows = ad.row_gather(_pairwise(batch.embeddings, batch.embeddings, metric), anchors)
    neg_rows = ad.scale(d_rows, -1.0)
    lse_all = ad.masked_row_logsumexp(neg_rows, offdiag[anchors])
    n_pos = pos[anchors].sum(axis=1).astype(float)
    if variant == VARIANT_ICL:
        mean_pos_d = ad.mul(ad.tsum(ad.mul(d_rows, Tensor(pos[anchors].astype(float))), axis=1),
                            Tensor(1.0 / n_pos))
        return mean_pos_d + lse_all
    lse_pos = ad.masked_row_logsumexp(neg_rows, pos[anchors])
    return lse_all - lse_pos + Tensor(np.log(n_pos))


def anchor_loss_in(p: int, batch: BatchView, config: LossConfig) -> Optional[Tensor]:
    """Original contrastive form (OCL) for anchor p, whatever config's variant.

    Returns None when the anchor has no positives (skipped, not an error).
    """
    pos, offdiag = _masks(batch.tags)
    if not pos[p].any():
        return None
    return ad.reshape(_anchor_terms(batch, [p], pos, offdiag, VARIANT_OCL, config.metric), ())


def anchor_loss_out(p: int, batch: BatchView, config: LossConfig) -> Optional[Tensor]:
    """Improved form (ICL) for anchor p: average the per-positive log-softmax terms."""
    pos, offdiag = _masks(batch.tags)
    if not pos[p].any():
        return None
    return ad.reshape(_anchor_terms(batch, [p], pos, offdiag, VARIANT_ICL, config.metric), ())


@dataclass
class LossValue:
    value: Tensor
    n_anchors: int = 0
    warned: bool = False  # true when no anchor had a positive set


def context_context_loss(batch: BatchView, config: LossConfig) -> LossValue:
    """Mean anchor loss over batch tokens; anchors without positives are skipped."""
    call_counts["context_context"] += 1
    n = batch.n_tokens
    if n < 2:
        return LossValue(Tensor(0.0), warned=True)
    pos, offdiag = _masks(batch.tags)
    usable = np.nonzero(pos.any(axis=1))[0]
    if usable.size == 0:
        return LossValue(Tensor(0.0), warned=True)

    per_anchor = _anchor_terms(batch, usable, pos, offdiag, config.loss_variant, config.metric)
    return LossValue(ad.tmean(per_anchor), n_anchors=usable.size)


def context_label_loss(batch: BatchView, config: LossConfig) -> LossValue:
    """Softmax-contrastive pull toward each token's gold class representative.

    The denominator ranges over all classes (O included) of the token's own
    sentence's prompt.
    """
    call_counts["context_label"] += 1
    if batch.n_tokens == 0:
        return LossValue(Tensor(0.0), warned=True)
    inv_tau = 1.0 / config.tau
    total = None
    for si, (reps, class_order) in enumerate(batch.label_reps):
        token_idx = np.nonzero(batch.sentence_index == si)[0]
        if token_idx.size == 0:
            continue
        tokens = GaussianEmbedding(ad.row_gather(batch.embeddings.mu, token_idx),
                                   ad.row_gather(batch.embeddings.sigma2, token_idx))
        d = _pairwise(tokens, reps, config.metric)  # (n_s, k)
        col = {c: j for j, c in enumerate(class_order)}
        gold = np.zeros((token_idx.size, len(class_order)))
        for row, ti in enumerate(token_idx):
            tag = batch.tags[ti]
            cls = tag if tag == "O" else tag[2:]
            if cls not in col:
                raise ValueError(f"gold class {cls!r} has no label representative")
            gold[row, col[cls]] = 1.0
        gold_d = ad.scale(ad.tsum(ad.mul(d, Tensor(gold)), axis=1), inv_tau)
        lse = ad.masked_row_logsumexp(ad.scale(d, -inv_tau),
                                      np.ones(d.shape, dtype=bool))
        contrib = ad.tsum(gold_d + lse)
        total = contrib if total is None else total + contrib
    return LossValue(ad.scale(total, 1.0 / batch.n_tokens), n_anchors=batch.n_tokens)


@dataclass
class MixedLoss:
    total: Tensor
    context_context: Optional[LossValue]
    context_label: Optional[LossValue]

    def item(self) -> float:
        return self.total.item()


def mixed_loss(batch: BatchView, config: LossConfig) -> MixedLoss:
    """alpha * context-context + (1 - alpha) * context-label.

    Disabled components contribute exactly zero; the weights are not
    renormalized.
    """
    cc = context_context_loss(batch, config) if config.use_context_context else None
    cl = context_label_loss(batch, config) if config.use_context_label else None
    total = Tensor(0.0)
    if cc is not None:
        total = total + ad.scale(cc.value, config.alpha)
    if cl is not None:
        total = total + ad.scale(cl.value, 1.0 - config.alpha)
    return MixedLoss(total=total, context_context=cc, context_label=cl)
