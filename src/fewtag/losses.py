"""Token-level contrastive losses over a batch of encoded sentences.

Two objectives are combined:

  * context-context: pull same-tag tokens together across the whole batch,
    push different-tag tokens apart.  Two variants exist: the original form
    (OCL) takes the log of the averaged positive similarity; the improved
    form (ICL) averages the per-positive logs.
  * context-label: each token's single positive is its gold class's prompt
    representative from its own sentence; the softmax runs over all class
    representatives of that sentence, O included.  Its distances are
    per-sentence blocks: each token is compared only with its own
    sentence's representatives, never with the whole batch's.

The training metric is the symmetrized KL between Gaussian embeddings; the
squared Euclidean distance on the mu projections is used in 1-shot mode.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DataError
from .gaussian import (GaussianEmbedding, pairwise_sq_euclidean, pairwise_symkl,
                       project)
from .prompt import PackedBatch

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

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.loss_variant not in (VARIANT_OCL, VARIANT_ICL):
            raise ValueError(f"loss_variant must be {VARIANT_OCL!r} or {VARIANT_ICL!r}, "
                             f"got {self.loss_variant!r}")
        if self.metric not in (METRIC_SYMKL, METRIC_SQEUCLID):
            raise ValueError(f"metric must be {METRIC_SYMKL!r} or {METRIC_SQEUCLID!r}, "
                             f"got {self.metric!r}")


@dataclass
class BatchView:
    """Projected embeddings of all valid context tokens across a batch.

    The label representatives of every sentence's prompt are stacked into
    one (m, l) embedding, with each row's sentence and class alongside.
    `sentence_index` and `rep_sentence` number the sentences from 0 and
    never decrease, so each sentence's tokens and representatives are
    contiguous rows (`segments`); the context-label loss rejects a batch
    that breaks this with a ValueError naming the field.  The tag masks,
    the label masks and, per metric, the tokens' distances to each other
    are computed once per batch and shared by every loss that reads them.
    """

    embeddings: GaussianEmbedding          # (n, l)
    tags: tuple[str, ...]                  # per token, IO form
    sentence_index: np.ndarray             # (n,) which sentence each token came from
    label_reps: Optional[GaussianEmbedding] = None  # (m, l)
    # (m,) which sentence's prompt each representative came from, and its class
    rep_sentence: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    rep_class: tuple[str, ...] = ()
    _self_distances: dict[str, Tensor] = field(default_factory=dict, init=False, repr=False)

    @property
    def n_tokens(self) -> int:
        return len(self.tags)

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """`_masks` of the batch's tags."""
        return _masks(self.tags)

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Row bounds (t, r) of each sentence: sentence s holds tokens
        t[s]:t[s + 1] and representatives r[s]:r[s + 1]."""
        n = 1 + max(self.sentence_index.max(initial=-1), self.rep_sentence.max(initial=-1))
        return (_bounds(self.sentence_index, n, "sentence_index"),
                _bounds(self.rep_sentence, n, "rep_sentence"))

    @cached_property
    def label_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(gold, own) masks over the context-label distances' (n, w) blocks
        (see `context_label_loss`): column j of token i is representative
        r[s] + j of its sentence s, which is its own while j < r[s + 1] - r[s].
        A token whose own representatives lack its gold class is a ValueError."""
        _, r = self.segments
        first = r[self.sentence_index]
        cols = np.arange(np.diff(r).max())
        own = cols < (r[self.sentence_index + 1] - first)[:, None]
        codes: dict[str, int] = {}
        rep_code = np.append(_codes(self.rep_class, codes), -1)  # -1 past a sentence's own
        token_class = [t if t == "O" else t[2:] for t in self.tags]
        token_code = _codes(token_class, codes)
        gold = rep_code[np.where(own, first[:, None] + cols, -1)] == token_code[:, None]
        missing = np.nonzero(~gold.any(axis=1))[0]
        if missing.size:
            raise ValueError(f"gold class {token_class[missing[0]]!r} has no label "
                             f"representative")
        return gold, own

    def with_embeddings(self, embeddings: GaussianEmbedding) -> BatchView:
        """This batch with other token embeddings of the same shape: the masks
        and segments computed so far carry over, the distances do not."""
        view = copy.copy(self)
        view.embeddings = embeddings
        view._self_distances = {}
        return view

    def self_distance(self, metric: str) -> Tensor:
        """(n, n) distances between the batch's tokens under `metric`."""
        if metric not in self._self_distances:
            self._self_distances[metric] = _pairwise(self.embeddings, self.embeddings, metric)
        return self._self_distances[metric]

    def positive_set(self, p: int) -> list[int]:
        return [q for q, t in enumerate(self.tags) if q != p and t == self.tags[p]]


def build_batch_view(hidden: Tensor, batch: PackedBatch, proj_params: dict[str, Tensor],
                     o_keep_fraction: float = 1.0,
                     rng: Optional[np.random.Generator] = None) -> BatchView:
    """Gather the packed batch's context tokens and label representatives from
    its hidden states, then project each set.  A gold class the prompt lacks is
    a DataError.  Below an o_keep_fraction of 1, O tokens draw from `rng` in
    batch order, and each is kept when its draw is below the fraction."""
    if hidden.data.ndim != 2 or hidden.shape[0] != batch.n_occupied:
        raise ValueError(f"hidden states of shape {hidden.shape} do not match a packed "
                         f"batch of {batch.n_occupied} rows")
    if o_keep_fraction < 1.0 and rng is None:
        raise ValueError("O subsampling needs an rng")

    gold = [tag for seq in batch.seqs for tag in seq.gold_tags]
    prompt = batch.seqs[0].prompt
    for cls in dict.fromkeys(tag if tag == "O" else tag[2:] for tag in gold):
        if cls not in prompt.rep_offsets:
            raise DataError(f"gold tag class {cls!r} has no label representative")
    is_o = np.array(gold) == "O"
    keep = ~is_o
    keep[is_o] = rng.random(int(is_o.sum())) < o_keep_fraction if o_keep_fraction < 1.0 else True
    if not keep.any():  # every sentence has a context token, so O subsampling took them all
        raise DataError(f"o_keep_fraction={o_keep_fraction} dropped every context token "
                        f"of a batch of {len(batch.seqs)} sentence(s)")
    n_seqs, n_classes = batch.rep_rows.shape
    sentence_index = np.repeat(np.arange(n_seqs), [seq.n_context for seq in batch.seqs])
    embeddings = project(proj_params, ad.row_gather(hidden, batch.context_rows[keep]))
    label_reps = project(proj_params, ad.row_gather(hidden, batch.rep_rows.ravel()))
    return BatchView(embeddings=embeddings, tags=tuple(compress(gold, keep)),
                     sentence_index=sentence_index[keep], label_reps=label_reps,
                     rep_sentence=np.repeat(np.arange(n_seqs), n_classes),
                     rep_class=prompt.class_order * n_seqs)


def _bounds(index: np.ndarray, n_sentences: int, name: str) -> np.ndarray:
    """Row bounds of sentences 0..n_sentences-1 in a per-row sentence index."""
    if index.size and (index[0] < 0 or (index[1:] < index[:-1]).any()):
        raise ValueError(f"{name} must number sentences from 0 in non-decreasing order")
    return np.searchsorted(index, np.arange(n_sentences + 1))


def _pairwise(a: GaussianEmbedding, b: GaussianEmbedding, metric: str,
              bounds=None) -> Tensor:
    if metric == METRIC_SYMKL:
        return pairwise_symkl(a, b, bounds)
    return pairwise_sq_euclidean(a.mu, b.mu, bounds)


def _codes(items, codes: dict) -> np.ndarray:
    """Each item's integer code in `codes`, adding unseen items with the next code."""
    return np.array([codes.setdefault(x, len(codes)) for x in items], dtype=np.intp)


def _masks(tags: tuple[str, ...]):
    """(same tag and not the diagonal, not the diagonal) masks over token pairs."""
    t = _codes(tags, {})
    offdiag = ~np.eye(len(tags), dtype=bool)
    pos = t[:, None] == t
    pos &= offdiag
    return pos, offdiag


def _anchor_terms(d: Tensor, anchors: Optional[np.ndarray], pos: np.ndarray,
                  candidates: np.ndarray, variant: str) -> Tensor:
    """Contrastive term of each anchor row of the distance matrix d, as one node.

    `anchors` are distinct row indices, or None for every row in order;
    `pos` and `candidates` are boolean masks of d's shape, and every anchor
    needs a positive.  With weights e^-d over an anchor's candidates, OCL is
    -log(mean positive weight / all weights) and ICL is the mean over the
    positives of -log(positive weight / all weights).
    """
    if anchors is None:
        neg = -d.data
    else:
        neg, pos, candidates = -d.data[anchors], pos[anchors], candidates[anchors]
    lse_all, p_all = ad._masked_logsumexp(neg, candidates)
    n_pos = pos.sum(axis=1).astype(float)
    if variant == VARIANT_ICL:
        row_grad = pos.astype(float)
        terms = (row_grad * neg).sum(axis=1) * (-1.0 / n_pos) + lse_all
        row_grad /= n_pos[:, None]
        row_grad -= p_all
    else:
        lse_pos, row_grad = ad._masked_logsumexp(neg, pos)
        terms = lse_all - lse_pos + np.log(n_pos)
        row_grad -= p_all

    def vjp(g):
        if anchors is None:
            return (g[:, None] * row_grad,)
        full = np.zeros_like(d.data)
        full[anchors] = g[:, None] * row_grad
        return (full,)
    return ad._make(terms, (d,), "anchor_terms", vjp)


def _one_anchor(p: int, batch: BatchView, variant: str, metric: str) -> Optional[Tensor]:
    pos, offdiag = batch.masks
    if not pos[p].any():
        return None
    d = batch.self_distance(metric)
    return ad.reshape(_anchor_terms(d, [p], pos, offdiag, variant), ())


def anchor_loss_in(p: int, batch: BatchView, config: LossConfig) -> Optional[Tensor]:
    """Original contrastive form (OCL) for anchor p, whatever config's variant.

    Returns None when the anchor has no positives (skipped, not an error).
    """
    return _one_anchor(p, batch, VARIANT_OCL, config.metric)


def anchor_loss_out(p: int, batch: BatchView, config: LossConfig) -> Optional[Tensor]:
    """Improved form (ICL) for anchor p: average the per-positive log-softmax terms."""
    return _one_anchor(p, batch, VARIANT_ICL, config.metric)


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
    pos, offdiag = batch.masks
    usable = np.nonzero(pos.any(axis=1))[0]
    if usable.size == 0:
        return LossValue(Tensor(0.0), warned=True)

    d = batch.self_distance(config.metric)
    per_anchor = _anchor_terms(d, None if usable.size == n else usable, pos, offdiag,
                               config.loss_variant)
    return LossValue(ad.tmean(per_anchor), n_anchors=usable.size)


def context_label_loss(batch: BatchView, config: LossConfig) -> LossValue:
    """Softmax-contrastive pull toward each token's gold class representative.

    The denominator ranges over all classes (O included) of the token's own
    sentence's prompt.  The distances are one (n, w) node of per-sentence
    blocks (see `pairwise_symkl`): row i holds token i's distances to its
    own sentence's representatives, and w is the most any sentence has.
    Each token is an ICL anchor whose only positive is its gold
    representative and whose candidates are its row's first columns, one
    per representative of its sentence.
    """
    call_counts["context_label"] += 1
    if batch.n_tokens == 0:
        return LossValue(Tensor(0.0), warned=True)
    if batch.label_reps is None:
        raise ValueError("batch has no label representatives")
    gold, own = batch.label_masks
    d = ad.scale(_pairwise(batch.embeddings, batch.label_reps, config.metric, batch.segments),
                 1.0 / config.tau)
    terms = _anchor_terms(d, None, gold, own, VARIANT_ICL)
    return LossValue(ad.tmean(terms), n_anchors=batch.n_tokens)


@dataclass
class MixedLoss:
    total: Tensor
    context_context: Optional[LossValue]
    context_label: Optional[LossValue]

    def item(self) -> float:
        return self.total.item()


def mixed_loss(batch: BatchView, config: LossConfig) -> MixedLoss:
    """alpha * context-context + (1 - alpha) * context-label.

    A term of weight zero is not computed: alpha = 1 is context-context
    alone and alpha = 0 context-label alone.
    """
    cc = context_context_loss(batch, config) if config.alpha > 0.0 else None
    cl = context_label_loss(batch, config) if config.alpha < 1.0 else None
    total = Tensor(0.0)
    if cc is not None:
        total = total + ad.scale(cc.value, config.alpha)
    if cl is not None:
        total = total + ad.scale(cl.value, 1.0 - config.alpha)
    return MixedLoss(total=total, context_context=cc, context_label=cl)
