"""Trainable token encoder: embeddings plus a small self-attention stack.

Stands in for a large pretrained encoder at desk scale; the contract is
just ids -> per-position hidden states, so alternatives can be swapped in
behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .prompt import PackedBatch
from .rngutil import make_rng


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_dim: Optional[int] = None  # defaults to 2*d
    dropout: float = 0.1
    max_len: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("d", "n_layers", "n_heads", "ff_dim"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} is not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def ff(self) -> int:
        return self.ff_dim if self.ff_dim is not None else 2 * self.d

    @property
    def head_dim(self) -> int:
        return self.d // self.n_heads


def init_encoder_params(config: EncoderConfig) -> dict[str, Tensor]:
    """Scaled-uniform matrices, zero biases, unit norm gains; seeded.

    The attention q/k/v weights are drawn head by head, as (H, 3, d, dh)
    blocks, and stored as one (d, d) matrix per kind whose column block h
    is head h.
    """
    rng = make_rng(config.seed, "encoder_init")
    d, ff, H = config.d, config.ff, config.n_heads
    params: dict[str, Tensor] = {}

    def uniform(rows, shape):
        bound = 1.0 / np.sqrt(rows)
        return rng.uniform(-bound, bound, size=shape)

    def matrix(name, rows, cols):
        params[name] = Tensor(uniform(rows, (rows, cols)), requires_grad=True)

    def bias(name, n):
        params[name] = Tensor(np.zeros(n), requires_grad=True)

    def norm(prefix):
        params[f"{prefix}.norm_gain"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{prefix}.norm_bias"] = Tensor(np.zeros(d), requires_grad=True)

    matrix("emb.token", config.vocab_size, d)
    matrix("emb.pos", config.max_len, d)
    norm("emb")
    for i in range(config.n_layers):
        p = f"layer{i}"
        qkv = uniform(d, (H, 3, d, config.head_dim))
        for j, kind in enumerate("qkv"):
            params[f"{p}.attn.{kind}.w"] = Tensor(np.concatenate(list(qkv[:, j]), axis=1),
                                                  requires_grad=True)
            bias(f"{p}.attn.{kind}.bias", d)
        matrix(f"{p}.attn.out.w", d, d)
        bias(f"{p}.attn.out.bias", d)
        norm(f"{p}.attn")
        matrix(f"{p}.ff.w1", d, ff)
        bias(f"{p}.ff.bias1", ff)
        matrix(f"{p}.ff.w2", ff, d)
        bias(f"{p}.ff.bias2", d)
        norm(f"{p}.ff")
    return params


def encode(params: dict[str, Tensor], config: EncoderConfig, batch: PackedBatch,
           train_mode: bool = False,
           rng: Optional[np.random.Generator] = None) -> Tensor:
    """Hidden states of the batch's rows, shape (n_occupied, d).

    Each layer is one fused multi-head attention, within each sequence, over
    its q/k/v projections and a softplus feed-forward, each followed by a
    residual add and an affine layer norm; every other op runs once over
    all rows.  Dropout is active only in train mode; its masks come from one
    draw from `rng`, read as if each sequence drew its sites in turn, so a
    pack draws the same masks as its sequences encoded one at a time.
    """
    ids = batch.token_ids
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ValueError(f"token id out of range for vocab size {config.vocab_size}")
    masks = None
    if train_mode and config.dropout > 0:
        if rng is None:
            raise ValueError("train-mode encoding needs a dropout rng")
        # site s of the row at `position` among n rows from `first` reads draw row
        # sites * first + s * n + position, as when each sequence draws in turn
        sites = 1 + 2 * config.n_layers
        lengths = np.diff(batch.bounds)
        first, n = np.repeat(batch.bounds[:-1], lengths), np.repeat(lengths, lengths)
        rows = sites * first + np.arange(sites)[:, None] * n + batch.positions
        masks = iter(rng.random((sites * batch.n_occupied, config.d))[rows])

    def drop(x: Tensor) -> Tensor:
        return x if masks is None else ad.dropout(x, config.dropout, next(masks))

    def attn_proj(x: Tensor, name: str) -> Tensor:
        return ad.linear(x, params[f"{name}.w"], params[f"{name}.bias"])

    def norm(x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x, params[f"{prefix}.norm_gain"], params[f"{prefix}.norm_bias"])

    x = ad.add(ad.row_gather(params["emb.token"], ids),
               ad.row_gather(params["emb.pos"], batch.positions))
    x = drop(norm(x, "emb"))

    for i in range(config.n_layers):
        p = f"layer{i}"
        q, k, v = (attn_proj(x, f"{p}.attn.{kind}") for kind in "qkv")
        attn = attn_proj(ad.attention(q, k, v, config.n_heads, batch.bounds), f"{p}.attn.out")
        x = norm(ad.add(x, drop(attn)), f"{p}.attn")

        hid = ad.softplus(ad.linear(x, params[f"{p}.ff.w1"], params[f"{p}.ff.bias1"]))
        ffn = ad.linear(hid, params[f"{p}.ff.w2"], params[f"{p}.ff.bias2"])
        x = norm(ad.add(x, drop(ffn)), f"{p}.ff")
    return x
