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
from .rngutil import init_tensor, make_rng


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


def encoder_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every encoder tensor, in drawing order."""
    d, ff = config.d, config.ff

    def norm(prefix):
        return {f"{prefix}.norm_gain": (d,), f"{prefix}.norm_bias": (d,)}

    shapes = {"emb.token": (config.vocab_size, d), "emb.pos": (config.max_len, d), **norm("emb")}
    for p in (f"layer{i}" for i in range(config.n_layers)):
        # no key bias: it would add q_i . b to every score of query i, a
        # shift that softmax ignores, so no output could depend on it
        for kind in ("q", "k", "v", "out"):
            shapes[f"{p}.attn.{kind}.w"] = (d, d)
            if kind != "k":
                shapes[f"{p}.attn.{kind}.bias"] = (d,)
        shapes.update({**norm(f"{p}.attn"), f"{p}.ff.w1": (d, ff), f"{p}.ff.bias1": (ff,),
                       f"{p}.ff.w2": (ff, d), f"{p}.ff.bias2": (d,), **norm(f"{p}.ff")})
    return shapes


def init_encoder_params(config: EncoderConfig) -> dict[str, Tensor]:
    """The tensors of `encoder_shapes`, each drawn in turn by
    `rngutil.init_tensor`, except that each layer's q/k/v weights are one
    draw, head by head, of (H, 3, d, dh) blocks, stored as one (d, d) matrix
    per kind whose column block h is head h; seeded."""
    rng = make_rng(config.seed, "encoder_init")
    shapes = encoder_shapes(config)
    drawn: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith(".attn.q.w"):
            qkv = init_tensor(rng, name, (config.n_heads, 3, config.d, config.head_dim))
            for j, kind in enumerate("qkv"):
                drawn[f"{name[:-3]}{kind}.w"] = np.concatenate(list(qkv[:, j]), axis=1)
        elif name not in drawn:
            drawn[name] = init_tensor(rng, name, shape)
    return {name: Tensor(drawn[name], requires_grad=True) for name in shapes}


def encode(params: dict[str, Tensor], config: EncoderConfig, batch: PackedBatch,
           rng: Optional[np.random.Generator] = None) -> Tensor:
    """Hidden states of the batch's rows, shape (n_occupied, d).

    Each layer is one fused multi-head attention, within each sequence, over
    its q/k/v projections and a softplus feed-forward, each followed by a
    residual add and an affine layer norm; every other op runs once over
    all rows.  A pass given `rng` is a training pass: its dropout masks are
    one (sites, n_occupied, d) draw from `rng`, whose entry [s, r] is row
    r's mask at dropout site s.  A pass without `rng` is an eval pass, with
    no dropout.
    """
    ids = batch.token_ids
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ValueError(f"token id out of range for vocab size {config.vocab_size}")
    masks = None
    if rng is not None and config.dropout > 0:
        masks = iter(rng.random((1 + 2 * config.n_layers, batch.n_occupied, config.d)))

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
        q, v = (attn_proj(x, f"{p}.attn.{kind}") for kind in "qv")
        k = ad.matmul(x, params[f"{p}.attn.k.w"])
        attn = attn_proj(ad.attention(q, k, v, config.n_heads, batch.bounds), f"{p}.attn.out")
        x = norm(ad.add(x, drop(attn)), f"{p}.attn")

        hid = ad.softplus(ad.linear(x, params[f"{p}.ff.w1"], params[f"{p}.ff.bias1"]))
        ffn = ad.linear(hid, params[f"{p}.ff.w2"], params[f"{p}.ff.bias2"])
        x = norm(ad.add(x, drop(ffn)), f"{p}.ff")
    return x
