"""Optimizer, source-domain training, target fine-tuning, and checkpoints.

Fine-tuning gathers the whole support set into one batch and repeats
gradient steps until the loss rises above the previous iteration's value
(early stopping against overfitting), backstopped by an iteration cap.
In 1-shot mode the context-context loss is dropped and distances switch to
squared Euclidean on the mu projections.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Iterator, Optional, get_type_hints

import numpy as np

from .autodiff import NumericError, Tensor
from .data import (RESERVED, DataError, LabelMap, LabelSet, Sentence, Vocabulary, build_vocab,
                   fits_json)
from .encoder import EncoderConfig, encode, encoder_shapes, init_encoder_params
from .gaussian import init_projection_params, projection_shapes
from .losses import METRIC_SQEUCLID, LossConfig, MixedLoss, build_batch_view, mixed_loss
from .prompt import PackedBatch, assemble_input, build_label_prompt, pack
from .rngutil import make_rng


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


SHOT_MODE_K = "k-shot"
SHOT_MODE_1 = "1-shot"


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 32
    epochs: int = 1
    # sizes a new checkpoint's positional table; later stages read the checkpoint's
    max_len: int = 128
    embed_dim: int = 128                     # Gaussian embedding dim l
    alpha: float = 0.5
    alpha_grid: tuple[float, ...] = (0.8, 0.5, 0.3)  # the paper's alpha search grid; a record only
    tau: float = 1.0
    loss_variant: str = "icl"
    metric: str = "symkl"
    o_keep_fraction: float = 1.0
    weight_decay: float = 0.01
    seed: int = 0
    shot_mode: str = SHOT_MODE_K
    max_finetune_iters: int = 200
    keep_best: bool = False

    def __post_init__(self):
        for name in ("lr", "batch_size", "epochs", "max_len", "embed_dim", "max_finetune_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 < self.o_keep_fraction <= 1.0:
            raise ValueError(f"o_keep_fraction must be in (0, 1], got {self.o_keep_fraction}")
        if self.shot_mode not in (SHOT_MODE_K, SHOT_MODE_1):
            raise ValueError(f"shot_mode must be {SHOT_MODE_K!r} or {SHOT_MODE_1!r}, "
                             f"got {self.shot_mode!r}")
        # the loss settings as given, whichever the shot mode, so a bad one
        # fails here and not when training starts
        self.loss_config()

    def loss_config(self) -> LossConfig:
        config = LossConfig(alpha=self.alpha, tau=self.tau, loss_variant=self.loss_variant,
                            metric=self.metric)
        if self.shot_mode == SHOT_MODE_1:
            # context-label only, on squared Euclidean distance
            return replace(config, alpha=0.0, metric=METRIC_SQEUCLID)
        return config


# -- optimizer -------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decays and denominator guard
DECAY_EXCLUDE = ("norm", "bias")  # name substrings excluded from decay


@dataclass
class OptimizerState:
    lr: float
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """Decoupled-decay update in place; decay skips excluded parameters.  Every
    parameter must carry a gradient, as `_update`'s `backward(leaves=...)` ensures."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        # in place, in the operation order of
        #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        #   update = lr (m / bc1) / (sqrt(v / bc2) + eps) [+ lr wd p]
        update, tmp = np.empty_like(p.data), np.empty_like(p.data)
        m *= BETA1
        m += np.multiply(g, 1 - BETA1, out=tmp)
        v *= BETA2
        np.multiply(g, 1 - BETA2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += EPS
        np.divide(m, bc1, out=update)
        update *= state.lr
        update /= tmp
        if state.weight_decay and not any(pat in name for pat in DECAY_EXCLUDE):
            update += np.multiply(p.data, state.lr * state.weight_decay, out=tmp)
        p.data = p.data - update


# -- parameters and checkpoints ----------------------------------------------


def init_params(config: EncoderConfig, embed_dim: int) -> dict[str, Tensor]:
    """Fresh encoder and projection-head parameters, both drawn from `config.seed`."""
    params = init_encoder_params(config)
    params.update(init_projection_params(d=config.d, l=embed_dim, seed=config.seed))
    return params


def param_shapes(config: EncoderConfig, embed_dim: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every tensor `init_params` makes, without drawing
    them: the union of `encoder.encoder_shapes` and `gaussian.projection_shapes`,
    which each declare their module's layout."""
    return {**encoder_shapes(config), **projection_shapes(config.d, embed_dim)}


CHECKPOINT_MAGIC = b"FEWTAG\x00\x01"
# v1 kept per-head attention weights `layer{i}.attn.{q,k,v}{h}.{w,bias}`;
# v2 keeps one (d, d) matrix and (d,) bias per kind, head h in column block h;
# v3 holds no key biases and no mu output bias (see the layouts in
# `encoder_shapes` and `projection_shapes`), which loading drops from v1 and v2.
CHECKPOINT_VERSION = 3
_META_KEYS = ("encoder_config", "vocab", "label_map", "label_set", "embed_dim")


@dataclass
class Checkpoint:
    encoder_config: EncoderConfig
    params: dict[str, Tensor]
    vocab: Vocabulary
    label_map: LabelMap
    label_set: LabelSet
    embed_dim: int

    def clone(self) -> "Checkpoint":
        return replace(self, params={k: Tensor(v.data.copy(), requires_grad=True)
                                     for k, v in self.params.items()})


@contextmanager
def replacing(path: str, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """A file opened beside `path` and renamed over it once the block ends
    without an error, so `path` never holds a partly written file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Versioned binary container: magic, metadata JSON, named f64 tensors.

    The file is written through `replacing`, so `path` never holds a partly
    written checkpoint.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "encoder_config": asdict(ckpt.encoder_config),
        "vocab": ckpt.vocab.token_to_id,
        "label_map": ckpt.label_map.phrases,
        "label_set": {"classes": list(ckpt.label_set.classes), "role": ckpt.label_set.role},
        "embed_dim": ckpt.embed_dim,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    with replacing(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(ckpt.params)))
        for name in sorted(ckpt.params):
            data = np.ascontiguousarray(ckpt.params[name].data, dtype="<f8")
            name_b = name.encode()
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            f.write(data.tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; v1 per-head attention weights are fused on load,
    and the tensors that v3 dropped are dropped from v1 and v2 files.

    Every malformed file, and every file with a NaN or an infinity in a
    tensor, raises CheckpointError naming `path`.
    """
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint file")
        out = blob[off:off + n]
        off += n
        return out

    try:
        if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
        (version,) = struct.unpack("<I", take(4))
        if not 1 <= version <= CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", take(8))
        meta = json.loads(take(meta_len).decode("utf-8"))
        missing = [k for k in _META_KEYS if k not in meta]
        if missing:
            raise CheckpointError(f"{path}: metadata lacks {', '.join(missing)}")
        (n_tensors,) = struct.unpack("<I", take(4))
        params: dict[str, Tensor] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode()
            (rank,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{rank}Q", take(8 * rank))
            data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
            if not np.isfinite(data).all():
                # training refuses non-finite losses and gradients, so no save holds these
                raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
            params[name] = Tensor(data, requires_grad=True)
        if off != len(blob):
            raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes after the tensors")
        enc_cfg = EncoderConfig(**meta["encoder_config"])
        vocab, classes = meta["vocab"], meta["label_set"]["classes"]
        hints = get_type_hints(EncoderConfig)
        wrong = [key for key, ok in [
            # a model of n layers has more than n tensors
            ("encoder_config", enc_cfg.n_layers < len(params)
             and all(fits_json(getattr(enc_cfg, k), kind) for k, kind in hints.items())),
            ("vocab", fits_json(vocab, dict[str, int]) and set(RESERVED) <= vocab.keys()
             and len(vocab) == enc_cfg.vocab_size
             and sorted(vocab.values()) == list(range(len(vocab)))),
            ("label_set", fits_json(classes, tuple[str, ...]) and len(classes) > 0
             and fits_json(meta["label_set"]["role"], str)),
            ("label_map", fits_json(meta["label_map"], dict[str, str])
             and meta["label_map"].keys() >= {*classes, "O"}),
            ("embed_dim", fits_json(meta["embed_dim"], int) and meta["embed_dim"] > 0)] if not ok]
        if wrong:
            raise CheckpointError(f"{path}: malformed checkpoint metadata: {', '.join(wrong)}")
        if version == 1:
            _fuse_v1_heads(params, enc_cfg, path)
        if version < 3:
            params.pop("proj.mu.b2", None)
            for i in range(enc_cfg.n_layers):
                params.pop(f"layer{i}.attn.k.bias", None)
        _check_tensors(params, enc_cfg, meta["embed_dim"], path)
        return Checkpoint(encoder_config=enc_cfg, params=params, vocab=Vocabulary(vocab),
                          label_map=LabelMap(meta["label_map"]),
                          label_set=LabelSet(tuple(classes), role=meta["label_set"]["role"]),
                          embed_dim=meta["embed_dim"])
    except CheckpointError:
        raise
    except (struct.error, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({type(e).__name__}: {e})") from None


def _fuse_v1_heads(params: dict[str, Tensor], config: EncoderConfig, path: str) -> None:
    """Replace v1 per-head q/k/v tensors by their column-concatenated v2 form."""
    for i in range(config.n_layers):
        for kind in "qkv":
            for part, axis in (("w", 1), ("bias", 0)):
                names = [f"layer{i}.attn.{kind}{h}.{part}" for h in range(config.n_heads)]
                missing = [n for n in names if n not in params]
                if missing:
                    raise CheckpointError(f"{path}: v1 checkpoint lacks {', '.join(missing)}")
                fused = np.concatenate([params.pop(n).data for n in names], axis=axis)
                params[f"layer{i}.attn.{kind}.{part}"] = Tensor(fused, requires_grad=True)


def _check_tensors(params: dict[str, Tensor], config: EncoderConfig, embed_dim: int,
                   path: str) -> None:
    """CheckpointError naming `path` and a tensor that a model of this
    encoder config and embedding dimension would lack, or hold in another shape."""
    want = param_shapes(config, embed_dim)
    for name in sorted(want.keys() | params.keys()):
        if name not in params:
            raise CheckpointError(f"{path}: checkpoint lacks tensor {name}")
        if name not in want:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
        if params[name].shape != want[name]:
            raise CheckpointError(f"{path}: tensor {name} has shape {params[name].shape}, "
                                  f"the config implies {want[name]}")


# -- training loops ----------------------------------------------------------


@dataclass
class LogEntry:
    step: int
    loss: float
    context_context: Optional[float]
    context_label: Optional[float]

    def format(self) -> str:
        cc = "-" if self.context_context is None else f"{self.context_context:.6f}"
        cl = "-" if self.context_label is None else f"{self.context_label:.6f}"
        return f"step={self.step} loss={self.loss:.6f} cc={cc} cl={cl}"


def _pack(ckpt: Checkpoint, sentences: list[Sentence], prompt) -> PackedBatch:
    return pack([assemble_input(s, prompt, ckpt.vocab, max_len=ckpt.encoder_config.max_len)
                 for s in sentences])


def _batch_loss(ckpt: Checkpoint, packed: PackedBatch, config: TrainConfig,
                dropout_rng, subsample_rng) -> MixedLoss:
    hidden = encode(ckpt.params, ckpt.encoder_config, packed, dropout_rng)
    batch = build_batch_view(hidden, packed, ckpt.params,
                             o_keep_fraction=config.o_keep_fraction, rng=subsample_rng)
    return mixed_loss(batch, config.loss_config())


def _log_entry(out: MixedLoss, step: int, nonfinite: str) -> LogEntry:
    """The log entry of a batch loss; a non-finite loss raises NumericError
    with `nonfinite`, formatted with `step` and `loss`."""
    loss = out.item()
    if not math.isfinite(loss):
        raise NumericError(nonfinite.format(step=step, loss=loss))
    return LogEntry(
        step=step, loss=loss,
        context_context=None if out.context_context is None
        else out.context_context.value.item(),
        context_label=None if out.context_label is None
        else out.context_label.value.item())


def _update(ckpt: Checkpoint, out: MixedLoss, opt: OptimizerState) -> None:
    """Backpropagate a batch loss and take one AdamW step on every parameter."""
    for p in ckpt.params.values():
        p.zero_grad()
    out.total.backward(leaves=list(ckpt.params.values()))
    adamw_step(ckpt.params, opt)


def train_source(sentences: list[Sentence], label_set: LabelSet, label_map: LabelMap,
                 config: TrainConfig, encoder_overrides: Optional[dict] = None,
                 extra_vocab_words: Optional[list[str]] = None
                 ) -> tuple[Checkpoint, list[LogEntry]]:
    """One (by default) epoch of shuffled mini-batch training on the source domain.

    `extra_vocab_words` lets callers reserve vocabulary rows for words that
    only appear later (e.g. target-domain label phrases).
    """
    if not sentences:
        raise DataError("source dataset is empty")
    label_map.check_covers(label_set)

    vocab = build_vocab(sentences, label_map=label_map, extra_words=extra_vocab_words or ())

    encoder_config = EncoderConfig(vocab_size=vocab.size, max_len=config.max_len,
                                   seed=config.seed, **(encoder_overrides or {}))
    ckpt = Checkpoint(encoder_config=encoder_config,
                      params=init_params(encoder_config, config.embed_dim), vocab=vocab,
                      label_map=label_map, label_set=label_set,
                      embed_dim=config.embed_dim)

    prompt = build_label_prompt(label_set, label_map)
    opt = OptimizerState(lr=config.lr, weight_decay=config.weight_decay)
    shuffle_rng = make_rng(config.seed, "batch_shuffle")
    dropout_rng = make_rng(config.seed, "dropout")
    subsample_rng = make_rng(config.seed, "o_subsample")

    log: list[LogEntry] = []
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(sentences))
        for lo in range(0, len(order), config.batch_size):
            packed = _pack(ckpt, [sentences[i] for i in order[lo:lo + config.batch_size]],
                           prompt)
            out = _batch_loss(ckpt, packed, config, dropout_rng, subsample_rng)
            log.append(_log_entry(out, len(log),
                                  "non-finite training loss at step {step}: {loss}"))
            _update(ckpt, out, opt)
            del out  # the spent graph, which would otherwise live beside the next one
    return ckpt, log


@dataclass
class FinetuneResult:
    hit_cap: bool
    used_context_context: bool
    metric: str
    log: list[LogEntry]

    @property
    def loss_trace(self) -> list[float]:
        return [e.loss for e in self.log]

    @property
    def iterations(self) -> int:
        return len(self.log)


def retarget(checkpoint: Checkpoint, label_set: LabelSet,
             label_map: LabelMap) -> Checkpoint:
    """Clone a checkpoint onto a new label set without changing parameters."""
    label_map.check_covers(label_set)
    return replace(checkpoint.clone(), label_map=label_map, label_set=label_set)


def finetune(checkpoint: Checkpoint, support: list[Sentence],
             target_label_set: LabelSet, target_label_map: LabelMap,
             config: TrainConfig) -> tuple[Checkpoint, FinetuneResult]:
    """Adapt a source checkpoint to a target label set on one support batch.

    The support is packed once, and each iteration evaluates the loss on
    that whole batch.  The loop stops, without updating, at the first loss
    above the previous one; any other iteration takes one gradient step, up
    to the iteration cap.  The parameters the risen loss was computed at are
    returned; `keep_best` returns the snapshot from just before the update
    that raised it instead.
    """
    if not support:
        raise DataError("support set is empty")
    ckpt = retarget(checkpoint, target_label_set, target_label_map)
    packed = _pack(ckpt, support, build_label_prompt(target_label_set, target_label_map))
    loss_config = config.loss_config()
    opt = OptimizerState(lr=config.lr, weight_decay=config.weight_decay)
    dropout_rng = make_rng(config.seed, "finetune_dropout")
    subsample_rng = make_rng(config.seed, "finetune_o_subsample")

    log: list[LogEntry] = []
    best: Optional[dict[str, np.ndarray]] = None
    hit_cap = False
    while True:
        out = _batch_loss(ckpt, packed, config, dropout_rng, subsample_rng)
        log.append(_log_entry(out, len(log), "non-finite fine-tuning loss at iteration {step}"))
        if len(log) > 1 and log[-1].loss > log[-2].loss:
            break
        # the parameters the loss was computed at, before this step updates them
        if config.keep_best and log[-1].loss < min((e.loss for e in log[:-1]), default=math.inf):
            best = {k: p.data.copy() for k, p in ckpt.params.items()}
        _update(ckpt, out, opt)
        del out  # the spent graph, which would otherwise live beside the next one
        if len(log) >= config.max_finetune_iters:
            hit_cap = True
            break
    if best is not None:
        for k, p in ckpt.params.items():
            p.data = best[k]
    return ckpt, FinetuneResult(hit_cap=hit_cap, used_context_context=loss_config.alpha > 0.0,
                                metric=loss_config.metric, log=log)
