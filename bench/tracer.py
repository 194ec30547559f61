"""Outside-in tracer: wraps fewtag's public functions where callers find them.

Nothing under `src/` knows about this module.  `Tracer.install()` replaces
each traced function in the namespace its callers look it up in (for
instance `fewtag.inference.encode`, which `inference` imported by name, or
`fewtag.autodiff.add`, which `Tensor.__add__` resolves through module
globals) and `uninstall()` puts the originals back.

Function-boundary calls become spans (name, start, end, parent id) kept in
memory and written out at the end of the run.  Autodiff ops are far too
many for spans (gradcheck builds more than 300k nodes), so they only feed
aggregated counters: calls, inclusive seconds, nodes created and output
bytes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from fewtag import autodiff, gradcheck, inference, losses, training

AUTODIFF_OPS = ("add", "mul", "scale", "matmul", "exp", "log", "softplus",
                "reciprocal", "square", "tsum", "row_softmax", "row_gather",
                "concat", "reshape", "transpose", "layer_norm", "dropout",
                "masked_row_logsumexp")

# span name -> (function name, modules whose globals its callers resolve it
# through).  A function imported by name (`from .x import f`) must be patched
# in every importing module, or those callers escape the trace.
SPAN_TARGETS = {
    "autodiff.finite_diff_check": ("finite_diff_check", (gradcheck,)),
    "encoder.encode": ("encode", (training, inference)),
    "gaussian.project": ("project", (losses, gradcheck)),
    "gaussian.pairwise_symkl": ("pairwise_symkl", (losses,)),
    "gaussian.pairwise_sq_euclidean": ("pairwise_sq_euclidean", (losses,)),
    "losses.build_batch_view": ("build_batch_view", (training,)),
    "losses.context_context_loss": ("context_context_loss", (losses, gradcheck)),
    "losses.context_label_loss": ("context_label_loss", (losses, gradcheck)),
    "losses.mixed_loss": ("mixed_loss", (training, gradcheck)),
    "prompt.build_label_prompt": ("build_label_prompt", (training, inference)),
    "prompt.assemble_input": ("assemble_input", (training, inference)),
    "data.greedy_sample_support": ("greedy_sample_support", (inference,)),
    "training.train_source": ("train_source", (training,)),
    "training.adamw_step": ("adamw_step", (training,)),
    "training.finetune": ("finetune", (inference,)),
    "inference.build_support_bank": ("build_support_bank", (inference,)),
    "inference.decode_sentence": ("decode_sentence", (inference,)),
    "inference.nn_decode": ("nn_decode", (inference,)),
    "inference.evaluate_episodes": ("evaluate_episodes", (inference,)),
    "inference.low_resource_eval": ("low_resource_eval", (inference,)),
    "gradcheck.run_gradcheck": ("run_gradcheck", (gradcheck,)),
}
BACKWARD_SPAN = "autodiff.backward"

# Per-layer metrics: name -> unit.  `.calls` are call counts and `.s` inclusive
# seconds of the span or op of that name; the rest are counters below, except
# `inference.f1` and `trace.overhead_s`, which the run fills in.
PER_LAYER = {
    **{f"autodiff.{op}.{k}": u for op in AUTODIFF_OPS
       for k, u in (("calls", "count"), ("s", "s"))},
    "autodiff.nodes": "count",
    "autodiff.out_bytes": "bytes",
    "autodiff.backward.calls": "count",
    "autodiff.backward.s": "s",
    "autodiff.finite_diff_check.calls": "count",
    "autodiff.finite_diff_check.s": "s",
    "encoder.encode.calls": "count",
    "encoder.encode.s": "s",
    "encoder.encode_train.s": "s",
    "encoder.encode_eval.s": "s",
    "encoder.positions": "count",
    "encoder.occupied_ratio": "ratio",
    "gaussian.project.calls": "count",
    "gaussian.project.s": "s",
    "gaussian.pairwise_symkl.calls": "count",
    "gaussian.pairwise_symkl.s": "s",
    "gaussian.pairwise_sq_euclidean.calls": "count",
    "gaussian.pairwise_sq_euclidean.s": "s",
    "losses.build_batch_view.calls": "count",
    "losses.build_batch_view.s": "s",
    "losses.context_context_loss.s": "s",
    "losses.context_label_loss.s": "s",
    "losses.mixed_loss.s": "s",
    "losses.batch_tokens": "count",
    "losses.cc_anchors": "count",
    "losses.cc_pairs": "count",
    "prompt.build_label_prompt.calls": "count",
    "prompt.assemble_input.calls": "count",
    "prompt.assemble_input.s": "s",
    "data.greedy_sample_support.calls": "count",
    "data.greedy_sample_support.s": "s",
    "data.overshoot": "count",
    "training.train_source.s": "s",
    "training.adamw_step.calls": "count",
    "training.adamw_step.s": "s",
    "training.finetune.calls": "count",
    "training.finetune.s": "s",
    "training.finetune.iterations": "count",
    "training.finetune.cap_hits": "count",
    "training.final_loss": "loss",
    "inference.build_support_bank.calls": "count",
    "inference.build_support_bank.s": "s",
    "inference.bank_rows": "count",
    "inference.decode_sentence.calls": "count",
    "inference.decode_sentence.s": "s",
    "inference.nn_decode.calls": "count",
    "inference.nn_decode.s": "s",
    "inference.nn_queries": "count",
    "inference.nn_pairs": "count",
    "inference.f1": "f1",
    "gradcheck.run_gradcheck.s": "s",
    "trace.overhead_s": "s",
}

# Spans kept in memory are capped; later ones are still counted and timed.
MAX_SPANS = 200_000


class Tracer:
    """Spans and counters of everything the wrapped functions do while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.dropped_spans = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []  # open span ids; -1 for a dropped span
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self) -> None:
        for op in AUTODIFF_OPS:
            self._patch(autodiff, op, self._op_wrapper(op, getattr(autodiff, op)))
        self._patch(autodiff.Tensor, "backward",
                    self._span_wrapper(BACKWARD_SPAN, autodiff.Tensor.backward))
        for span, (fname, callers) in SPAN_TARGETS.items():
            original = getattr(callers[0], fname)
            wrapped = self._span_wrapper(span, original, _OBSERVERS.get(span))
            for module in callers:
                self._patch(module, fname, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- wrappers -------------------------------------------------------------

    def _op_wrapper(self, op: str, fn):
        calls, seconds, counts = self.calls, self.seconds, self.counts
        key = f"autodiff.{op}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            seconds[key] += clock() - t0
            calls[key] += 1
            if out is not a:  # eval-mode dropout hands back its input
                counts["autodiff.nodes"] += 1
                counts["autodiff.out_bytes"] += out.data.nbytes
            return out
        return wrapper

    def _span_wrapper(self, name: str, fn, observe=None):
        spans, stack, calls, seconds = self.spans, self._stack, self.calls, self.seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if len(spans) < MAX_SPANS:
                sid = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            else:
                sid = -1
                self.dropped_spans += 1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if sid >= 0:
                    spans[sid] = (name, t0, t1, parent)
                seconds[name] += t1 - t0
                calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, out, t1 - t0)
            return out
        return wrapper

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER value the tracer measures (zero where unused)."""
        values: dict[str, float] = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls.get(base, 0)
            elif kind == "s":
                values[name] = self.seconds.get(base, 0.0)
            else:
                values[name] = self.counts.get(name, 0)
        positions = self.counts.get("encoder.positions", 0)
        values["encoder.occupied_ratio"] = (
            self.counts.get("encoder.occupied", 0) / positions if positions else 0.0)
        n_losses = self.counts.get("training.final_loss.n", 0)
        values["training.final_loss"] = (
            self.counts.get("training.final_loss.sum", 0.0) / n_losses if n_losses else 0.0)
        return values

    def self_seconds(self) -> dict[str, float]:
        """Per span name: inclusive time minus the time of its child spans.

        Autodiff ops are not spans, so their time stays inside the self time
        of the span that ran them.
        """
        own = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            own[name] += t1 - t0
            if parent >= 0:
                own[self.spans[parent][0]] -= t1 - t0
        return dict(own)

    def write(self, path: str, extra: dict) -> None:
        """Spans as JSON lines after one header line of aggregates."""
        with open(path, "w", encoding="utf-8") as f:
            header = {"calls": self.calls, "seconds": self.seconds, "counts": self.counts,
                      "self_seconds": self.self_seconds(),
                      "n_spans": len(self.spans), "dropped_spans": self.dropped_spans,
                      **extra}
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps([sid, name, t0, t1, parent]) + "\n")


# -- counters read from arguments and results ----------------------------------


def _encode(tr: Tracer, args, kwargs, out, dt) -> None:
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    train = args[3] if len(args) > 3 else kwargs.get("train_mode", False)
    tr.seconds["encoder.encode_train" if train else "encoder.encode_eval"] += dt
    tr.counts["encoder.positions"] += seq.max_len
    tr.counts["encoder.occupied"] += seq.n_occupied


def _batch_view(tr: Tracer, args, kwargs, out, dt) -> None:
    tr.counts["losses.batch_tokens"] += out.n_tokens


def _context_context(tr: Tracer, args, kwargs, out, dt) -> None:
    batch = args[0] if args else kwargs["batch"]
    tr.counts["losses.cc_anchors"] += out.n_anchors
    tr.counts["losses.cc_pairs"] += batch.n_tokens ** 2


def _sample(tr: Tracer, args, kwargs, out, dt) -> None:
    tr.counts["data.overshoot"] += sum(out.overshoot.values())


def _final_loss(tr: Tracer, loss: float) -> None:
    tr.counts["training.final_loss.sum"] += loss
    tr.counts["training.final_loss.n"] += 1


def _train_source(tr: Tracer, args, kwargs, out, dt) -> None:
    _final_loss(tr, out[1][-1].loss)


def _finetune(tr: Tracer, args, kwargs, out, dt) -> None:
    result = out[1]
    tr.counts["training.finetune.iterations"] += result.iterations
    tr.counts["training.finetune.cap_hits"] += int(result.hit_cap)
    _final_loss(tr, result.loss_trace[-1])


def _bank(tr: Tracer, args, kwargs, out, dt) -> None:
    tr.counts["inference.bank_rows"] += len(out.tags)


def _nn_decode(tr: Tracer, args, kwargs, out, dt) -> None:
    bank = args[1] if len(args) > 1 else kwargs["bank"]
    tr.counts["inference.nn_queries"] += len(out)
    tr.counts["inference.nn_pairs"] += len(out) * len(bank.tags)


_OBSERVERS = {
    "encoder.encode": _encode,
    "losses.build_batch_view": _batch_view,
    "losses.context_context_loss": _context_context,
    "data.greedy_sample_support": _sample,
    "training.train_source": _train_source,
    "training.finetune": _finetune,
    "inference.build_support_bank": _bank,
    "inference.nn_decode": _nn_decode,
}
