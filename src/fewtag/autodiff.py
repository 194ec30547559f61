"""Dense-tensor engine with reverse-mode automatic differentiation.

Only the primitives the encoder, projection heads, and losses need are
implemented.  Buffers are float64, as gradient checks require.

Every op computes its value in numpy and hands `_make` that value, its
input tensors and a vector-Jacobian product: `vjp(g)` maps the gradient
of the op's output to one gradient per input, in input order.  `_make` is
the only place that attaches a VJP to a node, and `Tensor.backward` the
only place that applies one, sending each gradient to its input unless
that input needs none.  A VJP holds the op's inputs but not its node, so
a dropped graph is freed by reference counting alone.  An op none of whose
inputs requires a gradient makes a constant node, with no inputs and no
VJP: a forward pass over constants, such as an eval-mode encoding with its
parameters wrapped as `Tensor(p.data)`, builds no graph, and each
intermediate is freed once the pass has moved past it.  Beside the inputs,
which the graph keeps anyway, a VJP keeps only what it cannot rebuild
from them bit for bit; the rest it computes again when it runs.

A VJP never writes into its argument `g`, and may hand `g` itself, or a
view of it, to one input or to several.  An input therefore keeps its
first gradient as given and only adds in place into a buffer of its own,
made when a second gradient arrives.  `backward` drops each inner node's
gradient as soon as its VJP has run, so after it returns only leaves
(tensors made directly, not by an op) hold `.grad`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's shape rule."""


class NumericError(RuntimeError):
    """Non-finite values where finite ones are required (loss, gradients)."""


class Tensor:
    """A dense array node in a dynamically built computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_owns_grad", "_prev", "_vjp", "_op",
                 "_backward_ran", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = (), _op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._owns_grad = False  # whether grad is a buffer _accumulate made and may add into
        self._prev = _prev
        # maps this node's gradient to one gradient per input; set by _make only
        self._vjp: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None
        self._op = _op
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # g may be another node's buffer or handed to several inputs, so it is
        # kept as is and never written into; the first sum makes a buffer of
        # this tensor's own, into which later gradients add in place
        if self.grad is None:
            self.grad = g
            self._owns_grad = False
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._owns_grad = True

    def backward(self, leaves: Optional[Sequence["Tensor"]] = None) -> None:
        """Populate .grad on every requires_grad leaf ancestor of this scalar root.

        Each inner node's gradient is dropped once its VJP has run.  `leaves`,
        when given, additionally receive an exact-zero grad if they do not
        influence the root at all.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this root; rebuild the graph first")
        self._backward_ran = True

        # inputs before the node they feed, in the order a depth-first walk
        # finishes them; an explicit stack, so any depth of graph will do
        topo: list[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._prev))]
        while stack:
            node, inputs = stack[-1]
            for p in inputs:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._prev)))
                    break
            else:
                stack.pop()
                topo.append(node)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._vjp is not None:
                for p, g in zip(t._prev, t._vjp(t.grad)):
                    if p.requires_grad:
                        p._accumulate(g)
                t.grad = None
        if leaves is not None:
            for t in leaves:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, prev: tuple, op: str,
          vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """The node `op` made from the tensors `prev`, with value `data`.

    When any input requires a gradient, the node keeps `prev` and `vjp`,
    which maps the node's gradient to one gradient per tensor of `prev`, in
    order.  Otherwise it is a constant: it keeps neither, so its inputs and
    whatever `vjp` closes over are freed as soon as the caller drops them.
    """
    for p in prev:
        if p.requires_grad:
            out = Tensor(data, requires_grad=True, _prev=prev, _op=op)
            out._vjp = vjp
            return out
    return Tensor(data, _op=op)


def _suffix_broadcastable(a_shape, b_shape) -> bool:
    # equal shapes, or the smaller shape is a trailing suffix of the larger
    # (expansion over leading axes only)
    if a_shape == b_shape:
        return True
    small, big = (a_shape, b_shape) if len(a_shape) < len(b_shape) else (b_shape, a_shape)
    return len(small) < len(big) and big[len(big) - len(small):] == small


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


# -- primitives ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _suffix_broadcastable(a.shape, b.shape):
        raise ShapeError("add", a.shape, b.shape)
    return _make(a.data + b.data, (a, b), "add",
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _suffix_broadcastable(a.shape, b.shape):
        raise ShapeError("mul", a.shape, b.shape)
    return _make(a.data * b.data, (a, b), "mul",
                 lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), "scale", lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; any leading (batch) axes must match."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError("matmul", a.shape, b.shape)
    return _make(a.data @ b.data, (a, b), "matmul",
                 lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _make(e, (a,), "exp", lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), "log", lambda g: (g / a.data,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^a), as max(a, 0) + log1p(e^-|a|), which cannot overflow."""
    def vjp(g):
        # the derivative is the sigmoid of a, from e^-|a| computed again
        e = np.exp(-np.abs(a.data))
        return (g * (np.where(a.data >= 0, 1.0, e) / (1.0 + e)),)
    return _make(np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data))), (a,),
                 "softplus", vjp)


def reciprocal(a: Tensor) -> Tensor:
    r = 1.0 / a.data
    return _make(r, (a,), "reciprocal", lambda g: (-g * r * r,))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), "square", lambda g: (g * 2.0 * a.data,))


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    return _make(a.data.sum(axis=axis), (a,), "sum",
                 lambda g: (np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                            a.shape),))


def tmean(a: Tensor, axis: Optional[int] = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a last-axis softmax with output s and output gradient g."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def row_softmax(a: Tensor) -> Tensor:
    if a.data.ndim < 1:
        raise ShapeError("row_softmax", a.shape)
    s = _softmax(a.data)
    return _make(s, (a,), "row_softmax", lambda g: (_softmax_grad(s, g),))


def row_gather(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim < 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError("row_gather", a.shape, (int(idx.min(initial=0)), int(idx.max(initial=0))))

    def vjp(g):
        # strictly increasing rows are distinct, so assignment scatters them
        # as np.add.at would, and faster; it keeps a -0.0 that np.add.at
        # would turn into 0.0
        if idx.ndim == 1 and np.all(idx[1:] > idx[:-1]):
            full = np.zeros_like(a.data)
            full[idx] = g
            return (full,)
        # otherwise bincount over flat entries: it adds each entry's terms in
        # index order, as np.add.at does, so the sums are its bit for bit,
        # 3-5 times faster
        width = math.prod(a.shape[1:])
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        full = np.bincount(flat, weights=g.ravel(), minlength=a.data.size)
        return (full.astype(np.float64, copy=False).reshape(a.shape),)  # int64 when empty
    return _make(a.data[idx], (a,), "row_gather", vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The parts stacked along their first axis."""
    if not parts:
        raise ShapeError("concat", ())
    offsets = np.cumsum([p.shape[0] for p in parts[:-1]])
    return _make(np.concatenate([p.data for p in parts]), tuple(parts), "concat",
                 lambda g: np.split(g, offsets))


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(shape), (a,), "reshape", lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    return _make(a.data.swapaxes(-1, -2).copy(), (a,), "transpose",
                 lambda g: (g.swapaxes(-1, -2),))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x (n, d_in), w (d_in, d_out) and b (d_out,), as one node."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    return _make(x.data @ w.data + b.data, (x, w, b), "linear",
                 lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def _centred(x: np.ndarray) -> np.ndarray:
    # the mean as sum(x * s) / (n * s) for the power of two s <= 1 / n: a sum
    # of finite entries cannot overflow, and scaling by s is exact, so
    # outside the subnormal range the mean is sum(x) / n bit for bit
    n = x.shape[-1]
    s = 2.0 ** -math.ceil(math.log2(n))
    return x - (x * s).sum(axis=-1, keepdims=True) / (n * s)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean and unit variance, then
    scale by `gain` and shift by `bias` (both of the last axis's length)."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError("layer_norm", a.shape, gain.shape, bias.shape)
    # sums divided by n: np.mean and np.var's results, without their Python overhead
    n = a.shape[-1]
    centred = _centred(a.data)
    with np.errstate(over="ignore"):
        var = np.square(centred).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    big = np.isinf(var[..., 0])
    if big.any():
        # a finite row whose squares overflow: scaled by the power of two s
        # that brings its largest magnitude into [0.5, 1), exactly, so that
        # 1/std = s / sqrt(sum((c s)^2) / n + eps s^2) is finite
        c = centred[big]
        s = np.ldexp(1.0, -np.frexp(np.abs(c).max(axis=-1, keepdims=True))[1])
        inv[big] = s / np.sqrt(np.square(c * s).sum(axis=-1, keepdims=True) / n + eps * s * s)
    y = centred * inv

    def vjp(g):
        y = _centred(a.data) * inv  # the forward's y, bit for bit, rebuilt from a
        lead = tuple(range(g.ndim - 1))
        gy = g * gain.data
        gm = gy.sum(axis=-1, keepdims=True) / n
        gym = (gy * y).sum(axis=-1, keepdims=True) / n
        return inv * (gy - gm - y * gym), (g * y).sum(axis=lead), g.sum(axis=lead)
    return _make(y * gain.data + bias.data, (a, gain, bias), "layer_norm", vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, bounds: Sequence[int]) -> Tensor:
    """Multi-head scaled-dot-product self-attention within segments, as one node.

    q, k and v are (L, d) projections; column block h of width d/heads is
    head h.  Rows bounds[i]:bounds[i + 1] form segment i, which attends only
    to itself; `bounds` rises strictly from 0 to L.  Each segment's head h
    output is softmax(q_h k_h^T / sqrt(d/heads)) v_h, and the heads are
    concatenated back into (L, d).
    """
    if (q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape
            or heads < 1 or q.shape[1] % heads):
        raise ShapeError("attention", q.shape, k.shape, v.shape, heads)
    L, d = q.shape
    segments = list(zip(bounds[:-1], bounds[1:]))
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != L or any(
            lo >= hi for lo, hi in segments):
        raise ShapeError("attention", q.shape, tuple(bounds))
    dh = d // heads
    c = 1.0 / np.sqrt(dh)

    def split(m: np.ndarray) -> np.ndarray:  # (L, d) -> (heads, L, dh), a view if m is contiguous
        return m.reshape(L, heads, dh).swapaxes(0, 1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty_like(q.data)
    oh = split(out)
    probs = []  # per segment, (heads, n, n)
    for lo, hi in segments:
        scores = qh[:, lo:hi] @ kh[:, lo:hi].swapaxes(-1, -2)
        scores *= c
        p = _softmax(scores)
        oh[:, lo:hi] = p @ vh[:, lo:hi]
        probs.append(p)

    def vjp(g):
        gh = split(g)
        grads = np.empty_like(g), np.empty_like(g), np.empty_like(g)
        gqh, gkh, gvh = (split(x) for x in grads)
        for (lo, hi), p in zip(segments, probs):
            ds = _softmax_grad(p, gh[:, lo:hi] @ vh[:, lo:hi].swapaxes(-1, -2)) * c
            gqh[:, lo:hi] = ds @ kh[:, lo:hi]
            gkh[:, lo:hi] = ds.swapaxes(-1, -2) @ qh[:, lo:hi]
            gvh[:, lo:hi] = p.swapaxes(-1, -2) @ gh[:, lo:hi]
        return grads
    return _make(out, (q, k, v), "attention", vjp)


def dropout(a: Tensor, rate: float, draws: np.ndarray) -> Tensor:
    """`a` with each entry whose uniform draw in [0, 1) is below `rate` zeroed
    and the others scaled by 1 / (1 - rate); `draws` has a's shape."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if draws.shape != a.shape:
        raise ShapeError("dropout", a.shape, draws.shape)
    # a boolean mask and one scale: the same bits as a float factor of 0 or
    # 1 / (1 - rate), signed zeros included, at an eighth of its memory
    keep = draws >= rate
    s = 1.0 / (1.0 - rate)
    return _make(a.data * keep * s, (a,), "dropout", lambda g: (g * keep * s,))


def _masked_logsumexp(a: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-sum-exp of the (n, m) array `a` over the entries where the
    boolean `mask` is true, and the masked row softmax, which is its gradient."""
    if not mask.any(axis=-1).all():
        raise ValueError("masked_row_logsumexp: some row selects no entries")
    e = np.where(mask, a, -np.inf)
    shift = e.max(axis=-1, keepdims=True)
    e -= shift
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    e /= total
    return (shift + np.log(total))[:, 0], e


def masked_row_logsumexp(a: Tensor, mask) -> Tensor:
    """Per-row log-sum-exp over the entries where `mask` is true.

    `mask` is a constant boolean array of the same shape; every row must
    select at least one entry.
    """
    m = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or m.shape != a.shape:
        raise ShapeError("masked_row_logsumexp", a.shape, m.shape)
    lse, p = _masked_logsumexp(a.data, m)
    return _make(lse, (a,), "masked_row_logsumexp", lambda g: (g[:, None] * p,))


# -- gradient checking -----------------------------------------------------


def finite_diff_check(fn: Callable[[Tensor], Tensor | tuple[Tensor, ...]],
                      point: np.ndarray, step: float = 1e-5) -> float | tuple[float, ...]:
    """Max relative error between autodiff and central finite differences.

    `fn` must map a Tensor deterministically to a scalar Tensor or to a
    tuple of scalar Tensors.  Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|); the result is its max over
    coordinates, one float per output (a tuple for a tuple `fn`).  Each
    perturbed point is evaluated once for every output, and every output's
    gradient comes from one graph of `fn`, so the outputs must be distinct
    nodes: `backward` runs once per root.  Raises FloatingPointError when
    an output, an autodiff gradient or a finite difference is not finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)

    x = Tensor(point.copy(), requires_grad=True)
    outs = fn(x)
    single = not isinstance(outs, tuple)
    analytic = []
    for out in (outs,) if single else outs:
        if not np.all(np.isfinite(out.data)):
            raise FloatingPointError("fn produced non-finite output")
        x.grad = None
        out.backward(leaves=[x])
        if not np.all(np.isfinite(x.grad)):
            raise FloatingPointError("autodiff produced a non-finite gradient")
        analytic.append(x.grad.ravel())

    def values(flat_point: np.ndarray) -> np.ndarray:
        outs = fn(Tensor(flat_point.reshape(point.shape)))
        return np.array([o.item() for o in ((outs,) if single else outs)])

    flat = point.ravel()
    numeric = np.empty((len(analytic), flat.size))
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi = values(bumped)
        bumped[i] = flat[i] - step
        numeric[:, i] = (hi - values(bumped)) / (2.0 * step)
    if not np.all(np.isfinite(numeric)):
        raise FloatingPointError("finite differences produced non-finite values")
    errors = tuple(float(np.max(np.abs(a - num) / np.maximum(1.0, np.abs(num))))
                   for a, num in zip(analytic, numeric))
    return errors[0] if single else errors
