"""Dense-tensor engine with reverse-mode automatic differentiation.

Only the primitives the encoder, projection heads, and losses need are
implemented.  Buffers are float64 by default (gradient checks require it);
float32 can be requested per tensor for speed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# When enabled, every forward op asserts its output is finite.
_debug_checks = False


def set_debug_checks(flag: bool) -> None:
    global _debug_checks
    _debug_checks = bool(flag)


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's shape rule."""


class NumericError(RuntimeError):
    """Non-finite values where finite ones are required (loss, gradients)."""


class Tensor:
    """A dense array node in a dynamically built computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_backward", "_op", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 _prev: tuple = (), _op: str = "leaf"):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._prev = _prev
        # maps this node's gradient to its inputs' .grad; it holds the inputs
        # but not the node itself, so dropped graphs are freed without the
        # cycle collector
        self._backward: Optional[Callable[[np.ndarray], None]] = None
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
        if self.grad is None:
            # a copy: g may be another node's buffer, and later calls add in place
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self, leaves: Optional[Sequence["Tensor"]] = None) -> None:
        """Populate .grad on every requires_grad ancestor of this scalar root.

        `leaves`, when given, additionally receive an exact-zero grad if they
        do not influence the root at all.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this root; rebuild the graph first")
        self._backward_ran = True

        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(t: Tensor) -> None:
            if id(t) in visited:
                return
            visited.add(id(t))
            for p in t._prev:
                build(p)
            topo.append(t)

        build(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)
        if leaves is not None:
            for t in leaves:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __radd__(self, other):
        return add(_as_tensor(other, self), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other, self), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other, self), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return mul(self, reciprocal(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, prev: tuple, op: str) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op '{op}'")
    out = Tensor(data, requires_grad=any(p.requires_grad for p in prev),
                 dtype=data.dtype, _prev=prev, _op=op)
    return out


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
    out = _make(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _suffix_broadcastable(a.shape, b.shape):
        raise ShapeError("mul", a.shape, b.shape)
    out = _make(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        out._backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = _make(a.data * c, (a,), "scale")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * c)
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; any leading (batch) axes must match."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError("matmul", a.shape, b.shape)
    out = _make(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.swapaxes(-1, -2))
            if b.requires_grad:
                b._accumulate(a.data.swapaxes(-1, -2) @ g)
        out._backward = _bw
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = _make(e, (a,), "exp")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * e)
        out._backward = _bw
    return out


def log(a: Tensor) -> Tensor:
    out = _make(np.log(a.data), (a,), "log")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g / a.data)
        out._backward = _bw
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^a), as max(a, 0) + log1p(e^-|a|), which cannot overflow."""
    e = np.exp(-np.abs(a.data))
    out = _make(np.maximum(a.data, 0.0) + np.log1p(e), (a,), "softplus")
    if out.requires_grad:
        def _bw(g):
            # the sigmoid of a, from the same e^-|a|
            sig = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
            a._accumulate(g * sig)
        out._backward = _bw
    return out


def reciprocal(a: Tensor) -> Tensor:
    r = 1.0 / a.data
    out = _make(r, (a,), "reciprocal")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(-g * r * r)
        out._backward = _bw
    return out


def square(a: Tensor) -> Tensor:
    out = _make(a.data * a.data, (a,), "square")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * 2.0 * a.data)
        out._backward = _bw
    return out


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    out = _make(a.data.sum(axis=axis), (a,), "sum")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                          a.shape))
        out._backward = _bw
    return out


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
    out = _make(s, (a,), "row_softmax")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(_softmax_grad(s, g))
        out._backward = _bw
    return out


def row_gather(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim < 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError("row_gather", a.shape, (int(idx.min(initial=0)), int(idx.max(initial=0))))
    out = _make(a.data[idx], (a,), "row_gather")
    if out.requires_grad:
        # strictly increasing rows are distinct, so assignment scatters them
        # exactly as np.add.at would, and much faster
        distinct = idx.ndim == 1 and bool(np.all(idx[1:] > idx[:-1]))

        def _bw(g):
            full = np.zeros_like(a.data)
            if distinct:
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            a._accumulate(full)
        out._backward = _bw
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat", ())
    out = _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), "concat")
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def _bw(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    p._accumulate(g[tuple(sl)])
        out._backward = _bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _make(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g.reshape(a.shape))
        out._backward = _bw
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = _make(a.data.swapaxes(-1, -2).copy(), (a,), "transpose")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g.swapaxes(-1, -2))
        out._backward = _bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x (n, d_in), w (d_in, d_out) and b (d_out,), as one node."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    out = _make(x.data @ w.data + b.data, (x, w, b), "linear")
    if out.requires_grad:
        def _bw(g):
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
        out._backward = _bw
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean and unit variance, then
    scale by `gain` and shift by `bias` (both of the last axis's length)."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError("layer_norm", a.shape, gain.shape, bias.shape)
    # sums divided by n: np.mean and np.var's results, without their Python overhead
    n = a.shape[-1]
    centred = a.data - a.data.sum(axis=-1, keepdims=True) / n
    var = np.square(centred).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = centred * inv
    out = _make(y * gain.data + bias.data, (a, gain, bias), "layer_norm")
    if out.requires_grad:
        def _bw(g):
            lead = tuple(range(g.ndim - 1))
            if gain.requires_grad:
                gain._accumulate((g * y).sum(axis=lead))
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=lead))
            if a.requires_grad:
                gy = g * gain.data
                gm = gy.sum(axis=-1, keepdims=True) / n
                gym = (gy * y).sum(axis=-1, keepdims=True) / n
                a._accumulate(inv * (gy - gm - y * gym))
        out._backward = _bw
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled-dot-product self-attention, as one node.

    q, k and v are (L, d) projections; column block h of width d/heads is
    head h.  Each head's output is softmax(q_h k_h^T / sqrt(d/heads)) v_h,
    and the heads are concatenated back into (L, d).
    """
    if (q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape
            or heads < 1 or q.shape[1] % heads):
        raise ShapeError("attention", q.shape, k.shape, v.shape, heads)
    L, d = q.shape
    dh = d // heads

    def split(m: np.ndarray) -> np.ndarray:  # (L, d) -> (heads, L, dh)
        return m.reshape(L, heads, dh).swapaxes(0, 1)

    def merge(m: np.ndarray) -> np.ndarray:  # (heads, L, dh) -> (L, d)
        return m.swapaxes(0, 1).reshape(L, d)

    c = 1.0 / np.sqrt(dh)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= c
    p = _softmax(scores)  # (heads, L, L)
    out = _make(merge(p @ vh), (q, k, v), "attention")
    if out.requires_grad:
        def _bw(g):
            gh = split(g)
            ds = _softmax_grad(p, gh @ vh.swapaxes(-1, -2)) * c
            if q.requires_grad:
                q._accumulate(merge(ds @ kh))
            if k.requires_grad:
                k._accumulate(merge(ds.swapaxes(-1, -2) @ qh))
            if v.requires_grad:
                v._accumulate(merge(p.swapaxes(-1, -2) @ gh))
        out._backward = _bw
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    factor = keep / (1.0 - rate)
    out = _make(a.data * factor, (a,), "dropout")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * factor)
        out._backward = _bw
    return out


def _masked_logsumexp(a: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-sum-exp of the (n, m) array `a` over the entries where the
    boolean `mask` is true, and the masked row softmax, which is its gradient."""
    if not mask.any(axis=-1).all():
        raise ValueError("masked_row_logsumexp: some row selects no entries")
    neg = np.where(mask, a, -np.inf)
    shift = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - shift)
    total = e.sum(axis=-1, keepdims=True)
    return (shift + np.log(total))[:, 0], e / total


def masked_row_logsumexp(a: Tensor, mask) -> Tensor:
    """Per-row log-sum-exp over the entries where `mask` is true.

    `mask` is a constant boolean array of the same shape; every row must
    select at least one entry.
    """
    m = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or m.shape != a.shape:
        raise ShapeError("masked_row_logsumexp", a.shape, m.shape)
    lse, p = _masked_logsumexp(a.data, m)
    out = _make(lse, (a,), "masked_row_logsumexp")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g[:, None] * p)
        out._backward = _bw
    return out


# -- gradient checking -----------------------------------------------------


def finite_diff_check(fn: Callable[[Tensor], Tensor], point: np.ndarray,
                      step: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    `fn` must map a Tensor to a scalar Tensor deterministically.  Relative
    error per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)

    x = Tensor(point.copy(), requires_grad=True)
    out = fn(x)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("fn produced non-finite output")
    out.backward(leaves=[x])
    analytic = x.grad.ravel()

    flat = point.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi = fn(Tensor(bumped.reshape(point.shape))).item()
        bumped[i] = flat[i] - step
        lo = fn(Tensor(bumped.reshape(point.shape))).item()
        numeric[i] = (hi - lo) / (2.0 * step)
    if not np.all(np.isfinite(numeric)):
        raise FloatingPointError("finite differences produced non-finite values")
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))
