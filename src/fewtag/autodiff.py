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
        self._backward: Callable[[], None] = lambda: None
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
            self.grad = np.zeros_like(self.data)
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
            t._backward()
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
        def _bw():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.shape))
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _suffix_broadcastable(a.shape, b.shape):
        raise ShapeError("mul", a.shape, b.shape)
    out = _make(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.shape))
        out._backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = _make(a.data * c, (a,), "scale")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad * c)
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; any leading (batch) axes must match."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError("matmul", a.shape, b.shape)
    out = _make(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accumulate(out.grad @ b.data.swapaxes(-1, -2))
            if b.requires_grad:
                b._accumulate(a.data.swapaxes(-1, -2) @ out.grad)
        out._backward = _bw
    return out


def exp(a: Tensor) -> Tensor:
    out = _make(np.exp(a.data), (a,), "exp")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad * out.data)
        out._backward = _bw
    return out


def log(a: Tensor) -> Tensor:
    out = _make(np.log(a.data), (a,), "log")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad / a.data)
        out._backward = _bw
    return out


def softplus(a: Tensor) -> Tensor:
    out = _make(np.logaddexp(0.0, a.data), (a,), "softplus")
    if out.requires_grad:
        def _bw():
            sig = 1.0 / (1.0 + np.exp(-a.data))
            a._accumulate(out.grad * sig)
        out._backward = _bw
    return out


def reciprocal(a: Tensor) -> Tensor:
    out = _make(1.0 / a.data, (a,), "reciprocal")
    if out.requires_grad:
        def _bw():
            a._accumulate(-out.grad * out.data * out.data)
        out._backward = _bw
    return out


def square(a: Tensor) -> Tensor:
    out = _make(a.data * a.data, (a,), "square")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad * 2.0 * a.data)
        out._backward = _bw
    return out


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    out = _make(a.data.sum(axis=axis), (a,), "sum")
    if out.requires_grad:
        def _bw():
            g = out.grad
            if axis is None:
                a._accumulate(np.full_like(a.data, g))
            else:
                a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())
        out._backward = _bw
    return out


def tmean(a: Tensor, axis: Optional[int] = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def row_softmax(a: Tensor) -> Tensor:
    if a.data.ndim < 1:
        raise ShapeError("row_softmax", a.shape)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = _make(s, (a,), "row_softmax")
    if out.requires_grad:
        def _bw():
            g = out.grad
            dot = (g * s).sum(axis=-1, keepdims=True)
            a._accumulate(s * (g - dot))
        out._backward = _bw
    return out


def row_gather(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim < 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError("row_gather", a.shape, (int(idx.min(initial=0)), int(idx.max(initial=0))))
    out = _make(a.data[idx], (a,), "row_gather")
    if out.requires_grad:
        def _bw():
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            a._accumulate(g)
        out._backward = _bw
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat", ())
    out = _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), "concat")
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def _bw():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    sl = [slice(None)] * out.grad.ndim
                    sl[axis] = slice(lo, hi)
                    p._accumulate(out.grad[tuple(sl)])
        out._backward = _bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _make(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad.reshape(a.shape))
        out._backward = _bw
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = _make(a.data.swapaxes(-1, -2).copy(), (a,), "transpose")
    if out.requires_grad:
        def _bw():
            a._accumulate(out.grad.swapaxes(-1, -2))
        out._backward = _bw
    return out


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance (no affine)."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv
    out = _make(y, (a,), "layer_norm")
    if out.requires_grad:
        def _bw():
            g = out.grad
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * y).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (g - gm - y * gym))
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
        def _bw():
            a._accumulate(out.grad * factor)
        out._backward = _bw
    return out


def masked_row_logsumexp(a: Tensor, mask) -> Tensor:
    """Per-row log-sum-exp over the entries where `mask` is true.

    `mask` is a constant boolean array of the same shape; every row must
    select at least one entry.
    """
    m = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or m.shape != a.shape:
        raise ShapeError("masked_row_logsumexp", a.shape, m.shape)
    if not m.any(axis=-1).all():
        raise ValueError("masked_row_logsumexp: some row selects no entries")
    neg = np.where(m, a.data, -np.inf)
    shift = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - shift)
    lse = (shift + np.log(e.sum(axis=-1, keepdims=True)))[:, 0]
    out = _make(lse, (a,), "masked_row_logsumexp")
    if out.requires_grad:
        p = e / e.sum(axis=-1, keepdims=True)

        def _bw():
            a._accumulate(out.grad[:, None] * p)
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
