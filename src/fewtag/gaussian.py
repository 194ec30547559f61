"""Gaussian token embeddings and the divergence metrics used for training.

Each token is represented as a diagonal-covariance Gaussian (mu, sigma2)
produced by two projection heads over the encoder hidden state.  The
training metric is the symmetrized KL divergence; inference and the 1-shot
fine-tuning path use squared Euclidean distance instead.

Note on naming: the training divergence is the symmetrized KL,
0.5*(KL(p||q) + KL(q||p)), also known as the Jeffreys divergence.  It is
sometimes loosely called "Jensen-Shannon", but that is a different quantity;
the Jeffreys formula is what is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tensor
from .rngutil import init_tensor, make_rng

# Added to the softplus output so variances stay strictly positive.
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class GaussianEmbedding:
    """mu and diagonal variance, (l,) for one token or (n, l) for a batch;
    frozen, so the operand it caches stays its own."""

    mu: Tensor
    sigma2: Tensor

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape:
            raise ShapeError("gaussian_embedding", self.mu.shape, self.sigma2.shape)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    @cached_property
    def operand(self) -> Tensor:
        """This batch's sym-KL operand (`_operand`), built once and read by
        every distance from it.  The node holds mu and sigma2, not this
        embedding, so no reference cycle keeps a dropped graph alive."""
        return _operand(self.mu, self.sigma2)


def projection_shapes(d: int, l: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every projection-head tensor, in drawing order:
    one hidden layer of width d per head."""
    # no mu output bias: it would shift every mu by one vector, and sym-KL
    # and squared Euclidean distance read only differences of mu
    return {f"proj.{head}.{name}": shape for head in ("mu", "sigma")
            for name, shape in (("w1", (d, d)), ("w2", (d, l)), ("b1", (d,)), ("b2", (l,)))
            if (head, name) != ("mu", "b2")}


def init_projection_params(d: int, l: int, seed: int = 0) -> dict[str, Tensor]:
    """The tensors of `projection_shapes`, drawn in its order by
    `rngutil.init_tensor`; seeded."""
    rng = make_rng(seed, "projection_init")
    return {name: Tensor(init_tensor(rng, name, shape), requires_grad=True)
            for name, shape in projection_shapes(d, l).items()}


def _hidden(params: dict[str, Tensor], head: str, h: Tensor) -> Tensor:
    return ad.softplus(ad.linear(h, params[f"proj.{head}.w1"], params[f"proj.{head}.b1"]))


def project(params: dict[str, Tensor], h: Tensor) -> GaussianEmbedding:
    """Map hidden states (n, d) to Gaussian embeddings (n, l)."""
    mu = ad.matmul(_hidden(params, "mu", h), params["proj.mu.w2"])
    raw = ad.linear(_hidden(params, "sigma", h), params["proj.sigma.w2"], params["proj.sigma.b2"])
    sigma2 = ad.add(ad.softplus(raw), Tensor(np.full((), SIGMA_FLOOR)))
    return GaussianEmbedding(mu=mu, sigma2=sigma2)


def _check_valid(mu: Tensor, sigma2: Tensor) -> None:
    if np.any(sigma2.data <= 0):
        raise ValueError("gaussian embedding has non-positive variance")
    if not (np.all(np.isfinite(mu.data)) and np.all(np.isfinite(sigma2.data))):
        raise NumericError("gaussian embedding has non-finite components")


def kl(p: GaussianEmbedding, q: GaussianEmbedding) -> Tensor:
    """KL(N_p || N_q) for diagonal Gaussians, as a scalar graph node.

    Closed form per dimension:
      0.5 * [ log(s2_q / s2_p) + (s2_p + (mu_p - mu_q)^2) / s2_q - 1 ]
    """
    _check_valid(p.mu, p.sigma2)
    _check_valid(q.mu, q.sigma2)
    if p.mu.shape != q.mu.shape:
        raise ShapeError("kl", p.mu.shape, q.mu.shape)
    log_ratio = ad.log(q.sigma2) - ad.log(p.sigma2)
    quad = ad.mul(ad.add(p.sigma2, ad.square(p.mu - q.mu)), ad.reciprocal(q.sigma2))
    per_dim = log_ratio + quad - Tensor(np.ones(()))
    return ad.scale(ad.tsum(per_dim), 0.5)


def js(p: GaussianEmbedding, q: GaussianEmbedding) -> Tensor:
    """Symmetrized KL: 0.5 * (KL(p||q) + KL(q||p))."""
    return ad.scale(kl(p, q) + kl(q, p), 0.5)


def _operand(mu: Tensor, sigma2: Tensor) -> Tensor:
    """The (n, 4l + 2) operand H = [P, c | Q, 1] of a batch's sym-KL
    distances, as one node: two halves of width 2l + 1 with
    P = [s2 + mu^2, mu], Q = [1/s2, -2 mu/s2] and c = sum_d mu^2/s2, so that
    [P, c] [Q, 1]^T = P Q^T + c.  Its VJP computes 1/s2 and mu/s2 again
    from the inputs."""
    _check_valid(mu, sigma2)
    m, s2 = mu.data, sigma2.data
    l = m.shape[1]
    r = 1.0 / s2
    mr = m * r
    h = np.concatenate([s2 + m * m, m, (m * mr).sum(axis=1)[:, None], r, -2.0 * mr,
                        np.ones((len(m), 1))], axis=1)

    def vjp(g):
        m, r = mu.data, 1.0 / sigma2.data
        mr = m * r
        gp1, gp2, gc = g[:, :l], g[:, l:2 * l], g[:, 2 * l, None]
        gq1, gq2 = g[:, 2 * l + 1:3 * l + 1], g[:, 3 * l + 1:4 * l + 1]
        return (2.0 * m * gp1 + gp2 - 2.0 * r * gq2 + 2.0 * mr * gc,
                gp1 - r * (r * gq1 - 2.0 * mr * gq2) - mr * mr * gc)
    return ad._make(h, (mu, sigma2), "gaussian_operand", vjp)


def _swap(h: np.ndarray) -> np.ndarray:
    """[Q, 1 | P, c] from an operand [P, c | Q, 1]."""
    w = h.shape[1] // 2
    return np.concatenate([h[:, w:], h[:, :w]], axis=1)


def _segments(bounds, n_a: int, n_b: int, op: str):
    """The (rows of a, rows of b) slices of each segment that holds rows of
    a, and the rows of b per segment.  `bounds` rises, not necessarily
    strictly, from 0 to n_a, one entry more than there are segments S, and
    b holds w = n_b / S rows per segment, in segment order; None is one
    segment of all rows."""
    if bounds is None:
        return [(slice(0, n_a), slice(0, n_b))], n_b
    ta = np.asarray(bounds).tolist()
    n_segs = len(ta) - 1
    if (n_segs < 1 or ta[0] != 0 or ta[-1] != n_a or n_b % n_segs
            or any(lo > hi for lo, hi in zip(ta[:-1], ta[1:]))):
        raise ShapeError(op, (n_a, n_b), tuple(ta))
    w = n_b // n_segs
    return [(slice(lo, hi), slice(s * w, (s + 1) * w))
            for s, (lo, hi) in enumerate(zip(ta[:-1], ta[1:])) if hi > lo], w


def _block_vjp(segs, g, left, right):
    """Each segment's block g_s of g against both sides of its product
    left_s right_s^T: g_s right_s and g_s^T left_s, stacked in left's and
    right's rows, and the blocks' row and column sums.  A row of `right`
    in no segment with rows of `left` gets zeros."""
    g_left, g_right = np.empty_like(left), np.zeros_like(right)
    row_sums, col_sums = np.empty(len(left)), np.zeros(len(right))
    for sa, sb in segs:
        gs = g[sa]
        np.matmul(gs, right[sb], out=g_left[sa])
        np.matmul(gs.T, left[sa], out=g_right[sb])
        row_sums[sa] = gs.sum(axis=1)
        col_sums[sb] = gs.sum(axis=0)
    return g_left, g_right, row_sums, col_sums


def pairwise_symkl(a: GaussianEmbedding, b: GaussianEmbedding, bounds=None) -> Tensor:
    """(nA, w) matrix of symmetrized KL divergences between two batches, as one node.

    Per pair, d(p,q) = 0.25 * sum_d [ s2p/s2q + s2q/s2p
                                      + (mup-muq)^2 * (1/s2p + 1/s2q) ] - l/2,
    which expands over each batch's operand H = [P, c | Q, 1] (see
    `_operand`), with the offsets c folded into the product, into
      D = 0.25 * H_a swap(H_b)^T - l/2,   swap(H) = [Q, 1 | P, c].

    Without `bounds`, w = nB and every row of a meets every row of b.  With
    `bounds`, the row bounds of a's segments as `_segments` reads them, b
    holds w rows per segment and the matrix is block-diagonal: the rows of
    a in segment s meet only the w rows of b in segment s, and row i's
    column j holds its distance to the segment's j-th row of b.  Each
    segment takes one product and its VJP two; a row of b whose segment
    holds no row of a gets zero gradient.

    An embedding against itself (`a is b`) without bounds takes
    X = [P, c] [Q, 1]^T = P Q^T + c once and D = 0.25 (X + X^T) - l/2,
    which is exactly symmetric; its VJP is the one product
    swap(0.25 (g + g^T) H).  Each embedding builds its operand once
    (`GaussianEmbedding.operand`), and every distance from it reads it.
    """
    if a.dim != b.dim:
        raise ShapeError("pairwise_symkl", a.mu.shape, b.mu.shape)
    l = a.dim
    ha = a.operand
    if b is a and bounds is None:
        x = ha.data[:, :2 * l + 1] @ ha.data[:, 2 * l + 1:].T
        d = x + x.T
        prev = (ha,)

        def vjp(g):
            gs = g + g.T
            gs *= 0.25
            return (_swap(gs @ ha.data),)
    else:
        hb = b.operand
        segs, w = _segments(bounds, len(ha.data), len(hb.data), "pairwise_symkl")
        swapped = _swap(hb.data)
        d = np.empty((len(ha.data), w))
        for sa, sb in segs:
            np.matmul(ha.data[sa], swapped[sb].T, out=d[sa])
        prev = (ha, hb)

        def vjp(g):
            ga, gb, _, _ = _block_vjp(segs, 0.25 * g, ha.data, _swap(hb.data))
            return ga, _swap(gb)
    d *= 0.25
    d -= l / 2.0
    return ad._make(d, prev, "pairwise_symkl", vjp)


def pairwise_sq_euclidean(a: Tensor, b: Tensor, bounds=None) -> Tensor:
    """(nA, w) matrix of squared Euclidean distances between row vectors, as
    one node; w and the block-diagonal layout under `bounds` are as in
    `pairwise_symkl`."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[-1]:
        raise ShapeError("pairwise_sq_euclidean", a.shape, b.shape)
    x, y = a.data, b.data
    segs, w = _segments(bounds, len(x), len(y), "pairwise_sq_euclidean")
    xx, yy = np.square(x).sum(axis=1), np.square(y).sum(axis=1)
    d = np.empty((len(x), w))
    for sa, sb in segs:
        blk = d[sa]
        np.matmul(x[sa], y[sb].T, out=blk)
        blk *= -2.0
        blk += yy[sb]
        blk += xx[sa, None]

    def vjp(g):
        gx, gy, rows, cols = _block_vjp(segs, g, x, y)
        return 2.0 * (x * rows[:, None] - gx), 2.0 * (y * cols[:, None] - gy)
    return ad._make(d, (a, b), "pairwise_sq_euclidean", vjp)
