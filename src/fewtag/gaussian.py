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

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tensor
from .rngutil import make_rng

# Added to the softplus output so variances stay strictly positive.
SIGMA_FLOOR = 1e-6


@dataclass
class GaussianEmbedding:
    """mu and diagonal variance, (l,) for one token or (n, l) for a batch."""

    mu: Tensor
    sigma2: Tensor

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape:
            raise ShapeError("gaussian_embedding", self.mu.shape, self.sigma2.shape)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def init_projection_params(d: int, l: int, seed: int = 0) -> dict[str, Tensor]:
    """One hidden layer of width d per head; weights scaled-uniform, biases zero."""
    rng = make_rng(seed, "projection_init")
    params: dict[str, Tensor] = {}
    for head in ("mu", "sigma"):
        for name, shape in ((f"proj.{head}.w1", (d, d)), (f"proj.{head}.w2", (d, l))):
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
        params[f"proj.{head}.b1"] = Tensor(np.zeros(d), requires_grad=True)
        params[f"proj.{head}.b2"] = Tensor(np.zeros(l), requires_grad=True)
    return params


def _head(params: dict[str, Tensor], head: str, h: Tensor) -> Tensor:
    hid = ad.softplus(ad.linear(h, params[f"proj.{head}.w1"], params[f"proj.{head}.b1"]))
    return ad.linear(hid, params[f"proj.{head}.w2"], params[f"proj.{head}.b2"])


def project(params: dict[str, Tensor], h: Tensor) -> GaussianEmbedding:
    """Map hidden states (n, d) to Gaussian embeddings (n, l)."""
    mu = _head(params, "mu", h)
    raw = _head(params, "sigma", h)
    sigma2 = ad.add(ad.softplus(raw), Tensor(np.full((), SIGMA_FLOOR)))
    return GaussianEmbedding(mu=mu, sigma2=sigma2)


def _check_valid(g: GaussianEmbedding) -> None:
    if np.any(g.sigma2.data <= 0):
        raise ValueError("gaussian embedding has non-positive variance")
    if not (np.all(np.isfinite(g.mu.data)) and np.all(np.isfinite(g.sigma2.data))):
        raise NumericError("gaussian embedding has non-finite components")


def kl(p: GaussianEmbedding, q: GaussianEmbedding) -> Tensor:
    """KL(N_p || N_q) for diagonal Gaussians, as a scalar graph node.

    Closed form per dimension:
      0.5 * [ log(s2_q / s2_p) + (s2_p + (mu_p - mu_q)^2) / s2_q - 1 ]
    """
    _check_valid(p)
    _check_valid(q)
    if p.mu.shape != q.mu.shape:
        raise ShapeError("kl", p.mu.shape, q.mu.shape)
    log_ratio = ad.log(q.sigma2) - ad.log(p.sigma2)
    quad = ad.mul(ad.add(p.sigma2, ad.square(p.mu - q.mu)), ad.reciprocal(q.sigma2))
    per_dim = log_ratio + quad - Tensor(np.ones(()))
    return ad.scale(ad.tsum(per_dim), 0.5)


def js(p: GaussianEmbedding, q: GaussianEmbedding) -> Tensor:
    """Symmetrized KL: 0.5 * (KL(p||q) + KL(q||p))."""
    return ad.scale(kl(p, q) + kl(q, p), 0.5)


def _halves(g: GaussianEmbedding):
    """[P, Q] = [s2 + mu^2, mu, 1/s2, -2 mu/s2], with mu, 1/s2 and mu/s2 for
    the offsets c and the vector-Jacobian product."""
    mu, s2 = g.mu.data, g.sigma2.data
    r = 1.0 / s2
    mr = mu * r
    return np.concatenate([s2 + mu * mu, mu, r, -2.0 * mr], axis=1), mu, r, mr


def _halves_and_offsets(g: GaussianEmbedding):
    """[P, Q] (see `_halves`) and c = sum_d mu^2/s2 of each row, which only
    the forward pass reads."""
    pq, mu, _, mr = _halves(g)
    return pq, (mu * mr).sum(axis=1)


def _swap_halves(pq: np.ndarray, l: int) -> np.ndarray:
    """[Q, P] from [P, Q], each half 2l columns wide."""
    return np.concatenate([pq[:, 2 * l:], pq[:, :2 * l]], axis=1)


def _halves_vjp(mu, r, mr, gp, gq, gc):
    """Gradients at mu and s2 from those at P, Q and c (see `_halves`)."""
    l = mu.shape[1]
    gp1, gp2, gq1, gq2, gc = gp[:, :l], gp[:, l:], gq[:, :l], gq[:, l:], gc[:, None]
    return (2.0 * mu * gp1 + gp2 - 2.0 * r * gq2 + 2.0 * mr * gc,
            gp1 - r * (r * gq1 - 2.0 * mr * gq2) - mr * mr * gc)


def _segments(bounds, n_a: int, n_b: int, op: str):
    """The (rows of a, rows of b) slices of each segment that holds rows of
    a, and the widest segment's row count in b.  `bounds` is a pair of
    sequences that rise, not necessarily strictly, from 0 to n_a and from 0
    to n_b, one entry more than there are segments; None is one segment of
    all rows."""
    if bounds is None:
        return [(slice(0, n_a), slice(0, n_b))], n_b
    ta, tb = (np.asarray(x).tolist() for x in bounds)
    if (len(ta) < 2 or len(tb) != len(ta) or ta[0] != 0 or tb[0] != 0
            or ta[-1] != n_a or tb[-1] != n_b
            or any(lo > hi for t in (ta, tb) for lo, hi in zip(t[:-1], t[1:]))):
        raise ShapeError(op, (n_a, n_b), tuple(ta), tuple(tb))
    segs = [(slice(alo, ahi), slice(blo, bhi))
            for alo, ahi, blo, bhi in zip(ta[:-1], ta[1:], tb[:-1], tb[1:]) if ahi > alo]
    return segs, max(hi - lo for lo, hi in zip(tb[:-1], tb[1:]))


def _block_vjp(segs, g, left, right):
    """Each segment's block g_s of g against both sides of its product
    left_s right_s^T: g_s right_s and g_s^T left_s, stacked in left's and
    right's rows, and the blocks' row and column sums.  A row of `right`
    in no segment with rows of `left` gets zeros."""
    g_left, g_right = np.empty_like(left), np.zeros_like(right)
    row_sums, col_sums = np.empty(len(left)), np.zeros(len(right))
    for sa, sb in segs:
        gs = g[sa, :sb.stop - sb.start]
        np.matmul(gs, right[sb], out=g_left[sa])
        np.matmul(gs.T, left[sa], out=g_right[sb])
        row_sums[sa] = gs.sum(axis=1)
        col_sums[sb] = gs.sum(axis=0)
    return g_left, g_right, row_sums, col_sums


def pairwise_symkl(a: GaussianEmbedding, b: GaussianEmbedding, bounds=None) -> Tensor:
    """(nA, w) matrix of symmetrized KL divergences between two batches, as one node.

    Per pair, d(p,q) = 0.25 * sum_d [ s2p/s2q + s2q/s2p
                                      + (mup-muq)^2 * (1/s2p + 1/s2q) ] - l/2,
    which expands over the halves P = [s2 + mu^2, mu] and Q = [1/s2, -2 mu/s2]
    of each batch, with c = sum_d mu^2/s2, into
      D = 0.25 * (P_a Q_b^T + Q_a P_b^T + c_a + c_b^T) - l/2.

    Without `bounds`, w = nB and every row of a meets every row of b.  With
    `bounds` = (bounds_a, bounds_b), as `_segments` reads them, the matrix
    is block-diagonal: the rows of a in segment s meet only the rows of b in
    segment s, row i's column j holds its distance to the segment's j-th
    row of b, w is the widest segment of b, and the columns past a
    segment's own width hold zero and take no gradient.  Each segment
    takes one product, [P_a, Q_a]_s @ [Q_b, P_b]_s^T, and its VJP two.

    An embedding against itself (`a is b`) without bounds takes X = P Q^T + c
    once and D from X + X^T, which is exactly symmetric; its vector-Jacobian
    product depends only on gs = g + g^T, and hands the same half of the
    gradient, from one product gs [P, Q], to both of the node's (mu, s2)
    input pairs.  The VJP computes the halves again from the inputs instead
    of keeping them.
    """
    _check_valid(a)
    if b is not a:
        _check_valid(b)
    if a.dim != b.dim:
        raise ShapeError("pairwise_symkl", a.mu.shape, b.mu.shape)
    l = a.dim
    pqa, ca = _halves_and_offsets(a)
    if b is a and bounds is None:
        x = pqa[:, :2 * l] @ pqa[:, 2 * l:].T
        x += ca[:, None]
        d = x + x.T
        d *= 0.25
        d -= l / 2.0

        def vjp(g):
            pqa, mua, ra, mra = _halves(a)
            gs = g + g.T
            gs *= 0.125  # 0.25 from D, halved between the two input pairs
            gpq = gs @ pqa  # [gs P, gs Q]: the gradients at Q and at P
            grads = _halves_vjp(mua, ra, mra, gpq[:, 2 * l:], gpq[:, :2 * l], gs.sum(axis=1))
            return grads + grads
    else:
        segs, w = _segments(bounds, len(pqa), len(b.mu.data), "pairwise_symkl")
        pqb, cb = _halves_and_offsets(b)
        qpb = _swap_halves(pqb, l)
        d = np.zeros((len(pqa), w))
        for sa, sb in segs:
            x = d[sa, :sb.stop - sb.start]
            np.matmul(pqa[sa], qpb[sb].T, out=x)
            x += ca[sa, None]
            x += cb[sb]
            x *= 0.25
            x -= l / 2.0

        def vjp(g):
            (pqa, mua, ra, mra), (pqb, mub, rb, mrb) = _halves(a), _halves(b)
            # the gradients at [P_a, Q_a] and at [Q_b, P_b]
            ga, gb, gca, gcb = _block_vjp(segs, 0.25 * g, pqa, _swap_halves(pqb, l))
            return (_halves_vjp(mua, ra, mra, ga[:, :2 * l], ga[:, 2 * l:], gca)
                    + _halves_vjp(mub, rb, mrb, gb[:, 2 * l:], gb[:, :2 * l], gcb))
    return ad._make(d, (a.mu, a.sigma2, b.mu, b.sigma2), "pairwise_symkl", vjp)


def pairwise_sq_euclidean(a: Tensor, b: Tensor, bounds=None) -> Tensor:
    """(nA, w) matrix of squared Euclidean distances between row vectors, as
    one node; w and the block-diagonal layout under `bounds` are as in
    `pairwise_symkl`."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[-1]:
        raise ShapeError("pairwise_sq_euclidean", a.shape, b.shape)
    x, y = a.data, b.data
    segs, w = _segments(bounds, len(x), len(y), "pairwise_sq_euclidean")
    xx, yy = np.square(x).sum(axis=1), np.square(y).sum(axis=1)
    d = np.zeros((len(x), w))
    for sa, sb in segs:
        blk = d[sa, :sb.stop - sb.start]
        np.matmul(x[sa], y[sb].T, out=blk)
        blk *= -2.0
        blk += yy[sb]
        blk += xx[sa, None]

    def vjp(g):
        gx, gy, rows, cols = _block_vjp(segs, g, x, y)
        return 2.0 * (x * rows[:, None] - gx), 2.0 * (y * cols[:, None] - gy)
    return ad._make(d, (a, b), "pairwise_sq_euclidean", vjp)
