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

DEFAULT_EMBED_DIM = 128


@dataclass
class GaussianEmbedding:
    """mu and diagonal variance; 1-d for a single token, 2-d for a batch."""

    mu: Tensor
    sigma2: Tensor

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape:
            raise ShapeError("gaussian_embedding", self.mu.shape, self.sigma2.shape)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def init_projection_params(d: int, l: int = DEFAULT_EMBED_DIM, hidden: int | None = None,
                           seed: int = 0) -> dict[str, Tensor]:
    """One hidden layer per head; weights scaled-uniform, biases zero."""
    hidden = hidden if hidden is not None else d
    rng = make_rng(seed, "projection_init")
    params: dict[str, Tensor] = {}
    for head in ("mu", "sigma"):
        for name, shape in ((f"proj.{head}.w1", (d, hidden)),
                            (f"proj.{head}.w2", (hidden, l))):
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
        params[f"proj.{head}.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
        params[f"proj.{head}.b2"] = Tensor(np.zeros(l), requires_grad=True)
    return params


def _head(params: dict[str, Tensor], head: str, h: Tensor) -> Tensor:
    hid = ad.softplus(ad.linear(h, params[f"proj.{head}.w1"], params[f"proj.{head}.b1"]))
    return ad.linear(hid, params[f"proj.{head}.w2"], params[f"proj.{head}.b2"])


def project(params: dict[str, Tensor], h: Tensor) -> GaussianEmbedding:
    """Map hidden states (n, d) to Gaussian embeddings (n, l)."""
    if h.data.ndim == 1:
        h = ad.reshape(h, (1, -1))
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


def sq_euclidean(a, b) -> float:
    """Squared Euclidean distance between two equal-length plain vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("sq_euclidean", a.shape, b.shape)
    return float(np.sum((a - b) ** 2))


def pairwise_symkl(a: GaussianEmbedding, b: GaussianEmbedding) -> Tensor:
    """(nA, nB) matrix of symmetrized KL divergences between two batches, as one node.

    Per pair, d(p,q) = 0.25 * sum_d [ s2p/s2q + s2q/s2p
                                      + (mup-muq)^2 * (1/s2p + 1/s2q) ] - l/2,
    which expands into one stacked product over 4l columns:
      D = 0.25 * ( [s2a + mua^2, 1/s2a, mua, mua/s2a]
                   @ [1/s2b, s2b + mub^2, -2 mub/s2b, -2 mub]^T
                   + c_a + c_b^T ) - l/2,   c = sum_d mu^2/s2.
    The vector-Jacobian product is two products of the same shapes; `a` and
    `b` may be the same embedding, whose tensors then receive both gradients.
    """
    _check_valid(a)
    _check_valid(b)
    if a.dim != b.dim:
        raise ShapeError("pairwise_symkl", a.mu.shape, b.mu.shape)
    l = a.dim
    mua, s2a, mub, s2b = a.mu.data, a.sigma2.data, b.mu.data, b.sigma2.data
    ra, rb = 1.0 / s2a, 1.0 / s2b
    mra, mrb = mua * ra, mub * rb
    left = np.concatenate([s2a + mua * mua, ra, mua, mra], axis=1)
    right = np.concatenate([rb, s2b + mub * mub, -2.0 * mrb, -2.0 * mub], axis=1)
    ca, cb = (mua * mra).sum(axis=1), (mub * mrb).sum(axis=1)
    total = left @ right.T
    total += ca[:, None]
    total += cb

    def vjp(g):
        g = 0.25 * g
        gl1, gl2, gl3, gl4 = np.split(g @ right, 4, axis=1)
        gr1, gr2, gr3, gr4 = np.split(g.T @ left, 4, axis=1)
        gca, gcb = g.sum(axis=1)[:, None], g.sum(axis=0)[:, None]
        return (2.0 * mua * gl1 + gl3 + ra * gl4 + 2.0 * mra * gca,
                gl1 - ra * (ra * gl2 + mra * gl4) - mra * mra * gca,
                2.0 * mub * gr2 - 2.0 * rb * gr3 - 2.0 * gr4 + 2.0 * mrb * gcb,
                gr2 - rb * (rb * gr1 - 2.0 * mrb * gr3) - mrb * mrb * gcb)
    return ad._make(0.25 * total - l / 2.0, (a.mu, a.sigma2, b.mu, b.sigma2), "pairwise_symkl",
                    vjp)


def pairwise_sq_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """(nA, nB) matrix of squared Euclidean distances between row vectors, as one node."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[-1]:
        raise ShapeError("pairwise_sq_euclidean", a.shape, b.shape)
    x, y = a.data, b.data
    d = -2.0 * (x @ y.T) + np.square(y).sum(axis=1) + np.square(x).sum(axis=1)[:, None]
    return ad._make(d, (a, b), "pairwise_sq_euclidean",
                    lambda g: (2.0 * (x * g.sum(axis=1)[:, None] - g @ y),
                               2.0 * (y * g.sum(axis=0)[:, None] - g.T @ x)))
