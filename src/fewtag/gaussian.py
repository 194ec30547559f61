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


def sq_euclidean(a, b):
    """Squared Euclidean distance between two equal-length vectors.

    Accepts Tensors (returns a scalar graph node) or plain arrays (returns
    a float).
    """
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        if a.shape != b.shape:
            raise ShapeError("sq_euclidean", a.shape, b.shape)
        return ad.tsum(ad.square(a - b))
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("sq_euclidean", a.shape, b.shape)
    return float(np.sum((a - b) ** 2))


def _col_broadcast_add(m: Tensor, v: Tensor) -> Tensor:
    # add a length-nA vector down the columns of an (nA, nB) matrix
    return ad.transpose(ad.add(ad.transpose(m), v))


def pairwise_symkl(a: GaussianEmbedding, b: GaussianEmbedding) -> Tensor:
    """(nA, nB) matrix of symmetrized KL divergences between two batches.

    Expanded so everything reduces to matrix products:
      d(p,q) = 0.25 * sum_d [ s2p/s2q + s2q/s2p
                              + (mup-muq)^2 * (1/s2p + 1/s2q) ] - l/2
    """
    _check_valid(a)
    _check_valid(b)
    if a.dim != b.dim:
        raise ShapeError("pairwise_symkl", a.mu.shape, b.mu.shape)
    l = a.dim
    ra, rb = ad.reciprocal(a.sigma2), ad.reciprocal(b.sigma2)
    m2a, m2b = ad.square(a.mu), ad.square(b.mu)

    var_terms = ad.matmul(a.sigma2, ad.transpose(rb)) + ad.matmul(ra, ad.transpose(b.sigma2))
    # sum_d (mup-muq)^2 / s2q
    cross_b = (ad.matmul(m2a, ad.transpose(rb))
               - ad.scale(ad.matmul(a.mu, ad.transpose(ad.mul(b.mu, rb))), 2.0)
               + ad.tsum(ad.mul(m2b, rb), axis=1))
    # sum_d (mup-muq)^2 / s2p
    cross_a = (ad.matmul(ra, ad.transpose(m2b))
               - ad.scale(ad.matmul(ad.mul(a.mu, ra), ad.transpose(b.mu)), 2.0))
    cross_a = _col_broadcast_add(cross_a, ad.tsum(ad.mul(m2a, ra), axis=1))

    total = ad.scale(var_terms + cross_a + cross_b, 0.25)
    return ad.add(total, Tensor(np.full((), -l / 2.0)))


def pairwise_sq_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """(nA, nB) matrix of squared Euclidean distances between row vectors."""
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError("pairwise_sq_euclidean", a.shape, b.shape)
    cross = ad.scale(ad.matmul(a, ad.transpose(b)), -2.0)
    with_b = ad.add(cross, ad.tsum(ad.square(b), axis=1))
    return _col_broadcast_add(with_b, ad.tsum(ad.square(a), axis=1))
