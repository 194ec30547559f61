"""Seed derivation: one root seed fans out into labeled, independent streams."""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, label: str) -> int:
    """Deterministically derive a component seed from a root seed and a label."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(root_seed: int, label: str) -> np.random.Generator:
    """Counter-based (Philox) generator for the given labeled stream."""
    return np.random.default_rng(np.random.Philox(derive_seed(root_seed, label)))


def init_tensor(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh parameter: uniform in +-1/sqrt(rows), rows its second-to-last
    axis, if it has two axes or more; else ones for a `norm_gain`, zeros for
    any other vector.  The one rule every model tensor is drawn by."""
    if len(shape) < 2:
        return np.ones(shape) if name.endswith("norm_gain") else np.zeros(shape)
    bound = 1.0 / np.sqrt(shape[-2])
    return rng.uniform(-bound, bound, size=shape)
