"""Finite-difference validation of every contrastive loss form.

Builds small random batches, routes them through the projection heads and
each loss, and compares autodiff gradients with central finite differences
taken with respect to the token hidden states.  One `finite_diff_check`
call per batch checks all five loss forms: each perturbed point is
projected once, and one `mixed_loss` gives the context-context and
context-label losses as well as their mixture.  Used by the command-line
`gradcheck` subcommand and by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, finite_diff_check
from .gaussian import GaussianEmbedding, init_projection_params, project
# context_context_loss and context_label_loss are not called here, but stay
# module globals: bench/tracer.py patches them in this module's namespace.
from .losses import (BatchView, LossConfig, anchor_loss_in, anchor_loss_out,  # noqa: F401
                     context_context_loss, context_label_loss, mixed_loss)
from .rngutil import make_rng

# central-difference step
STEP = 1e-5

CHECK_NAMES = ("anchor_original", "anchor_improved", "context_context",
               "context_label", "mixed")


@dataclass
class GradcheckReport:
    max_errors: dict[str, float]   # per loss form, max over all batches
    tolerance: float
    n_batches: int

    @property
    def max_rel_err(self) -> float:
        return max(self.max_errors.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def lines(self) -> list[str]:
        out = [f"{name}: max rel err {err:.3e}"
               for name, err in self.max_errors.items()]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict} max rel err {self.max_rel_err:.3e} "
                   f"(tolerance {self.tolerance:.0e}, {self.n_batches} batches)")
        return out


def _random_case(rng, d, classes):
    n = int(rng.integers(4, 9))
    tags = [f"I-{rng.choice(classes)}" if rng.random() < 0.7 else "O"
            for _ in range(n)]
    tags[1] = tags[0]  # anchor 0 always has a positive
    hidden = rng.normal(size=(n, d))
    rep_hidden = rng.normal(size=(len(classes) + 1, d))
    return hidden, tuple(tags), rep_hidden


def run_gradcheck(n_batches: int = 20, seed: int = 0, d: int = 16, l: int = 8,
                  tolerance: float = 1e-4) -> GradcheckReport:
    if n_batches < 1:
        raise ValueError(f"n_batches must be at least 1, got {n_batches}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    classes = ("A", "B", "C")
    class_order = classes + ("O",)
    ocl = LossConfig(loss_variant="ocl")
    icl = LossConfig(loss_variant="icl")
    max_errors = {name: 0.0 for name in CHECK_NAMES}

    for b in range(n_batches):
        rng = make_rng(seed, f"gradcheck_batch_{b}")
        hidden, tags, rep_hidden = _random_case(rng, d, classes)
        proj = init_projection_params(d=d, l=l, seed=seed + b)
        n = hidden.shape[0]
        view = None  # the last evaluation's: the next one reuses its masks and segments

        def losses(x: Tensor) -> tuple[Tensor, ...]:  # in CHECK_NAMES order
            nonlocal view
            e = project(proj, x)
            if view is None:
                # independent of x: projected once, as constants with no graph
                g = project(proj, Tensor(rep_hidden))
                reps = GaussianEmbedding(Tensor(g.mu.data), Tensor(g.sigma2.data))
                view = BatchView(embeddings=e, tags=tags, sentence_index=np.zeros(n, dtype=int),
                                 label_reps=reps,
                                 rep_sentence=np.zeros(len(class_order), dtype=int),
                                 rep_class=class_order)
            else:
                view = view.with_embeddings(e)
            m = mixed_loss(view, icl)
            return (anchor_loss_in(0, view, ocl), anchor_loss_out(0, view, icl),
                    m.context_context.value, m.context_label.value, m.total)

        errors = finite_diff_check(losses, hidden, step=STEP)
        for name, err in zip(CHECK_NAMES, errors):
            max_errors[name] = max(max_errors[name], err)

    return GradcheckReport(max_errors=max_errors, tolerance=tolerance,
                           n_batches=n_batches)
