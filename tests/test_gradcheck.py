import numpy as np
import pytest

from fewtag import autodiff as ad
from fewtag import gradcheck
from fewtag.autodiff import Tensor
from fewtag.cli import main
from fewtag.gaussian import GaussianEmbedding, init_projection_params, project
from fewtag.losses import (BatchView, LossConfig, anchor_loss_in, anchor_loss_out,
                           context_context_loss, context_label_loss, mixed_loss)
from fewtag.rngutil import make_rng


def _separate_checks(n_batches, seed, d=16, l=8, step=gradcheck.STEP):
    """Max errors of `run_gradcheck`, one `finite_diff_check` call per loss form."""
    classes = ("A", "B", "C")
    class_order = classes + ("O",)
    ocl = LossConfig(loss_variant="ocl")
    icl = LossConfig(loss_variant="icl")
    max_errors = {name: 0.0 for name in gradcheck.CHECK_NAMES}
    for b in range(n_batches):
        rng = make_rng(seed, f"gradcheck_batch_{b}")
        hidden, tags, rep_hidden = gradcheck._random_case(rng, d, classes)
        proj = init_projection_params(d=d, l=l, seed=seed + b)
        g = project(proj, Tensor(rep_hidden))
        reps = GaussianEmbedding(Tensor(g.mu.data), Tensor(g.sigma2.data))

        def view(x):
            return BatchView(embeddings=project(proj, x), tags=tags,
                             bounds=np.array([0, len(tags)]),
                             label_reps=reps, rep_class=class_order)

        checks = {
            "anchor_original": lambda x: anchor_loss_in(0, view(x), ocl),
            "anchor_improved": lambda x: anchor_loss_out(0, view(x), icl),
            "context_context": lambda x: context_context_loss(view(x), icl).value,
            "context_label": lambda x: context_label_loss(view(x), icl).value,
            "mixed": lambda x: mixed_loss(view(x), icl).total,
        }
        for name, fn in checks.items():
            err = ad.finite_diff_check(fn, hidden, step=step)
            max_errors[name] = max(max_errors[name], err)
    return max_errors


def test_one_check_per_batch_gives_the_errors_of_five_separate_checks():
    report = gradcheck.run_gradcheck(n_batches=3, seed=0)
    assert report.max_errors == _separate_checks(n_batches=3, seed=0)
    assert all(err > 0.0 for err in report.max_errors.values())


def test_each_perturbed_point_is_projected_once(monkeypatch):
    points, projections = [], []
    real_check, real_project = gradcheck.finite_diff_check, gradcheck.project

    def recording_check(fn, point, **kwargs):
        points.append(point)
        return real_check(fn, point, **kwargs)

    def counting_project(params, x):
        projections.append(x.shape)
        return real_project(params, x)

    monkeypatch.setattr(gradcheck, "finite_diff_check", recording_check)
    monkeypatch.setattr(gradcheck, "project", counting_project)
    gradcheck.run_gradcheck(n_batches=1, seed=0)
    (point,) = points
    n, d = point.shape
    # 2*n*d perturbed points and the one graph every loss form's gradient
    # comes from, plus the label representatives, projected once per batch
    assert len(projections) == 2 * n * d + 1 + 1


@pytest.mark.parametrize("kwargs", [{"n_batches": 0}, {"n_batches": -1},
                                    {"tolerance": 0.0}, {"tolerance": -1e-4}])
def test_rejects_nothing_to_check_and_a_nonpositive_tolerance(kwargs):
    with pytest.raises(ValueError):
        gradcheck.run_gradcheck(**kwargs)


def _nan_gradient_anchor(p, batch, config):
    e = batch.embeddings.mu
    return ad._make(np.asarray(e.data.sum()), (e,), "nan_vjp",
                    lambda g: (np.full(e.shape, np.nan),))


def test_a_non_finite_loss_gradient_fails_the_check(monkeypatch):
    monkeypatch.setattr(gradcheck, "anchor_loss_in", _nan_gradient_anchor)
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        gradcheck.run_gradcheck(n_batches=1)


def test_cli_exit_codes_for_no_batches_and_a_non_finite_gradient(tmp_path, monkeypatch):
    assert main(["--out", str(tmp_path / "zero"), "gradcheck",
                 "--gradcheck-batches", "0"]) == 2
    monkeypatch.setattr(gradcheck, "anchor_loss_in", _nan_gradient_anchor)
    assert main(["--out", str(tmp_path / "nan"), "gradcheck",
                 "--gradcheck-batches", "1"]) == 4
