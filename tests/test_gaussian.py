import numpy as np
import pytest
from scipy.integrate import quad

from fewtag import autodiff as ad
from fewtag import gaussian as gs
from fewtag.autodiff import Tensor
from fewtag.gaussian import GaussianEmbedding


def emb(mu, s2):
    return GaussianEmbedding(Tensor(np.atleast_1d(np.asarray(mu, dtype=float))),
                             Tensor(np.atleast_1d(np.asarray(s2, dtype=float))))


def kl_quad_oracle(mu_p, s2_p, mu_q, s2_q):
    """Numerical integration of the 1-D KL integrand, independent of the closed form."""
    def integrand(x):
        logp = -0.5 * np.log(2 * np.pi * s2_p) - (x - mu_p) ** 2 / (2 * s2_p)
        logq = -0.5 * np.log(2 * np.pi * s2_q) - (x - mu_q) ** 2 / (2 * s2_q)
        return np.exp(logp) * (logp - logq)
    lo = mu_p - 12 * np.sqrt(s2_p)
    hi = mu_p + 12 * np.sqrt(s2_p)
    val, _ = quad(integrand, lo, hi, limit=200)
    return val


def test_kl_identical_is_zero():
    p = emb([0.3, -1.2], [0.5, 2.0])
    q = emb([0.3, -1.2], [0.5, 2.0])
    assert gs.kl(p, q).item() <= 1e-12


def test_kl_unit_variance_mean_shift():
    # oracle-computed: KL(N(0,1) || N(1,1)) = 0.5
    val = gs.kl(emb(0.0, 1.0), emb(1.0, 1.0)).item()
    assert val == pytest.approx(0.5, abs=1e-12)
    assert val == pytest.approx(kl_quad_oracle(0.0, 1.0, 1.0, 1.0), abs=1e-9)


def test_kl_variance_ratio():
    # oracle-computed: KL(N(0,1) || N(0,4)) = 0.5*(log 4 - 3/4) ~ 0.318147
    val = gs.kl(emb(0.0, 1.0), emb(0.0, 4.0)).item()
    assert val == pytest.approx(0.5 * (np.log(4.0) - 0.75), abs=1e-12)
    assert val == pytest.approx(kl_quad_oracle(0.0, 1.0, 0.0, 4.0), abs=1e-9)


def test_kl_closed_form_matches_integration_grid():
    mus = np.linspace(-2.0, 2.0, 10)
    s2s = np.linspace(0.25, 4.0, 10)
    for mu_q in mus:
        for s2_q in s2s:
            closed = gs.kl(emb(0.4, 1.3), emb(mu_q, s2_q)).item()
            numeric = kl_quad_oracle(0.4, 1.3, mu_q, s2_q)
            assert closed == pytest.approx(numeric, abs=1e-3)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = emb(rng.normal(size=3), rng.uniform(0.1, 5.0, size=3))
        q = emb(rng.normal(size=3), rng.uniform(0.1, 5.0, size=3))
        assert gs.kl(p, q).item() >= 0.0


def test_kl_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        gs.kl(emb(0.0, -1.0), emb(0.0, 1.0))


def test_js_symmetric_exactly():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = emb(rng.normal(size=4), rng.uniform(0.2, 3.0, size=4))
        q = emb(rng.normal(size=4), rng.uniform(0.2, 3.0, size=4))
        assert gs.js(p, q).item() == gs.js(q, p).item()


def test_js_unit_shift_and_identity():
    assert gs.js(emb(0.0, 1.0), emb(1.0, 1.0)).item() == pytest.approx(0.5, abs=1e-12)
    p = emb([1.0, 2.0], [0.5, 0.7])
    assert gs.js(p, p).item() == 0.0


def test_kl_js_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for fn in (gs.kl, gs.js):
        for _ in range(10):
            other = emb(rng.normal(size=3), rng.uniform(0.3, 2.0, size=3))
            point = np.concatenate([rng.normal(size=3), rng.uniform(0.3, 2.0, size=3)])

            def loss(x):
                p = GaussianEmbedding(ad.row_gather(ad.reshape(x, (2, 3)), [0]),
                                      ad.square(ad.row_gather(ad.reshape(x, (2, 3)), [1])))
                p = GaussianEmbedding(ad.reshape(p.mu, (3,)), ad.reshape(p.sigma2, (3,)))
                return fn(p, other)

            assert ad.finite_diff_check(loss, point, step=1e-5) <= 1e-4


def test_pairwise_symkl_matches_per_pair():
    rng = np.random.default_rng(5)
    a = GaussianEmbedding(Tensor(rng.normal(size=(4, 3))),
                          Tensor(rng.uniform(0.2, 3.0, size=(4, 3))))
    b = GaussianEmbedding(Tensor(rng.normal(size=(5, 3))),
                          Tensor(rng.uniform(0.2, 3.0, size=(5, 3))))
    d = gs.pairwise_symkl(a, b).data
    for i in range(4):
        for j in range(5):
            pi = emb(a.mu.data[i], a.sigma2.data[i])
            qj = emb(b.mu.data[j], b.sigma2.data[j])
            assert d[i, j] == pytest.approx(gs.js(pi, qj).item(), rel=1e-9, abs=1e-9)


def test_pairwise_sq_euclidean_matches_per_pair():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(5, 3))
    d = gs.pairwise_sq_euclidean(Tensor(a), Tensor(b)).data
    for i in range(4):
        for j in range(5):
            assert d[i, j] == pytest.approx(np.sum((a[i] - b[j]) ** 2), abs=1e-9)


def test_project_variance_positive_and_zero_params():
    params = gs.init_projection_params(d=6, l=4, seed=0)
    rng = np.random.default_rng(7)
    out = gs.project(params, Tensor(rng.normal(size=(3, 6))))
    assert np.all(out.sigma2.data > 0)
    assert out.mu.shape == (3, 4)

    for name, t in params.items():
        t.data[...] = 0.0
    out = gs.project(params, Tensor(rng.normal(size=(1, 6))))
    np.testing.assert_allclose(out.mu.data, 0.0)
    np.testing.assert_allclose(out.sigma2.data, np.log(2.0) + gs.SIGMA_FLOOR, atol=1e-12)


def test_project_variance_floor_is_one_in_a_million():
    params = gs.init_projection_params(d=6, l=4, seed=0)
    params["proj.sigma.w2"].data[...] = 0.0
    params["proj.sigma.b2"].data[...] = -800.0  # softplus(-800) is exactly 0
    rng = np.random.default_rng(9)
    out = gs.project(params, Tensor(rng.normal(size=(3, 6))))
    np.testing.assert_array_equal(out.sigma2.data, np.full((3, 4), 1e-6))


def test_project_gradients_match_finite_differences():
    params = gs.init_projection_params(d=4, l=3, seed=1)
    rng = np.random.default_rng(8)
    point = rng.normal(size=(2, 4))

    def loss(x):
        g = gs.project(params, x)
        return ad.tsum(ad.square(g.mu)) + ad.tsum(ad.log(g.sigma2))

    assert ad.finite_diff_check(loss, point, step=1e-5) <= 1e-4


# -- fused pairwise kernels -----------------------------------------------------


def unfused_symkl(a, b):
    """The per-term expansion of the symmetrized KL, one autodiff node per op."""
    l = a.dim
    ra, rb = ad.reciprocal(a.sigma2), ad.reciprocal(b.sigma2)
    m2a, m2b = ad.square(a.mu), ad.square(b.mu)
    var_terms = ad.matmul(a.sigma2, ad.transpose(rb)) + ad.matmul(ra, ad.transpose(b.sigma2))
    cross_b = (ad.matmul(m2a, ad.transpose(rb))
               - ad.scale(ad.matmul(a.mu, ad.transpose(ad.mul(b.mu, rb))), 2.0)
               + ad.tsum(ad.mul(m2b, rb), axis=1))
    cross_a = (ad.matmul(ra, ad.transpose(m2b))
               - ad.scale(ad.matmul(ad.mul(a.mu, ra), ad.transpose(b.mu)), 2.0))
    cross_a = ad.transpose(ad.add(ad.transpose(cross_a), ad.tsum(ad.mul(m2a, ra), axis=1)))
    return ad.scale(var_terms + cross_a + cross_b, 0.25) - Tensor(np.full((), l / 2.0))


def unfused_sq_euclidean(a, b):
    with_b = ad.add(ad.scale(ad.matmul(a, ad.transpose(b)), -2.0), ad.tsum(ad.square(b), axis=1))
    return ad.transpose(ad.add(ad.transpose(with_b), ad.tsum(ad.square(a), axis=1)))


def random_parts(seed, n_a=4, n_b=5, l=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n_a, l)), rng.uniform(0.2, 3.0, size=(n_a, l)),
            rng.normal(size=(n_b, l)), rng.uniform(0.2, 3.0, size=(n_b, l))]


def weighted_symkl(parts, which, weights):
    """sum(weights * D) as a function of one of a.mu, a.sigma2, b.mu, b.sigma2."""
    def fn(x):
        t = [Tensor(p) for p in parts]
        t[which] = x
        return ad.tsum(ad.mul(gs.pairwise_symkl(GaussianEmbedding(t[0], t[1]),
                                                GaussianEmbedding(t[2], t[3])),
                              Tensor(weights)))
    return fn


@pytest.mark.parametrize("which", [0, 1, 2, 3], ids=["mu_a", "sigma2_a", "mu_b", "sigma2_b"])
def test_pairwise_symkl_gradients_match_finite_differences(which):
    parts = random_parts(9)
    weights = np.random.default_rng(10).normal(size=(4, 5))
    assert ad.finite_diff_check(weighted_symkl(parts, which, weights), parts[which]) <= 1e-6


@pytest.mark.parametrize("which", ["mu", "sigma2"])
def test_pairwise_symkl_of_an_embedding_with_itself_matches_finite_differences(which):
    rng = np.random.default_rng(11)
    mu, s2 = rng.normal(size=(4, 3)), rng.uniform(0.2, 3.0, size=(4, 3))
    weights = rng.normal(size=(4, 4))

    def fn(x):
        g = GaussianEmbedding(x, Tensor(s2)) if which == "mu" else GaussianEmbedding(Tensor(mu), x)
        return ad.tsum(ad.mul(gs.pairwise_symkl(g, g), Tensor(weights)))

    assert ad.finite_diff_check(fn, mu if which == "mu" else s2) <= 1e-6


@pytest.mark.parametrize("which", [0, 1, 2])
def test_pairwise_sq_euclidean_gradients_match_finite_differences(which):
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    weights = rng.normal(size=(4, 5) if which < 2 else (4, 4))

    def fn(x):
        if which == 0:
            d = gs.pairwise_sq_euclidean(x, Tensor(b))
        elif which == 1:
            d = gs.pairwise_sq_euclidean(Tensor(a), x)
        else:
            d = gs.pairwise_sq_euclidean(x, x)
        return ad.tsum(ad.mul(d, Tensor(weights)))

    assert ad.finite_diff_check(fn, b if which == 1 else a) <= 1e-6


def values_and_grads(pairwise, inputs, weights):
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    d = pairwise(leaves)
    ad.tsum(ad.mul(d, Tensor(weights))).backward(leaves=leaves)
    return d.data, [t.grad for t in leaves]


@pytest.mark.parametrize("self_pairs", [False, True])
def test_pairwise_symkl_agrees_with_unfused_expansion(self_pairs):
    parts = random_parts(13, n_a=6, n_b=7, l=5)
    inputs = parts[:2] if self_pairs else parts

    def embed(t):
        a = GaussianEmbedding(t[0], t[1])
        return (a, a) if self_pairs else (a, GaussianEmbedding(t[2], t[3]))

    weights = np.random.default_rng(14).normal(size=(6, 6 if self_pairs else 7))
    d, grads = values_and_grads(lambda t: gs.pairwise_symkl(*embed(t)), inputs, weights)
    d_ref, grads_ref = values_and_grads(lambda t: unfused_symkl(*embed(t)), inputs, weights)
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-12 * np.abs(d_ref).max())
    for g, g_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())


def test_pairwise_sq_euclidean_agrees_with_unfused_expansion():
    rng = np.random.default_rng(15)
    inputs = [rng.normal(size=(6, 5)), rng.normal(size=(7, 5))]
    weights = rng.normal(size=(6, 7))
    d, grads = values_and_grads(lambda t: gs.pairwise_sq_euclidean(*t), inputs, weights)
    d_ref, grads_ref = values_and_grads(lambda t: unfused_sq_euclidean(*t), inputs, weights)
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-12 * np.abs(d_ref).max())
    for g, g_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())


def test_pairwise_kernels_are_one_node_each(monkeypatch):
    made = []
    original = ad._make

    def counting(data, prev, op, vjp):
        made.append(op)
        return original(data, prev, op, vjp)

    parts = [Tensor(p, requires_grad=True) for p in random_parts(16)]
    a, b = GaussianEmbedding(parts[0], parts[1]), GaussianEmbedding(parts[2], parts[3])
    monkeypatch.setattr(ad, "_make", counting)
    cross = gs.pairwise_symkl(a, b)
    own = gs.pairwise_symkl(a, a)
    gs.pairwise_sq_euclidean(a.mu, b.mu)
    # each embedding's operand is made once, at its first sym-KL distance
    assert made == ["gaussian_operand", "gaussian_operand", "pairwise_symkl", "pairwise_symkl",
                    "pairwise_sq_euclidean"]
    assert cross._prev == (a.operand, b.operand) and own._prev == (a.operand,)
    assert a.operand.shape == (4, 4 * 3 + 2) and b.operand.shape == (5, 4 * 3 + 2)


def test_pairwise_symkl_rejects_invalid_inputs():
    good = emb([[0.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError, match="non-positive"):
        gs.pairwise_symkl(good, emb([[0.0, 1.0]], [[1.0, 0.0]]))
    with pytest.raises(ad.NumericError):
        gs.pairwise_symkl(emb([[np.nan, 1.0]], [[1.0, 1.0]]), good)
    with pytest.raises(ad.ShapeError):
        gs.pairwise_symkl(good, emb([[0.0]], [[1.0]]))


def test_pairwise_symkl_of_an_embedding_with_itself_is_symmetric_and_matches_two_copies():
    mu, s2 = random_parts(17, n_a=7, l=6)[:2]
    weights = np.random.default_rng(18).normal(size=(7, 7))
    leaves = [Tensor(mu, requires_grad=True), Tensor(s2, requires_grad=True)]
    a = GaussianEmbedding(*leaves)
    d = gs.pairwise_symkl(a, a)
    ad.tsum(ad.mul(d, Tensor(weights))).backward()
    np.testing.assert_array_equal(d.data, d.data.T)

    # the general path, on distinct tensors holding the same values
    copies = [Tensor(x.copy(), requires_grad=True) for x in (mu, s2, mu, s2)]
    d_ref = gs.pairwise_symkl(GaussianEmbedding(*copies[:2]), GaussianEmbedding(*copies[2:]))
    ad.tsum(ad.mul(d_ref, Tensor(weights))).backward()
    np.testing.assert_allclose(d.data, d_ref.data, rtol=0, atol=1e-12 * np.abs(d_ref.data).max())
    for leaf, ref_a, ref_b in zip(leaves, copies[:2], copies[2:]):
        want = ref_a.grad + ref_b.grad
        np.testing.assert_allclose(leaf.grad, want, rtol=0, atol=1e-12 * np.abs(want).max())


# -- per-segment blocks -----------------------------------------------------------

# (bounds of a, rows of b per segment): two_sentence_batch's sentences of 3
# and 2 tokens against 3 representatives each, and five segments holding 3,
# 2, 1, 0 and 3 rows of a against 2 rows of b each; the fourth is a sentence
# whose tokens O-subsampling dropped entirely
LAYOUTS = {"uneven": ([0, 3, 5], 3),
           "one_row_and_empty": ([0, 3, 5, 6, 6, 9], 2)}
KERNELS = {
    "symkl": (lambda t, bounds=None: gs.pairwise_symkl(GaussianEmbedding(t[0], t[1]),
                                                       GaussianEmbedding(t[2], t[3]), bounds),
              "pairwise_symkl"),
    "sqeuclid": (lambda t, bounds=None: gs.pairwise_sq_euclidean(t[0], t[2], bounds),
                 "pairwise_sq_euclidean"),
}


def layout_parts(layout, seed):
    ta, w = LAYOUTS[layout]
    return random_parts(seed, n_a=ta[-1], n_b=w * (len(ta) - 1), l=4)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("metric", KERNELS)
def test_segment_blocks_equal_the_full_matrix_own_entries(metric, layout):
    kernel, op = KERNELS[metric]
    ta, w = LAYOUTS[layout]
    parts = [Tensor(p) for p in layout_parts(layout, 19)]
    full = kernel(parts).data
    d = kernel(parts, ta)
    assert d._op == op and d.shape == (ta[-1], w)
    for s, (lo, hi) in enumerate(zip(ta[:-1], ta[1:])):
        # each block is its own BLAS product, so it rounds differently from the full one
        np.testing.assert_allclose(d.data[lo:hi], full[lo:hi, s * w:(s + 1) * w],
                                   rtol=0, atol=1e-13 * np.abs(full).max())


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("metric, which", [("symkl", 0), ("symkl", 1), ("symkl", 2),
                                           ("symkl", 3), ("sqeuclid", 0), ("sqeuclid", 2)],
                         ids=["symkl-mu_a", "symkl-sigma2_a", "symkl-mu_b", "symkl-sigma2_b",
                              "sqeuclid-a", "sqeuclid-b"])
def test_segment_blocks_gradients_match_finite_differences(metric, which, layout):
    kernel, _ = KERNELS[metric]
    ta, w = LAYOUTS[layout]
    parts = layout_parts(layout, 20)
    weights = np.random.default_rng(21).normal(size=(ta[-1], w))

    def fn(x):
        t = [Tensor(p) for p in parts]
        t[which] = x
        return ad.tsum(ad.mul(kernel(t, ta), Tensor(weights)))

    assert ad.finite_diff_check(fn, parts[which]) <= 1e-6


@pytest.mark.parametrize("metric", KERNELS)
def test_rows_of_b_in_a_segment_without_rows_of_a_get_exact_zero_gradients(metric):
    kernel, _ = KERNELS[metric]
    ta, w = LAYOUTS["one_row_and_empty"]
    leaves = [Tensor(p, requires_grad=True) for p in layout_parts("one_row_and_empty", 22)]
    d = kernel(leaves, ta)
    weights = np.random.default_rng(23).normal(size=d.shape)
    ad.tsum(ad.mul(d, Tensor(weights))).backward(leaves=leaves)
    # b's mu, and its sigma2 if the metric reads it
    for leaf in leaves[2:4 if metric == "symkl" else 3]:
        assert (leaf.grad[3 * w:4 * w] == 0).all()
        assert (leaf.grad[2 * w:3 * w] != 0).all() and (leaf.grad[4 * w:] != 0).all()


# against 9 rows of a and 10 of b; "unequal_counts" splits b into no equal blocks
@pytest.mark.parametrize("bounds", [[0, 3, 2, 6, 6, 9], [0, 3, 8], [0, 3, 6, 9], [1, 9], [9]],
                         ids=["decreasing", "short_of_a", "unequal_counts", "not_from_0",
                              "no_segment"])
@pytest.mark.parametrize("metric", KERNELS)
def test_segment_bounds_that_do_not_partition_the_rows_are_rejected(metric, bounds):
    kernel, _ = KERNELS[metric]
    parts = [Tensor(p) for p in layout_parts("one_row_and_empty", 24)]
    with pytest.raises(ad.ShapeError):
        kernel(parts, bounds)
