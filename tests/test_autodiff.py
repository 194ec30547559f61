import gc
import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewtag import autodiff as ad
from fewtag import gaussian as gs
from fewtag.autodiff import Tensor
from fewtag.data import LabelMap, LabelSet, Sentence, build_vocab
from fewtag.losses import LossConfig, build_batch_view, mixed_loss
from fewtag.prompt import assemble_input, build_label_prompt, pack


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_softplus_at_zero():
    out = ad.softplus(Tensor([0.0]))
    assert out.data[0] == pytest.approx(np.log(2.0), abs=1e-12)


@pytest.mark.parametrize("x", [800.0, -800.0, 40.0, -40.0, 0.0])
def test_softplus_stable_at_extremes(x):
    out = ad.softplus(Tensor([x]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, np.logaddexp(0.0, [x]), rtol=1e-15, atol=0)


def test_softplus_matches_logaddexp_and_sigmoid():
    x = Tensor(np.linspace(-50.0, 50.0, 2001), requires_grad=True)
    out = ad.softplus(x)
    np.testing.assert_allclose(out.data, np.logaddexp(0.0, x.data), rtol=1e-15, atol=0)
    ad.tsum(out).backward()
    np.testing.assert_allclose(x.grad, 1.0 / (1.0 + np.exp(-x.data)), rtol=1e-15, atol=0)


@pytest.mark.parametrize("indices", [[0, 2, 3], [1], [], [3, 0, 3, 1, 1], [2, 1]],
                         ids=["increasing", "single", "empty", "duplicates", "decreasing"])
def test_row_gather_gradient_equals_scatter_add(indices):
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    weights = rng.normal(size=(len(indices), 3))
    ad.tsum(ad.mul(ad.row_gather(a, indices), Tensor(weights))).backward(leaves=[a])
    want = np.zeros((4, 3))
    np.add.at(want, np.asarray(indices, dtype=np.intp), weights)
    np.testing.assert_array_equal(a.grad, want)


@st.composite
def gathers(draw):
    """A row count, a row shape, gather indices, and a gradient at the gathered
    rows whose entries include signed zeros."""
    rows = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(), (1,), (3,)]))
    idx = draw(st.lists(st.integers(0, rows - 1), max_size=12))
    n = len(idx) * math.prod(shape)
    entries = st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6)
    g = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=np.float64)
    return rows, shape, idx, g.reshape((len(idx),) + shape)


@settings(max_examples=300, deadline=None)
@given(gathers())
@example((4, (3,), [], np.zeros((0, 3))))                                    # empty
@example((4, (), [2, 1], np.array([-0.0, 1.0])))                             # decreasing
@example((4, (2,), [3, 0, 3, 1, 1], np.array([[-0.0, 1.0], [2.0, -0.0], [0.5, -0.0],
                                              [-0.0, -0.0], [-0.0, 0.0]])))  # duplicates
@example((4, (2,), [0, 2], np.array([[-0.0, 1.0], [0.0, -0.0]])))           # increasing
def test_row_gather_gradient_is_np_add_at_bit_for_bit(case):
    rows, shape, idx, g = case
    a = Tensor(np.ones((rows,) + shape), requires_grad=True)
    (got,) = ad.row_gather(a, idx)._vjp(g)
    want = np.zeros(a.shape)
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert got.dtype == np.float64 and got.shape == a.shape
    np.testing.assert_array_equal(got, want)
    if all(i < j for i, j in zip(idx, idx[1:])):
        # distinct rows are assigned, so a -0.0 stays as given
        assigned = np.zeros(a.shape)
        assigned[idx] = g
        assert got.tobytes() == assigned.tobytes()
    else:
        assert got.tobytes() == want.tobytes()


def test_make_on_inputs_that_need_no_gradient_keeps_no_graph():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    out = ad._make(a.data + b.data, (a, b), "add", lambda g: (g, g))
    assert out._prev == () and out._vjp is None and not out.requires_grad
    assert out._op == "add"
    np.testing.assert_array_equal(out.data, [4.0, 6.0])
    # one input that needs a gradient is enough to keep every input and the VJP
    w = Tensor([1.0, 1.0], requires_grad=True)

    def vjp(g):
        return g, g
    out = ad._make(a.data + w.data, (a, w), "add", vjp)
    assert out._prev == (a, w) and out._vjp is vjp and out.requires_grad


def test_a_constant_intermediate_is_freed_once_the_next_op_has_read_it():
    a, b = Tensor(np.arange(3.0)), Tensor(np.ones(3))
    mid = ad.mul(a, b)
    ref = weakref.ref(mid)
    out = ad.softplus(ad.add(mid, a))
    del mid
    assert ref() is None
    assert out._prev == () and out._vjp is None


def test_row_softmax_uniform():
    out = ad.row_softmax(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_sum_softplus():
    x = Tensor(np.zeros(4), requires_grad=True)
    ad.tsum(ad.softplus(x)).backward()
    np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.5, 0.5])


def test_backward_rejects_nonscalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.softplus(x).backward()


def test_backward_rejects_double_call():
    x = Tensor(2.0, requires_grad=True)
    y = ad.square(x)
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()


def test_backward_walks_a_graph_deeper_than_the_recursion_limit():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.scale(y, -1.0)
    ad.tsum(ad.scale(y, 3.0)).backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_layer_norm_of_rows_whose_sum_overflows_is_finite():
    rng = np.random.default_rng(24)
    a = Tensor(np.array([[1e308] * 8, [-1e308] * 8]), requires_grad=True)
    gain = Tensor(rng.normal(size=8), requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    out = ad.layer_norm(a, gain, bias)
    # a constant row centres to 0, so its output is the bias
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias.data, (2, 8)))
    ad.tsum(ad.mul(out, Tensor(rng.normal(size=(2, 8))))).backward()
    assert all(np.isfinite(t.grad).all() for t in (a, gain, bias))


def test_layer_norm_of_rows_whose_squares_overflow_is_exact():
    # the centred row's squares pass the float range from about 1.3e154 on
    a = Tensor(np.array([[1e160, -1e160, 1e160, -1e160], [1.0, -1.0, 1.0, -1.0]]),
               requires_grad=True)
    gain = Tensor(np.ones(4), requires_grad=True)
    bias = Tensor(np.zeros(4), requires_grad=True)
    out = ad.layer_norm(a, gain, bias)
    np.testing.assert_allclose(out.data[0], [1.0, -1.0, 1.0, -1.0], rtol=1e-15, atol=0)
    # the small row keeps the unscaled path: 1 / sqrt(1 + eps)
    np.testing.assert_array_equal(out.data[1], np.array([1.0, -1.0, 1.0, -1.0]) / np.sqrt(1.00001))
    ad.tsum(ad.mul(out, Tensor(np.arange(8.0).reshape(2, 4)))).backward()
    assert all(np.isfinite(t.grad).all() for t in (a, gain, bias))


def test_unconnected_leaf_gets_exact_zero_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    other = Tensor(np.ones(2), requires_grad=True)
    ad.tsum(ad.square(x)).backward(leaves=[x, other])
    np.testing.assert_array_equal(other.grad, np.zeros(2))


def test_two_layer_perceptron_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(5, 4))
    w2 = rng.normal(size=(4, 1))
    x0 = rng.normal(size=(3, 5))

    def loss(x):
        h = ad.softplus(ad.matmul(x, Tensor(w1)))
        return ad.tsum(ad.square(ad.matmul(h, Tensor(w2))))

    assert ad.finite_diff_check(loss, x0, step=1e-5) <= 1e-4


def test_finite_diff_linear_exact():
    err = ad.finite_diff_check(lambda x: ad.tsum(x), np.array([1.0, -2.0, 3.0]))
    assert err <= 1e-9


def test_finite_diff_quadratic():
    err = ad.finite_diff_check(lambda x: ad.tsum(ad.square(x)), np.array([1.0, 2.0]))
    assert err <= 1e-8


def test_finite_diff_single_output_gives_a_float():
    err = ad.finite_diff_check(lambda x: ad.tsum(ad.square(x)), np.array([1.0, 2.0]))
    assert type(err) is float


def test_finite_diff_tuple_outputs_give_the_errors_of_one_call_each():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(5, 4))
    x0 = rng.normal(size=(3, 5))
    fns = (lambda x: ad.tsum(ad.softplus(ad.matmul(x, Tensor(w)))),
           lambda x: ad.tsum(ad.square(ad.row_softmax(x))),
           lambda x: ad.tsum(ad.exp(x)))
    shared = ad.finite_diff_check(lambda x: tuple(f(x) for f in fns), x0)
    separate = tuple(ad.finite_diff_check(f, x0) for f in fns)
    assert shared == separate
    assert all(err > 0.0 for err in shared)  # the comparison is not vacuous


def _sum_with_vjp(x: Tensor, vjp_value: float) -> Tensor:
    """sum(x) as a node whose VJP gives every input `vjp_value` * g."""
    return ad._make(np.asarray(x.data.sum()), (x,), "sum_with_vjp",
                    lambda g: (np.full(x.shape, vjp_value * g),))


def test_finite_diff_a_wrong_gradient_shows_on_its_own_output_only():
    x0 = np.array([0.5, -1.0, 2.0])
    right, wrong = ad.finite_diff_check(
        lambda x: (ad.tsum(ad.square(x)), _sum_with_vjp(x, 2.0)), x0)
    assert right <= 1e-8
    assert wrong == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("multi", [False, True])
def test_finite_diff_rejects_a_non_finite_autodiff_gradient(multi):
    def fn(x):
        nan_grad = _sum_with_vjp(x, np.nan)
        return (ad.tsum(ad.square(x)), nan_grad) if multi else nan_grad

    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        ad.finite_diff_check(fn, np.array([1.0, 2.0]))


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_matmul_rejects_mismatched_batch_axes():
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))


def test_batched_matmul_and_transpose_act_per_batch_entry():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
    out = ad.matmul(Tensor(a), ad.transpose(ad.transpose(Tensor(b))))
    for i in range(3):
        np.testing.assert_allclose(out.data[i], a[i] @ b[i], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(ad.transpose(Tensor(a)).data[1], a[1].T)


def test_numeric_error_message_is_verbatim():
    assert str(ad.NumericError("x")) == "x"


def test_add_broadcast_leading_axes_only():
    out = ad.add(Tensor(np.ones((3, 2))), Tensor(np.ones(2)))
    assert out.shape == (3, 2)
    with pytest.raises(ad.ShapeError):
        ad.add(Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


def test_dropout_deterministic_for_fixed_seed():
    x = Tensor(np.ones((4, 4)))
    a = ad.dropout(x, 0.5, np.random.default_rng(np.random.Philox(7)).random(x.shape))
    b = ad.dropout(x, 0.5, np.random.default_rng(np.random.Philox(7)).random(x.shape))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, x.data)


def _rand_shape(rng, ndim=2, max_dim=4):
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(ndim))


def _weighted_sum(t):
    # distinct weight per entry, so a gradient routed to the wrong entry shows
    return ad.tsum(ad.mul(t, Tensor(np.linspace(0.5, 1.5, t.size).reshape(t.shape))))


def _fixed(shape, salt=0):
    # a constant operand determined by its shape and salt
    return Tensor(np.random.default_rng(zlib.crc32(repr((shape, salt)).encode())).normal(
        size=shape))


def _heads(d):
    return 2 if d % 2 == 0 else 1


def _segmented_attention(role):
    """Attention over the rows of x stacked on themselves and one more row,
    as three segments of unequal length (n, n + 1 and 2n + 1 rows), with x
    in the q, k or v slot."""
    def fn(x):
        n = len(x.data)
        stacked = ad.row_gather(x, [*range(n), *range(n), 0, *range(n), *range(n), n - 1])
        rows = stacked.shape[0]
        args = [_fixed(stacked.shape, 1), _fixed(stacked.shape, 2)]
        args.insert("qkv".index(role), stacked)
        return _weighted_sum(ad.attention(*args, _heads(x.shape[1]),
                                          [0, n, 2 * n + 1, rows]))
    return fn


PRIMITIVE_CASES = {
    "exp": lambda x: ad.tsum(ad.exp(x)),
    "log": lambda x: ad.tsum(ad.log(ad.add(ad.square(x), Tensor(np.ones(()) * 0.5)))),
    "softplus": lambda x: ad.tsum(ad.softplus(x)),
    "reciprocal": lambda x: ad.tsum(ad.reciprocal(ad.add(ad.square(x), Tensor(np.ones(()))))),
    "square": lambda x: ad.tsum(ad.square(x)),
    "scale": lambda x: ad.tsum(ad.scale(x, 1.7)),
    "mean_axis": lambda x: ad.tsum(ad.tmean(x, axis=0)),
    "sum_axis": lambda x: ad.tsum(ad.square(ad.tsum(x, axis=1))),
    "row_softmax": lambda x: ad.tsum(ad.square(ad.row_softmax(x))),
    "layer_norm": lambda x: _weighted_sum(ad.layer_norm(
        x, _fixed(x.shape[-1:], 1), _fixed(x.shape[-1:], 2))),
    "layer_norm_gain": lambda x: _weighted_sum(ad.layer_norm(
        _fixed((3, x.size)), ad.reshape(x, (-1,)), _fixed((x.size,)))),
    "layer_norm_bias": lambda x: _weighted_sum(ad.layer_norm(
        _fixed((3, x.size)), _fixed((x.size,)), ad.reshape(x, (-1,)))),
    "linear": lambda x: _weighted_sum(ad.linear(x, _fixed((x.shape[1], 3)), _fixed((3,)))),
    "linear_w": lambda x: _weighted_sum(ad.linear(_fixed((2, x.shape[0])), x,
                                                  _fixed(x.shape[1:]))),
    "linear_b": lambda x: _weighted_sum(ad.linear(_fixed((2, 3)), _fixed((3, x.size)),
                                                  ad.reshape(x, (-1,)))),
    "attention_q": lambda x: _weighted_sum(ad.attention(
        x, _fixed(x.shape, 1), _fixed(x.shape, 2), _heads(x.shape[1]), [0, len(x.data)])),
    "attention_k": lambda x: _weighted_sum(ad.attention(
        _fixed(x.shape, 1), x, _fixed(x.shape, 2), _heads(x.shape[1]), [0, len(x.data)])),
    "attention_v": lambda x: _weighted_sum(ad.attention(
        _fixed(x.shape, 1), _fixed(x.shape, 2), x, _heads(x.shape[1]), [0, len(x.data)])),
    **{f"attention_segments_{role}": _segmented_attention(role) for role in "qkv"},
    "transpose": lambda x: ad.tsum(ad.square(ad.transpose(x))),
    "matmul": lambda x: ad.tsum(ad.matmul(x, ad.transpose(x))),
    "matmul_batched": lambda x: _weighted_sum(ad.matmul(x, ad.transpose(x))),
    "transpose_batched": lambda x: _weighted_sum(ad.transpose(x)),
    "row_gather": lambda x: ad.tsum(ad.square(ad.row_gather(x, [0, 0, x.shape[0] - 1]))),
    "concat": lambda x: ad.tsum(ad.square(ad.concat([x, x]))),
    "masked_lse": lambda x: ad.tsum(ad.masked_row_logsumexp(
        x, np.ones(x.shape, dtype=bool))),
    "add_broadcast": lambda x: ad.tsum(ad.square(ad.add(x, Tensor(np.arange(x.shape[-1]) * 0.1)))),
    "mul_broadcast": lambda x: ad.tsum(ad.mul(x, Tensor(np.arange(x.shape[-1]) * 0.1 + 1.0))),
}


@pytest.mark.parametrize("name,fn", sorted(PRIMITIVE_CASES.items()))
def test_primitive_gradients_match_finite_differences(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        shape = _rand_shape(rng, ndim=3 if name.endswith("_batched") else 2)
        point = rng.normal(size=shape)
        assert ad.finite_diff_check(fn, point, step=1e-5) <= 1e-4


def test_forward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(np.random.Philox(3))
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        h = ad.dropout(ad.softplus(x), 0.1, rng.random(x.shape))
        return ad.tsum(ad.square(h)).item()

    assert run() == run()


def _numeric_grad(f, point, step=1e-6):
    """Central differences of the float-valued f at the array point."""
    grad = np.zeros_like(point)
    for i in np.ndindex(point.shape):
        hi, lo = point.copy(), point.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def _linear_case(rng):
    weights = rng.normal(size=(4, 2))
    return (lambda t: ad.tsum(ad.mul(ad.linear(*t), Tensor(weights))),
            [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)],
            [False, True, True])


def _symkl_case(rng):
    weights = rng.normal(size=(4, 5))
    return (lambda t: ad.tsum(ad.mul(gs.pairwise_symkl(gs.GaussianEmbedding(t[0], t[1]),
                                                       gs.GaussianEmbedding(t[2], t[3])),
                                     Tensor(weights))),
            [rng.normal(size=(4, 3)), rng.uniform(0.2, 3.0, size=(4, 3)),
             rng.normal(size=(5, 3)), rng.uniform(0.2, 3.0, size=(5, 3))],
            [True, True, False, False])


@pytest.mark.parametrize("case", [_linear_case, _symkl_case],
                         ids=["linear-constant-x", "pairwise_symkl-constant-b"])
def test_constant_inputs_get_no_grad_and_the_rest_match_finite_differences(case):
    fn, values, trainable = case(np.random.default_rng(21))
    leaves = [Tensor(v, requires_grad=r) for v, r in zip(values, trainable)]
    fn(leaves).backward()
    for i, (leaf, r) in enumerate(zip(leaves, trainable)):
        if not r:
            assert leaf.grad is None
            continue

        def at(v, i=i):
            return fn([Tensor(v if j == i else u) for j, u in enumerate(values)]).item()
        np.testing.assert_allclose(leaf.grad, _numeric_grad(at, values[i]), rtol=1e-6, atol=1e-8)


def _attention_graph(rng):
    """A root over linear, softplus and attention nodes, and its attention node."""
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = ad.linear(Tensor(rng.normal(size=(5, 3))), w, Tensor(np.zeros(4)))
    interior = ad.attention(h, h, ad.softplus(h), heads=2, bounds=[0, 2, 5])
    return ad.tsum(ad.square(interior)), interior


def _batch_view_graph(rng):
    """mixed_loss over a packed batch's view, and the sym-KL operand that its
    token embedding caches."""
    label_map = LabelMap({"A": "alpha", "O": "other"})
    sents = [Sentence(("x", "y", "z"), ("I-A", "O", "I-A")), Sentence(("y", "x"), ("O", "I-A"))]
    vocab = build_vocab(sents, label_map=label_map)
    prompt = build_label_prompt(LabelSet(("A",)), label_map)
    packed = pack([assemble_input(s, prompt, vocab, max_len=16) for s in sents])
    hidden = Tensor(rng.normal(size=(packed.n_occupied, 4)))
    batch = build_batch_view(hidden, packed, gs.init_projection_params(d=4, l=3, seed=1))
    return mixed_loss(batch, LossConfig()).total, batch.embeddings.operand


GRAPHS = {"attention": _attention_graph, "batch_view": _batch_view_graph}


@pytest.mark.parametrize("graph, run_backward",
                         [("attention", False), ("attention", True),
                          ("batch_view", False), ("batch_view", True)],
                         ids=["False", "True", "batch_view-False", "batch_view-True"])
def test_dropped_graph_is_freed_without_the_cycle_collector(graph, run_backward):
    gc.disable()
    try:
        root, interior = GRAPHS[graph](np.random.default_rng(22))
        if run_backward:
            root.backward()
        refs = [weakref.ref(root), weakref.ref(interior)]
        del root, interior
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_gradient_handed_to_two_inputs_is_not_written_into():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=3), requires_grad=True)
    y = Tensor(rng.normal(size=3), requires_grad=True)
    w = rng.normal(size=3)
    # add's VJP hands one buffer to x and y, and runs before square's, so
    # that buffer is x's first gradient when square's arrives
    s = ad.add(x, y)
    sq = ad.square(x)
    root = ad.tsum(ad.mul(ad.add(sq, s), Tensor(w)))
    root.backward()
    np.testing.assert_array_equal(y.grad, w)
    np.testing.assert_allclose(x.grad, w + 2.0 * x.data * w, rtol=1e-15)
    assert [t.grad for t in (s, sq, root)] == [None, None, None]
