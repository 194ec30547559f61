"""What the VJPs of the large training nodes keep, and what that saves.

`dropout`, `softplus`, `layer_norm` and the sym-KL operand
(`gaussian._operand`) keep no array that can be rebuilt bit for bit from
their inputs, which the graph keeps anyway: their VJPs recompute it.
`pairwise_symkl` keeps nothing but its operands, which are its inputs.  The
tests below hold them to three things: the same bits as the formulas that
kept those arrays (kept here as oracles), closures without input-sized
float arrays, and a traced peak of one training step below what the kept
arrays cost.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewtag import autodiff as ad
from fewtag.autodiff import Tensor
from fewtag.data import LabelMap, LabelSet, Sentence, build_vocab
from fewtag.encoder import EncoderConfig, encode, init_encoder_params
from fewtag.gaussian import GaussianEmbedding, init_projection_params, pairwise_symkl
from fewtag.losses import LossConfig, build_batch_view, mixed_loss
from fewtag.prompt import assemble_input, build_label_prompt, pack
from fewtag.training import TrainConfig, train_source

# -- oracles: the formulas whose VJPs kept their intermediate arrays ------------


def oracle_dropout(x, rate, draws, g):
    factor = (draws >= rate).astype(x.dtype) / (1.0 - rate)
    return x * factor, g * factor


def oracle_softplus(x, g):
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), g * (np.where(x >= 0, 1.0, e) / (1.0 + e))


def oracle_layer_norm(x, gain, bias, g, eps=1e-5):
    n = x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) / n
    var = np.square(centred).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = centred * inv
    gy = g * gain
    gm = gy.sum(axis=-1, keepdims=True) / n
    gym = (gy * y).sum(axis=-1, keepdims=True) / n
    return y * gain + bias, (inv * (gy - gm - y * gym), (g * y).sum(axis=0), g.sum(axis=0))


def oracle_operand(mu, s2):
    r = 1.0 / s2
    mr = mu * r
    return np.concatenate([s2 + mu * mu, mu, (mu * mr).sum(axis=1)[:, None], r, -2.0 * mr,
                           np.ones((len(mu), 1))], axis=1)


def oracle_operand_vjp(mu, s2, g):
    """Gradients at mu and s2 from the one at [P, c | Q, 1], with 1/s2 and
    mu/s2 as the operand's forward pass had them."""
    l = mu.shape[1]
    r = 1.0 / s2
    mr = mu * r
    gp1, gp2, gc = g[:, :l], g[:, l:2 * l], g[:, 2 * l, None]
    gq1, gq2 = g[:, 2 * l + 1:3 * l + 1], g[:, 3 * l + 1:4 * l + 1]
    return (2.0 * mu * gp1 + gp2 - 2.0 * r * gq2 + 2.0 * mr * gc,
            gp1 - r * (r * gq1 - 2.0 * mr * gq2) - mr * mr * gc)


def oracle_swap(h):
    w = h.shape[1] // 2
    return np.concatenate([h[:, w:], h[:, :w]], axis=1)


def oracle_symkl(mua, s2a, mub, s2b, g):
    """Values and the gradients at (mua, s2a, mub, s2b); mub None for a against itself."""
    l = mua.shape[1]
    ha = oracle_operand(mua, s2a)
    if mub is None:
        x = ha[:, :2 * l + 1] @ ha[:, 2 * l + 1:].T
        d = x + x.T
        gs = g + g.T
        gs *= 0.25
        grads = oracle_operand_vjp(mua, s2a, oracle_swap(gs @ ha))
    else:
        qpb = oracle_swap(oracle_operand(mub, s2b))
        d = ha @ qpb.T
        g = 0.25 * g
        grads = (oracle_operand_vjp(mua, s2a, g @ qpb)
                 + oracle_operand_vjp(mub, s2b, oracle_swap(g.T @ ha)))
    d *= 0.25
    d -= l / 2.0
    return d, grads


# -- bit identity -----------------------------------------------------------------

# signed zeros and negative values drawn often, not left to chance
VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                   st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False))
VARIANCES = st.floats(1e-3, 20.0)
ROWS, COLS = st.integers(1, 6), st.integers(1, 5)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def forward_and_grads(op, inputs, g):
    """The op's value, and each input's gradient for output gradient g."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    out = op(*leaves)
    # tsum's gradient of ones times g is g, bit for bit, signed zeros included
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return out.data, [t.grad for t in leaves]


@st.composite
def matrix_pairs(draw, elements=VALUES):
    shape = (draw(ROWS), draw(COLS))
    return [draw(hnp.arrays(np.float64, shape, elements=elements)) for _ in range(2)]


@settings(max_examples=60, deadline=None)
@given(xg=matrix_pairs(), draws=st.data(),
       rate=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_max=True)))
def test_dropout_matches_the_float_factor_bit_for_bit(xg, draws, rate):
    x, g = xg
    u = draws.draw(hnp.arrays(np.float64, x.shape,
                              elements=st.one_of(st.just(0.0), st.just(rate),
                                                 st.floats(0.0, 1.0, exclude_max=True))))
    value, (grad,) = forward_and_grads(lambda a: ad.dropout(a, rate, u), [x], g)
    want_value, want_grad = oracle_dropout(x, rate, u, g)
    assert same_bits(value, want_value) and same_bits(grad, want_grad)


@settings(max_examples=60, deadline=None)
@given(xg=matrix_pairs(elements=st.one_of(VALUES, st.floats(-800.0, 800.0))))
def test_softplus_matches_the_kept_exponential_bit_for_bit(xg):
    x, g = xg
    value, (grad,) = forward_and_grads(ad.softplus, [x], g)
    want_value, want_grad = oracle_softplus(x, g)
    assert same_bits(value, want_value) and same_bits(grad, want_grad)


@settings(max_examples=60, deadline=None)
@given(xg=matrix_pairs(), data=st.data())
def test_layer_norm_matches_the_kept_normalized_rows_bit_for_bit(xg, data):
    x, g = xg
    gain, bias = (data.draw(hnp.arrays(np.float64, x.shape[1:], elements=VALUES))
                  for _ in range(2))
    value, grads = forward_and_grads(ad.layer_norm, [x, gain, bias], g)
    want_value, want_grads = oracle_layer_norm(x, gain, bias, g)
    assert same_bits(value, want_value)
    assert all(same_bits(a, b) for a, b in zip(grads, want_grads))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), self_pairs=st.booleans())
def test_pairwise_symkl_matches_the_kept_halves_bit_for_bit(data, self_pairs):
    l = data.draw(COLS)
    n_a, n_b = data.draw(ROWS), data.draw(ROWS)
    mua, mub = (data.draw(hnp.arrays(np.float64, (n, l), elements=VALUES)) for n in (n_a, n_b))
    s2a, s2b = (data.draw(hnp.arrays(np.float64, (n, l), elements=VARIANCES))
                for n in (n_a, n_b))
    if self_pairs:
        g = data.draw(hnp.arrays(np.float64, (n_a, n_a), elements=VALUES))

        def op(mu, s2):
            a = GaussianEmbedding(mu, s2)
            return pairwise_symkl(a, a)
        value, grads = forward_and_grads(op, [mua, s2a], g)
        want_value, want_grads = oracle_symkl(mua, s2a, None, None, g)
    else:
        g = data.draw(hnp.arrays(np.float64, (n_a, n_b), elements=VALUES))

        def op(mu_a, s2_a, mu_b, s2_b):
            return pairwise_symkl(GaussianEmbedding(mu_a, s2_a), GaussianEmbedding(mu_b, s2_b))
        value, grads = forward_and_grads(op, [mua, s2a, mub, s2b], g)
        want_value, want_grads = oracle_symkl(mua, s2a, mub, s2b, g)
    assert same_bits(value, want_value)
    assert len(grads) == len(want_grads)
    assert all(same_bits(a, b) for a, b in zip(grads, want_grads))


# -- closure state ------------------------------------------------------------------


def _train_graph():
    """The loss of one train-mode encode and mixed_loss over a small batch."""
    label_map = LabelMap({"A": "alpha", "B": "beta", "O": "other"})
    sents = [Sentence(("x", "y", "z", "w"), ("I-A", "O", "I-B", "O")),
             Sentence(("u", "v", "y"), ("I-A", "O", "I-B")),
             Sentence(("z", "x"), ("I-B", "I-A"))]
    vocab = build_vocab(sents, label_map=label_map)
    prompt = build_label_prompt(LabelSet(("A", "B")), label_map)
    packed = pack([assemble_input(s, prompt, vocab, max_len=16) for s in sents])
    config = EncoderConfig(vocab_size=vocab.size, d=8, n_layers=1, n_heads=2,
                           dropout=0.25, max_len=16, seed=5)
    hidden = encode(init_encoder_params(config), config, packed, rng=np.random.default_rng(6))
    batch = build_batch_view(hidden, packed, init_projection_params(d=8, l=4, seed=7))
    return mixed_loss(batch, LossConfig()).total


def _nodes(root: Tensor) -> list[Tensor]:
    seen, stack, nodes = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._prev)
    return nodes


def _held_arrays(node: Tensor) -> list[np.ndarray]:
    """The arrays a node's VJP closes over, also inside tuples and lists,
    other than its inputs' own .data."""
    inputs = {id(p.data) for p in node._prev}
    found, todo = [], [c.cell_contents for c in node._vjp.__closure__ or ()]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, np.ndarray) and id(x) not in inputs:
            found.append(x)
    return found


def test_vjps_of_the_training_graph_keep_nothing_they_can_rebuild():
    nodes = [t for t in _nodes(_train_graph()) if t._vjp is not None]
    by_op = {op: [t for t in nodes if t._op == op]
             for op in ("dropout", "softplus", "layer_norm", "gaussian_operand", "pairwise_symkl")}
    assert all(by_op.values()), {op: len(ts) for op, ts in by_op.items()}
    # both forms of the sym-KL node: the tokens against themselves, over their one
    # operand, and against the labels; the two operands are the only ones
    own, cross = sorted(by_op["pairwise_symkl"], key=lambda t: len(t._prev))
    assert own._prev == cross._prev[:1] and len(cross._prev) == 2
    assert {id(t) for t in by_op["gaussian_operand"]} == {id(t) for t in cross._prev}

    for t in by_op["dropout"]:
        held = _held_arrays(t)
        assert len(held) == 1 and held[0].dtype == bool and held[0].shape == t.shape
    for op in ("softplus", "layer_norm", "gaussian_operand", "pairwise_symkl"):
        for t in by_op[op]:
            rows = t._prev[0].shape[0]
            # at most one float per input row: layer_norm's 1/std
            assert all(x.size <= rows for x in _held_arrays(t)), (
                op, [x.shape for x in _held_arrays(t)])


# -- traced memory of one training step -------------------------------------------

# Traced peak (tracemalloc) of the step below: 22.08 MB with one sym-KL operand
# per embedding set in the graph, against 28.37 MB while dropout kept a float
# factor, softplus its exponential, layer_norm its normalized rows and
# pairwise_symkl its halves.  The bound adds a margin for allocator and
# numpy-version differences and stays under the latter.
STEP_PEAK_BOUND_MB = 25.0


def _step_corpus(n_sentences: int = 16, length: int = 20) -> list[Sentence]:
    rng = np.random.default_rng(0)
    sents = []
    for i in range(n_sentences):
        cls = "AB"[i % 2]
        tags = ["O"] * length
        for start in rng.choice(length - 2, size=2, replace=False):
            tags[start:start + 2] = [f"I-{cls}"] * 2
        tokens = [f"w{rng.integers(20)}" if t == "O" else f"{cls.lower()}{rng.integers(5)}"
                  for t in tags]
        sents.append(Sentence(tuple(tokens), tuple(tags)))
    return sents


def test_one_source_training_step_stays_under_its_traced_peak():
    sents = _step_corpus()
    label_map = LabelMap({"A": "type a", "B": "type b", "O": "other"})
    config = TrainConfig(batch_size=len(sents), lr=1e-3)
    tracemalloc.start()
    try:
        _, log = train_source(sents, LabelSet(("A", "B")), label_map, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 1
    assert peak / 2**20 < STEP_PEAK_BOUND_MB
