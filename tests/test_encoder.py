import dataclasses

import numpy as np
import pytest

from fewtag import autodiff as ad
from fewtag import encoder as enc
from fewtag.autodiff import Tensor
from fewtag.data import LabelMap, LabelSet, Sentence, build_vocab
from fewtag.prompt import assemble_input, build_label_prompt, pack
from fewtag.rngutil import make_rng


LM = LabelMap({"person": "person", "O": "other"})


def small_setup(max_len=16, d=8, n_layers=1, n_heads=2, dropout=0.0, seed=0):
    sent = Sentence(("alice", "went", "home"), ("I-person", "O", "O"))
    vocab = build_vocab([sent], label_map=LM)
    prompt = build_label_prompt(LabelSet(("person",)), LM)
    seq = pack([assemble_input(sent, prompt, vocab, max_len=max_len)])
    config = enc.EncoderConfig(vocab_size=vocab.size, d=d, n_layers=n_layers,
                               n_heads=n_heads, dropout=dropout, max_len=max_len,
                               seed=seed)
    return seq, config, vocab


def test_init_deterministic_and_shapes():
    _, config, vocab = small_setup()
    a = enc.init_encoder_params(config)
    b = enc.init_encoder_params(config)
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert a["emb.token"].shape == (vocab.size, config.d)
    np.testing.assert_array_equal(a["emb.norm_gain"].data, np.ones(config.d))
    np.testing.assert_array_equal(a["layer0.ff.bias1"].data, 0.0)
    assert a["layer0.attn.q.w"].shape == (config.d, config.d)
    assert a["layer0.attn.v.bias"].shape == (config.d,)


def test_fused_attention_init_equals_concatenated_per_head_draws():
    # re-derive the draws head by head in the documented stream order
    _, config, vocab = small_setup(n_layers=2, n_heads=4)
    params = enc.init_encoder_params(config)
    rng = make_rng(config.seed, "encoder_init")

    def draw(rows, cols):
        bound = 1.0 / np.sqrt(rows)
        return rng.uniform(-bound, bound, size=(rows, cols))

    d = config.d
    np.testing.assert_array_equal(params["emb.token"].data, draw(vocab.size, d))
    np.testing.assert_array_equal(params["emb.pos"].data, draw(config.max_len, d))
    for i in range(config.n_layers):
        heads = [{kind: draw(d, config.head_dim) for kind in "qkv"}
                 for _ in range(config.n_heads)]
        for kind in "qkv":
            np.testing.assert_array_equal(params[f"layer{i}.attn.{kind}.w"].data,
                                          np.concatenate([h[kind] for h in heads], axis=1))
        np.testing.assert_array_equal(params[f"layer{i}.attn.out.w"].data, draw(d, d))
        np.testing.assert_array_equal(params[f"layer{i}.ff.w1"].data, draw(d, config.ff))
        np.testing.assert_array_equal(params[f"layer{i}.ff.w2"].data, draw(config.ff, d))


def test_config_validation():
    with pytest.raises(ValueError):
        enc.EncoderConfig(vocab_size=10, d=10, n_heads=4)
    with pytest.raises(ValueError):
        enc.EncoderConfig(vocab_size=10, dropout=1.0)


def test_output_shape_and_eval_determinism():
    seq, config, _ = small_setup()
    params = enc.init_encoder_params(config)
    h1 = enc.encode(params, config, seq)
    h2 = enc.encode(params, config, seq)
    assert h1.shape == (seq.n_occupied, config.d)
    np.testing.assert_array_equal(h1.data, h2.data)


def test_id_out_of_range_rejected():
    seq, config, _ = small_setup()
    bad = seq.token_ids.copy()
    bad[0] = config.vocab_size + 5
    seq2 = dataclasses.replace(seq, token_ids=bad)
    with pytest.raises(ValueError):
        enc.encode(enc.init_encoder_params(config), config, seq2)


def test_train_mode_dropout_reproducible_per_seed():
    seq, config, _ = small_setup(dropout=0.2)
    params = enc.init_encoder_params(config)
    a = enc.encode(params, config, seq, rng=make_rng(0, "drop"))
    b = enc.encode(params, config, seq, rng=make_rng(0, "drop"))
    c = enc.encode(params, config, seq, rng=make_rng(1, "drop"))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_embedding_gradient_matches_finite_differences():
    seq, config, _ = small_setup(max_len=12, d=4, n_layers=1, n_heads=2)
    params = enc.init_encoder_params(config)
    emb_shape = params["emb.token"].shape

    def loss(x):
        trial = dict(params)
        trial["emb.token"] = x
        h = enc.encode(trial, config, seq)
        return ad.tsum(ad.square(h))

    err = ad.finite_diff_check(loss, params["emb.token"].data.copy(), step=1e-5)
    assert err <= 1e-4


def test_full_stack_gradient_matches_finite_differences():
    # perturb a mid-stack weight so gradients flow through all layers
    seq, config, _ = small_setup(max_len=12, d=4, n_layers=2, n_heads=2)
    params = enc.init_encoder_params(config)

    def loss(x):
        trial = dict(params)
        trial["layer0.ff.w1"] = x
        h = enc.encode(trial, config, seq)
        return ad.tsum(ad.square(h))

    err = ad.finite_diff_check(loss, params["layer0.ff.w1"].data.copy(), step=1e-5)
    assert err <= 1e-4


def _reference_norm(x, gain, bias, eps=1e-5):
    # x @ avg holds each row's mean in every column
    d = x.shape[-1]
    avg = Tensor(np.full((d, d), 1.0 / d))
    centred = ad.add(x, ad.scale(ad.matmul(x, avg), -1.0))
    var = ad.matmul(ad.square(centred), avg)
    inv_std = ad.exp(ad.scale(ad.log(ad.add(var, Tensor(np.full((), eps)))), -0.5))
    return ad.add(ad.mul(ad.mul(centred, inv_std), gain), bias)


def _reference_encode(params, config, seq, rng=None):
    """`encode` built from unfused primitives: one graph node per matmul,
    bias add, transpose, reshape and softmax, heads viewed as (H, dh, L)."""
    def drop(x):
        return x if draws is None else ad.dropout(x, config.dropout, next(draws))

    def dense(x, w, b):
        return ad.add(ad.matmul(x, params[w]), params[b])

    def norm(x, prefix):
        return _reference_norm(x, params[f"{prefix}.norm_gain"], params[f"{prefix}.norm_bias"])

    ids = seq.token_ids
    L, d, H, dh = len(ids), config.d, config.n_heads, config.head_dim
    draws = iter(rng.random((L, d)) for _ in range(1 + 2 * config.n_layers)) if rng else None
    x = ad.add(ad.row_gather(params["emb.token"], ids),
               ad.row_gather(params["emb.pos"], np.arange(L)))
    x = drop(norm(x, "emb"))
    for i in range(config.n_layers):
        p = f"layer{i}"
        q, k, v = (ad.reshape(ad.transpose(dense(x, f"{p}.attn.{kind}.w",
                                                 f"{p}.attn.{kind}.bias")), (H, dh, L))
                   for kind in "qkv")
        scores = ad.scale(ad.matmul(ad.transpose(q), k), 1.0 / np.sqrt(dh))
        mixed = ad.matmul(v, ad.transpose(ad.row_softmax(scores)))
        attn = ad.add(ad.matmul(ad.transpose(ad.reshape(mixed, (d, L))),
                                params[f"{p}.attn.out.w"]), params[f"{p}.attn.out.bias"])
        x = norm(ad.add(x, drop(attn)), f"{p}.attn")
        hid = ad.softplus(dense(x, f"{p}.ff.w1", f"{p}.ff.bias1"))
        x = norm(ad.add(x, drop(dense(hid, f"{p}.ff.w2", f"{p}.ff.bias2"))), f"{p}.ff")
    return x


def _perturbed_params(config):
    # non-trivial norms and biases, so every fused backward term is exercised
    rng = np.random.default_rng(5)
    return {name: Tensor(t.data + 0.1 * rng.normal(size=t.shape), requires_grad=True)
            for name, t in enc.init_encoder_params(config).items()}


@pytest.mark.parametrize("train_mode", [False, True])
def test_fused_encode_matches_unfused_reference(train_mode):
    seq, config, _ = small_setup(d=8, n_layers=2, n_heads=2, dropout=0.1)
    results = []
    for fn in (enc.encode, _reference_encode):
        params = _perturbed_params(config)
        h = fn(params, config, seq, rng=make_rng(3, "drop") if train_mode else None)
        weights = Tensor(np.linspace(-1.0, 1.0, h.size).reshape(h.shape))
        ad.tsum(ad.mul(h, weights)).backward(leaves=list(params.values()))
        results.append((h.data, {name: t.grad for name, t in params.items()}))
    (h, grads), (h_ref, grads_ref) = results
    np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
    scale = max(np.abs(g).max() for g in grads_ref.values())
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0, atol=1e-12 * scale,
                                   err_msg=name)


def test_eval_encode_builds_one_node_per_fused_block(monkeypatch):
    seq, config, _ = small_setup(n_layers=2)
    params = enc.init_encoder_params(config)
    made = []
    original = ad._make

    def counting(data, prev, op, vjp):
        made.append(op)
        return original(data, prev, op, vjp)

    monkeypatch.setattr(ad, "_make", counting)
    enc.encode(params, config, seq)
    # 2 gathers, 1 add and 1 norm, then per layer 5 linears, 1 attention,
    # 1 softplus, 2 residual adds and 2 norms
    assert len(made) == 4 + 12 * config.n_layers


def packed_setup(n_sentences, d=8, n_layers=2, n_heads=2, dropout=0.1):
    """Sequences of 1 to 7 context tokens under one prompt, and their config."""
    words = ("alice", "went", "home", "bob", "stayed", "there", "today")
    sents = [Sentence(words[:1 + i % 7], ("I-person",) + ("O",) * (i % 7))
             for i in range(n_sentences)]
    vocab = build_vocab(sents, label_map=LM)
    prompt = build_label_prompt(LabelSet(("person",)), LM)
    seqs = [assemble_input(s, prompt, vocab, max_len=16) for s in sents]
    config = enc.EncoderConfig(vocab_size=vocab.size, d=d, n_layers=n_layers,
                               n_heads=n_heads, dropout=dropout, max_len=16)
    return seqs, config


def test_packed_eval_encode_equals_packs_of_one_bit_for_bit():
    seqs, config = packed_setup(9)
    params = _perturbed_params(config)
    packed = enc.encode(params, config, pack(seqs))
    one_by_one = [enc.encode(params, config, pack([s])).data for s in seqs]
    np.testing.assert_array_equal(packed.data, np.concatenate(one_by_one))


def test_packed_attention_stays_within_each_sequence():
    seqs, config = packed_setup(3, dropout=0.0)
    params = enc.init_encoder_params(config)
    changed = dataclasses.replace(seqs[0], token_ids=np.roll(seqs[0].token_ids, 1))
    a = enc.encode(params, config, pack(seqs)).data
    b = enc.encode(params, config, pack([changed] + seqs[1:])).data
    first = seqs[0].n_occupied
    assert not np.array_equal(a[:first], b[:first])
    np.testing.assert_array_equal(a[first:], b[first:])


def test_train_encode_builds_as_many_nodes_for_32_sequences_as_for_one(monkeypatch):
    seqs, config = packed_setup(32)
    params = enc.init_encoder_params(config)
    original = ad._make
    made = []

    def counting(data, prev, op, vjp):
        made.append(op)
        return original(data, prev, op, vjp)

    monkeypatch.setattr(ad, "_make", counting)
    counts = []
    for batch in (seqs[:1], seqs):
        made.clear()
        enc.encode(params, config, pack(batch), rng=make_rng(0, "drop"))
        counts.append(list(made))
    assert counts[0] == counts[1]
    # the eval-mode nodes plus one dropout after the embedding norm and two per layer
    assert len(counts[1]) == 4 + 12 * config.n_layers + 1 + 2 * config.n_layers


def test_train_encode_keeps_a_graph_of_its_nodes_down_to_the_parameters():
    seqs, config = packed_setup(32)
    params = enc.init_encoder_params(config)
    out = enc.encode(params, config, pack(seqs), rng=make_rng(0, "drop"))
    seen, stack, inner, leaves = set(), [out], [], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._prev:
            inner.append(t)
            stack.extend(t._prev)
        else:
            leaves.add(id(t))
    # the 33 nodes `_make` counts for a train-mode encode, each linked to its inputs
    assert len(inner) == 4 + 12 * config.n_layers + 1 + 2 * config.n_layers == 33
    assert all(t._vjp is not None and t.requires_grad for t in inner)
    assert leaves == {id(p) for p in params.values()}


def test_train_encode_draws_every_dropout_mask_at_once(monkeypatch):
    seqs, config = packed_setup(5)
    params = enc.init_encoder_params(config)
    rng = make_rng(0, "drop")
    blocks, received = [], []

    class Recording:
        def random(self, size):
            blocks.append(rng.random(size))
            return blocks[-1]

    original = ad.dropout

    def recording(a, rate, draws):
        received.append(draws)
        return original(a, rate, draws)

    monkeypatch.setattr(ad, "dropout", recording)
    enc.encode(params, config, pack(seqs), rng=Recording())
    sites = 1 + 2 * config.n_layers
    assert [b.shape for b in blocks] == [(sites, sum(s.n_occupied for s in seqs), config.d)]
    # dropout site s reads block s, whose row r is the pack's row r
    assert len(received) == sites
    for s, draws in enumerate(received):
        np.testing.assert_array_equal(draws, blocks[0][s])
