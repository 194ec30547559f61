import dataclasses

import numpy as np
import pytest

from fewtag import autodiff as ad
from fewtag import encoder as enc
from fewtag.autodiff import Tensor
from fewtag.data import LabelMap, LabelSet, Sentence, build_vocab
from fewtag.prompt import assemble_input, build_label_prompt
from fewtag.rngutil import make_rng


LM = LabelMap({"person": "person", "O": "other"})


def small_setup(max_len=16, d=8, n_layers=1, n_heads=2, dropout=0.0, seed=0):
    sent = Sentence(("alice", "went", "home"), ("I-person", "O", "O"))
    vocab = build_vocab([sent], label_map=LM)
    prompt = build_label_prompt(LabelSet(("person",)), LM)
    seq = assemble_input(sent, prompt, vocab, max_len=max_len)
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
    a = enc.encode(params, config, seq, train_mode=True, rng=make_rng(0, "drop"))
    b = enc.encode(params, config, seq, train_mode=True, rng=make_rng(0, "drop"))
    c = enc.encode(params, config, seq, train_mode=True, rng=make_rng(1, "drop"))
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
