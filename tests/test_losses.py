import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewtag import autodiff as ad
from fewtag import losses as ls
from fewtag.autodiff import ShapeError, Tensor
from fewtag.data import DataError, LabelMap, LabelSet, Sentence, build_vocab
from fewtag.encoder import EncoderConfig, encode, init_encoder_params
from fewtag.gaussian import GaussianEmbedding, init_projection_params, project
from fewtag.losses import (BatchView, LossConfig, anchor_loss_in, anchor_loss_out,
                           build_batch_view, context_context_loss,
                           context_label_loss, mixed_loss)
from fewtag.prompt import assemble_input, build_label_prompt, pack


def make_batch(mu, sigma2=None, tags=(), reps_mu=None, reps_sigma2=None,
               rep_classes=None):
    mu = np.asarray(mu, dtype=float)
    sigma2 = np.ones_like(mu) if sigma2 is None else np.asarray(sigma2, dtype=float)
    emb = GaussianEmbedding(Tensor(mu), Tensor(sigma2))
    batch = BatchView(embeddings=emb, tags=tuple(tags), bounds=np.array([0, len(tags)]))
    if reps_mu is not None:
        reps_mu = np.asarray(reps_mu, dtype=float)
        reps_s2 = (np.ones_like(reps_mu) if reps_sigma2 is None
                   else np.asarray(reps_sigma2, dtype=float))
        batch.label_reps = GaussianEmbedding(Tensor(reps_mu), Tensor(reps_s2))
        batch.rep_class = tuple(rep_classes)
    return batch


EUCLID = LossConfig(metric="sqeuclid")


class TestAnchorLosses:
    def test_two_tokens_same_tag_zero(self):
        batch = make_batch([[0.0], [1.0]], tags=("I-A", "I-A"))
        assert anchor_loss_in(0, batch, EUCLID).item() == pytest.approx(0.0, abs=1e-12)
        assert anchor_loss_out(0, batch, EUCLID).item() == pytest.approx(0.0, abs=1e-12)

    def test_single_positive_matches_scalar_oracle(self):
        # anchor at 0, positive at distance 1, negative at distance 2
        batch = make_batch([[0.0], [1.0], [math.sqrt(2.0)]], tags=("I-A", "I-A", "O"))
        # oracle: -log(e^-1 / (e^-1 + e^-2)) evaluated directly
        expected = -math.log(math.exp(-1) / (math.exp(-1) + math.exp(-2)))
        assert expected == pytest.approx(math.log(1 + math.exp(-1)))
        assert anchor_loss_in(0, batch, EUCLID).item() == pytest.approx(expected, abs=1e-9)
        assert anchor_loss_out(0, batch, EUCLID).item() == pytest.approx(expected, abs=1e-9)

    def test_single_positive_in_equals_out(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = rng.normal(size=(4, 2))
            batch = make_batch(mu, tags=("I-A", "I-A", "O", "I-B"))
            a = anchor_loss_in(0, batch, EUCLID).item()
            b = anchor_loss_out(0, batch, EUCLID).item()
            assert abs(a - b) <= 1e-12

    def test_empty_positive_set_signaled(self):
        batch = make_batch([[0.0], [1.0]], tags=("I-A", "I-B"))
        assert anchor_loss_in(0, batch, EUCLID) is None
        assert anchor_loss_out(0, batch, EUCLID) is None

    def test_jensen_out_ge_in(self):
        rng = np.random.default_rng(1)
        tags_pool = ("I-A", "I-B", "O")
        for metric in ("sqeuclid", "symkl"):
            config = LossConfig(metric=metric)
            for _ in range(500):
                n = int(rng.integers(3, 8))
                batch = make_batch(rng.normal(size=(n, 3)),
                                   sigma2=rng.uniform(0.3, 2.0, size=(n, 3)),
                                   tags=tuple(rng.choice(tags_pool, size=n)))
                for p in range(n):
                    li = anchor_loss_in(p, batch, config)
                    if li is None:
                        continue
                    lo = anchor_loss_out(p, batch, config)
                    assert lo.item() >= li.item() - 1e-12


class TestContextContext:
    def test_three_tokens_equal_distances(self):
        # equilateral: every pairwise squared distance equals 3
        mu = np.array([[0.0, 0.0], [math.sqrt(3), 0.0], [math.sqrt(3) / 2, 1.5]])
        batch = make_batch(mu, tags=("I-A", "I-A", "I-A"))
        out = context_context_loss(batch, EUCLID)
        # oracle: each term is -log(e^-c / 2 e^-c) = log 2
        assert out.value.item() == pytest.approx(math.log(2.0), abs=1e-9)
        assert not out.warned

    def test_no_positives_warns_zero(self):
        for mu, tags in (([], ()), ([[0.0]], ("I-A",)), ([[0.0], [1.0]], ("I-A", "I-B"))):
            batch = make_batch(np.reshape(mu, (-1, 1)), tags=tags)
            out = context_context_loss(batch, EUCLID)
            assert out.value.item() == 0.0
            assert out.warned

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=(6, 2))
        tags = ("I-A", "I-A", "O", "I-B", "O", "I-B")
        base = context_context_loss(make_batch(mu, tags=tags), EUCLID).value.item()
        perm = rng.permutation(6)
        shuffled = context_context_loss(
            make_batch(mu[perm], tags=tuple(np.asarray(tags, dtype=object)[perm])),
            EUCLID).value.item()
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_mean_of_anchor_losses(self):
        rng = np.random.default_rng(3)
        for variant in ("icl", "ocl"):
            config = LossConfig(metric="sqeuclid", loss_variant=variant)
            batch = make_batch(rng.normal(size=(5, 2)),
                               tags=("I-A", "I-A", "O", "O", "I-B"))
            fn = anchor_loss_out if variant == "icl" else anchor_loss_in
            per = [fn(p, batch, config) for p in range(5)]
            expected = np.mean([t.item() for t in per if t is not None])
            assert context_context_loss(batch, config).value.item() == pytest.approx(
                expected, rel=1e-12)


@pytest.mark.parametrize("metric", ["sqeuclid", "symkl"])
def test_ocl_with_several_positives_matches_numpy_oracle(metric):
    # anchors I-A have three positives each, O one, and I-B none (skipped)
    tags = ("I-A", "I-A", "O", "I-A", "I-B", "O", "I-A")
    rng = np.random.default_rng(11)
    mu, s2 = rng.normal(size=(7, 3)), rng.uniform(0.5, 2.0, size=(7, 3))
    diff2 = (mu[:, None] - mu[None]) ** 2
    if metric == "sqeuclid":
        d = diff2.sum(axis=-1)
    else:
        a, b = s2[:, None], s2[None]
        d = 0.25 * (a / b + b / a + diff2 * (1 / a + 1 / b)).sum(axis=-1) - mu.shape[1] / 2
    want = {}
    for i, tag in enumerate(tags):
        pos = [j for j, t in enumerate(tags) if t == tag and j != i]
        if pos:
            cand = [j for j in range(len(tags)) if j != i]
            want[i] = -np.log(np.mean(np.exp(-d[i, pos])) / np.exp(-d[i, cand]).sum())
    batch = make_batch(mu, sigma2=s2, tags=tags)
    config = LossConfig(metric=metric, loss_variant="ocl")
    for i, value in want.items():
        assert anchor_loss_in(i, batch, config).item() == pytest.approx(value, rel=1e-12)
    out = context_context_loss(batch, config)
    assert out.n_anchors == len(want) == 6
    assert out.value.item() == pytest.approx(np.mean(list(want.values())), rel=1e-12)


class TestContextLabel:
    def test_scalar_oracle(self):
        # d(token, gold)=0.5, d(token, other)=1.5 with tau=1
        batch = make_batch([[0.0]], tags=("I-A",),
                           reps_mu=[[math.sqrt(0.5)], [math.sqrt(1.5)]],
                           rep_classes=("A", "O"))
        expected = -math.log(math.exp(-0.5) / (math.exp(-0.5) + math.exp(-1.5)))
        out = context_label_loss(batch, EUCLID)
        assert out.value.item() == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(math.log(1 + math.exp(-1)))

    def test_uniform_distances_give_log_k(self):
        # token equidistant from 3 representatives
        batch = make_batch([[0.0, 0.0]], tags=("I-A",),
                           reps_mu=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                           rep_classes=("A", "B", "O"))
        assert context_label_loss(batch, EUCLID).value.item() == pytest.approx(
            math.log(3.0), abs=1e-9)

    def test_temperature_scales_distances(self):
        batch = make_batch([[0.0]], tags=("I-A",),
                           reps_mu=[[1.0], [2.0]], rep_classes=("A", "O"))
        hot = context_label_loss(batch, LossConfig(metric="sqeuclid", tau=2.0))
        cold = context_label_loss(batch, EUCLID)
        assert hot.value.item() != pytest.approx(cold.value.item())

    def test_missing_representative_errors(self):
        batch = make_batch([[0.0]], tags=("I-A",),
                           reps_mu=[[1.0]], rep_classes=("B",))
        with pytest.raises(ValueError, match="representative"):
            context_label_loss(batch, EUCLID)


class TestMixedLoss:
    def batch(self):
        return make_batch([[0.0], [1.0], [3.0]], tags=("I-A", "I-A", "O"),
                          reps_mu=[[0.5], [2.5]], rep_classes=("A", "O"))

    def test_alpha_one_is_context_context(self):
        config = LossConfig(metric="sqeuclid", alpha=1.0)
        batch = self.batch()
        assert mixed_loss(batch, config).item() == context_context_loss(
            batch, config).value.item()

    def test_alpha_zero_is_context_label(self):
        config = LossConfig(metric="sqeuclid", alpha=0.0)
        batch = self.batch()
        assert mixed_loss(batch, config).item() == context_label_loss(
            batch, config).value.item()

    def test_affine_combination(self):
        batch = self.batch()
        config = LossConfig(metric="sqeuclid", alpha=0.3)
        cc = context_context_loss(batch, config).value.item()
        cl = context_label_loss(batch, config).value.item()
        assert mixed_loss(batch, config).item() == pytest.approx(0.3 * cc + 0.7 * cl,
                                                                 rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)

    def test_call_instrumentation(self, loss_calls):
        mixed_loss(self.batch(), LossConfig(metric="sqeuclid", alpha=0.0))
        assert loss_calls["context_context"] == 0
        assert loss_calls["context_label"] == 1

    def test_call_instrumentation_alpha_one(self, loss_calls):
        out = mixed_loss(self.batch(), LossConfig(metric="sqeuclid", alpha=1.0))
        assert loss_calls["context_context"] == 1
        assert loss_calls["context_label"] == 0
        assert out.context_label is None


LM = LabelMap({"A": "alpha", "B": "beta", "O": "other"})


def encoded_fixture():
    sents = [Sentence(("x", "y", "z"), ("I-A", "O", "I-B")),
             Sentence(("u", "v"), ("I-A", "O"))]
    vocab = build_vocab(sents, label_map=LM)
    prompt = build_label_prompt(LabelSet(("A", "B")), LM)
    batch = pack([assemble_input(s, prompt, vocab, max_len=14) for s in sents])
    config = EncoderConfig(vocab_size=vocab.size, d=8, n_layers=1, n_heads=2,
                           dropout=0.0, max_len=14, seed=3)
    enc_params = init_encoder_params(config)
    proj_params = init_projection_params(d=8, l=4, seed=4)
    return batch, config, enc_params, proj_params


def test_batch_view_excludes_prompt_and_padding():
    packed, config, enc_params, proj_params = encoded_fixture()
    hidden = encode(enc_params, config, packed)
    batch = build_batch_view(hidden, packed, proj_params)
    assert batch.n_tokens == 5
    assert batch.tags == ("I-A", "O", "I-B", "I-A", "O")
    assert batch.embeddings.mu.shape == (5, 4)
    # both sentences' prompts: classes A, B and O each, sentence by sentence
    assert batch.rep_class == ("A", "B", "O")
    n_seqs, n_classes = packed.rep_rows.shape
    rows = [packed.rep_rows[s, j] for s in range(n_seqs) for j in range(n_classes)]
    want = project(proj_params, ad.row_gather(hidden, rows))
    assert batch.label_reps.mu.shape == (6, 4)
    np.testing.assert_array_equal(batch.label_reps.mu.data, want.mu.data)
    np.testing.assert_array_equal(batch.label_reps.sigma2.data, want.sigma2.data)


def test_positive_sets_match_definition():
    packed, config, enc_params, proj_params = encoded_fixture()
    batch = build_batch_view(encode(enc_params, config, packed), packed, proj_params)
    pos = batch.masks[0]
    assert np.flatnonzero(pos[0]).tolist() == [3]
    assert np.flatnonzero(pos[1]).tolist() == [4]
    assert np.flatnonzero(pos[2]).tolist() == []


def test_o_subsampling_drops_only_o_tokens():
    packed, config, enc_params, proj_params = encoded_fixture()
    rng = np.random.default_rng(0)
    batch = build_batch_view(encode(enc_params, config, packed), packed, proj_params,
                             o_keep_fraction=1e-9, rng=rng)
    assert all(t != "O" for t in batch.tags)
    assert batch.n_tokens == 3


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), keep=st.floats(0.05, 0.95),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_o_subsampling_keeps_the_tokens_a_per_token_draw_keeps(seed, keep, lengths):
    sents = [Sentence(tuple(f"w{j}" for j in range(n)),
                      tuple("I-A" if j % 3 == 0 else "O" for j in range(n))) for n in lengths]
    vocab = build_vocab(sents, label_map=LM)
    prompt = build_label_prompt(LabelSet(("A", "B")), LM)
    packed = pack([assemble_input(s, prompt, vocab, max_len=16) for s in sents])
    hidden = Tensor(np.random.default_rng(1).normal(size=(packed.n_occupied, 8)))
    proj_params = init_projection_params(d=8, l=4, seed=4)
    # reference: one rng.random() per O token, sentence by sentence
    ref = np.random.default_rng(seed)
    rows, tags, bounds = [], [], [0]
    for s, first in zip(sents, packed.bounds):
        for j, tag in enumerate(s.tags):
            if tag == "O" and ref.random() >= keep:
                continue
            rows.append(first + 1 + j)
            tags.append(tag)
        bounds.append(len(rows))
    rng = np.random.default_rng(seed)
    batch = build_batch_view(hidden, packed, proj_params, o_keep_fraction=keep, rng=rng)
    assert batch.tags == tuple(tags)
    assert batch.bounds.tolist() == bounds
    np.testing.assert_array_equal(batch.embeddings.mu.data,
                                  project(proj_params, ad.row_gather(hidden, rows)).mu.data)
    assert rng.random() == ref.random()  # both drew once per O token


def test_batch_view_rejects_a_gold_class_the_prompt_lacks():
    sents = [Sentence(("x", "y"), ("I-A", "O")), Sentence(("u", "v"), ("I-C", "I-A"))]
    vocab = build_vocab(sents, label_map=LM)
    prompt = build_label_prompt(LabelSet(("A", "B")), LM)
    # assembling and encoding read no gold tag
    packed = pack([assemble_input(s, prompt, vocab, max_len=14) for s in sents])
    hidden = Tensor(np.zeros((packed.n_occupied, 8)))
    with pytest.raises(DataError, match="gold tag class 'C' has no label representative"):
        build_batch_view(hidden, packed, init_projection_params(d=8, l=4, seed=4))


@pytest.mark.parametrize("variant", ["icl", "ocl"])
def test_mixed_loss_gradients_through_encoder_match_finite_differences(variant):
    packed, config, enc_params, proj_params = encoded_fixture()
    loss_config = LossConfig(alpha=0.5, loss_variant=variant)

    def loss(x):
        trial = dict(enc_params)
        trial["layer0.ff.w1"] = x
        batch = build_batch_view(encode(trial, config, packed), packed, proj_params)
        return mixed_loss(batch, loss_config).total

    err = ad.finite_diff_check(loss, enc_params["layer0.ff.w1"].data.copy(), step=1e-5)
    assert err <= 1e-4


def test_losses_finite_and_nonnegative_random():
    rng = np.random.default_rng(5)
    for metric in ("symkl", "sqeuclid"):
        config = LossConfig(metric=metric)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            batch = make_batch(rng.normal(size=(n, 2)),
                               sigma2=rng.uniform(0.2, 2.0, size=(n, 2)),
                               tags=tuple(rng.choice(("I-A", "O"), size=n)),
                               reps_mu=rng.normal(size=(2, 2)),
                               reps_sigma2=rng.uniform(0.2, 2.0, size=(2, 2)),
                               rep_classes=("A", "O"))
            out = mixed_loss(batch, config)
            assert np.isfinite(out.item())
            assert out.item() >= 0.0
            assert out.context_label.value.item() >= 0.0


def two_sentence_batch(seed):
    """Tokens of two sentences, each with its own prompt's representatives of
    classes A, B and O."""
    rng = np.random.default_rng(seed)

    def embedding(n):
        return GaussianEmbedding(Tensor(rng.normal(size=(n, 3))),
                                 Tensor(rng.uniform(0.3, 2.0, size=(n, 3))))

    return BatchView(embeddings=embedding(5), tags=("I-A", "O", "I-B", "O", "I-A"),
                     bounds=np.array([0, 3, 5]), label_reps=embedding(6),
                     rep_class=("A", "B", "O"))


@pytest.mark.parametrize("metric", ["symkl", "sqeuclid"])
def test_context_label_uses_only_own_sentence_representatives(metric):
    batch = two_sentence_batch(6)
    config = LossConfig(metric=metric, tau=0.7)
    got = context_label_loss(batch, config).value.item()
    # oracle: each token against its own sentence's representatives only
    expected = []
    n_classes = len(batch.rep_class)
    for ti, (tag, si) in enumerate(zip(batch.tags, (0, 0, 0, 1, 1))):
        cls = tag if tag == "O" else tag[2:]
        token = GaussianEmbedding(ad.row_gather(batch.embeddings.mu, [ti]),
                                  ad.row_gather(batch.embeddings.sigma2, [ti]))
        own = si * n_classes + np.arange(n_classes)
        reps = GaussianEmbedding(ad.row_gather(batch.label_reps.mu, own),
                                 ad.row_gather(batch.label_reps.sigma2, own))
        d = ls._pairwise(token, reps, metric).data[0] / config.tau
        gold = batch.rep_class.index(cls)
        expected.append(d[gold] + math.log(np.exp(-d).sum()))
    assert got == pytest.approx(np.mean(expected), rel=1e-12)


@pytest.mark.parametrize("variant", ["icl", "ocl"])
def test_two_sentence_mixed_loss_gradients_match_finite_differences(variant):
    batch = two_sentence_batch(7)
    config = LossConfig(loss_variant=variant, tau=0.7)

    def loss(x):
        return mixed_loss(BatchView(GaussianEmbedding(x, batch.embeddings.sigma2), batch.tags,
                                    batch.bounds, batch.label_reps,
                                    batch.rep_class), config).total

    assert ad.finite_diff_check(loss, batch.embeddings.mu.data) <= 1e-6


def test_each_loss_builds_one_distance_matrix_and_one_kernel_node(monkeypatch):
    made = []
    original = ad._make

    def counting(data, prev, op, vjp):
        made.append(op)
        return original(data, prev, op, vjp)

    monkeypatch.setattr(ad, "_make", counting)
    context_context_loss(two_sentence_batch(8), LossConfig())
    assert made == ["gaussian_operand", "pairwise_symkl", "anchor_terms", "sum", "scale"]
    made.clear()
    context_label_loss(two_sentence_batch(8), LossConfig())
    assert made == ["gaussian_operand", "gaussian_operand", "pairwise_symkl", "scale",
                    "anchor_terms", "sum", "scale"]
    made.clear()
    anchor_loss_in(0, two_sentence_batch(8), LossConfig())
    assert made == ["gaussian_operand", "pairwise_symkl", "anchor_terms", "reshape"]
    made.clear()
    # the losses over token pairs share one self-distance matrix per batch, and
    # every loss one operand per embedding set
    batch = two_sentence_batch(8)
    context_context_loss(batch, LossConfig())
    anchor_loss_in(0, batch, LossConfig())
    anchor_loss_out(0, batch, LossConfig())
    context_label_loss(batch, LossConfig())
    assert made.count("gaussian_operand") == 2
    assert made.count("pairwise_symkl") == 2
    assert made.count("anchor_terms") == 4


@settings(max_examples=200)
@given(st.lists(st.sampled_from(["O", "I-A", "I-B", "I-C"]), min_size=1, max_size=12))
@example(["I-A"])
@example(["O", "O", "O", "O"])
def test_integer_coded_masks_equal_the_string_comparison(tags):
    pos, offdiag = ls._masks(tuple(tags))
    t = np.asarray(tags, dtype=object)
    want_offdiag = ~np.eye(len(tags), dtype=bool)
    np.testing.assert_array_equal(offdiag, want_offdiag)
    np.testing.assert_array_equal(pos, (t[:, None] == t[None, :]) & want_offdiag)


@pytest.mark.parametrize("variant", [ls.VARIANT_OCL, ls.VARIANT_ICL])
def test_all_rows_anchor_terms_equal_the_explicit_rows_bitwise(variant):
    rng = np.random.default_rng(31)
    values = rng.uniform(0.0, 4.0, size=(6, 6))
    pos, offdiag = ls._masks(("O", "I-A", "O", "I-A", "O", "I-B"))
    pos[5, 2] = True  # every anchor needs a positive
    weights = rng.normal(size=6)

    def run(anchors):
        d = Tensor(values, requires_grad=True)
        terms = ls._anchor_terms(d, anchors, pos, offdiag, variant)
        ad.tsum(ad.mul(terms, Tensor(weights))).backward()
        return terms.data, d.grad

    for got, want in zip(run(None), run(np.arange(6))):
        np.testing.assert_array_equal(got, want)


def test_context_label_rejects_falling_bounds():
    batch = two_sentence_batch(9)
    batch.bounds = np.array([0, 3, 2, 5])  # the second of three sentences ends before it starts
    with pytest.raises(ShapeError):
        context_label_loss(batch, LossConfig())


@pytest.mark.parametrize("metric", ["symkl", "sqeuclid"])
def test_context_label_distances_are_one_block_of_own_representatives_per_token(
        monkeypatch, metric):
    sents = [Sentence(tuple(f"w{j}" for j in range(n)),
                      tuple(("I-A", "O", "I-B")[j % 3] for j in range(n)))
             for n in np.random.default_rng(2).integers(1, 12, size=32)]
    vocab = build_vocab(sents, label_map=LM)
    prompt = build_label_prompt(LabelSet(("A", "B")), LM)
    packed = pack([assemble_input(s, prompt, vocab, max_len=16) for s in sents])
    hidden = Tensor(np.random.default_rng(3).normal(size=(packed.n_occupied, 8)))
    batch = build_batch_view(hidden, packed, init_projection_params(d=8, l=4, seed=4))
    n_classes = len(prompt.class_order)
    assert batch.label_reps.mu.shape == (32 * n_classes, 4)
    shapes = []
    original = ad._make

    def recording(data, prev, op, vjp):
        shapes.append((op, data.shape))
        return original(data, prev, op, vjp)

    monkeypatch.setattr(ad, "_make", recording)
    context_label_loss(batch, LossConfig(metric=metric))
    if metric == "symkl":
        # the sym-KL operands of the tokens and of all the representatives come first
        operands = [("gaussian_operand", (n, 4 * 4 + 2)) for n in (batch.n_tokens, 32 * n_classes)]
        assert shapes[:2] == operands
        shapes = shapes[2:]
    kernel = "pairwise_symkl" if metric == "symkl" else "pairwise_sq_euclidean"
    assert shapes[0] == (kernel, (batch.n_tokens, n_classes))
    assert all(32 * n_classes not in shape for _, shape in shapes)


def test_a_view_with_other_embeddings_keeps_masks_and_segments_but_not_distances():
    batch = two_sentence_batch(10)
    context_context_loss(batch, LossConfig())
    context_label_loss(batch, LossConfig())
    embeddings = two_sentence_batch(11).embeddings
    view = batch.with_embeddings(embeddings)
    for name in ("masks", "bounds", "label_gold"):
        assert getattr(view, name) is getattr(batch, name)
    other = BatchView(embeddings, batch.tags, batch.bounds, batch.label_reps,
                      batch.rep_class)
    for config in (LossConfig(), LossConfig(metric="sqeuclid")):
        for loss in (context_context_loss, context_label_loss):
            assert loss(view, config).value.item() == loss(other, config).value.item()
