import math
from dataclasses import replace

import numpy as np
import pytest

from fewtag import losses as ls
from fewtag import training
from fewtag.autodiff import Tensor
from fewtag.data import DataError, Episode, Sentence
from fewtag.inference import evaluate_episodes, low_resource_eval
from fewtag.training import (Checkpoint, CheckpointError, NumericError,
                             OptimizerState, TrainConfig, adamw_step, finetune,
                             load_checkpoint, save_checkpoint, train_source)

from synthdata import all_phrase_words, label_setup, separable_corpus

SMALL_ENC = {"d": 16, "n_layers": 1, "n_heads": 2, "dropout": 0.0}


def make_config(**kw):
    defaults = dict(lr=0.01, batch_size=4, epochs=2, max_len=24, embed_dim=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdamW:
    def step_one(self, wd, name="w"):
        p = {name: Tensor(np.array(1.0), requires_grad=True)}
        p[name].grad = np.array(1.0)
        state = OptimizerState(lr=1e-3, weight_decay=wd)
        adamw_step(p, state)
        return float(p[name].data)

    def test_single_step_no_decay(self):
        # hand evaluation: m_hat = 1, v_hat = 1, theta' = 1 - 1e-3/(1 + 1e-8)
        assert self.step_one(0.0) == pytest.approx(0.999000, abs=1e-6)

    def test_single_step_with_decay(self):
        # extra term lr * wd * theta = 1e-5
        assert self.step_one(0.01) == pytest.approx(0.998990, abs=1e-6)

    def test_decay_excluded_for_bias_and_norm(self):
        for name in ("layer0.ff.bias1", "emb.norm_gain"):
            assert self.step_one(0.01, name=name) == pytest.approx(0.999000, abs=1e-6)

    def test_three_step_trace_matches_hand_equations(self):
        p = {"w": Tensor(np.array(2.0), requires_grad=True)}
        state = OptimizerState(lr=0.1, weight_decay=0.01)
        grads = [1.0, -0.5, 2.0]

        # independent scalar re-derivation of the decoupled-decay equations
        theta, m, v = 2.0, 0.0, 0.0
        expected = []
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8) - 0.1 * 0.01 * theta
            expected.append(theta)

        for g, want in zip(grads, expected):
            p["w"].grad = np.array(g)
            adamw_step(p, state)
            assert float(p["w"].data) == pytest.approx(want, rel=1e-12)

    def test_nan_grad_rejected(self):
        p = {"w": Tensor(np.array(1.0), requires_grad=True)}
        p["w"].grad = np.array(np.nan)
        with pytest.raises(NumericError):
            adamw_step(p, OptimizerState(lr=1e-3))


class TestTrainSource:
    def test_deterministic_checkpoints(self, tmp_path):
        corpus = separable_corpus(n_sentences=8, seed=1)
        label_set, label_map = label_setup(("A", "B"))
        config = make_config(epochs=1)
        c1, _ = train_source(corpus, label_set, label_map, config, SMALL_ENC)
        c2, _ = train_source(corpus, label_set, label_map, config, SMALL_ENC)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(c1, str(p1))
        save_checkpoint(c2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_decreases_on_separable_corpus(self):
        corpus = separable_corpus(n_sentences=20, seed=2)
        label_set, label_map = label_setup(("A", "B"))
        config = make_config(epochs=3, lr=0.02)
        _, log = train_source(corpus, label_set, label_map, config, SMALL_ENC)
        per_epoch = len(log) // 3
        final_epoch_mean = np.mean([e.loss for e in log[-per_epoch:]])
        assert final_epoch_mean < log[0].loss

    def test_tag_outside_the_label_set_rejected(self):
        corpus = separable_corpus(n_sentences=4, seed=3)  # classes A and B
        label_set, label_map = label_setup(("A",))
        with pytest.raises(DataError, match="gold tag class 'B' has no label representative"):
            train_source(corpus, label_set, label_map, make_config(epochs=1), SMALL_ENC)

    def test_empty_dataset_rejected(self):
        label_set, label_map = label_setup(("A",))
        with pytest.raises(DataError):
            train_source([], label_set, label_map, make_config())

    def test_nonfinite_loss_aborts(self):
        corpus = separable_corpus(n_sentences=4, seed=3)
        label_set, label_map = label_setup(("A", "B"))
        ckpt, _ = train_source(corpus, label_set, label_map, make_config(epochs=1),
                               SMALL_ENC)
        ckpt.params["emb.pos"].data[0, 0] = np.nan
        with pytest.raises(NumericError):
            finetune(ckpt, corpus, label_set, label_map, make_config())

    def test_default_config_matches_documented_values(self):
        config = TrainConfig()
        assert config.lr == 5e-5
        assert config.batch_size == 32
        assert config.epochs == 1
        assert config.max_len == 128
        assert config.embed_dim == 128
        assert config.alpha_grid == (0.8, 0.5, 0.3)


def trained_fixture():
    corpus = separable_corpus(n_sentences=12, seed=4)
    source_set, source_map = label_setup(("A", "B"))
    config = make_config(epochs=1)
    ckpt, _ = train_source(corpus, source_set, source_map, config, SMALL_ENC)
    return ckpt, config


class TestFinetune:
    def test_trace_decreases_until_trigger(self):
        ckpt, config = trained_fixture()
        support = separable_corpus(n_sentences=6, seed=5)
        target_set, target_map = label_setup(("A", "B"))
        _, result = finetune(ckpt, support, target_set, target_map, config)
        trace = result.loss_trace
        assert len(trace) == result.iterations
        if not result.hit_cap:
            for prev, cur in zip(trace[:-2], trace[1:-1]):
                assert cur <= prev
            assert trace[-1] > trace[-2] or len(trace) == 1

    def test_one_shot_mode_skips_context_context(self):
        ckpt, config = trained_fixture()
        support = separable_corpus(n_sentences=4, seed=6)
        target_set, target_map = label_setup(("A", "B"))
        one_shot = TrainConfig(**{**config.__dict__, "shot_mode": "1-shot"})
        ls.reset_call_counts()
        _, result = finetune(ckpt, support, target_set, target_map, one_shot)
        assert result.metric == "sqeuclid"
        assert not result.used_context_context
        assert ls.call_counts["context_context"] == 0
        assert ls.call_counts["context_label"] == result.iterations

    def test_empty_support_rejected(self):
        ckpt, config = trained_fixture()
        target_set, target_map = label_setup(("A", "B"))
        with pytest.raises(DataError):
            finetune(ckpt, [], target_set, target_map, config)

    def test_support_tag_outside_the_label_set_rejected(self):
        ckpt, config = trained_fixture()
        support = separable_corpus(n_sentences=4, seed=5)  # classes A and B
        target_set, target_map = label_setup(("A",))
        with pytest.raises(DataError, match="gold tag class 'B' has no label representative"):
            finetune(ckpt, support, target_set, target_map, config)

    def test_iteration_cap_guarantees_termination(self):
        ckpt, config = trained_fixture()
        support = separable_corpus(n_sentences=4, seed=7)
        target_set, target_map = label_setup(("A", "B"))
        capped = TrainConfig(**{**config.__dict__, "max_finetune_iters": 3, "lr": 1e-9})
        _, result = finetune(ckpt, support, target_set, target_map, capped)
        assert result.iterations <= 3

    @pytest.mark.parametrize("keep_best", [False, True])
    def test_keep_best_picks_the_parameters_returned(self, monkeypatch, keep_best):
        ckpt, config = trained_fixture()
        support = separable_corpus(n_sentences=6, seed=5)
        target_set, target_map = label_setup(("A", "B"))
        before, after = [], []  # parameters around each AdamW update
        original = training.adamw_step

        def recording(params, state):
            before.append({k: p.data.copy() for k, p in params.items()})
            original(params, state)
            after.append({k: p.data.copy() for k, p in params.items()})

        monkeypatch.setattr(training, "adamw_step", recording)
        tuned, result = finetune(ckpt, support, target_set, target_map,
                                 TrainConfig(**{**config.__dict__, "keep_best": keep_best}))
        trace = result.loss_trace
        assert not result.hit_cap and len(trace) >= 3 and trace[-1] > trace[-2]
        assert result.iterations == len(trace) == len(result.log)
        # the last update raised the loss from trace[-2] to trace[-1], and the
        # loop stops on that evaluation without updating again
        assert len(before) == len(after) == len(trace) - 1
        expected = before[-1] if keep_best else after[-1]
        for k, p in tuned.params.items():
            np.testing.assert_array_equal(p.data, expected[k])

    def test_source_checkpoint_not_mutated(self):
        ckpt, config = trained_fixture()
        before = {k: v.data.copy() for k, v in ckpt.params.items()}
        support = separable_corpus(n_sentences=4, seed=8)
        target_set, target_map = label_setup(("A", "B"))
        finetune(ckpt, support, target_set, target_map, config)
        for k in before:
            np.testing.assert_array_equal(ckpt.params[k].data, before[k])

    def test_nothing_after_train_reads_train_config_max_len(self):
        # 11-12 token sentences, entities last: the checkpoint's 24 positions
        # hold them whole, a 16-position budget (less the 8-token prompt and
        # 3 specials) would cut their entities away
        ckpt, config = trained_fixture()
        assert ckpt.encoder_config.max_len == 24
        label_set, label_map = label_setup(("A", "B"))
        corpus = [Sentence(("filler2",) * 8 + s.tokens, ("O",) * 8 + s.tags)
                  for s in separable_corpus(n_sentences=10, seed=9)]
        episodes = [Episode(support=corpus[:4], query=corpus[4:7], n_way=2, k_shot=2)]
        results = []
        for max_len in (16, 24, 128):
            budget = replace(config, max_len=max_len, max_finetune_iters=5)
            _, tuned = finetune(ckpt, corpus[:4], label_set, label_map, budget)
            episode = evaluate_episodes(ckpt, episodes, budget)
            lowres = low_resource_eval(ckpt, label_set, corpus, corpus[4:], n_way=2, k_shot=1,
                                       seeds=[0, 1], config=budget)
            assert episode.tp + episode.fn > 0 and lowres.tp + lowres.fn > 0
            results.append((tuned.loss_trace, (episode.tp, episode.fp, episode.fn),
                            (lowres.tp, lowres.fp, lowres.fn)))
        assert results[0] == results[1] == results[2]


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt, _ = trained_fixture()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, str(p1))
        loaded = load_checkpoint(str(p1))
        for name, t in ckpt.params.items():
            np.testing.assert_array_equal(t.data, loaded.params[name].data)
        assert loaded.vocab.token_to_id == ckpt.vocab.token_to_id
        assert loaded.label_set == ckpt.label_set
        save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        ckpt, _ = trained_fixture()
        path = tmp_path / "t.ckpt"
        save_checkpoint(ckpt, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt, _ = trained_fixture()
        path = tmp_path / "v.ckpt"
        save_checkpoint(ckpt, str(path))
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
