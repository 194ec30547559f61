import copy
import json
import os
import struct
import tempfile
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fewtag import inference, training
from fewtag.autodiff import NumericError, Tensor
from fewtag.cli import RunConfig, main
from fewtag.data import UNK, Sentence, read_conll, write_conll
from fewtag.inference import decode_sentence
from fewtag.losses import MixedLoss
from fewtag.training import TrainConfig, load_checkpoint, save_checkpoint

from synthdata import label_setup, separable_corpus

SMALL = ["--set", "encoder={\"d\": 16, \"n_layers\": 1, \"n_heads\": 2, \"dropout\": 0.0}",
         "--set", "lr=0.01", "--set", "batch_size=4", "--set", "epochs=1",
         "--set", "max_len=24", "--set", "embed_dim=8"]


def write_workspace(tmp_path):
    corpus = separable_corpus(n_sentences=12, seed=20)
    train_path = tmp_path / "train.conll"
    write_conll(corpus, str(train_path))
    support_path = tmp_path / "support.conll"
    write_conll(corpus[:6], str(support_path))
    _, label_map = label_setup(("A", "B"))
    map_path = tmp_path / "labels.map"
    map_path.write_text("".join(f"{c} = {p}\n" for c, p in label_map.phrases.items()))
    return tmp_path, train_path, support_path, map_path


@pytest.fixture
def workspace(tmp_path):
    return write_workspace(tmp_path)


def episode_record():
    corpus = separable_corpus(n_sentences=8, seed=21)
    return {
        "support": {"word": [list(s.tokens) for s in corpus[:4]],
                    "label": [list(s.tags) for s in corpus[:4]]},
        "query": {"word": [list(s.tokens) for s in corpus[4:6]],
                  "label": [list(s.tags) for s in corpus[4:6]]},
        "types": ["A", "B"], "K": 2,
    }


def run_train(ws, out_name="run", extra=()):
    tmp_path, train_path, _, map_path = ws
    out = tmp_path / out_name
    code = main(SMALL + list(extra) + ["--seed", "0", "--out", str(out), "train",
                                       "--train-corpus", str(train_path),
                                       "--label-map", str(map_path)])
    return code, out


class TestTrain:
    def test_writes_checkpoint_log_and_snapshot(self, workspace):
        code, out = run_train(workspace)
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "loss_log.txt").read_text().startswith("step=0 loss=")
        snap = json.loads((out / "resolved_config.json").read_text())
        assert snap["command"] == "train"
        assert snap["seed"] == 0
        assert snap["encoder"]["d"] == 16

    def test_a_deep_encoder_trains(self, workspace):
        # backward's walk is not bounded by the interpreter's recursion limit
        tmp_path, train_path, _, _ = workspace
        write_conll(read_conll(str(train_path))[:2], str(train_path))
        code, out = run_train(workspace, extra=[
            "--set", "encoder={\"d\": 8, \"n_layers\": 400, \"n_heads\": 1, \"dropout\": 0.0}",
            "--set", "embed_dim=4"])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()

    def test_missing_label_map_is_usage_error(self, workspace):
        tmp_path, train_path, _, _ = workspace
        code = main(["--out", str(tmp_path / "x"), "train",
                     "--train-corpus", str(train_path)])
        assert code == 2

    def test_alpha_out_of_range_rejected_before_training(self, workspace):
        code, out = run_train(workspace, "bad", extra=["--set", "alpha=1.5"])
        assert code == 2
        assert not (out / "checkpoint.ckpt").exists()

    def test_unknown_config_key_rejected(self, workspace):
        code, _ = run_train(workspace, "bad2", extra=["--set", "learnig_rate=0.1"])
        assert code == 2

    @pytest.mark.parametrize("setting, key", [
        ("encoder.d=15", "d=15"),
        ("encoder.bogus=1", "bogus"),
        ("encoder.dropout=1.5", "dropout"),
        ("encoder.n_heads=0", "n_heads"),
        ("encoder=[16]", "encoder"),
        ("o_keep_fraction=0", "o_keep_fraction"),
        ("weight_decay=-0.1", "weight_decay"),
        ("use_context_context=false", "use_context_context"),
        ("metric=cosine", "metric"),
        ("loss_variant=xyz", "loss_variant"),
        ("embed_dim=abc", "embed_dim"),
        ("lr=true", "lr"),
        ("n_runs=0", "n_runs"),
        ("support=7", "support"),
        ("strict_k=1", "strict_k"),
        ("lr.x=1", "lr"),
        ("encoder.d.x=1", "encoder.d"),
        ("lr=NaN", "lr"),
        ("lr=Infinity", "lr"),
        ("weight_decay=NaN", "weight_decay"),
        ("weight_decay=Infinity", "weight_decay"),
        ("tau=Infinity", "tau"),
        ("alpha_grid=[NaN]", "alpha_grid"),
        pytest.param("lr=" + "[" * 100_000 + "]" * 100_000, "lr", id="lr-nested-past-json-depth"),
    ])
    def test_bad_setting_is_usage_error_naming_its_key(self, workspace, caplog, setting, key):
        # after SMALL, so the bad value overrides SMALL's encoder settings
        code, out = run_train(workspace, "bad3", extra=["--set", setting])
        assert code == 2
        assert not out.exists()
        assert key in caplog.text

    def test_nonfinite_batch_loss_is_numeric_error_without_checkpoint(self, workspace, caplog,
                                                                        monkeypatch):
        monkeypatch.setattr(training, "mixed_loss",
                            lambda batch, config: MixedLoss(Tensor(float("nan")), None, None))
        code, out = run_train(workspace, "nan")
        assert code == 4
        assert "non-finite training loss at step 0" in caplog.text
        assert not (out / "checkpoint.ckpt").exists()

    def test_o_subsampling_that_empties_a_batch_is_data_error(self, workspace, caplog):
        tmp_path, train_path, _, _ = workspace
        corpus = read_conll(str(train_path))
        write_conll([Sentence(("just", "other", "words"), ("O", "O", "O"))] + corpus,
                    str(train_path))
        code, _ = run_train(workspace, "empty", extra=["--set", "batch_size=1",
                                                       "--set", "o_keep_fraction=0.001"])
        assert code == 3
        assert "o_keep_fraction" in caplog.text

    def test_snapshot_replay_reproduces_checkpoint(self, workspace):
        tmp_path = workspace[0]
        _, out = run_train(workspace)
        snap = str(out / "resolved_config.json")
        replay = tmp_path / "replay"
        assert main(["--config", snap, "--out", str(replay), "train"]) == 0
        assert (replay / "checkpoint.ckpt").read_bytes() == \
               (out / "checkpoint.ckpt").read_bytes()

    def test_snapshot_of_other_subcommand_rejected(self, workspace):
        tmp_path = workspace[0]
        _, out = run_train(workspace)
        code = main(["--config", str(out / "resolved_config.json"),
                     "--out", str(tmp_path / "gc"), "gradcheck"])
        assert code == 2

    def test_same_seed_gives_bit_identical_checkpoints(self, workspace):
        _, out1 = run_train(workspace, "r1")
        _, out2 = run_train(workspace, "r2")
        assert (out1 / "checkpoint.ckpt").read_bytes() == \
               (out2 / "checkpoint.ckpt").read_bytes()


class TestPipeline:
    def test_finetune_predict_dump(self, workspace, capsys):
        tmp_path, train_path, support_path, map_path = workspace
        _, out = run_train(workspace)
        ckpt = out / "checkpoint.ckpt"

        ft_out = tmp_path / "ft"
        code = main(SMALL + ["--seed", "0", "--out", str(ft_out), "finetune",
                             "--checkpoint", str(ckpt), "--support", str(support_path)])
        assert code == 0
        assert (ft_out / "finetuned.ckpt").exists()
        assert (ft_out / "finetune_log.txt").exists()

        pred_out = tmp_path / "pred"
        code = main(SMALL + ["--out", str(pred_out), "predict",
                             "--checkpoint", str(ft_out / "finetuned.ckpt"),
                             "--support", str(support_path),
                             "--input", str(train_path)])
        assert code == 0
        tagged = read_conll(str(pred_out / "predictions.conll"))
        assert len(tagged) == len(read_conll(str(train_path)))

        dump_out = tmp_path / "dump"
        code = main(SMALL + ["--out", str(dump_out), "dump-embeddings",
                             "--checkpoint", str(ckpt), "--input", str(support_path)])
        assert code == 0
        header = (dump_out / "embeddings.tsv").read_text().splitlines()[0]
        assert header.split("\t")[:2] == ["token", "tag"]

    def test_predict_past_checkpoint_positions(self, workspace):
        # the sentence is longer than the checkpoint's 24 positions
        tmp_path, _, support_path, _ = workspace
        _, out = run_train(workspace)
        long_path = tmp_path / "long.conll"
        write_conll([Sentence(tuple(f"filler{i % 8}" for i in range(40)), ("O",) * 40)],
                    str(long_path))
        pred_out = tmp_path / "pred"
        code = main(["--out", str(pred_out), "predict",
                     "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--support", str(support_path), "--input", str(long_path)])
        assert code == 0
        (tagged,) = read_conll(str(pred_out / "predictions.conll"))
        assert len(tagged.tags) == 40

    def test_missing_checkpoint_is_data_error(self, workspace):
        tmp_path, _, support_path, _ = workspace
        code = main(SMALL + ["--out", str(tmp_path / "x"), "finetune",
                             "--checkpoint", str(tmp_path / "nope.ckpt"),
                             "--support", str(support_path)])
        assert code == 3


class TestEvaluate:
    def test_low_resource_reports_per_run(self, workspace, capsys):
        tmp_path, train_path, support_path, _ = workspace
        _, out = run_train(workspace)
        ev_out = tmp_path / "ev"
        code = main(SMALL + ["--seed", "0", "--out", str(ev_out), "evaluate",
                             "--checkpoint", str(out / "checkpoint.ckpt"),
                             "--protocol", "low-resource",
                             "--support", str(train_path),
                             "--test-corpus", str(support_path),
                             "--n-way", "2", "--k-shot", "1", "--n-runs", "2"])
        assert code == 0
        report = json.loads((ev_out / "eval_report.json").read_text())
        assert len(report["per_run"]) == 2
        assert "mean" in report and "std" in report
        assert "mean" in capsys.readouterr().out

    def test_episode_protocol(self, workspace):
        tmp_path, _, _, _ = workspace
        _, out = run_train(workspace)
        ep_path = tmp_path / "episodes.jsonl"
        ep_path.write_text(json.dumps(episode_record()) + "\n")
        ev_out = tmp_path / "epi"
        code = main(SMALL + ["--seed", "0", "--out", str(ev_out), "evaluate",
                             "--checkpoint", str(out / "checkpoint.ckpt"),
                             "--protocol", "episode", "--episodes", str(ep_path)])
        assert code == 0
        report = json.loads((ev_out / "eval_report.json").read_text())
        assert set(report) >= {"tp", "fp", "fn", "f1"}


class TestSample:
    def test_deterministic_support_file(self, workspace, capsys):
        tmp_path, train_path, _, _ = workspace
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main(["--seed", "7", "--out", str(out), "sample",
                         "--support", str(train_path),
                         "--n-way", "2", "--k-shot", "2"])
            assert code == 0
            outs.append((out / "support.conll").read_bytes())
        assert outs[0] == outs[1]
        sampled = read_conll(str(tmp_path / "s1" / "support.conll"))
        assert sampled  # non-empty and re-readable

    def test_prints_the_classes_pushed_past_the_bound(self, tmp_path, capsys):
        # every sentence holding A holds three A mentions, past the 2K bound at K=1
        support = tmp_path / "support.conll"
        write_conll([Sentence(("a", "x", "a", "x", "a"), ("I-A", "O", "I-A", "O", "I-A")),
                     Sentence(("b", "x"), ("I-B", "O"))] * 2, str(support))
        code = main(["--seed", "0", "--out", str(tmp_path / "s"), "sample",
                     "--support", str(support), "--n-way", "2", "--k-shot", "1"])
        assert code == 0
        assert "overshoot classes: A\n" in capsys.readouterr().out


class TestGradcheck:
    def test_passes_and_prints_max_error(self, workspace, capsys):
        tmp_path = workspace[0]
        code = main(["--seed", "0", "--out", str(tmp_path / "gc"),
                     "gradcheck", "--gradcheck-batches", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "max rel err" in out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ws = write_workspace(tmp_path_factory.mktemp("trained"))
    code, out = run_train(ws)
    assert code == 0
    return ws, out / "checkpoint.ckpt"


def _not_utf8(path):
    path.write_bytes(b"w1\tO\n\xff\tI-A\n")


def _episodes(edit):
    def make(path):
        record = episode_record()
        edit(record)
        path.write_text(json.dumps(record) + "\n")
    return make


def _drop_last_support_labels(record):
    record["support"]["label"].pop()


def _number_as_word(record):
    record["query"]["word"][0][0] = 7


def _one_class(path):
    path.write_text("aent0\tI-A\nfiller1\tO\n")


def _train(corpus="{train}", label_map="{map}", out="{out}"):
    return ["--out", out, "train", "--train-corpus", corpus, "--label-map", label_map]


FINETUNE = ["--out", "{out}", "finetune", "--checkpoint", "{bad}", "--support", "{support}"]
EVALUATE = ["--out", "{out}", "evaluate", "--checkpoint", "{ckpt}", "--protocol", "episode",
            "--episodes", "{bad}"]

# argv with {bad} where the malformed path goes; how to make that path; exit code
MALFORMED = {
    "corpus-not-utf8": (_train(corpus="{bad}"), _not_utf8, 3),
    "label-map-not-utf8": (_train(label_map="{bad}"), _not_utf8, 3),
    "corpus-is-directory": (_train(corpus="{bad}"), lambda p: p.mkdir(), 3),
    "label-map-is-directory": (_train(label_map="{bad}"), lambda p: p.mkdir(), 3),
    "checkpoint-is-directory": (FINETUNE, lambda p: p.mkdir(), 3),
    "out-is-a-file": (_train(out="{bad}"), lambda p: p.write_text("x"), 2),
    "episode-types-not-a-list": (EVALUATE, _episodes(lambda r: r.update(types=5)), 3),
    "episode-unequal-word-and-label-lists": (EVALUATE, _episodes(_drop_last_support_labels), 3),
    "episode-number-as-word": (EVALUATE, _episodes(_number_as_word), 3),
    "episodes-file-empty": (EVALUATE, lambda p: p.write_text(""), 3),
    "label-map-missing-a-class": (_train(label_map="{bad}"), lambda p: p.write_text("A = a\n"), 3),
    "corpus-without-entities": (_train(corpus="{bad}"), lambda p: p.write_text("w\tO\n"), 3),
    "predict-support-empty": (["--out", "{out}", "predict", "--checkpoint", "{ckpt}",
                               "--support", "{bad}", "--input", "{support}"],
                              lambda p: p.write_text(""), 3),
    # one class where --n-way asks for two
    "sample-support-too-few-classes": (["--out", "{out}", "sample", "--support", "{bad}",
                                        "--n-way", "2"], _one_class, 3),
    "low-resource-support-too-few-classes": (
        ["--out", "{out}", "evaluate", "--checkpoint", "{ckpt}", "--protocol", "low-resource",
         "--support", "{bad}", "--test-corpus", "{bad}", "--n-way", "2", "--n-runs", "1"],
        _one_class, 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_with_its_code_and_names_the_file(trained, tmp_path, capsys,
                                                                caplog, case):
    (_, train_path, support_path, map_path), ckpt = trained
    template, make, expected = MALFORMED[case]
    bad = tmp_path / "bad"
    make(bad)
    paths = {"bad": bad, "out": tmp_path / "out", "train": train_path, "map": map_path,
             "support": support_path, "ckpt": ckpt}
    code = main(SMALL + [arg.format(**paths) for arg in template])
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err
    assert str(bad) in caplog.text


def _longer_first_support_sentence(record):
    record["support"]["word"][0].append("extra")


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda r: r.update(types=["A", "C"]),
                 "support classes ['A', 'B'] do not match declared types ['A', 'C']",
                 id="types-differ-by-name"),
    pytest.param(lambda r: r.update(types=["A", "B", "C"]),
                 "support has 2 entity classes, declared N=3", id="types-differ-by-count"),
    pytest.param(_longer_first_support_sentence, "sentence needs equal, non-zero token/tag counts",
                 id="sentence-word-and-label-lengths-differ"),
])
def test_bad_episode_record_is_data_error_naming_file_and_episode(trained, tmp_path, caplog,
                                                                  edit, message):
    ckpt = trained[1]
    bad = episode_record()
    edit(bad)
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(episode_record()) + "\n" + json.dumps(bad) + "\n")
    code = main(SMALL + ["--out", str(tmp_path / "out"), "evaluate", "--checkpoint", str(ckpt),
                         "--protocol", "episode", "--episodes", str(path)])
    assert code == 3
    assert f"{path}: episode 1: {message}" in caplog.text


def test_query_decoding_error_names_its_episode_then_its_query(trained, tmp_path, caplog,
                                                               monkeypatch):
    ckpt = trained[1]
    path = tmp_path / "episodes.jsonl"
    path.write_text((json.dumps(episode_record()) + "\n") * 2)  # two queries each
    calls = []

    def fail_fourth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise NumericError("planted")
        return decode_sentence(*args, **kwargs)

    monkeypatch.setattr(inference, "decode_sentence", fail_fourth)
    code = main(SMALL + ["--out", str(tmp_path / "out"), "evaluate", "--checkpoint", str(ckpt),
                         "--protocol", "episode", "--episodes", str(path)])
    assert code == 4
    assert "numeric error: episode 1: query sentence 1: planted" in caplog.text


def test_low_resource_error_names_its_seed(trained, tmp_path, caplog):
    (_, train_path, support_path, _), ckpt = trained
    code = main(SMALL + ["--seed", "5", "--out", str(tmp_path / "out"), "evaluate",
                         "--checkpoint", str(ckpt), "--protocol", "low-resource",
                         "--support", str(train_path), "--test-corpus", str(support_path),
                         "--n-way", "2", "--k-shot", "50", "--n-runs", "3"])
    assert code == 3
    assert "data error: low-resource run seed 5: cannot reach k_shot=50 shots" in caplog.text


def test_support_class_the_checkpoints_label_map_lacks_names_both_files(trained, tmp_path,
                                                                        capsys, caplog):
    _, ckpt = trained
    support = tmp_path / "support.conll"
    support.write_text("zent0\tI-ZZ\nfiller1\tO\n")
    code = main(SMALL + ["--out", str(tmp_path / "out"), "finetune", "--checkpoint", str(ckpt),
                         "--support", str(support)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    assert "missing phrases for: ZZ" in caplog.text
    assert str(ckpt) in caplog.text and str(support) in caplog.text


@pytest.mark.parametrize("command, output", [("predict", "predictions.conll"),
                                             ("dump-embeddings", "embeddings.tsv")])
def test_input_tags_of_a_class_the_model_lacks_are_not_read(trained, tmp_path, command,
                                                            output):
    # trained on A and B; the support holds A alone and the input tags ORG
    (_, train_path, _, _), ckpt = trained
    support = tmp_path / "support.conll"
    write_conll([s for s in read_conll(str(train_path)) if "A" in s.entity_classes()],
                str(support))
    query = tmp_path / "query.conll"
    write_conll([Sentence(("aent0", "filler1", "bent2"), ("I-ORG", "O", "I-A"))], str(query))
    args = {"predict": ["--support", str(support)], "dump-embeddings": []}[command]
    code = main(SMALL + ["--out", str(tmp_path / "out"), command, "--checkpoint", str(ckpt),
                         "--input", str(query)] + args)
    assert code == 0
    assert (tmp_path / "out" / output).exists()


def write_huge_unk_inputs(trained, tmp_path, unseen_in):
    """A copy of the trained checkpoint whose [UNK] embedding is finite but
    spreads wider than the float range, one entry 1.7e308 and the rest
    -1.7e308, so that layer norm's centring overflows and every sentence with
    an unknown word encodes to NaN, and support.conll and input.conll under
    tmp_path, the first sentence of `unseen_in` starting with an unknown word.
    Returns the checkpoint's path."""
    (_, _, support_path, _), ckpt_path = trained
    ckpt = load_checkpoint(str(ckpt_path))
    row = ckpt.params["emb.token"].data[ckpt.vocab.id(UNK)]
    row[:] = -1.7e308
    row[0] = 1.7e308
    huge = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, str(huge))
    files = {"support": read_conll(str(support_path)), "input": read_conll(str(support_path))}
    first = files[unseen_in][0]
    files[unseen_in][0] = Sentence(("zzunseen",) + first.tokens[1:], first.tags)
    for name, sentences in files.items():
        write_conll(sentences, str(tmp_path / f"{name}.conll"))
    return huge


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("unseen_in, named", [("support", "support bank rows"),
                                               ("input", "query sentence 0: 4 of 4 query rows")])
def test_non_finite_hidden_states_are_numeric_error(trained, tmp_path, capsys, caplog,
                                                    unseen_in, named):
    huge = write_huge_unk_inputs(trained, tmp_path, unseen_in)
    code = main(SMALL + ["--out", str(tmp_path / "out"), "predict", "--checkpoint", str(huge),
                         "--support", str(tmp_path / "support.conll"),
                         "--input", str(tmp_path / "input.conll")])
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err
    assert "numeric error: " in caplog.text and f"{named} hold non-finite" in caplog.text
    assert not (tmp_path / "out" / "predictions.conll").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_hidden_states_in_dump_embeddings_are_numeric_error(trained, tmp_path,
                                                                       capsys, caplog):
    huge = write_huge_unk_inputs(trained, tmp_path, "input")
    out = tmp_path / "out"
    code = main(SMALL + ["--out", str(out), "dump-embeddings", "--checkpoint", str(huge),
                         "--input", str(tmp_path / "input.conll")])
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err
    assert ("numeric error: 4 of 4 rows of sentence 0 hold non-finite hidden states: "
            "token 0, token 1, token 2, token 3") in caplog.text
    # no dump, whole or partial, and no temporary file beside it
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]


def test_low_resource_test_classes_absent_from_the_support_are_data_error(trained, tmp_path,
                                                                           caplog):
    (_, train_path, _, _), ckpt = trained
    test = tmp_path / "test.conll"
    write_conll([Sentence(("aent0", "filler1"), ("I-A", "O")),
                 Sentence(("x", "y"), ("I-ORG", "O"))], str(test))
    code = main(SMALL + ["--out", str(tmp_path / "out"), "evaluate", "--checkpoint", str(ckpt),
                         "--protocol", "low-resource", "--support", str(train_path),
                         "--test-corpus", str(test), "--n-way", "2", "--n-runs", "1"])
    assert code == 3
    assert str(test) in caplog.text and "'ORG'" in caplog.text


# arguments after the global flags of each subcommand that loads a checkpoint
FROM_CHECKPOINT = {
    "finetune": ["finetune", "--checkpoint", "{ckpt}", "--support", "{support}"],
    "predict": ["predict", "--checkpoint", "{ckpt}", "--support", "{support}",
                "--input", "{support}"],
    "evaluate": ["evaluate", "--checkpoint", "{ckpt}", "--protocol", "low-resource",
                 "--support", "{train}", "--test-corpus", "{support}",
                 "--n-way", "2", "--k-shot", "1", "--n-runs", "1"],
    "dump-embeddings": ["dump-embeddings", "--checkpoint", "{ckpt}", "--input", "{support}"],
}


def _from_checkpoint(trained, command):
    (_, train_path, support_path, _), ckpt = trained
    paths = {"ckpt": ckpt, "support": support_path, "train": train_path}
    return [arg.format(**paths) for arg in FROM_CHECKPOINT[command]]


@pytest.mark.parametrize("command", sorted(FROM_CHECKPOINT))
@pytest.mark.parametrize("setting,key", [
    ("encoder.d=32", "encoder.d"),
    ('encoder={"n_heads": 4, "dropout": 0.0}', "encoder.n_heads"),
    ("embed_dim=16", "embed_dim"),
    ("max_len=128", "max_len"),
])
def test_model_setting_unlike_the_checkpoints_is_usage_error(trained, tmp_path, caplog,
                                                             command, setting, key):
    out = tmp_path / "out"
    code = main(["--set", setting, "--out", str(out)] + _from_checkpoint(trained, command))
    assert code == 2
    assert f"{key}=" in caplog.text and "differs from the checkpoint" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(FROM_CHECKPOINT))
def test_snapshot_records_the_checkpoints_model_settings(trained, tmp_path, command):
    args = _from_checkpoint(trained, command)
    assert main(["--out", str(tmp_path / "out")] + args) == 0
    snap = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert snap["encoder"] == {"d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": None,
                               "dropout": 0.0}
    assert snap["embed_dim"] == 8 and snap["max_len"] == 24
    # the replay gives every model setting explicitly, each equal to the checkpoint's
    assert main(["--config", str(tmp_path / "out" / "resolved_config.json"),
                 "--out", str(tmp_path / "replay")] + args) == 0


def test_every_command_after_train_takes_the_checkpoints_max_len(workspace, caplog):
    # a 256-position model holds a 150-token input whole, with its 8-token
    # prompt and 3 specials; the default budget of 128 would hold 117 tokens
    tmp_path, train_path, support_path, _ = workspace
    code, out = run_train(workspace, extra=["--set", "max_len=256"])
    assert code == 0
    ckpt = str(out / "checkpoint.ckpt")
    long_path = tmp_path / "long.conll"
    write_conll([Sentence(tuple(f"filler{i % 8}" for i in range(149)) + ("aent0",),
                          ("O",) * 149 + ("I-A",))], str(long_path))
    commands = {
        "predict": ["predict", "--checkpoint", ckpt, "--support", str(support_path),
                    "--input", str(long_path)],
        "dump-embeddings": ["dump-embeddings", "--checkpoint", ckpt, "--input", str(long_path)],
        "finetune": ["finetune", "--checkpoint", ckpt, "--support", str(long_path)],
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--protocol", "low-resource",
                     "--support", str(train_path), "--test-corpus", str(long_path),
                     "--n-way", "2", "--k-shot", "1", "--n-runs", "1"],
    }
    for command, args in commands.items():
        fast = ["--set", "max_finetune_iters=3", "--out", str(tmp_path / command)]
        assert main(fast + args) == 0, command
        snap = json.loads((tmp_path / command / "resolved_config.json").read_text())
        assert snap["max_len"] == 256, command
        caplog.clear()
        assert main(["--set", "max_len=128", "--out", str(tmp_path / "x")] + args) == 2
        assert "max_len=128 differs from the checkpoint's 256" in caplog.text
    rows = (tmp_path / "dump-embeddings" / "embeddings.tsv").read_text().splitlines()
    assert len(rows) == 1 + 150  # the header, then every token
    predict = tmp_path / "predict"
    assert main(["--config", str(predict / "resolved_config.json"),
                 "--out", str(tmp_path / "replay")] + commands["predict"]) == 0
    assert (tmp_path / "replay" / "predictions.conll").read_bytes() == \
           (predict / "predictions.conll").read_bytes()


@pytest.mark.parametrize("checkpoint", ["trained", "missing"])
@pytest.mark.parametrize("protocol,inputs,missing", [
    ("episode", [], "episodes"),
    ("low-resource", [], "support, test_corpus"),
    ("low-resource", ["--support", "{support}"], "test_corpus"),
    ("low-resource", ["--test-corpus", "{support}", "--episodes", "{support}"], "support"),
])
def test_evaluate_without_its_protocols_inputs_is_usage_error(trained, tmp_path, caplog,
                                                              checkpoint, protocol, inputs,
                                                              missing):
    # checked before the checkpoint is read, so a missing one is no data error
    (_, _, support_path, _), ckpt = trained
    ckpt = ckpt if checkpoint == "trained" else tmp_path / "missing.ckpt"
    out = tmp_path / "out"
    code = main(["--out", str(out), "evaluate", "--checkpoint", str(ckpt),
                 "--protocol", protocol] + [a.format(support=support_path) for a in inputs])
    assert code == 2
    assert f"evaluate ({protocol} protocol) requires: {missing}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("key", ["max_len", "embed_dim", "encoder.d", "encoder.ff_dim"])
def test_size_too_large_to_allocate_is_usage_error(workspace, capsys, caplog, key):
    # 10**15 float64 rows or columns, past any address space: the allocation
    # fails before a page is touched
    code, out = run_train(workspace, extra=["--set", f"{key}={10 ** 15}"])
    assert code == 2
    assert not out.exists()
    assert "out of memory" in caplog.text and "Unable to allocate" in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("config_text, flags, message", [
    pytest.param(None, ["--config", "{config}"], "cannot be read", id="config-unreadable"),
    pytest.param("{seed: 1}", ["--config", "{config}"], "is not valid JSON",
                 id="config-not-json"),
    pytest.param("[1, 2]", ["--config", "{config}"], "must hold a JSON object",
                 id="config-a-json-list"),
    pytest.param(None, ["--set", "seed"], "--set expects key=value, got 'seed'",
                 id="set-without-equals"),
    pytest.param(None, ["--set", "protocol=bogus"], "unknown protocol 'bogus'",
                 id="unknown-protocol"),
    pytest.param(None, ["--set", "shot_mode=2-shot"], "shot_mode must be",
                 id="unknown-shot-mode"),
])
def test_bad_config_file_or_set_flag_is_usage_error(tmp_path, caplog, config_text, flags,
                                                    message):
    config = tmp_path / "config.json"
    if config_text is not None:
        config.write_text(config_text)
    out = tmp_path / "out"
    code = main([f.format(config=config) for f in flags] + ["--out", str(out), "gradcheck"])
    assert code == 2
    assert message in caplog.text
    assert not out.exists()


# every key a config may set: the fields of TrainConfig and RunConfig, and the
# EncoderConfig fields that encoder.* overrides
ENCODER_KEYS = ["encoder.d", "encoder.n_layers", "encoder.n_heads", "encoder.ff_dim",
                "encoder.dropout"]
SCHEMA_KEYS = ([f.name for f in fields(TrainConfig)] + [f.name for f in fields(RunConfig)]
               + ENCODER_KEYS)


@pytest.mark.parametrize("key", SCHEMA_KEYS)
def test_wrong_typed_setting_is_usage_error_naming_its_key(tmp_path, caplog, key):
    # an object fits no field; given by --set after out, so it also replaces out
    out = tmp_path / "out"
    code = main(["--set", f"out={out}", "--set", f'{key}={{"x": 1}}', "gradcheck"])
    assert code == 2
    assert f"{key} must be" in caplog.text
    assert not out.exists()


def test_train_snapshot_holds_every_schema_key(trained):
    _, ckpt = trained
    snap = json.loads((ckpt.parent / "resolved_config.json").read_text())
    assert set(snap) == ({f.name for f in fields(TrainConfig)} | {f.name for f in fields(RunConfig)}
                         | {"encoder", "command"})


def test_older_snapshot_replays(tmp_path, monkeypatch):
    # written by an earlier release: `SMALL --seed 0 --out run train --train-corpus
    # train.conll --label-map labels.map`, run in a directory write_workspace filled
    old = os.path.join(os.path.dirname(__file__), "data", "resolved_config.json")
    write_workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", old, "--out", "replay", "train"]) == 0
    with open(old, encoding="utf-8") as f:
        expected = {**json.load(f), "out": "replay"}
    assert json.loads((tmp_path / "replay" / "resolved_config.json").read_text()) == expected
    assert main(SMALL + ["--seed", "0", "--out", "run", "train", "--train-corpus", "train.conll",
                         "--label-map", "labels.map"]) == 0
    assert (tmp_path / "replay" / "checkpoint.ckpt").read_bytes() == \
           (tmp_path / "run" / "checkpoint.ckpt").read_bytes()


# small integers, often valid, reach the sampler and its data errors
JSON_VALUES = st.integers(-1, 40) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(SCHEMA_KEYS + ["encoder"]),
       suffix=st.one_of(st.just(""), st.sampled_from([".x", ".d"])), value=JSON_VALUES)
def test_fuzzed_setting_exits_cleanly_and_names_its_key(workspace, capsys, caplog, key, suffix,
                                                         value):
    # after SMALL, so a dotted key may walk into SMALL's values; --out and
    # --support override any value --set gives those two keys
    tmp_path, train_path, _, _ = workspace
    capsys.readouterr()
    caplog.clear()
    code = main(SMALL + ["--set", f"{key}{suffix}={json.dumps(value)}",
                         "--out", str(tmp_path / "out"), "sample", "--support", str(train_path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if code:
        assert key.split(".")[-1] in caplog.text


# -- every file a subcommand reads, malformed ------------------------------------

# per subcommand: its file flags, each with the kind of file it reads, and the
# other arguments it needs
FILE_READERS = {
    "train": ({"--train-corpus": "corpus", "--label-map": "label_map"}, []),
    "finetune": ({"--checkpoint": "checkpoint", "--support": "corpus",
                  "--label-map": "label_map"}, []),
    "predict": ({"--checkpoint": "checkpoint", "--support": "corpus", "--input": "corpus"}, []),
    "evaluate": ({"--checkpoint": "checkpoint", "--episodes": "episodes"},
                 ["--protocol", "episode"]),
    "evaluate-low-resource": ({"--checkpoint": "checkpoint", "--support": "corpus",
                               "--test-corpus": "corpus"},
                              ["--protocol", "low-resource", "--n-way", "2", "--n-runs", "1"]),
    "sample": ({"--support": "corpus"}, ["--n-way", "2", "--k-shot", "1"]),
    "dump-embeddings": ({"--checkpoint": "checkpoint", "--input": "corpus"}, []),
}
SLOTS = [(command, flag) for command, (flags, _) in FILE_READERS.items() for flag in flags]

LINE_FIELDS = st.sampled_from(["w", "I-A", "I-B", "B-A", "O", "A", "I-", "=", "A = alpha",
                               "#", " ", ""])
# lines of 0 to 4 fields: wrong column counts for a corpus, or stray ones for a label map
TEXT = st.lists(st.lists(LINE_FIELDS, max_size=4).map("\t".join), max_size=6).map("\n".join)


def _checkpoint_meta(blob: bytes) -> tuple[dict, bytes, bytes]:
    """A checkpoint's metadata, the bytes before it and the bytes after it."""
    (meta_len,) = struct.unpack("<Q", blob[12:20])
    return json.loads(blob[20:20 + meta_len]), blob[:12], blob[20 + meta_len:]


def _with_meta(blob: bytes, meta) -> bytes:
    _, head, tail = _checkpoint_meta(blob)
    meta_bytes = json.dumps(meta).encode()
    return head + struct.pack("<Q", len(meta_bytes)) + meta_bytes + tail


def _replaced(record, path: tuple, value):
    """A copy of the JSON record with the value at `path` replaced."""
    if not path:
        return value
    record = copy.deepcopy(record)
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return record


EPISODE_PATHS = [(), ("support",), ("query",), ("types",), ("K",), ("support", "word"),
                 ("support", "label"), ("query", "word"), ("query", "label"),
                 ("support", "word", 0), ("query", "label", 0), ("types", 0)]
META_PATHS = [(), ("version",), ("encoder_config",), ("vocab",), ("label_map",), ("label_set",),
              ("embed_dim",), ("encoder_config", "d"), ("encoder_config", "vocab_size"),
              ("encoder_config", "max_len"), ("label_set", "classes"), ("label_set", "role"),
              ("label_map", "O"), ("vocab", "[CLS]")]


@st.composite
def malformed_files(draw, kind: str, valid: bytes):
    """(bytes to write, or None for a directory) of a malformed file of `kind`."""
    how = draw(st.sampled_from(["bytes", "directory", "text", "json", "truncated"]))
    if how == "directory":
        return None
    if how == "bytes":
        return draw(st.binary(max_size=64))
    if how == "truncated":
        return valid[:draw(st.integers(0, max(0, len(valid) - 1)))]
    if how == "text" or kind in ("corpus", "label_map"):
        return draw(TEXT).encode()
    value = draw(JSON_VALUES)
    if kind == "episodes":
        record = _replaced(episode_record(), draw(st.sampled_from(EPISODE_PATHS)), value)
        return (json.dumps(record) + "\n").encode()
    meta, _, _ = _checkpoint_meta(valid)
    return _with_meta(valid, _replaced(meta, draw(st.sampled_from(META_PATHS)), value))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slot=st.sampled_from(SLOTS), data=st.data())
def test_malformed_file_exits_cleanly_and_names_it(trained, capsys, caplog, slot, data):
    (_, train_path, support_path, map_path), ckpt = trained
    command, bad_flag = slot
    flags, extra = FILE_READERS[command]
    with tempfile.TemporaryDirectory() as tmp:
        episodes = os.path.join(tmp, "episodes.jsonl")
        with open(episodes, "w", encoding="utf-8") as f:
            f.write(json.dumps(episode_record()) + "\n")
        valid = {"corpus": str(support_path), "label_map": str(map_path),
                 "checkpoint": str(ckpt), "episodes": episodes}
        if command == "train":
            valid["corpus"] = str(train_path)
        bad = os.path.join(tmp, "bad")
        with open(valid[flags[bad_flag]], "rb") as f:
            content = data.draw(malformed_files(flags[bad_flag], f.read()))
        if content is None:
            os.mkdir(bad)
        else:
            with open(bad, "wb") as f:
                f.write(content)
        argv = [command.split("-low-resource")[0]] + extra
        for flag, kind in flags.items():
            argv += [flag, bad if flag == bad_flag else valid[kind]]
        capsys.readouterr()
        caplog.clear()
        code = main(SMALL + ["--out", os.path.join(tmp, "out")] + argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if code:  # the file, or the setting it fails, such as `need n_way=2` of the sampler
        assert bad in caplog.text or any(f"{key}=" in caplog.text for key in SCHEMA_KEYS)
