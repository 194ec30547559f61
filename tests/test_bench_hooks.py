"""The benchmark's hooks still reach what they wrap.

`bench/tracer.py` wraps fewtag functions by name in the modules their
callers look them up in, and `bench/workloads.py`'s `DecodeChecker` wraps
`inference.decode_sentence`.  A renamed function or a changed call path in
`src/` would drop calls out of the benchmark's trace and output checks.
This runs a tiny train, fine-tune, bank and decode pipeline under both and
checks that every wrapper was installed and reached once per encoder pass,
that the tracer files each pass under train or eval time by the path that
made it, and that packed query decoding still hands every query to the
checker.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import gen  # noqa: E402  (bench modules, found through the path above)
import tracer  # noqa: E402
from workloads import DecodeChecker  # noqa: E402

from fewtag import inference, training  # noqa: E402
from fewtag.data import LabelSet  # noqa: E402
from fewtag.training import TrainConfig  # noqa: E402

ENC = {"d": 16, "n_layers": 1, "n_heads": 2}


@pytest.fixture
def hooks():
    trace, checker = tracer.Tracer(), DecodeChecker()
    checker.install()
    trace.install()
    try:
        yield trace, checker
    finally:
        trace.uninstall()
        checker.uninstall()


def test_every_patched_name_is_wrapped(hooks):
    for fname, callers in tracer.SPAN_TARGETS.values():
        for module in callers:
            assert hasattr(getattr(module, fname), "__wrapped__"), (module.__name__, fname)


def test_tracer_and_checker_see_every_stage(hooks):
    trace, checker = hooks
    rng = np.random.default_rng(0)
    config = TrainConfig(batch_size=4, embed_dim=8, max_len=48, max_finetune_iters=3)

    def encode_calls():
        return trace.calls["encoder.encode"]

    def encode_split():
        return trace.seconds["encoder.encode_train"], trace.seconds["encoder.encode_eval"]

    def grew(before):
        """Which of the tracer's (train, eval) encode seconds grew since `before`."""
        return tuple(now > then for now, then in zip(encode_split(), before))

    split = encode_split()
    source = gen.corpus(rng, list(gen.SOURCE_PHRASES), 6, gen.SOURCE_MAX_MENTIONS)
    ckpt, log = training.train_source(source, gen.source_label_set(), gen.label_map(),
                                      config, encoder_overrides=ENC)
    steps = math.ceil(len(source) / config.batch_size)
    assert len(log) == steps
    assert encode_calls() == steps
    assert grew(split) == (True, False)
    assert trace.calls["losses.build_batch_view"] == steps
    assert trace.calls["training.adamw_step"] == steps
    assert trace.calls["autodiff.backward"] == steps

    ep = gen.episode(rng, 2, 1, 3)
    label_set = LabelSet(tuple(ep.classes), role="target")
    before, split = encode_calls(), encode_split()
    tuned, result = inference.finetune(ckpt, ep.support, label_set, ckpt.label_map, config)
    assert trace.calls["training.finetune"] == 1
    assert encode_calls() - before == result.iterations
    assert grew(split) == (True, False)

    before, split = encode_calls(), encode_split()
    bank = inference.build_support_bank(tuned, ep.support)
    assert encode_calls() - before == 1  # the whole support fits one pack
    assert trace.counts["inference.bank_rows"] == len(bank.tags)
    assert grew(split) == (False, True)

    before, split = encode_calls(), encode_split()
    inference.decode_sentences(tuned, ep.query, bank)
    assert encode_calls() - before == 1  # the queries fit one pack
    assert grew(split) == (False, True)
    assert trace.calls["inference.decode_sentence"] == len(ep.query)
    assert trace.calls["inference.nn_decode"] == len(ep.query)
    assert checker.checked == len(ep.query) and checker.problems == []

    metrics = trace.metrics()
    assert 0.0 < metrics["encoder.occupied_ratio"] <= 1.0
    assert metrics["autodiff.nodes"] > 0


def test_packed_query_decoding_passes_every_query_through_the_checker(hooks):
    trace, checker = hooks
    rng = np.random.default_rng(1)
    config = TrainConfig(batch_size=4, embed_dim=8, max_len=48, max_finetune_iters=3)
    source = gen.corpus(rng, list(gen.SOURCE_PHRASES), 4, gen.SOURCE_MAX_MENTIONS)
    ckpt, _ = training.train_source(source, gen.source_label_set(), gen.label_map(),
                                    config, encoder_overrides=ENC)
    ep = gen.episode(rng, 2, 1, 5)
    assert sum(len(q.tokens) for q in ep.query) < inference.PACK_ROWS // 2  # one pack
    before = trace.calls["encoder.encode"]
    report = inference.evaluate_episodes(ckpt, [ep], config)
    assert report.tp + report.fn == sum(len(inference.extract_spans(q.tags)) for q in ep.query)
    # fine-tuning takes one pass per iteration, the bank one, and the queries one
    iterations = trace.counts["training.finetune.iterations"]
    assert trace.calls["encoder.encode"] - before == iterations + 2
    assert trace.calls["inference.decode_sentence"] == len(ep.query)
    assert trace.calls["inference.nn_decode"] == len(ep.query)
    assert checker.checked == len(ep.query) and checker.problems == []


def test_low_resource_runs_reach_every_hook(hooks):
    trace, checker = hooks
    rng = np.random.default_rng(2)
    config = TrainConfig(batch_size=4, embed_dim=8, max_len=48, max_finetune_iters=3)
    source = gen.corpus(rng, list(gen.SOURCE_PHRASES), 4, gen.SOURCE_MAX_MENTIONS)
    ckpt, _ = training.train_source(source, gen.source_label_set(), gen.label_map(),
                                    config, encoder_overrides=ENC)
    classes = list(gen.TARGET_PHRASES)[:2]
    pool = gen.corpus(rng, classes, 8, gen.TARGET_MAX_MENTIONS)
    test = gen.corpus(rng, classes, 5, gen.TARGET_MAX_MENTIONS)
    seeds = [0, 1]
    report = inference.low_resource_eval(ckpt, LabelSet(tuple(classes), role="target"), pool,
                                         test, n_way=2, k_shot=1, seeds=seeds, config=config)
    assert len(report.per_run) == len(seeds)
    # every seed is sampled before any is fine-tuned on, all under the protocol's span
    top = [sid for sid, span in enumerate(trace.spans) if span[0] == "inference.low_resource_eval"]
    assert len(top) == 1
    stages = ("data.greedy_sample_support", "training.finetune", "inference.build_support_bank")
    assert [span[0] for span in trace.spans if span[3] == top[0] and span[0] in stages] == (
        [stages[0]] * len(seeds) + [*stages[1:]] * len(seeds))
    decoded = len(seeds) * len(test)
    assert trace.calls["inference.decode_sentence"] == decoded
    assert trace.calls["inference.nn_decode"] == decoded
    assert checker.checked == decoded and checker.problems == []
