"""The benchmark's hooks still reach what they wrap.

`bench/tracer.py` wraps fewtag functions by name in the modules their
callers look them up in, and `bench/workloads.py`'s `DecodeChecker` wraps
`inference.decode_sentence`.  A renamed function or a changed call path in
`src/` would drop calls out of the benchmark's trace and output checks.
This runs a tiny train, fine-tune, bank and decode pipeline under both and
checks that every wrapper was installed and reached once per encoder pass,
and that packed query decoding still hands every query to the checker.
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

    source = gen.corpus(rng, list(gen.SOURCE_PHRASES), 6, gen.SOURCE_MAX_MENTIONS)
    ckpt, log = training.train_source(source, gen.source_label_set(), gen.label_map(),
                                      config, encoder_overrides=ENC)
    steps = math.ceil(len(source) / config.batch_size)
    assert len(log) == steps
    assert encode_calls() == steps
    assert trace.calls["losses.build_batch_view"] == steps
    assert trace.calls["training.adamw_step"] == steps
    assert trace.calls["autodiff.backward"] == steps

    ep = gen.episode(rng, 2, 1, 3)
    label_set = LabelSet(tuple(ep.classes), role="target")
    before = encode_calls()
    tuned, result = inference.finetune(ckpt, ep.support, label_set, ckpt.label_map, config)
    assert trace.calls["training.finetune"] == 1
    assert encode_calls() - before == result.iterations

    before = encode_calls()
    bank = inference.build_support_bank(tuned, ep.support)
    assert encode_calls() - before == 1  # the whole support fits one pack
    assert trace.counts["inference.bank_rows"] == len(bank.tags)

    before = encode_calls()
    for sent in ep.query:
        inference.decode_sentence(tuned, sent, bank)
    assert encode_calls() - before == len(ep.query)
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
