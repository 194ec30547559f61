import dataclasses
import os
import pickle
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewtag import autodiff as ad
from fewtag import inference
from fewtag.autodiff import NumericError, ShapeError
from fewtag.data import (DataError, Episode, LabelSet, Sentence, build_vocab,
                         greedy_sample_support)
from fewtag.encoder import EncoderConfig
from fewtag.inference import (EvalReport, Span, SupportBank, build_support_bank,
                              decode_sentences, dump_embeddings, evaluate_episodes,
                              extract_spans, low_resource_eval, nn_decode, span_counts)
from fewtag.prompt import assemble_input, build_label_prompt
from fewtag.training import Checkpoint, TrainConfig, finetune, init_params, train_source

from synthdata import label_setup, separable_corpus
from test_training import SMALL_ENC, make_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import gen  # noqa: E402  (the benchmark's corpus generator, found through the path above)


def bank_from(vectors, tags):
    prov = tuple((0, i) for i in range(len(tags)))
    return SupportBank(vectors=np.asarray(vectors, dtype=np.float64),
                       tags=tuple(tags), provenance=prov)


class TestNNDecode:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, m, d = rng.integers(2, 12), rng.integers(1, 8), int(rng.integers(2, 6))
            bank_vecs = rng.normal(size=(n, d))
            tags = tuple(f"I-C{i % 3}" if i % 2 else "O" for i in range(n))
            bank = bank_from(bank_vecs, tags)
            queries = rng.normal(size=(m, d))
            got = nn_decode(queries, bank)
            for q, tag in zip(queries, got):
                best_i, best_d = 0, float("inf")
                for i, v in enumerate(bank_vecs):
                    dist = float(((v - q) ** 2).sum())
                    if dist < best_d:
                        best_i, best_d = i, dist
                assert tag == tags[best_i]

    def test_tie_goes_to_lowest_index(self):
        bank = bank_from([[1.0, 0.0], [-1.0, 0.0]], ("I-A", "I-B"))
        assert nn_decode(np.array([[0.0, 0.0]]), bank) == ["I-A"]

    @staticmethod
    def loop_decode(queries, bank):
        # one query at a time, the same exact-difference distances
        return [bank.tags[int(np.argmin(((bank.vectors - q) ** 2).sum(axis=1)))]
                for q in queries]

    @pytest.mark.parametrize("chunk_elements", [1, 64, inference.NN_CHUNK_ELEMENTS])
    def test_chunks_match_per_query_loop(self, monkeypatch, chunk_elements):
        monkeypatch.setattr(inference, "NN_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m, d = int(rng.integers(1, 40)), int(rng.integers(1, 30)), int(rng.integers(1, 9))
            bank = bank_from(rng.normal(size=(n, d)), [f"I-C{i}" for i in range(n)])
            # half the queries sit exactly on a bank row
            queries = np.concatenate([rng.normal(size=(m, d)),
                                      bank.vectors[rng.integers(0, n, size=m)]])
            assert nn_decode(queries, bank) == self.loop_decode(queries, bank)

    @pytest.mark.parametrize("chunk_elements", [1, inference.NN_CHUNK_ELEMENTS])
    def test_planted_ties_go_to_lowest_row(self, monkeypatch, chunk_elements):
        monkeypatch.setattr(inference, "NN_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            centre = rng.integers(-3, 4, size=d).astype(float)
            offsets = np.eye(d)[rng.integers(0, d, size=6)] * rng.choice([-1.0, 1.0], size=(6, 1))
            # every row is at squared distance 1 from the centre, some duplicated
            vectors = np.concatenate([centre + offsets, centre + offsets[:2],
                                      centre + 5.0 + rng.normal(size=(3, d))])
            order = rng.permutation(len(vectors))
            bank = bank_from(vectors[order], [f"I-C{i}" for i in range(len(vectors))])
            queries = np.stack([centre] * 4)
            got = nn_decode(queries, bank)
            assert got == self.loop_decode(queries, bank)
            first_tied = min(np.nonzero(order < 8)[0])
            assert got == [bank.tags[first_tied]] * 4

    def test_dimension_mismatch_rejected(self):
        bank = bank_from([[0.0, 0.0]], ("O",))
        with pytest.raises(DataError):
            nn_decode(np.zeros((1, 3)), bank)

    def test_empty_bank_rejected(self):
        with pytest.raises(DataError):
            bank_from(np.zeros((0, 2)), ())


def adversarial_bank_and_queries(rng, d, scale):
    """Bank rows 1 to 2^30 ulps apart and exact duplicates; queries on bank
    rows, a hair off them, halfway between two of them and far from all."""
    base = rng.normal(size=(int(rng.integers(1, 5)), d)) * scale
    near = base[rng.integers(0, len(base), size=8)]
    ulps = np.round(2.0 ** rng.uniform(0, 30, size=(8, 1))) * rng.choice([-1, 0, 1], near.shape)
    near = near + ulps * np.spacing(near)
    vectors = np.concatenate([base, near])
    vectors = np.concatenate([vectors, vectors[rng.integers(0, len(vectors), size=3)]])
    vectors = vectors[rng.permutation(len(vectors))]
    on = vectors[rng.integers(0, len(vectors), size=6)]
    off = on * (1 + 1e-9 * rng.normal(size=on.shape))
    i, j = rng.integers(0, len(vectors), size=(2, 4))
    between = (vectors[i] + vectors[j]) / 2
    far = rng.normal(size=(2, d)) * scale
    return vectors, np.concatenate([on, off, between, far])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 128), exponent=st.integers(-100, 100),
       chunk_elements=st.sampled_from([1, 64, inference.NN_CHUNK_ELEMENTS]))
def test_nn_decode_is_exact_on_near_ties(seed, d, exponent, chunk_elements):
    rng = np.random.default_rng(seed)
    vectors, queries = adversarial_bank_and_queries(rng, d, 10.0 ** exponent)
    # one tag per row, so that any other row, a tied one included, shows
    bank = bank_from(vectors, [f"I-C{i}" for i in range(len(vectors))])
    with mock.patch.object(inference, "NN_CHUNK_ELEMENTS", chunk_elements):
        assert nn_decode(queries, bank) == TestNNDecode.loop_decode(queries, bank)


def test_distances_that_overflow_the_first_stage_are_recomputed_exactly():
    # |q|^2 near 1e320 overflows; the exact differences, near 1e150, do not
    rng = np.random.default_rng(4)
    vectors = 1e160 + 1e150 * rng.normal(size=(6, 3))
    bank = bank_from(vectors, [f"I-C{i}" for i in range(6)])
    order = rng.permutation(6)
    with np.errstate(over="ignore", invalid="ignore"):
        got = nn_decode(vectors[order], bank)
        assert got == TestNNDecode.loop_decode(vectors[order], bank)
    assert got == [f"I-C{i}" for i in order]


class TestNonFinite:
    def test_bank_names_its_rows_that_are_not_finite(self):
        vectors = np.zeros((4, 2))
        vectors[1, 0], vectors[3, 1] = np.nan, -np.inf
        with pytest.raises(NumericError, match="2 of 4 support bank rows hold non-finite "
                                               "hidden states: sentence 0 token 1, "
                                               "sentence 0 token 3$"):
            bank_from(vectors, ["O"] * 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nn_decode_names_query_rows_that_are_not_finite(self, bad):
        bank = bank_from([[0.0, 0.0], [1.0, 1.0]], ("O", "I-A"))
        queries = np.zeros((3, 2))
        queries[2, 1] = bad
        with pytest.raises(NumericError, match="1 of 3 query rows .*: row 2$"):
            nn_decode(queries, bank)


class TestSpans:
    def test_basic_runs(self):
        tags = ["O", "I-A", "I-A", "O", "I-B"]
        assert extract_spans(tags) == [Span(1, 2, "A"), Span(4, 4, "B")]

    def test_adjacent_class_change_splits(self):
        assert extract_spans(["I-A", "I-B"]) == [Span(0, 0, "A"), Span(1, 1, "B")]

    def test_all_o(self):
        assert extract_spans(["O", "O"]) == []

    def test_trailing_run_closed(self):
        assert extract_spans(["O", "I-A"]) == [Span(1, 1, "A")]

    def test_accepts_iterator(self):
        assert extract_spans(iter(["I-A"])) == [Span(0, 0, "A")]

    def test_invalid_span_rejected(self):
        with pytest.raises(DataError):
            Span(2, 1, "A")
        with pytest.raises(DataError):
            Span(0, 0, "O")


IO_TAGS = st.sampled_from(["O", "I-A", "I-B", "I-C"])


def oracle_spans(tags):
    """Every (start, end, class) whose tags are one class and cannot grow."""
    out = set()
    for i in range(len(tags)):
        for j in range(i, len(tags)):
            run = set(tags[i:j + 1])
            if (len(run) == 1 and tags[i] != "O"
                    and (i == 0 or tags[i - 1] != tags[i])
                    and (j == len(tags) - 1 or tags[j + 1] != tags[j])):
                out.add((i, j, tags[i][2:]))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(IO_TAGS, max_size=20))
def test_extract_spans_matches_oracle(tags):
    spans = extract_spans(tags)
    assert [s.start for s in spans] == sorted(s.start for s in spans)
    assert {(s.start, s.end, s.cls) for s in spans} == oracle_spans(tags)
    assert len(spans) == len(oracle_spans(tags))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(IO_TAGS, min_size=n, max_size=n),
                        st.lists(IO_TAGS, min_size=n, max_size=n))), max_size=5))
def test_span_counts_match_oracle(pairs):
    gold = [extract_spans(g) for g, _ in pairs]
    pred = [extract_spans(p) for _, p in pairs]
    want = [0, 0, 0]
    for g, p in pairs:
        g_spans, p_spans = oracle_spans(g), oracle_spans(p)
        want[0] += sum(1 for s in p_spans if s in g_spans)
        want[1] += sum(1 for s in p_spans if s not in g_spans)
        want[2] += sum(1 for s in g_spans if s not in p_spans)
    assert span_counts(gold, pred) == tuple(want)


class TestMicroF1:
    def test_hand_counted_example(self):
        # one sentence: gold spans (1,2,A) and (4,4,B); prediction finds only
        # the first, so precision 1, recall 0.5, F1 2/3
        gold = [[Span(1, 2, "A"), Span(4, 4, "B")]]
        pred = [[Span(1, 2, "A")]]
        rep = EvalReport(*span_counts(gold, pred))
        assert (rep.tp, rep.fp, rep.fn) == (1, 0, 1)
        assert rep.precision == 1.0
        assert rep.recall == 0.5
        assert rep.f1 == pytest.approx(2 / 3)

    def test_boundary_or_class_error_counts_twice(self):
        gold = [[Span(1, 2, "A")]]
        pred = [[Span(1, 1, "A")]]
        rep = EvalReport(*span_counts(gold, pred))
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)
        assert rep.f1 == 0.0

    def test_pooled_over_sentences(self):
        gold = [[Span(0, 0, "A")], [Span(0, 0, "B"), Span(2, 2, "B")]]
        pred = [[Span(0, 0, "A")], [Span(0, 0, "B")]]
        rep = EvalReport(*span_counts(gold, pred))
        assert (rep.tp, rep.fp, rep.fn) == (2, 0, 1)
        assert rep.f1 == pytest.approx(0.8)

    def test_matches_bruteforce_on_random_tag_sequences(self):
        rng = np.random.default_rng(1)
        choices = ["O", "I-A", "I-B"]
        for _ in range(100):
            n = int(rng.integers(1, 15))
            g_tags = [choices[i] for i in rng.integers(0, 3, size=n)]
            p_tags = [choices[i] for i in rng.integers(0, 3, size=n)]
            gold, pred = [extract_spans(g_tags)], [extract_spans(p_tags)]
            rep = EvalReport(*span_counts(gold, pred))
            gs, ps = set(gold[0]), set(pred[0])
            tp = len(gs & ps)
            prec = tp / len(ps) if ps else 0.0
            rec = tp / len(gs) if gs else 0.0
            want = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert rep.f1 == pytest.approx(want)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            span_counts([[]], [[], []])

    def test_run_statistics(self):
        rep = EvalReport(tp=0, fp=0, fn=0, per_run=[0.5, 0.7, 0.9])
        assert rep.mean == pytest.approx(0.7)
        assert rep.std == pytest.approx(np.std([0.5, 0.7, 0.9], ddof=1))
        assert "per_run" in rep.summary()


@pytest.fixture(scope="module")
def trained():
    corpus = separable_corpus(n_sentences=16, seed=10)
    label_set, label_map = label_setup(("A", "B"))
    config = make_config(epochs=1)
    ckpt, _ = train_source(corpus, label_set, label_map, config, SMALL_ENC)
    return ckpt, config, corpus, label_set


class TestDecoding:
    def test_support_tokens_decode_to_their_own_tags(self, trained):
        ckpt, config, corpus, _ = trained
        support = corpus[:6]
        bank = build_support_bank(ckpt, support)
        assert decode_sentences(ckpt, support, bank) == [list(s.tags) for s in support]

    def test_truncated_positions_default_to_o(self, trained):
        ckpt, config, corpus, _ = trained
        bank = build_support_bank(ckpt, corpus[:2])
        long_sent = Sentence(tuple(f"w{i}" for i in range(40)), ("O",) * 40)
        [pred] = decode_sentences(ckpt, [long_sent], bank)
        assert len(pred) == 40
        assert pred[-1] == "O"

    def test_eval_passes_build_no_graph_and_free_every_node(self, trained, monkeypatch):
        ckpt, config, corpus, _ = trained
        made = []
        original = ad._make

        def recording(data, prev, op, vjp):
            out = original(data, prev, op, vjp)
            made.append((weakref.ref(out), out._prev, out._vjp))
            return out

        monkeypatch.setattr(ad, "_make", recording)
        grads = {k: p.grad for k, p in ckpt.params.items()}
        rows = [r for r, _ in inference._context_hiddens(ckpt, corpus)]
        assert len(rows) == len(corpus) and made
        assert all(prev == () and vjp is None for _, prev, vjp in made)
        assert all(ref() is None for ref, _, _ in made)
        # the checkpoint's own parameters are read, not wrapped into a graph
        assert all(p.requires_grad and p.grad is grads[k] for k, p in ckpt.params.items())

    def test_bank_over_several_packs_equals_one_of_packs_of_one(self, trained, monkeypatch):
        ckpt, config, corpus, _ = trained
        banks = []
        for rows in (1, 40, inference.PACK_ROWS):  # one sentence per pass, a few, all
            monkeypatch.setattr(inference, "PACK_ROWS", rows)
            banks.append(build_support_bank(ckpt, corpus))
        for bank in banks[1:]:
            np.testing.assert_array_equal(bank.vectors, banks[0].vectors)
            assert bank.tags == banks[0].tags
            assert bank.provenance == banks[0].provenance

    def test_bank_passes_pack_up_to_the_row_cap(self, trained, monkeypatch):
        ckpt, config, corpus, _ = trained
        passes = []
        original = inference.encode

        def recording(params, enc_config, batch, *args, **kwargs):
            passes.append(len(batch.seqs))
            assert batch.n_occupied <= 40 or len(batch.seqs) == 1
            return original(params, enc_config, batch, *args, **kwargs)

        monkeypatch.setattr(inference, "PACK_ROWS", 40)
        monkeypatch.setattr(inference, "encode", recording)
        build_support_bank(ckpt, corpus)
        assert sum(passes) == len(corpus) and 1 < len(passes) < len(corpus)

    def test_empty_support_rejected(self, trained):
        ckpt, config, _, _ = trained
        with pytest.raises(DataError):
            build_support_bank(ckpt, [])

    def test_max_len_past_checkpoint_table_truncates(self, trained):
        ckpt, config, corpus, label_set = trained
        wide = dataclasses.replace(config, max_len=128)
        assert ckpt.encoder_config.max_len < 40 < wide.max_len
        long_sent = Sentence(("filler0", "aent0") + ("filler1",) * 38,
                             ("O", "I-A") + ("O",) * 38)
        support = corpus[:4] + [long_sent]
        tuned, _ = finetune(ckpt, support, label_set, ckpt.label_map, wide)
        bank = build_support_bank(tuned, support)
        [pred] = decode_sentences(tuned, [long_sent], bank)
        n_ctx = len(assemble_input(long_sent, build_label_prompt(label_set, ckpt.label_map),
                                   ckpt.vocab, max_len=ckpt.encoder_config.max_len).gold_tags)
        assert n_ctx < 40
        assert len(pred) == 40
        assert pred[n_ctx:] == ["O"] * (40 - n_ctx)


def gen_task(n_support: int, n_test: int, max_len: int = 128, **enc):
    """An untrained checkpoint on a 4-class `bench/gen.py` task, its support
    corpus and its test corpus (6-30 tokens a sentence)."""
    rng = np.random.default_rng(3)
    classes = list(gen.TARGET_PHRASES)[:4]
    support = gen.corpus(rng, classes, n_support, gen.TARGET_MAX_MENTIONS)
    test = gen.corpus(rng, classes, n_test, gen.TARGET_MAX_MENTIONS)
    vocab = build_vocab(support + test, label_map=gen.label_map())
    config = EncoderConfig(vocab_size=vocab.size, max_len=max_len, **enc)
    embed_dim = TrainConfig().embed_dim
    ckpt = Checkpoint(config, init_params(config, embed_dim), vocab, gen.label_map(),
                      LabelSet(tuple(classes), role="target"), embed_dim)
    return ckpt, support, test


class TestDecodeSentences:
    @pytest.mark.parametrize("pack_rows", [64, inference.PACK_ROWS])
    def test_packed_decoding_equals_one_sentence_at_a_time(self, monkeypatch, pack_rows):
        ckpt, support, test = gen_task(6, 30, max_len=320, d=16, n_layers=1, n_heads=2)
        classes = ckpt.label_set.classes
        long_sent = gen.sentence(np.random.default_rng(4), classes, 300, 2)
        queries = test[:12] + [long_sent] + test[12:]
        monkeypatch.setattr(inference, "PACK_ROWS", pack_rows)
        passes = []
        original = inference.encode

        def recording(params, enc_config, batch, *args, **kwargs):
            passes.append(batch.n_occupied)
            return original(params, enc_config, batch, *args, **kwargs)

        monkeypatch.setattr(inference, "encode", recording)
        bank = build_support_bank(ckpt, support)
        passes.clear()
        packed = decode_sentences(ckpt, queries, bank)
        # the long sentence has a pass of its own; the others share packs under the cap
        assert max(passes) > pack_rows and sorted(passes)[-2] <= pack_rows
        assert 1 < len(passes) < len(queries)
        assert packed == [decode_sentences(ckpt, [s], bank)[0] for s in queries]
        assert [len(tags) for tags in packed] == [len(s.tokens) for s in queries]

    def test_empty_query_list_decodes_to_nothing(self):
        ckpt, support, _ = gen_task(4, 1, d=16, n_layers=1, n_heads=2)
        assert decode_sentences(ckpt, [], build_support_bank(ckpt, support)) == []


# Traced peak (tracemalloc) of decoding the 120 sentences below: 2.14 MiB, set
# by the encoder's packed passes.  Encoding the packs on the trainable
# parameters, so that each pass builds a graph, reads 5.18 MiB, and constant
# parameters whose nodes still kept their inputs 4.59 MiB.  nn_decode's own
# peak over the same sentences is 0.08 MiB; a search that builds the
# (queries, bank rows, d) difference block reads 2.01 MiB.
DECODE_PEAK_BOUND_MIB = 3.0
NN_DECODE_PEAK_BOUND_MIB = 0.25


def test_decoding_120_sentences_stays_under_its_traced_peak():
    ckpt, support, test = gen_task(8, 120)
    bank = build_support_bank(ckpt, support)
    decode_sentences(ckpt, test[:2], bank)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        tags = decode_sentences(ckpt, test, bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tags) == 120
    assert peak / 2**20 < DECODE_PEAK_BOUND_MIB


def test_nn_decode_of_120_sentences_stays_under_its_traced_peak():
    ckpt, support, test = gen_task(8, 120)
    bank = build_support_bank(ckpt, support)
    hidden = [rows for rows, _ in inference._context_hiddens(ckpt, test)]
    nn_decode(hidden[0], bank)
    tracemalloc.start()
    try:
        for rows in hidden:
            nn_decode(rows, bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < NN_DECODE_PEAK_BOUND_MIB


class TestEvaluateEpisodes:
    def test_pooled_counts_over_episodes(self, trained):
        ckpt, config, corpus, _ = trained
        episodes = [Episode(support=corpus[:4], query=corpus[4:6],
                            n_way=2, k_shot=2),
                    Episode(support=corpus[6:10], query=corpus[10:12],
                            n_way=2, k_shot=2)]
        rep = evaluate_episodes(ckpt, episodes, config)
        assert rep.tp + rep.fn == sum(
            len(extract_spans(s.tags)) for ep in episodes for s in ep.query)
        assert 0.0 <= rep.f1 <= 1.0

    def test_pooled_counts_are_the_sums_of_each_episode_alone(self, trained):
        ckpt, config, corpus, _ = trained
        episodes = [Episode(support=corpus[:4], query=corpus[4:8], n_way=2, k_shot=2),
                    Episode(support=corpus[8:12], query=corpus[12:16], n_way=2, k_shot=2)]
        alone = [evaluate_episodes(ckpt, [ep], config) for ep in episodes]
        rep = evaluate_episodes(ckpt, episodes, config)
        assert (rep.tp, rep.fp, rep.fn) == tuple(
            sum(getattr(r, k) for r in alone) for k in ("tp", "fp", "fn"))
        assert rep.per_run == [] and rep.skipped_seeds == []

    def test_no_episodes_rejected(self, trained):
        ckpt, config, _, _ = trained
        with pytest.raises(DataError):
            evaluate_episodes(ckpt, [], config)

    def test_episode_errors_name_the_episode(self, trained):
        ckpt, config, corpus, _ = trained
        bad = Episode(support=corpus[:4], query=corpus[4:5], n_way=2, k_shot=2)
        # corrupt a parameter so the episode fails mid-evaluation
        ckpt2 = ckpt.clone()
        ckpt2.params["emb.pos"].data[0, 0] = np.nan
        with pytest.raises(Exception, match="episode 0"):
            evaluate_episodes(ckpt2, [bad], config)

    @pytest.mark.parametrize("error", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        KeyError("PER"),
        ShapeError("add", (3, 2), (3,)),
        DataError("support has no entity"),
    ], ids=lambda e: type(e).__name__)
    def test_episode_errors_keep_class_cause_and_message(self, trained, monkeypatch, error):
        ckpt, config, corpus, _ = trained
        episodes = [Episode(support=corpus[:4], query=corpus[4:5], n_way=2, k_shot=2)] * 2
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return finetune(*args, **kwargs)

        monkeypatch.setattr(inference, "finetune", fail_second)
        with pytest.raises(type(error)) as info:
            evaluate_episodes(ckpt, episodes, config)
        assert info.value is error
        assert error.__notes__ == ["episode 1"]

    @pytest.mark.parametrize("error", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        KeyError("PER"),
        ShapeError("add", (3, 2), (3,)),
        DataError("support has no entity"),
    ], ids=lambda e: type(e).__name__)
    def test_noted_episode_errors_survive_pickle(self, trained, monkeypatch, error):
        ckpt, config, corpus, _ = trained
        episodes = [Episode(support=corpus[:4], query=corpus[4:5], n_way=2, k_shot=2)]
        monkeypatch.setattr(inference, "finetune", mock.Mock(side_effect=error))
        with pytest.raises(type(error)) as info:
            evaluate_episodes(ckpt, episodes, config)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is type(error)
        assert (copy.args, copy.__notes__, str(copy)) == (error.args, ["episode 0"], str(error))


class TestLowResourceEval:
    def test_reports_per_run_scores(self, trained):
        ckpt, config, corpus, label_set = trained
        rep = low_resource_eval(ckpt, label_set, corpus, corpus[:4],
                                n_way=2, k_shot=1, seeds=[0, 1], config=config)
        assert len(rep.per_run) == 2
        assert all(0.0 <= f <= 1.0 for f in rep.per_run)
        assert rep.mean == pytest.approx(float(np.mean(rep.per_run)))

    def test_per_run_scores_equal_each_seed_run_alone(self, trained):
        ckpt, config, corpus, label_set = trained
        args = (ckpt, label_set, corpus, corpus[:6])
        rep = low_resource_eval(*args, n_way=2, k_shot=1, seeds=[0, 1], config=config)
        alone = [low_resource_eval(*args, n_way=2, k_shot=1, seeds=[s], config=config)
                 for s in (0, 1)]
        assert rep.per_run == [r.f1 for r in alone] == [r.per_run[0] for r in alone]
        assert (rep.tp, rep.fp, rep.fn) == tuple(
            sum(getattr(r, k) for r in alone) for k in ("tp", "fp", "fn"))

    def test_no_seeds_rejected(self, trained):
        ckpt, config, corpus, label_set = trained
        with pytest.raises(DataError):
            low_resource_eval(ckpt, label_set, corpus, corpus[:2],
                              n_way=2, k_shot=1, seeds=[], config=config)

    def test_sampling_failure_skipped_when_requested(self, trained):
        ckpt, config, corpus, label_set = trained
        # k_shot too large for the corpus: every run fails to sample, so no
        # run remains to report
        with pytest.raises(DataError, match=r"seeds \[0, 1\]"):
            low_resource_eval(ckpt, label_set, corpus[:2], corpus[:2],
                              n_way=2, k_shot=50, seeds=[0, 1], config=config,
                              skip_failed_runs=True)
        with pytest.raises(DataError):
            low_resource_eval(ckpt, label_set, corpus[:2], corpus[:2],
                              n_way=2, k_shot=50, seeds=[0], config=config)

    def test_skipped_runs_recorded(self, trained):
        ckpt, config, corpus, _ = trained
        # a third class no corpus sentence has: the seeds that sample it fail
        label_set, label_map = label_setup(("A", "B", "C"))
        ckpt = dataclasses.replace(ckpt, label_map=label_map)
        seeds = list(range(6))
        failing = []
        for seed in seeds:
            try:
                greedy_sample_support(corpus, label_set, 2, 1, seed=seed)
            except DataError:
                failing.append(seed)
        assert 0 < len(failing) < len(seeds)
        rep = low_resource_eval(ckpt, label_set, corpus, corpus[:2], n_way=2, k_shot=1,
                                seeds=seeds, config=config, skip_failed_runs=True)
        assert rep.skipped_seeds == failing
        assert len(rep.per_run) == len(seeds) - len(failing)
        assert rep.summary()["skipped_seeds"] == failing
        assert "skipped_seeds" not in EvalReport(tp=1, fp=0, fn=0, per_run=[1.0]).summary()


    def test_errors_that_end_a_run_name_its_seed(self, trained, monkeypatch):
        ckpt, config, corpus, label_set = trained
        # a sampling failure not skipped
        with pytest.raises(DataError, match="cannot reach") as info:
            low_resource_eval(ckpt, label_set, corpus[:2], corpus[:2],
                              n_way=2, k_shot=50, seeds=[3], config=config)
        assert info.value.__notes__ == ["low-resource run seed 3"]
        # an error from decoding the second run's queries
        calls = []

        def fail_second_run(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("planted")
            return decode_sentences(*args, **kwargs)

        monkeypatch.setattr(inference, "decode_sentences", fail_second_run)
        with pytest.raises(NumericError, match="planted") as info:
            low_resource_eval(ckpt, label_set, corpus, corpus[:2],
                              n_way=2, k_shot=1, seeds=[0, 1], config=config)
        assert info.value.__notes__ == ["low-resource run seed 1"]

    def test_sampling_failure_at_the_last_seed_comes_before_any_fine_tuning(
            self, trained, monkeypatch):
        ckpt, config, corpus, _ = trained
        # a third class no corpus sentence has: the seeds that sample it fail
        label_set, label_map = label_setup(("A", "B", "C"))
        ckpt = dataclasses.replace(ckpt, label_map=label_map)

        def samples(seed):
            try:
                greedy_sample_support(corpus, label_set, 2, 1, seed=seed)
            except DataError:
                return False
            return True

        good = [s for s in range(6) if samples(s)]
        bad = next(s for s in range(6) if not samples(s))
        assert good
        counted = mock.Mock(wraps=finetune)
        monkeypatch.setattr(inference, "finetune", counted)
        with pytest.raises(DataError, match="cannot reach") as info:
            low_resource_eval(ckpt, label_set, corpus, corpus[:2], n_way=2, k_shot=1,
                              seeds=good + [bad], config=config)
        assert info.value.__notes__ == [f"low-resource run seed {bad}"]
        assert counted.call_count == 0

    def test_skipped_seeds_add_no_note(self, trained):
        ckpt, config, corpus, label_set = trained
        with pytest.raises(DataError, match="every low-resource run failed") as info:
            low_resource_eval(ckpt, label_set, corpus[:2], corpus[:2],
                              n_way=2, k_shot=50, seeds=[0, 1], config=config,
                              skip_failed_runs=True)
        assert not hasattr(info.value, "__notes__")


class TestDumpEmbeddings:
    def test_rows_and_columns(self, trained, tmp_path):
        ckpt, config, corpus, _ = trained
        path = tmp_path / "emb.tsv"
        n = dump_embeddings(ckpt, corpus[:3], str(path))
        lines = path.read_text().splitlines()
        d = ckpt.encoder_config.d
        header = lines[0].split("\t")
        assert header[:2] == ["token", "tag"]
        assert header[2:] == [f"h{i}" for i in range(d)]
        assert n == sum(len(s.tokens) for s in corpus[:3])
        assert len(lines) == n + 1
        for line in lines[1:]:
            cols = line.split("\t")
            assert len(cols) == d + 2
            np.array(cols[2:], dtype=np.float64)  # parses back numerically

    def test_values_roundtrip(self, trained, tmp_path):
        ckpt, config, corpus, _ = trained
        path = tmp_path / "emb.tsv"
        dump_embeddings(ckpt, corpus[:1], str(path))
        from fewtag.inference import _context_hiddens
        [(rows, _)] = _context_hiddens(ckpt, corpus[:1])
        first = path.read_text().splitlines()[1].split("\t")
        got = np.array(first[2:], dtype=np.float64)
        np.testing.assert_allclose(got, rows[0], rtol=1e-9)
