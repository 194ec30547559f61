"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion and prints a single
pass/fail line to the real stdout (bypassing capture) so the verdicts are
visible in the test log.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from fewtag import losses as ls
from fewtag.autodiff import Tensor
from fewtag.data import LabelMap, LabelSet, Sentence, greedy_sample_support
from fewtag.gaussian import GaussianEmbedding, js, kl
from fewtag.gradcheck import run_gradcheck
from fewtag.inference import (EvalReport, Span, SupportBank, build_support_bank,
                              decode_sentence, extract_spans, micro_f1, nn_decode,
                              span_counts)
from fewtag.losses import LossConfig, anchor_loss_in, anchor_loss_out
from fewtag.encoder import EncoderConfig
from fewtag.training import (TrainConfig, finetune, load_checkpoint, retarget,
                             save_checkpoint, train_source)

from synthdata import contextual_corpus

ENC = {"d": 16, "n_layers": 1, "n_heads": 2, "dropout": 0.0}


def report(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


# -- criterion 1: gradient fidelity ------------------------------------------


def test_criterion_1_gradient_fidelity(capsys):
    t0 = time.time()
    rep = run_gradcheck(n_batches=20, seed=0, d=16, l=8, tolerance=1e-4)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 120
    report(capsys, 1, "gradient fidelity", ok,
           f"max rel err {rep.max_rel_err:.2e}, {elapsed:.0f}s")


# -- criterion 2: loss-variant ordering ---------------------------------------


def _random_anchor_batch(rng):
    n = int(rng.integers(2, 9))
    l = 4
    tags = [f"I-{rng.choice(('A', 'B', 'C'))}" for _ in range(n)]
    if rng.random() < 0.5:
        tags[1] = tags[0]  # guarantee a positive half the time
    emb = GaussianEmbedding(Tensor(rng.normal(size=(n, l))),
                            Tensor(rng.uniform(0.2, 2.0, size=(n, l))))
    return ls.BatchView(embeddings=emb, tags=tuple(tags),
                        sentence_index=np.zeros(n, dtype=int))


def test_criterion_2_variant_ordering(capsys):
    rng = np.random.default_rng(2)
    config = LossConfig()
    checked = singles = 0
    worst_gap = 0.0
    worst_single = 0.0
    while checked < 1000:
        batch = _random_anchor_batch(rng)
        inner = anchor_loss_in(0, batch, config)
        if inner is None:
            continue
        outer = anchor_loss_out(0, batch, config)
        gap = inner.item() - outer.item()  # must be <= 0 up to roundoff
        worst_gap = max(worst_gap, gap)
        if len(batch.positive_set(0)) == 1:
            singles += 1
            worst_single = max(worst_single, abs(gap))
        checked += 1
    ok = worst_gap <= 1e-9 and singles > 0 and worst_single <= 1e-12
    report(capsys, 2, "loss-variant ordering", ok,
           f"1000 configs, {singles} single-positive, "
           f"max order violation {worst_gap:.1e}, "
           f"max single-positive gap {worst_single:.1e}")


# -- criterion 3: divergence correctness ---------------------------------------


def _gauss_logpdf(x, mu, s2):
    return -0.5 * ((x - mu) ** 2 / s2 + np.log(2 * np.pi * s2))


def test_criterion_3_divergence_correctness(capsys):
    mus = np.linspace(-2.0, 2.0, 10)
    s2s = np.linspace(0.25, 4.0, 10)
    q = GaussianEmbedding(Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1))))
    max_err = 0.0
    max_asym = 0.0
    for mu in mus:
        for s2 in s2s:
            p = GaussianEmbedding(Tensor(np.full((1, 1), mu)),
                                  Tensor(np.full((1, 1), s2)))
            width = 12 * np.sqrt(s2)
            integral, _ = quad(
                lambda x: np.exp(_gauss_logpdf(x, mu, s2))
                * (_gauss_logpdf(x, mu, s2) - _gauss_logpdf(x, 0.0, 1.0)),
                mu - width, mu + width, limit=200)
            max_err = max(max_err, abs(kl(p, q).item() - integral))
            max_asym = max(max_asym, abs(js(p, q).item() - js(q, p).item()))
    self_kl = kl(q, q).item()
    ok = max_err <= 1e-3 and max_asym <= 1e-12 and abs(self_kl) <= 1e-12
    report(capsys, 3, "divergence correctness", ok,
           f"max |closed form - quadrature| {max_err:.1e}, "
           f"max symmetry gap {max_asym:.1e}, self-KL {self_kl:.1e}")


# -- criterion 4: memorization oracle ------------------------------------------

MEMO_CLASSES = ("A", "B")
MEMO_WORDS = {c: [f"{c.lower()}w{i}" for i in range(2)] for c in MEMO_CLASSES}
MEMO_FILLERS = [f"f{i}" for i in range(6)]
MEMO_MAP = LabelMap({"A": "type a", "B": "type b", "O": "other"})


def _memo_corpus(n, rng):
    out = []
    for i in range(n):
        cls = MEMO_CLASSES[i % 2]
        length = int(rng.integers(1, 3))
        ents = [MEMO_WORDS[cls][int(rng.integers(2))] for _ in range(length)]
        toks = ([MEMO_FILLERS[int(rng.integers(6))]] + ents
                + [MEMO_FILLERS[int(rng.integers(6))]])
        out.append(Sentence(tuple(toks),
                            ("O",) + (f"I-{cls}",) * length + ("O",)))
    return out


def _memo_support():
    # every class word in two filler contexts, plus two all-O sentences
    out = []
    k = 0
    for c in MEMO_CLASSES:
        for w in MEMO_WORDS[c]:
            out.append(Sentence((MEMO_FILLERS[k % 6], w, MEMO_FILLERS[(k + 1) % 6]),
                                ("O", f"I-{c}", "O")))
            out.append(Sentence((MEMO_FILLERS[(k + 3) % 6], w, MEMO_FILLERS[(k + 4) % 6]),
                                ("O", f"I-{c}", "O")))
            k += 1
    out.append(Sentence(tuple(MEMO_FILLERS[:3]), ("O",) * 3))
    out.append(Sentence(tuple(MEMO_FILLERS[3:]), ("O",) * 3))
    return out  # 10 sentences


def _decode_f1(ckpt, support, queries):
    bank = build_support_bank(ckpt, support)
    gold = [extract_spans(s.tags) for s in queries]
    pred = [extract_spans(decode_sentence(ckpt, s, bank))
            for s in queries]
    return micro_f1(gold, pred).f1


def test_criterion_4_memorization(capsys):
    t0 = time.time()
    support_f1s, query_f1s = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train, query = _memo_corpus(20, rng), _memo_corpus(20, rng)
        support = _memo_support()
        config = TrainConfig(lr=0.02, batch_size=8, epochs=3, max_len=24,
                             embed_dim=8, seed=seed)
        extra = sorted({w for s in support + query for w in s.tokens})
        ckpt, _ = train_source(train, LabelSet(MEMO_CLASSES), MEMO_MAP, config,
                               ENC, extra_vocab_words=extra)
        tuned, _ = finetune(ckpt, support, LabelSet(MEMO_CLASSES, role="target"),
                            MEMO_MAP, config)
        support_f1s.append(_decode_f1(tuned, support, support))
        query_f1s.append(_decode_f1(tuned, support, query))
    elapsed = time.time() - t0
    med_support = float(np.median(support_f1s))
    med_query = float(np.median(query_f1s))
    ok = med_support == 1.0 and med_query >= 0.9 and elapsed < 300
    report(capsys, 4, "memorization oracle", ok,
           f"median support F1 {med_support:.2f}, "
           f"median held-out F1 {med_query:.2f}, {elapsed:.0f}s")


# -- criterion 5: transfer behavior --------------------------------------------

XFER_SRC = ("A", "B")
XFER_TGT = ("X", "Y")
XFER_MAP = LabelMap({"A": "type a", "B": "type b", "X": "type x",
                     "Y": "type y", "O": "other"})


def _transfer_run(seed):
    src_train = contextual_corpus(XFER_SRC, n_sentences=40, seed=seed)
    support = contextual_corpus(XFER_TGT, n_sentences=10, seed=seed + 100)
    query = contextual_corpus(XFER_TGT, n_sentences=20, seed=seed + 200)
    config = TrainConfig(lr=0.01, batch_size=8, epochs=20, max_len=24,
                         embed_dim=8, seed=seed)
    extra = sorted({w for s in support + query for w in s.tokens})
    ckpt, _ = train_source(src_train, LabelSet(XFER_SRC), XFER_MAP, config,
                           ENC, extra_vocab_words=extra)
    target_set = LabelSet(XFER_TGT, role="target")
    ft_config = TrainConfig(**{**config.__dict__, "lr": 0.02})
    tuned, _ = finetune(ckpt, support, target_set, XFER_MAP, ft_config)
    base = retarget(ckpt, target_set, XFER_MAP)
    return (_decode_f1(base, support, query),
            _decode_f1(tuned, support, query), ckpt, support, target_set)


def test_criterion_5_transfer(capsys):
    deltas = []
    last = None
    for seed in range(5):
        base_f1, tuned_f1, ckpt, support, target_set = _transfer_run(seed)
        deltas.append(tuned_f1 - base_f1)
        last = (ckpt, support, target_set)

    # 1-shot mode must use squared Euclidean and never run the
    # context-context loss
    ckpt, support, target_set = last
    one_shot = TrainConfig(lr=0.02, batch_size=8, epochs=1, max_len=24,
                           embed_dim=8, seed=0, shot_mode="1-shot")
    ls.reset_call_counts()
    _, result = finetune(ckpt, support, target_set, XFER_MAP, one_shot)
    one_shot_ok = (result.metric == "sqeuclid"
                   and not result.used_context_context
                   and ls.call_counts["context_context"] == 0
                   and ls.call_counts["context_label"] == result.iterations)

    med_delta = float(np.median(deltas))
    ok = med_delta > 0 and one_shot_ok
    report(capsys, 5, "transfer behavior", ok,
           f"median F1 delta {med_delta:+.2f}, "
           f"1-shot path {'clean' if one_shot_ok else 'violated'}")


# -- criterion 6: nearest-neighbor oracle equivalence ---------------------------


def test_criterion_6_nn_oracle(capsys):
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 51))
        d = int(rng.integers(2, 9))
        vecs = rng.normal(size=(n, d))
        tags = tuple(f"I-C{i % 4}" if i % 3 else "O" for i in range(n))
        bank = SupportBank(vectors=vecs, tags=tags,
                           provenance=tuple((0, i) for i in range(n)))
        queries = rng.normal(size=(m, d))
        got = nn_decode(queries, bank)
        for q, tag in zip(queries, got):
            best_i, best_d = 0, float("inf")
            for i in range(n):
                dist = 0.0
                for k in range(d):
                    diff = vecs[i, k] - q[k]
                    dist += diff * diff
                if dist < best_d:
                    best_i, best_d = i, dist
            if tag != tags[best_i]:
                mismatches += 1
    report(capsys, 6, "nearest-neighbor oracle equivalence", mismatches == 0,
           f"100 instances, {mismatches} mismatches")


# -- criterion 7: sampler soundness --------------------------------------------


def test_criterion_7_sampler_soundness(capsys):
    rng = np.random.default_rng(7)
    corpus = _memo_corpus(80, rng)
    label_set = LabelSet(MEMO_CLASSES, role="target")
    k = 2
    violations = 0
    for seed in range(10_000):
        sample = greedy_sample_support(corpus, label_set, n_way=2, k_shot=k,
                                       seed=seed)
        for cls in MEMO_CLASSES:
            if not k <= sample.counts[cls] <= 2 * k:
                violations += 1
    again = greedy_sample_support(corpus, label_set, n_way=2, k_shot=k, seed=1234)
    first = greedy_sample_support(corpus, label_set, n_way=2, k_shot=k, seed=1234)
    deterministic = again.sentences == first.sentences
    ok = violations == 0 and deterministic
    report(capsys, 7, "sampler soundness", ok,
           f"10000 samples, {violations} bound violations, "
           f"seed-deterministic: {deterministic}")


# -- criterion 8: scoring oracle -----------------------------------------------


def test_criterion_8_scoring_oracle(capsys):
    rng = np.random.default_rng(8)
    choices = ["O", "I-A", "I-B"]
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 20))
        gold = [extract_spans([choices[i] for i in rng.integers(0, 3, size=n)])]
        pred = [extract_spans([choices[i] for i in rng.integers(0, 3, size=n)])]
        rep = micro_f1(gold, pred)
        gs, ps = set(gold[0]), set(pred[0])
        tp = len(gs & ps)
        prec = tp / len(ps) if ps else 0.0
        rec = tp / len(gs) if gs else 0.0
        want = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        if abs(rep.f1 - want) > 1e-12:
            mismatches += 1

    # two hand-built episodes: pooled counts tp=2, fp=1, fn=1 give F1 = 2/3
    ep1_gold = [[Span(0, 0, "A"), Span(2, 2, "B")]]
    ep1_pred = [[Span(0, 0, "A")]]                    # tp 1, fp 0, fn 1
    ep2_gold = [[Span(1, 1, "A")]]
    ep2_pred = [[Span(1, 1, "A"), Span(3, 3, "B")]]   # tp 1, fp 1, fn 0
    counts = [span_counts(ep1_gold, ep1_pred), span_counts(ep2_gold, ep2_pred)]
    pooled = EvalReport(tp=sum(c[0] for c in counts), fp=sum(c[1] for c in counts),
                        fn=sum(c[2] for c in counts))
    pooled_ok = abs(pooled.f1 - 2 / 3) <= 1e-12
    ok = mismatches == 0 and pooled_ok
    report(capsys, 8, "scoring oracle", ok,
           f"100 sequences, {mismatches} mismatches, "
           f"pooled two-episode F1 {pooled.f1:.4f}")


# -- criterion 9: reproducibility and persistence --------------------------------


def test_criterion_9_reproducibility(capsys, tmp_path):
    rng = np.random.default_rng(9)
    train = _memo_corpus(12, rng)
    support = _memo_support()
    queries = _memo_corpus(8, rng)
    config = TrainConfig(lr=0.02, batch_size=4, epochs=1, max_len=24,
                         embed_dim=8, seed=3)
    extra = sorted({w for s in support + queries for w in s.tokens})

    paths = []
    ckpts = []
    for name in ("a.ckpt", "b.ckpt"):
        ckpt, _ = train_source(train, LabelSet(MEMO_CLASSES), MEMO_MAP, config,
                               ENC, extra_vocab_words=extra)
        path = tmp_path / name
        save_checkpoint(ckpt, str(path))
        paths.append(path)
        ckpts.append(ckpt)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    bank = build_support_bank(ckpts[0], support)
    before = [decode_sentence(ckpts[0], s, bank) for s in queries]
    loaded = load_checkpoint(str(paths[0]))
    bank2 = build_support_bank(loaded, support)
    after = [decode_sentence(loaded, s, bank2) for s in queries]
    roundtrip = before == after

    ok = identical and roundtrip
    report(capsys, 9, "reproducibility and persistence", ok,
           f"bit-identical checkpoints: {identical}, "
           f"save/load/predict equal: {roundtrip}")


# -- criterion 10: config fidelity -----------------------------------------------


def test_criterion_10_config_fidelity(capsys):
    config = TrainConfig()
    snapshot = {
        "lr": config.lr,
        "batch_size": config.batch_size,
        "max_len": config.max_len,
        "embed_dim": config.embed_dim,
        "epochs": config.epochs,
        "alpha_grid": config.alpha_grid,
        "dropout": EncoderConfig(vocab_size=10).dropout,
    }
    expected = {
        "lr": 5e-5,
        "batch_size": 32,
        "max_len": 128,
        "embed_dim": 128,
        "epochs": 1,
        "alpha_grid": (0.8, 0.5, 0.3),
        "dropout": 0.1,
    }
    ok = snapshot == expected
    report(capsys, 10, "config fidelity", ok,
           "defaults match documented values" if ok
           else f"got {snapshot}, want {expected}")
