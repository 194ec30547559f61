"""The benchmark's four workloads, each a set-up step plus a repeated operation.

Every operation calls the public API that the matching CLI subcommand calls
(`fewtag train`, `fewtag evaluate`, `fewtag gradcheck`) and returns an
`OpResult`: how many units it attempted and how many failed, the tokens it
processed, and the outputs the output checks compare.  A unit is a train
step, an episode, a low-resource run, or a gradcheck batch.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

import gen
from fewtag import gradcheck, inference, training
from fewtag.data import LabelSet
from fewtag.training import TrainConfig


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark uses the defaults, the smoke test shrinks them."""

    source_pool: int = 640      # source-train sentences generated in set-up
    train_call: int = 64        # sentences per train_source call: 2 default batches
    ckpt_sentences: int = 32    # fixed source checkpoint: 2 steps of 16
    ckpt_batch: int = 16
    episodes: int = 64          # episode pool; the loop cycles through it
    n_way: int = 5
    n_query: int = 20
    lr_classes: int = 4         # low-resource label set, sampled N-way = all of it
    lr_pool: int = 80           # support pool the sampler draws from
    lr_test: int = 120          # test sentences decoded in every run
    gc_d: int = 16              # run_gradcheck defaults
    gc_l: int = 8


@dataclass
class OpResult:
    attempted: int
    failed: int = 0
    tokens: int = 0
    outputs: tuple = ()         # compared exactly by the same-seed repeat check
    losses: list[float] = field(default_factory=list)
    span_counts: tuple[int, int, int] | None = None   # tp, fp, fn of an episode
    f1: float | None = None                           # of a low-resource run
    problems: list[str] = field(default_factory=list)


K_SHOT = 1                      # support sentences per class in both decode workloads

# The source checkpoint is the same for every run seed: fine-tuning iteration
# counts depend on it, so a per-seed checkpoint would move every episode of a
# run together and swamp the spread between seeds.
CHECKPOINT_SEED = 0
CHECKPOINT_LR = 1e-3

# Target tasks (label set, support pool, test corpus) per lowres-decode run.
# Fine-tuning length, and with it time, depends on the task; cycling through
# several keeps one task from setting the pace of a whole run.
LOWRES_TASKS = 8

# Candidate batch seeds the gradcheck set-up probes for their row counts.
GRADCHECK_CANDIDATES = 64


def _checkpoint_path(out_dir: str) -> str:
    return os.path.join(out_dir, f"source-{os.getpid()}.ckpt")


def _train_checkpoint(sizes: Sizes, path: str) -> None:
    rng = np.random.default_rng(CHECKPOINT_SEED)
    sents = gen.corpus(rng, list(gen.SOURCE_PHRASES), sizes.ckpt_sentences,
                       gen.SOURCE_MAX_MENTIONS)
    config = TrainConfig(batch_size=sizes.ckpt_batch, lr=CHECKPOINT_LR)
    ckpt, _ = training.train_source(sents, gen.source_label_set(), gen.label_map(), config)
    training.save_checkpoint(ckpt, path)


def build_checkpoint(sizes: Sizes, path: str):
    """Train and save the fixed source checkpoint, then reload it, as `fewtag
    train` followed by `fewtag evaluate --checkpoint` would.

    Training runs in a child process, so the peak RSS of the measuring
    process reflects the workload's operations, not source training.
    """
    child = multiprocessing.get_context("fork").Process(target=_train_checkpoint,
                                                        args=(sizes, path))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"training the source checkpoint exited with {child.exitcode}")
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return training.load_checkpoint(path), digest


class Workload:
    name = ""
    unit = ""            # what one attempted unit is
    units_per_op = 1
    decodes = False      # whether operations decode sentences

    def __init__(self, seed: int, sizes: Sizes, out_dir: str):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self) -> str:
        """Make the inputs from the seed; returns a digest of them, which
        must be the same on every repeat."""
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class SourceTrain(Workload):
    name = "source-train"
    unit = "train step"

    @property
    def units_per_op(self) -> int:
        return math.ceil(self.sizes.train_call / TrainConfig().batch_size)

    def setup(self) -> str:
        rng = np.random.default_rng(self.seed)
        # lengths stratified per train_source call, so every call trains on
        # the same number of tokens whatever the seed
        self.pool = gen.corpus(rng, list(gen.SOURCE_PHRASES), self.sizes.source_pool,
                               gen.SOURCE_MAX_MENTIONS, block=self.sizes.train_call)
        return hashlib.sha256(repr(self.pool).encode()).hexdigest()

    def op(self, i: int) -> OpResult:
        n = self.sizes.train_call
        lo = (i % (len(self.pool) // n)) * n
        sents = self.pool[lo:lo + n]
        steps = self.units_per_op
        _, log = training.train_source(sents, gen.source_label_set(), gen.label_map(),
                                       TrainConfig())
        losses = [e.loss for e in log]
        res = OpResult(attempted=steps, tokens=sum(len(s.tokens) for s in sents),
                       outputs=tuple(losses), losses=losses)
        if len(log) != steps:
            res.problems.append(f"train_source ran {len(log)} steps, expected {steps}")
        if not all(math.isfinite(x) for x in losses):
            res.problems.append(f"non-finite training loss in {losses}")
        return res


class _FromCheckpoint(Workload):
    """A decode workload: operations on the fixed source checkpoint.

    Operation 0, the untimed warm-up after which the run reads peak RSS,
    runs on a reference input drawn from CHECKPOINT_SEED, so that peak is
    the same for every run seed; operations 1, 2, ... cycle through the
    inputs drawn from the run seed.
    """

    decodes = True

    def setup(self) -> str:
        self.ckpt, digest = build_checkpoint(self.sizes, _checkpoint_path(self.out_dir))
        self.reference = self.make_inputs(np.random.default_rng(CHECKPOINT_SEED), 1)[0]
        self.inputs = self.make_inputs(np.random.default_rng(self.seed), self.n_inputs)
        return digest + hashlib.sha256(repr((self.reference, self.inputs)).encode()).hexdigest()

    def op(self, i: int) -> OpResult:
        if i == 0:
            return self.run_on(self.reference, CHECKPOINT_SEED)
        return self.run_on(self.inputs[(i - 1) % len(self.inputs)], self.seed * 100_003 + i)

    def cleanup(self) -> None:
        path = _checkpoint_path(self.out_dir)
        if os.path.exists(path):
            os.remove(path)


class DecodeChecker:
    """Validates every sentence `inference.decode_sentence` returns.

    Installed for the whole run, traced or not, because the evaluation
    protocols return only span counts.  The check costs about 2 us per
    decoded sentence (timeit, 20 tokens, 4 classes) against about 10 ms of
    decoding.
    """

    def __init__(self):
        self.problems: list[str] = []
        self.checked = 0
        self._original = None

    def install(self) -> None:
        self._original = original = inference.decode_sentence

        def checked(ckpt, sentence, bank, *args, **kwargs):
            tags = original(ckpt, sentence, bank, *args, **kwargs)
            allowed = {"O"} | {f"I-{c}" for c in ckpt.label_set.classes}
            if len(tags) != len(sentence.tokens) or not set(tags) <= allowed:
                if len(self.problems) < 10:
                    self.problems.append(f"decoded {tags} for {len(sentence.tokens)} tokens")
            self.checked += 1
            return tags
        inference.decode_sentence = checked

    def uninstall(self) -> None:
        inference.decode_sentence = self._original


class EpisodeEval(_FromCheckpoint):
    name = "episode-eval"
    unit = "episode"

    @property
    def n_inputs(self) -> int:
        return self.sizes.episodes

    def make_inputs(self, rng, n: int) -> list:
        s = self.sizes
        return [gen.episode(rng, s.n_way, K_SHOT, s.n_query) for _ in range(n)]

    def run_on(self, ep, run_seed: int) -> OpResult:
        report = inference.evaluate_episodes(self.ckpt, [ep], TrainConfig())
        counts = (report.tp, report.fp, report.fn)
        return OpResult(attempted=1, tokens=sum(len(q.tokens) for q in ep.query),
                        outputs=counts, span_counts=counts)


class LowResDecode(_FromCheckpoint):
    name = "lowres-decode"
    unit = "low-resource run"
    n_inputs = LOWRES_TASKS

    def make_inputs(self, rng, n: int) -> list:
        """n target tasks: a label set, a support pool and a test corpus."""
        s = self.sizes
        tasks = []
        for _ in range(n):
            classes = [str(c) for c in rng.choice(list(gen.TARGET_PHRASES), size=s.lr_classes,
                                                  replace=False)]
            tasks.append((LabelSet(tuple(classes), role="target"),
                          gen.corpus(rng, classes, s.lr_pool, gen.TARGET_MAX_MENTIONS),
                          gen.corpus(rng, classes, s.lr_test, gen.TARGET_MAX_MENTIONS)))
        return tasks

    def run_on(self, task, run_seed: int) -> OpResult:
        label_set, pool, test = task
        report = inference.low_resource_eval(
            self.ckpt, label_set, pool, test, n_way=self.sizes.lr_classes, k_shot=K_SHOT,
            seeds=[run_seed], config=TrainConfig(shot_mode=training.SHOT_MODE_1),
            skip_failed_runs=True)
        # skipped runs leave no per_run entry, so count them here
        done = len(report.per_run)
        return OpResult(attempted=1, failed=1 - done,
                        tokens=done * sum(len(s.tokens) for s in test),
                        outputs=(report.tp, report.fp, report.fn),
                        f1=report.per_run[0] if done else None)


class _Rows(Exception):
    pass


def _batch_rows(seed: int, d: int, l: int) -> int:
    """Hidden-state rows `run_gradcheck(n_batches=1, seed=seed)` checks.

    Read from the first `finite_diff_check` call, which a probe stops before
    any finite differencing.
    """
    def probe(fn, x, *args, **kwargs):
        raise _Rows(x.shape[0])

    original = gradcheck.finite_diff_check
    gradcheck.finite_diff_check = probe
    try:
        gradcheck.run_gradcheck(n_batches=1, seed=seed, d=d, l=l)
    except _Rows as rows:
        return rows.args[0]
    finally:
        gradcheck.finite_diff_check = original
    raise RuntimeError("run_gradcheck never called finite_diff_check")


class Gradcheck(Workload):
    name = "gradcheck"
    unit = "gradcheck batch"

    def setup(self) -> str:
        # Cost per batch grows faster than its row count, so each operation
        # checks one batch of every row count the candidates show: the same
        # mix of sizes in every operation, whatever the seed.
        rng = np.random.default_rng(self.seed)
        by_rows: dict[int, int] = {}
        for seed in rng.integers(0, 2**31, size=GRADCHECK_CANDIDATES):
            by_rows.setdefault(_batch_rows(int(seed), self.sizes.gc_d, self.sizes.gc_l),
                               int(seed))
        self.batches = sorted(by_rows.items())
        return hashlib.sha256(repr(self.batches).encode()).hexdigest()

    @property
    def units_per_op(self) -> int:
        return len(self.batches)

    def op(self, i: int) -> OpResult:
        res = OpResult(attempted=len(self.batches))
        errors = []
        for rows, seed in self.batches:
            report = gradcheck.run_gradcheck(n_batches=1, seed=seed, d=self.sizes.gc_d,
                                             l=self.sizes.gc_l)
            errors.append(tuple(sorted(report.max_errors.items())))
            if report.passed:
                res.tokens += rows
            else:
                res.failed += 1
                res.problems.append("; ".join(report.lines()))
        res.outputs = tuple(errors)
        return res


WORKLOADS = {w.name: w for w in (SourceTrain, EpisodeEval, LowResDecode, Gradcheck)}
