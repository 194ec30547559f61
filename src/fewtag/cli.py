"""Command-line entry point.

Subcommands: train, finetune, predict, evaluate, sample, gradcheck,
dump-embeddings.  Configuration comes from a JSON file (--config), overridden
by repeatable --set key=value flags and then by the dedicated flags (--seed,
--out).  Every run writes a resolved-config snapshot to the output
directory so it can be reproduced bit-exactly from the snapshot alone:
`fewtag --config out/resolved_config.json --out replay/ <same subcommand>`.
The config keys are the fields of TrainConfig and RunConfig, and `encoder`,
whose keys override EncoderConfig fields; each is checked against its field's
type before any work starts.
Subcommands that load a checkpoint take the model settings (`encoder`,
`embed_dim`, `max_len`) from it: the snapshot records the checkpoint's, and
a value given that differs from the checkpoint's is a usage error.

Exit codes: 0 success, 2 usage or configuration error (a size setting too
large to allocate included), 3 data error (unreadable corpora, label maps,
checkpoints), 4 numeric error (non-finite losses or gradients, failed
gradient check).  Log verbosity is controlled by the FEWTAG_LOG_LEVEL
environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, get_args, get_origin, get_type_hints

from .autodiff import NumericError
from .data import (DataError, LabelSet, Sentence, fits_json, greedy_sample_support,
                   load_label_map, read_conll, read_fewnerd_episodes, write_conll)
from .encoder import EncoderConfig
from .gradcheck import run_gradcheck
from .inference import (build_support_bank, decode_sentences, dump_embeddings,
                        evaluate_episodes, low_resource_eval)
from .training import (CheckpointError, TrainConfig, finetune, load_checkpoint,
                       save_checkpoint, train_source)

log = logging.getLogger("fewtag")

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings: the evaluation protocol and its shape, and paths."""
    protocol: str = "episode"   # or "low-resource"
    n_way: int = 2
    k_shot: int = 1
    n_runs: int = 5
    strict_k: bool = False
    gradcheck_batches: int = 20
    train_corpus: Optional[str] = None
    support: Optional[str] = None
    test_corpus: Optional[str] = None
    episodes: Optional[str] = None
    input: Optional[str] = None
    label_map: Optional[str] = None
    checkpoint: Optional[str] = None
    out: str = "out"

    def __post_init__(self):
        if self.protocol not in ("episode", "low-resource"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name in ("n_way", "k_shot", "n_runs", "gradcheck_batches"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


# every config key with its default; "encoder" holds EncoderConfig overrides
_DEFAULTS = {**asdict(TrainConfig()), **asdict(RunConfig()), "encoder": {}}
_HINTS = {**get_type_hints(TrainConfig), **get_type_hints(RunConfig)}
# the EncoderConfig fields a config may set; vocab_size comes from the
# corpus, max_len and seed from TrainConfig
_ENCODER_KEYS = tuple(f.name for f in fields(EncoderConfig)
                      if f.name not in ("vocab_size", "max_len", "seed"))
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false"}


class UsageError(ValueError):
    pass


def _describe(kind) -> str:
    args = get_args(kind)
    if type(None) in args:
        return f"{_describe(args[0])} or null"
    if get_origin(kind) is tuple:
        return f"a list, each {_describe(args[0])}"
    return _TYPE_NAMES[kind]


def _build(cls, values: dict, prefix: str = ""):
    """cls built from JSON values, each checked against its field's
    annotation; lists become tuples.  A value of the wrong type, or one cls
    rejects, is a usage error naming its key."""
    hints = get_type_hints(cls)
    for key, value in values.items():
        if not fits_json(value, hints[key]):
            raise UsageError(f"{prefix}{key} must be {_describe(hints[key])}, got {value!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except ValueError as e:
        raise UsageError(f"{prefix}{e}") from None


def _parse_set(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, or nested past the parser's depth
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):  # a later path replaces a value
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return out


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def resolve_config(args: argparse.Namespace) -> tuple[TrainConfig, RunConfig, dict, dict]:
    """A run's TrainConfig, RunConfig and encoder overrides, each checked
    before any work starts, and the part of its config given explicitly: by
    the config file, by --set flags or by dedicated flags."""
    given: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                file_config = json.load(f)
        except OSError as e:
            raise UsageError(f"config file {args.config} cannot be read: {e.strerror}")
        except (ValueError, RecursionError) as e:  # bad JSON, nesting or UTF-8
            raise UsageError(f"config file {args.config} is not valid JSON: {e}")
        if not isinstance(file_config, dict):
            raise UsageError("config file must hold a JSON object")
        given = file_config
    given = _merge(given, _parse_set(args.set or []))
    for key, value in vars(args).items():
        if key in _DEFAULTS and value is not None:
            given[key] = value
    config = _merge(_DEFAULTS, given)

    # a resolved-config snapshot names the subcommand it was written by
    snapshot_command = config.pop("command", args.command)
    if snapshot_command != args.command:
        raise UsageError(f"config was written by {snapshot_command!r}, "
                         f"not {args.command!r}")
    unknown = set(config) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    encoder = config.pop("encoder")
    encoder = {} if encoder is None else encoder
    if not isinstance(encoder, dict):
        raise UsageError(f"encoder must be an object of overrides, got {encoder!r}")
    unknown = set(encoder) - set(_ENCODER_KEYS)
    if unknown:
        raise UsageError(f"unknown encoder keys: {', '.join(sorted(unknown))} "
                         f"(allowed: {', '.join(_ENCODER_KEYS)})")
    train = _build(TrainConfig, {f.name: config[f.name] for f in fields(TrainConfig)})
    run = _build(RunConfig, {f.name: config[f.name] for f in fields(RunConfig)})
    _build(EncoderConfig, {"vocab_size": 1, "max_len": train.max_len, "seed": train.seed,
                           **encoder}, prefix="encoder.")
    return train, run, encoder, given


def _require(run: RunConfig, command: str, *keys: str) -> None:
    missing = [k for k in keys if not getattr(run, k)]
    if missing:
        raise UsageError(f"{command} requires: {', '.join(missing)}")


def _model_from_checkpoint(train: TrainConfig, run: RunConfig, given: dict):
    """The checkpoint run.checkpoint names, then train and the encoder
    overrides as that checkpoint's model has them (embed_dim, max_len, encoder).

    A model setting given explicitly that differs from the checkpoint's is a
    usage error naming its key.
    """
    ckpt = load_checkpoint(run.checkpoint)
    encoder = {key: getattr(ckpt.encoder_config, key) for key in _ENCODER_KEYS}
    model = {"embed_dim": ckpt.embed_dim, "max_len": ckpt.encoder_config.max_len}
    differing = [(f"encoder.{key}", value, encoder[key])
                 for key, value in sorted((given.get("encoder") or {}).items())
                 if value != encoder[key]]
    differing += [(key, given[key], own) for key, own in model.items()
                  if key in given and given[key] != own]
    if differing:
        raise UsageError("; ".join(f"{key}={value!r} differs from the checkpoint's {own!r}"
                                   for key, value, own in differing))
    return ckpt, replace(train, **model), encoder


def _snapshot(command: str, train: TrainConfig, run: RunConfig, encoder: dict) -> None:
    resolved = {"command": command, **asdict(train), **asdict(run), "encoder": encoder}
    path = os.path.join(run.out, "resolved_config.json")
    try:
        os.makedirs(run.out, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(resolved, f, indent=2, sort_keys=True)
    except OSError as e:
        raise UsageError(f"out {run.out!r} is not a usable output directory ({e})")
    log.info("resolved config written to %s", path)


def _classes_from(sentences: list[Sentence], role: str, path: str) -> LabelSet:
    found = set().union(*(s.entity_classes() for s in sentences))
    if not found:
        raise DataError(f"{path}: corpus contains no entity classes")
    return LabelSet(tuple(sorted(found)), role=role)


def _sampled_classes(corpus: list[Sentence], run: RunConfig) -> LabelSet:
    """The support corpus's classes, at least `n_way` of them."""
    label_set = _classes_from(corpus, "target", run.support)
    if len(label_set) < run.n_way:
        raise DataError(f"{run.support}: support corpus has {len(label_set)} classes, "
                        f"need n_way={run.n_way}")
    return label_set


def cmd_train(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _require(run, "train", "train_corpus", "label_map")
    _snapshot("train", train, run, encoder)
    sentences = read_conll(run.train_corpus)
    label_set = _classes_from(sentences, "source", run.train_corpus)
    label_map = load_label_map(run.label_map, label_set)
    ckpt, log_entries = train_source(sentences, label_set, label_map, train,
                                     encoder_overrides=encoder or None)
    save_checkpoint(ckpt, os.path.join(run.out, "checkpoint.ckpt"))
    with open(os.path.join(run.out, "loss_log.txt"), "w", encoding="utf-8") as f:
        f.writelines(entry.format() + "\n" for entry in log_entries)
    log.info("trained on %d sentences, %d steps, final loss %.6f",
             len(sentences), len(log_entries), log_entries[-1].loss)
    return 0


def cmd_finetune(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _require(run, "finetune", "checkpoint", "support")
    ckpt, train, encoder = _model_from_checkpoint(train, run, given)
    _snapshot("finetune", train, run, encoder)
    support = read_conll(run.support)
    label_set = _classes_from(support, "target", run.support)
    if run.label_map:
        label_map = load_label_map(run.label_map, label_set)
    else:
        label_map = ckpt.label_map
        label_map.check_covers(label_set, f"the label map of checkpoint {run.checkpoint}, "
                                          f"for the classes of support {run.support},")
    tuned, result = finetune(ckpt, support, label_set, label_map, train)
    save_checkpoint(tuned, os.path.join(run.out, "finetuned.ckpt"))
    with open(os.path.join(run.out, "finetune_log.txt"), "w", encoding="utf-8") as f:
        f.writelines(entry.format() + "\n" for entry in result.log)
    log.info("fine-tuned for %d iterations (cap hit: %s)",
             result.iterations, result.hit_cap)
    return 0


def cmd_predict(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _require(run, "predict", "checkpoint", "support", "input")
    ckpt, train, encoder = _model_from_checkpoint(train, run, given)
    _snapshot("predict", train, run, encoder)
    support = read_conll(run.support)
    if not support:
        raise DataError(f"{run.support}: support corpus holds no sentences")
    queries = read_conll(run.input)
    tags = decode_sentences(ckpt, queries, build_support_bank(ckpt, support))
    tagged = [Sentence(s.tokens, tuple(t)) for s, t in zip(queries, tags)]
    path = os.path.join(run.out, "predictions.conll")
    write_conll(tagged, path)
    log.info("tagged %d sentences into %s", len(tagged), path)
    return 0


def cmd_evaluate(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _require(run, "evaluate", "checkpoint")
    ckpt, train, encoder = _model_from_checkpoint(train, run, given)
    _snapshot("evaluate", train, run, encoder)
    if run.protocol == "episode":
        _require(run, "evaluate (episode protocol)", "episodes")
        episodes = read_fewnerd_episodes(run.episodes)
        if not episodes:
            raise DataError(f"{run.episodes}: no episodes to evaluate")
        report = evaluate_episodes(ckpt, episodes, train)
    else:
        _require(run, "evaluate (low-resource protocol)", "support", "test_corpus")
        support_corpus = read_conll(run.support)
        test_corpus = read_conll(run.test_corpus)
        label_set = _sampled_classes(support_corpus, run)
        extra = set().union(*(s.entity_classes() for s in test_corpus)) - set(label_set.classes)
        if extra:
            raise DataError(f"{run.test_corpus}: test corpus uses classes absent from the "
                            f"support corpus {run.support}: {sorted(extra)}")
        seeds = [train.seed + i for i in range(run.n_runs)]
        report = low_resource_eval(ckpt, label_set, support_corpus, test_corpus,
                                   n_way=run.n_way, k_shot=run.k_shot,
                                   seeds=seeds, config=train, strict_k=run.strict_k)
    path = os.path.join(run.out, "eval_report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.summary(), f, indent=2, sort_keys=True)
    if report.per_run:
        print(f"runs: {len(report.per_run)}  "
              f"f1 per run: {', '.join(f'{x:.4f}' for x in report.per_run)}")
        print(f"mean {report.mean:.4f} +/- {report.std:.4f}")
    print(f"micro-F1 {report.f1:.4f} (P {report.precision:.4f}, "
          f"R {report.recall:.4f}); report written to {path}")
    return 0


def cmd_sample(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _require(run, "sample", "support")
    _snapshot("sample", train, run, encoder)
    corpus = read_conll(run.support)
    label_set = _sampled_classes(corpus, run)
    sample = greedy_sample_support(corpus, label_set, run.n_way, run.k_shot,
                                   seed=train.seed, strict_k=run.strict_k)
    path = os.path.join(run.out, "support.conll")
    write_conll(sample.sentences, path)
    counts = ", ".join(f"{c}={n}" for c, n in sorted(sample.counts.items()))
    print(f"sampled {len(sample.sentences)} sentences ({counts}) into {path}")
    if sample.overshoot:
        print(f"overshoot classes: {', '.join(sorted(sample.overshoot))}")
    return 0


def cmd_gradcheck(train: TrainConfig, run: RunConfig, encoder: dict, given: dict) -> int:
    _snapshot("gradcheck", train, run, encoder)
    report = run_gradcheck(n_batches=run.gradcheck_batches, seed=train.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else EXIT_NUMERIC


def cmd_dump_embeddings(train: TrainConfig, run: RunConfig, encoder: dict,
                        given: dict) -> int:
    _require(run, "dump-embeddings", "checkpoint", "input")
    ckpt, train, encoder = _model_from_checkpoint(train, run, given)
    _snapshot("dump-embeddings", train, run, encoder)
    sentences = read_conll(run.input)
    path = os.path.join(run.out, "embeddings.tsv")
    n = dump_embeddings(ckpt, sentences, path)
    print(f"wrote {n} token rows to {path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "finetune": cmd_finetune,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "sample": cmd_sample,
    "gradcheck": cmd_gradcheck,
    "dump-embeddings": cmd_dump_embeddings,
}
# the settings each subcommand takes as --flags of its own
_FLAGS = {
    "train": ["train_corpus", "label_map"],
    "finetune": ["checkpoint", "support", "label_map"],
    "predict": ["checkpoint", "support", "input"],
    "evaluate": ["checkpoint", "episodes", "support", "test_corpus",
                 "protocol", "n_way", "k_shot", "n_runs"],
    "sample": ["support", "n_way", "k_shot"],
    "gradcheck": ["gradcheck_batches"],
    "dump-embeddings": ["checkpoint", "input"],
}


def _add_flag(parser: argparse.ArgumentParser, key: str, **kwargs) -> None:
    """--key-name for a setting, parsed as its field's type."""
    kind = _HINTS[key]
    parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                        type=get_args(kind)[0] if get_args(kind) else kind, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewtag",
        description="Few-shot sequence labeling with Gaussian token embeddings")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dot paths allowed)")
    _add_flag(parser, "seed", help="root random seed")
    _add_flag(parser, "out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key in _FLAGS[name]:
            _add_flag(p, key)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FEWTAG_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](*resolve_config(args))
    except UsageError as e:
        log.error("usage error: %s", e)
        return EXIT_USAGE
    except MemoryError as e:
        log.error("usage error: out of memory, a size setting is too large: %s", e)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as e:
        log.error("data error: %s", e)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as e:
        log.error("numeric error: %s", e)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
