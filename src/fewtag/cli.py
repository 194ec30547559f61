"""Command-line entry point.

Subcommands: train, finetune, predict, evaluate, sample, gradcheck,
dump-embeddings.  Configuration comes from a JSON file (--config), overridden
by repeatable --set key=value flags and then by the dedicated flags (--seed,
--out).  Every run writes a resolved-config snapshot to the output
directory so it can be reproduced bit-exactly from the snapshot alone:
`fewtag --config out/resolved_config.json --out replay/ <same subcommand>`.
Subcommands that load a checkpoint take the model settings (`encoder`,
`embed_dim`) from it: the snapshot records the checkpoint's, and a value
given that differs from the checkpoint's is a usage error.

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(unreadable corpora, label maps, checkpoints), 4 numeric error (non-finite
losses or gradients, failed gradient check).  Log verbosity is controlled by
the FEWTAG_LOG_LEVEL environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

from .autodiff import NumericError
from .data import (DataError, LabelSet, Sentence, greedy_sample_support,
                   load_label_map, read_conll, read_fewnerd_episodes, write_conll)
from .encoder import EncoderConfig
from .gradcheck import run_gradcheck
from .inference import (build_support_bank, decode_sentence, dump_embeddings,
                        evaluate_episodes, low_resource_eval)
from .training import (CheckpointError, TrainConfig, finetune, load_checkpoint,
                       save_checkpoint, train_source)

log = logging.getLogger("fewtag")

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}

# full key schema with defaults; None marks optional paths/values
_DEFAULTS = {
    **{f.name: getattr(TrainConfig(), f.name) for f in fields(TrainConfig)},
    "encoder": {},            # overrides for the encoder (d, n_layers, ...)
    "protocol": "episode",    # or "low-resource"
    "n_way": 2,
    "k_shot": 1,
    "n_runs": 5,
    "strict_k": False,
    "gradcheck_batches": 20,
    "train_corpus": None,
    "support": None,
    "test_corpus": None,
    "episodes": None,
    "input": None,
    "label_map": None,
    "checkpoint": None,
    "out": "out",
}


# encoder overrides a config may set; vocab_size, max_len and seed come
# from the corpus and the top-level keys
_ENCODER_TYPES = {"d": int, "n_layers": int, "n_heads": int, "ff_dim": int, "dropout": float}
# top-level keys outside TrainConfig that hold counts, and those that hold
# paths (a number there would be opened as a file descriptor)
_COUNT_KEYS = ("n_way", "k_shot", "n_runs", "gradcheck_batches")
_PATH_KEYS = ("train_corpus", "support", "test_corpus", "episodes", "input", "label_map",
              "checkpoint", "out")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               tuple: "a list of numbers"}


class UsageError(ValueError):
    pass


def _has_type(value, kind) -> bool:
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, float) for v in value)
    if isinstance(value, bool):  # a JSON true is not a number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_type(key: str, value, kind) -> None:
    if not _has_type(value, kind):
        raise UsageError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _check_settings(config: dict) -> None:
    """Build every setting a subcommand uses, so that a bad value is a usage
    error naming its key before any work starts."""
    for key in sorted(_TRAIN_FIELDS):
        _check_type(key, config[key], type(_DEFAULTS[key]))
    for key in _COUNT_KEYS:
        _check_type(key, config[key], int)
        if config[key] <= 0:
            raise UsageError(f"{key} must be positive, got {config[key]}")
    for key in _PATH_KEYS:
        if config[key] is not None:
            _check_type(key, config[key], str)
    _check_type("strict_k", config["strict_k"], bool)
    encoder = config["encoder"] if config["encoder"] is not None else {}
    if not isinstance(encoder, dict):
        raise UsageError(f"encoder must be an object of overrides, got {encoder!r}")
    unknown = set(encoder) - set(_ENCODER_TYPES)
    if unknown:
        raise UsageError(f"unknown encoder keys: {', '.join(sorted(unknown))} "
                         f"(allowed: {', '.join(_ENCODER_TYPES)})")
    for key, value in encoder.items():
        if not (key == "ff_dim" and value is None):
            _check_type(f"encoder.{key}", value, _ENCODER_TYPES[key])
    try:
        EncoderConfig(vocab_size=1, max_len=config["max_len"], seed=config["seed"], **encoder)
    except ValueError as e:
        raise UsageError(f"encoder: {e}")
    train_config_from(config)


def _parse_set(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
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


def resolve_config(args: argparse.Namespace) -> tuple[dict, dict]:
    """The full config of a run, and the part of it given explicitly: by the
    config file, by --set flags or by dedicated flags."""
    given: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                file_config = json.load(f)
        except OSError as e:
            raise UsageError(f"config file {args.config} cannot be read: {e.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
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
    if config["protocol"] not in ("episode", "low-resource"):
        raise UsageError(f"unknown protocol {config['protocol']!r}")
    _check_settings(config)
    return config, given


def train_config_from(config: dict) -> TrainConfig:
    kwargs = {k: config[k] for k in _TRAIN_FIELDS}
    if isinstance(kwargs.get("alpha_grid"), list):
        kwargs["alpha_grid"] = tuple(kwargs["alpha_grid"])
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e))


def _require(config: dict, command: str, *keys: str) -> None:
    missing = [k for k in keys if not config.get(k)]
    if missing:
        raise UsageError(f"{command} requires: {', '.join(missing)}")


def _model_from_checkpoint(config: dict, given: dict):
    """The checkpoint config["checkpoint"] names; config's model settings
    (encoder and embed_dim) become the checkpoint's.

    A model setting given explicitly that differs from the checkpoint's is a
    usage error naming its key.
    """
    ckpt = load_checkpoint(config["checkpoint"])
    encoder = {key: getattr(ckpt.encoder_config, key) for key in _ENCODER_TYPES}
    differing = [(f"encoder.{key}", value, encoder[key])
                 for key, value in sorted((given.get("encoder") or {}).items())
                 if value != encoder[key]]
    if "embed_dim" in given and given["embed_dim"] != ckpt.embed_dim:
        differing.append(("embed_dim", given["embed_dim"], ckpt.embed_dim))
    if differing:
        raise UsageError("; ".join(f"{key}={value!r} differs from the checkpoint's {own!r}"
                                   for key, value, own in differing))
    config["encoder"], config["embed_dim"] = encoder, ckpt.embed_dim
    return ckpt


def _snapshot(config: dict, command: str) -> None:
    resolved = {"command": command, **config}
    path = os.path.join(config["out"], "resolved_config.json")
    try:
        os.makedirs(config["out"], exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(resolved, f, indent=2, sort_keys=True)
    except OSError as e:
        raise UsageError(f"out {config['out']!r} is not a usable output directory ({e})")
    log.info("resolved config written to %s", path)


def _classes_from(sentences: list[Sentence], role: str) -> LabelSet:
    found: set[str] = set()
    for s in sentences:
        found |= s.entity_classes()
    if not found:
        raise DataError("corpus contains no entity classes")
    return LabelSet(tuple(sorted(found)), role=role)


def _out_path(config: dict, name: str) -> str:
    return os.path.join(config["out"], name)


def cmd_train(config: dict, given: dict) -> int:
    _require(config, "train", "train_corpus", "label_map")
    _snapshot(config, "train")
    sentences = read_conll(config["train_corpus"])
    label_set = _classes_from(sentences, "source")
    label_map = load_label_map(config["label_map"], label_set)
    ckpt, log_entries = train_source(sentences, label_set, label_map,
                                     train_config_from(config),
                                     encoder_overrides=config["encoder"] or None)
    save_checkpoint(ckpt, _out_path(config, "checkpoint.ckpt"))
    with open(_out_path(config, "loss_log.txt"), "w", encoding="utf-8") as f:
        for entry in log_entries:
            f.write(entry.format() + "\n")
    log.info("trained on %d sentences, %d steps, final loss %.6f",
             len(sentences), len(log_entries), log_entries[-1].loss)
    return 0


def cmd_finetune(config: dict, given: dict) -> int:
    _require(config, "finetune", "checkpoint", "support")
    ckpt = _model_from_checkpoint(config, given)
    _snapshot(config, "finetune")
    support = read_conll(config["support"])
    label_set = _classes_from(support, "target")
    label_map = (load_label_map(config["label_map"], label_set)
                 if config["label_map"] else ckpt.label_map)
    tuned, result = finetune(ckpt, support, label_set, label_map,
                             train_config_from(config))
    save_checkpoint(tuned, _out_path(config, "finetuned.ckpt"))
    with open(_out_path(config, "finetune_log.txt"), "w", encoding="utf-8") as f:
        for entry in result.log:
            f.write(entry.format() + "\n")
    log.info("fine-tuned for %d iterations (cap hit: %s)",
             result.iterations, result.hit_cap)
    return 0


def cmd_predict(config: dict, given: dict) -> int:
    _require(config, "predict", "checkpoint", "support", "input")
    ckpt = _model_from_checkpoint(config, given)
    _snapshot(config, "predict")
    support = read_conll(config["support"])
    queries = read_conll(config["input"])
    bank = build_support_bank(ckpt, support, max_len=config["max_len"])
    tagged = [Sentence(s.tokens, tuple(decode_sentence(ckpt, s, bank,
                                                       max_len=config["max_len"])))
              for s in queries]
    path = _out_path(config, "predictions.conll")
    write_conll(tagged, path)
    log.info("tagged %d sentences into %s", len(tagged), path)
    return 0


def cmd_evaluate(config: dict, given: dict) -> int:
    _require(config, "evaluate", "checkpoint")
    ckpt = _model_from_checkpoint(config, given)
    _snapshot(config, "evaluate")
    train_config = train_config_from(config)
    if config["protocol"] == "episode":
        _require(config, "evaluate (episode protocol)", "episodes")
        episodes = read_fewnerd_episodes(config["episodes"])
        report = evaluate_episodes(ckpt, episodes, train_config)
    else:
        _require(config, "evaluate (low-resource protocol)", "support", "test_corpus")
        support_corpus = read_conll(config["support"])
        test_corpus = read_conll(config["test_corpus"])
        label_set = _classes_from(support_corpus, "target")
        seeds = [config["seed"] + i for i in range(config["n_runs"])]
        report = low_resource_eval(ckpt, label_set, support_corpus, test_corpus,
                                   n_way=config["n_way"], k_shot=config["k_shot"],
                                   seeds=seeds, config=train_config,
                                   strict_k=config["strict_k"])
    path = _out_path(config, "eval_report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.summary(), f, indent=2, sort_keys=True)
    if report.per_run:
        print(f"runs: {len(report.per_run)}  "
              f"f1 per run: {', '.join(f'{x:.4f}' for x in report.per_run)}")
        print(f"mean {report.mean:.4f} +/- {report.std:.4f}")
    print(f"micro-F1 {report.f1:.4f} (P {report.precision:.4f}, "
          f"R {report.recall:.4f}); report written to {path}")
    return 0


def cmd_sample(config: dict, given: dict) -> int:
    _require(config, "sample", "support")
    _snapshot(config, "sample")
    corpus = read_conll(config["support"])
    label_set = _classes_from(corpus, "target")
    sample = greedy_sample_support(corpus, label_set, config["n_way"],
                                   config["k_shot"], seed=config["seed"],
                                   strict_k=config["strict_k"])
    path = _out_path(config, "support.conll")
    write_conll(sample.sentences, path)
    counts = ", ".join(f"{c}={n}" for c, n in sorted(sample.counts.items()))
    print(f"sampled {len(sample.sentences)} sentences ({counts}) into {path}")
    if sample.overshoot:
        print(f"overshoot classes: {', '.join(sorted(sample.overshoot))}")
    return 0


def cmd_gradcheck(config: dict, given: dict) -> int:
    _snapshot(config, "gradcheck")
    report = run_gradcheck(n_batches=config["gradcheck_batches"],
                           seed=config["seed"])
    for line in report.lines():
        print(line)
    return 0 if report.passed else EXIT_NUMERIC


def cmd_dump_embeddings(config: dict, given: dict) -> int:
    _require(config, "dump-embeddings", "checkpoint", "input")
    ckpt = _model_from_checkpoint(config, given)
    _snapshot(config, "dump-embeddings")
    sentences = read_conll(config["input"])
    path = _out_path(config, "embeddings.tsv")
    n = dump_embeddings(ckpt, sentences, path, max_len=config["max_len"])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewtag",
        description="Few-shot sequence labeling with Gaussian token embeddings")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dot paths allowed)")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    path_flags = {
        "train": ["train_corpus", "label_map"],
        "finetune": ["checkpoint", "support", "label_map"],
        "predict": ["checkpoint", "support", "input"],
        "evaluate": ["checkpoint", "episodes", "support", "test_corpus"],
        "sample": ["support"],
        "gradcheck": [],
        "dump-embeddings": ["checkpoint", "input"],
    }
    extra_flags = {
        "evaluate": ["protocol", "n_way", "k_shot", "n_runs"],
        "sample": ["n_way", "k_shot"],
        "gradcheck": ["gradcheck_batches"],
    }
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key in path_flags[name]:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)
        for key in extra_flags.get(name, []):
            kind = str if key == "protocol" else int
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FEWTAG_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, given = resolve_config(args)
        return _COMMANDS[args.command](config, given)
    except UsageError as e:
        log.error("usage error: %s", e)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as e:
        log.error("data error: %s", e)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as e:
        log.error("numeric error: %s", e)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
