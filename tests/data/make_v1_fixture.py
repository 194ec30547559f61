"""Writes the v1 checkpoint fixture used by tests/test_checkpoint.py.

Produces `v1_small.ckpt` (format version 1: per-head q/k/v weights named
`layer{i}.attn.{q,k,v}{h}.{w,bias}`) and `v1_small_hidden.npz` (the
sentences and their eval-mode hidden states at the occupied positions, as
the v1 encoder computed them).  It must run against the v1 code, e.g.

    git archive 3345bd9 | tar -x -C v1 && PYTHONPATH=v1/src python tests/data/make_v1_fixture.py
"""

import os

import numpy as np

from fewtag.data import LabelMap, LabelSet, Sentence
from fewtag.encoder import encode
from fewtag.prompt import assemble_input, build_label_prompt
from fewtag.training import TrainConfig, save_checkpoint, train_source

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_LEN = 24

SENTENCES = [
    Sentence(("alice", "met", "bob", "in", "paris"),
             ("I-person", "O", "I-person", "O", "I-place")),
    Sentence(("rome", "is", "far"), ("I-place", "O", "O")),
    Sentence(("carol", "and", "dave", "left", "oslo", "today"),
             ("I-person", "O", "I-person", "O", "I-place", "O")),
    Sentence(("they", "visited", "lima"), ("O", "O", "I-place")),
]
LABEL_SET = LabelSet(("person", "place"))
LABEL_MAP = LabelMap({"person": "person", "place": "place", "O": "other"})


def train():
    """The fixture's checkpoint, as the fewtag code on the path trains it."""
    config = TrainConfig(lr=0.05, batch_size=2, epochs=2, max_len=MAX_LEN,
                         embed_dim=4, seed=11)
    ckpt, _ = train_source(SENTENCES, LABEL_SET, LABEL_MAP, config,
                           encoder_overrides={"d": 8, "n_layers": 2, "n_heads": 2})
    return ckpt


def main():
    ckpt = train()
    save_checkpoint(ckpt, os.path.join(HERE, "v1_small.ckpt"))

    prompt = build_label_prompt(LABEL_SET, LABEL_MAP)
    arrays = {"max_len": np.array(MAX_LEN)}
    for i, sent in enumerate(SENTENCES):
        seq = assemble_input(sent, prompt, ckpt.vocab, max_len=MAX_LEN)
        arrays[f"tokens{i}"] = np.array(sent.tokens)
        arrays[f"tags{i}"] = np.array(sent.tags)
        arrays[f"hidden{i}"] = encode(ckpt.params, ckpt.encoder_config, seq).data[:seq.n_occupied]
    np.savez(os.path.join(HERE, "v1_small_hidden.npz"), **arrays)


if __name__ == "__main__":
    main()
