"""Writes the v2 checkpoint fixture used by tests/test_checkpoint.py.

Produces `v2_small.ckpt` (format version 2, which still holds each layer's
key bias `layer{i}.attn.k.bias` and the mu head's output bias `proj.mu.b2`)
and `v2_small_hidden.npz` (the sentences and their eval-mode hidden states,
one packed sentence at a time, as the v2 encoder computed them).  It trains
on `make_v1_fixture`'s sentences with its config, and must run against the
v2 code, e.g.

    git archive fff60ee | tar -x -C v2 && PYTHONPATH=v2/src python tests/data/make_v2_fixture.py
"""

import os

import numpy as np

from fewtag.encoder import encode
from fewtag.prompt import assemble_input, build_label_prompt, pack
from fewtag.training import save_checkpoint
from make_v1_fixture import HERE, LABEL_MAP, LABEL_SET, MAX_LEN, SENTENCES, train


def main():
    ckpt = train()
    save_checkpoint(ckpt, os.path.join(HERE, "v2_small.ckpt"))

    prompt = build_label_prompt(LABEL_SET, LABEL_MAP)
    arrays = {"max_len": np.array(MAX_LEN)}
    for i, sent in enumerate(SENTENCES):
        seq = assemble_input(sent, prompt, ckpt.vocab, max_len=MAX_LEN)
        arrays[f"tokens{i}"] = np.array(sent.tokens)
        arrays[f"tags{i}"] = np.array(sent.tags)
        arrays[f"hidden{i}"] = encode(ckpt.params, ckpt.encoder_config, pack([seq])).data
    np.savez(os.path.join(HERE, "v2_small_hidden.npz"), **arrays)


if __name__ == "__main__":
    main()
