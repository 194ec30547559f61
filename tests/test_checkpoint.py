"""Checkpoint format: v1 compatibility and rejection of malformed files.

`data/v1_small.ckpt` was written by the v1 code (per-head attention weights,
inputs padded to max_len) together with the eval-mode hidden states it
computed at the occupied positions; `data/make_v1_fixture.py` regenerates
both from a v1 checkout.  `data/v2_small.ckpt` and its hidden states were
written the same way by the v2 code (with key biases and a mu output bias),
by `data/make_v2_fixture.py`.
"""

import json
import os
import re
import struct

import numpy as np
import pytest

from fewtag.autodiff import Tensor
from fewtag.cli import main
from fewtag.data import Sentence
from fewtag.encoder import EncoderConfig, encode
from fewtag.prompt import assemble_input, build_label_prompt, pack
from fewtag.rngutil import make_rng
from fewtag.training import (CHECKPOINT_MAGIC, CheckpointError, init_params, load_checkpoint,
                             param_shapes, save_checkpoint)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
V1_CKPT = os.path.join(DATA, "v1_small.ckpt")
V1_HIDDEN = os.path.join(DATA, "v1_small_hidden.npz")
V2_CKPT = os.path.join(DATA, "v2_small.ckpt")
V2_HIDDEN = os.path.join(DATA, "v2_small_hidden.npz")


def read_container(blob):
    """(version, metadata bytes, {name: array}) of a checkpoint file's bytes."""
    off = len(CHECKPOINT_MAGIC)
    version, meta_len = struct.unpack_from("<IQ", blob, off)
    off += 12
    meta = blob[off:off + meta_len]
    off += meta_len
    (n,) = struct.unpack_from("<I", blob, off)
    off += 4
    tensors = {}
    for _ in range(n):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        rank = blob[off]
        shape = struct.unpack_from(f"<{rank}Q", blob, off + 1)
        off += 1 + 8 * rank
        count = int(np.prod(shape)) if rank else 1
        tensors[name] = np.frombuffer(blob, "<f8", count, off).reshape(shape)
        off += 8 * count
    return version, meta, tensors


def write_container(path, version, meta, tensors):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<IQ", version, len(meta)) + meta)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            f.write(struct.pack("<H", len(name)) + name.encode())
            f.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
            f.write(np.ascontiguousarray(arr, "<f8").tobytes())


def v1_parts():
    with open(V1_CKPT, "rb") as f:
        return read_container(f.read())


@pytest.mark.parametrize("ckpt_path,hidden_path", [
    pytest.param(V1_CKPT, V1_HIDDEN, id="v1"),
    pytest.param(V2_CKPT, V2_HIDDEN, id="v2"),
])
def test_v1_fixture_matches_v1_hidden_states(ckpt_path, hidden_path):
    ckpt = load_checkpoint(ckpt_path)
    ref = np.load(hidden_path)
    prompt = build_label_prompt(ckpt.label_set, ckpt.label_map)
    n = 0
    while f"hidden{n}" in ref.files:
        sent = Sentence(tuple(ref[f"tokens{n}"]), tuple(ref[f"tags{n}"]))
        seq = assemble_input(sent, prompt, ckpt.vocab, max_len=int(ref["max_len"]))
        hidden = encode(ckpt.params, ckpt.encoder_config, pack([seq])).data
        np.testing.assert_allclose(hidden, ref[f"hidden{n}"], rtol=0, atol=1e-12)
        n += 1
    assert n == 4


def test_v1_heads_are_fused_in_column_blocks(tmp_path):
    version, _, v1 = v1_parts()
    assert version == 1
    ckpt = load_checkpoint(V1_CKPT)
    assert not [name for name in ckpt.params if re.search(r"\.attn\.[qkv]\d", name)]
    dh = ckpt.encoder_config.head_dim
    np.testing.assert_array_equal(ckpt.params["layer1.attn.k.w"].data[:, dh:2 * dh],
                                  v1["layer1.attn.k1.w"])
    np.testing.assert_array_equal(ckpt.params["layer0.attn.q.bias"].data[:dh],
                                  v1["layer0.attn.q0.bias"])

    path = tmp_path / "v3.ckpt"
    save_checkpoint(ckpt, str(path))
    version, meta, _ = read_container(path.read_bytes())
    assert version == 3 and json.loads(meta)["version"] == 3
    again = load_checkpoint(str(path))
    for name, t in ckpt.params.items():
        np.testing.assert_array_equal(t.data, again.params[name].data)


def test_v1_missing_head_tensor_rejected(tmp_path):
    version, meta, tensors = v1_parts()
    del tensors["layer1.attn.v0.bias"]
    path = tmp_path / "gap.ckpt"
    write_container(str(path), version, meta, tensors)
    with pytest.raises(CheckpointError, match="layer1.attn.v0.bias"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_v1_tensor_that_is_not_finite_rejected(tmp_path, value):
    version, meta, tensors = v1_parts()
    tensors["layer1.attn.v0.bias"] = tensors["layer1.attn.v0.bias"].copy()
    tensors["layer1.attn.v0.bias"][1] = value
    path = tmp_path / "poisoned.ckpt"
    write_container(str(path), version, meta, tensors)
    with pytest.raises(CheckpointError, match="tensor layer1.attn.v0.bias holds non-finite"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("meta,match", [
    (b"{x}", "JSONDecodeError"),
    (b"\xff\xfe{}", "UnicodeDecodeError"),
    (b"[]", "lacks encoder_config"),
    (b"{}", "lacks encoder_config, vocab, label_map, label_set, embed_dim"),
])
def test_bad_metadata_rejected(tmp_path, meta, match):
    path = tmp_path / "meta.ckpt"
    write_container(str(path), 2, meta, {})
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(path))


@pytest.mark.parametrize("path,value,field", [
    pytest.param(("vocab",), {}, "vocab", id="vocab-without-specials"),
    pytest.param(("vocab",), ["[UNK]"], "vocab", id="vocab-a-list"),
    pytest.param(("encoder_config", "d"), 8.0, "encoder_config", id="d-a-float"),
    # checked before the tensor shapes, whose walk over the layers would not end
    pytest.param(("encoder_config", "n_layers"), 10**12, "encoder_config", id="n_layers-huge"),
    pytest.param(("label_set", "classes"), [], "label_set", id="no-classes"),
    pytest.param(("label_set", "classes"), "PER", "label_set", id="classes-a-string"),
    pytest.param(("label_map",), {"O": "other"}, "label_map", id="label-map-missing-classes"),
    pytest.param(("label_map",), "other", "label_map", id="label-map-a-string"),
    # the fixture's own embed_dim, 4, as a float matched every tensor shape
    pytest.param(("embed_dim",), 4.0, "embed_dim", id="embed-dim-a-float"),
    pytest.param(("embed_dim",), 0, "embed_dim", id="embed-dim-zero"),
    pytest.param(("embed_dim",), "4", "embed_dim", id="embed-dim-a-string"),
])
def test_wrongly_typed_metadata_rejected(tmp_path, path, value, field):
    ckpt = _retyped_save(tmp_path, path, value)
    with pytest.raises(CheckpointError, match=f"{ckpt}: malformed checkpoint metadata: {field}"):
        load_checkpoint(str(ckpt))


def _retyped_save(tmp_path, path, value):
    """The path of a save of the v1 fixture whose metadata holds `value` at
    the key path `path`."""
    save_checkpoint(load_checkpoint(V1_CKPT), str(tmp_path / "v2.ckpt"))
    version, meta, tensors = read_container((tmp_path / "v2.ckpt").read_bytes())
    bad = json.loads(meta)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    ckpt = tmp_path / "typed.ckpt"
    write_container(str(ckpt), version, json.dumps(bad).encode(), tensors)
    return ckpt


# non-string JSON values; unchecked, each would load as a LabelSet role and re-save
@pytest.mark.parametrize("role", [5, None, ["x"], {"a": 1}], ids=["int", "null", "list", "dict"])
def test_label_set_role_that_is_not_a_string_is_data_error(tmp_path, caplog, role):
    ckpt = _retyped_save(tmp_path, ("label_set", "role"), role)
    with pytest.raises(CheckpointError,
                       match=f"{ckpt}: malformed checkpoint metadata: label_set$"):
        load_checkpoint(str(ckpt))
    conll = tmp_path / "in.conll"
    conll.write_text("alice\tI-person\n")
    code = main(["--out", str(tmp_path / "out"), "predict", "--checkpoint", str(ckpt),
                 "--support", str(conll), "--input", str(conll)])
    assert code == 3
    assert "malformed checkpoint metadata: label_set" in caplog.text


def test_bad_metadata_values_rejected(tmp_path):
    _, meta, tensors = v1_parts()
    bad = json.loads(meta)
    bad["encoder_config"]["heads"] = 3
    path = tmp_path / "cfg.ckpt"
    write_container(str(path), 2, json.dumps(bad).encode(), tensors)
    with pytest.raises(CheckpointError, match="heads"):
        load_checkpoint(str(path))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.ckpt"
    with open(V1_CKPT, "rb") as f:
        path.write_bytes(f.read() + b"\x00")
    with pytest.raises(CheckpointError, match="1 trailing bytes"):
        load_checkpoint(str(path))


def _edited_save(tmp_path, edit):
    """The path of a v2 save of the v1 fixture whose parameters `edit` changed."""
    ckpt = load_checkpoint(V1_CKPT)
    edit(ckpt.params)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(ckpt, str(path))
    return path


# how to change a loaded checkpoint's parameters, and what the reload names
TENSOR_EDITS = {
    "missing": (lambda params: params.pop("layer0.ff.w1"), "lacks tensor layer0.ff.w1"),
    "extra": (lambda params: params.update(extra=Tensor(np.zeros(2))),
              "unexpected tensor extra"),
    "wrong-shape": (lambda params: params.update({"emb.token": Tensor(np.zeros((3, 8)))}),
                    r"tensor emb.token has shape \(3, 8\)"),
    "not-finite": (lambda params: params["layer0.ff.w1"].data.put(5, np.nan),
                   "tensor layer0.ff.w1 holds non-finite values"),
}


@pytest.mark.parametrize("case", sorted(TENSOR_EDITS))
def test_tensors_the_config_does_not_imply_rejected(tmp_path, case):
    edit, match = TENSOR_EDITS[case]
    path = _edited_save(tmp_path, edit)
    with pytest.raises(CheckpointError, match=match) as raised:
        load_checkpoint(str(path))
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("overrides,embed_dim", [
    ({"d": 8, "n_heads": 1}, 4),
    ({"d": 8, "n_heads": 4, "n_layers": 3}, 4),
    ({"d": 16, "n_heads": 4, "ff_dim": 24}, 4),
    ({"d": 16, "n_heads": 1, "ff_dim": 8, "n_layers": 1}, 32),
])
def test_param_shapes_equal_the_shapes_init_params_draws(overrides, embed_dim):
    config = EncoderConfig(vocab_size=11, max_len=9, **overrides)
    drawn = {name: t.shape for name, t in init_params(config, embed_dim).items()}
    assert param_shapes(config, embed_dim) == drawn


def _draws_in_order(config, embed_dim):
    """init_params's tensors rebuilt in plain numpy, each matrix drawn from
    its stream in this order: emb.token, emb.pos; per layer one (H, 3, d, dh)
    q/k/v block, out.w, ff.w1, ff.w2; then proj.mu.w1, mu.w2, sigma.w1,
    sigma.w2.  Norm gains are ones, every other vector zeros; the k
    projection and the mu head's output layer have no bias."""
    d, ff, heads = config.d, config.ff, config.n_heads

    def uniform(rng, shape):
        bound = 1.0 / np.sqrt(shape[-2])
        return rng.uniform(-bound, bound, size=shape)

    rng = make_rng(config.seed, "encoder_init")
    want = {"emb.token": uniform(rng, (config.vocab_size, d)),
            "emb.pos": uniform(rng, (config.max_len, d))}
    norms = ["emb"]
    for i in range(config.n_layers):
        p = f"layer{i}"
        qkv = uniform(rng, (heads, 3, d, d // heads))
        for j, kind in enumerate("qkv"):
            # head h in column block h
            want[f"{p}.attn.{kind}.w"] = qkv[:, j].transpose(1, 0, 2).reshape(d, d)
        want.update({f"{p}.attn.q.bias": np.zeros(d), f"{p}.attn.v.bias": np.zeros(d)})
        want[f"{p}.attn.out.w"] = uniform(rng, (d, d))
        want[f"{p}.ff.w1"] = uniform(rng, (d, ff))
        want[f"{p}.ff.w2"] = uniform(rng, (ff, d))
        want.update({f"{p}.attn.out.bias": np.zeros(d), f"{p}.ff.bias1": np.zeros(ff),
                     f"{p}.ff.bias2": np.zeros(d)})
        norms += [f"{p}.attn", f"{p}.ff"]
    for prefix in norms:
        want[f"{prefix}.norm_gain"], want[f"{prefix}.norm_bias"] = np.ones(d), np.zeros(d)
    rng = make_rng(config.seed, "projection_init")
    for head in ("mu", "sigma"):
        want[f"proj.{head}.w1"] = uniform(rng, (d, d))
        want[f"proj.{head}.w2"] = uniform(rng, (d, embed_dim))
        want[f"proj.{head}.b1"] = np.zeros(d)
    want["proj.sigma.b2"] = np.zeros(embed_dim)
    return want


@pytest.mark.parametrize("overrides,embed_dim", [
    ({"d": 8, "n_heads": 1, "seed": 3}, 4),
    ({"d": 8, "n_heads": 4, "n_layers": 3}, 4),
    ({"d": 16, "n_heads": 4, "ff_dim": 24, "seed": 5}, 4),
    ({"d": 16, "n_heads": 2, "ff_dim": 8, "n_layers": 2, "seed": 1}, 32),
])
def test_init_params_draws_each_tensor_in_its_order(overrides, embed_dim):
    config = EncoderConfig(vocab_size=11, max_len=9, **overrides)
    drawn = init_params(config, embed_dim)
    want = _draws_in_order(config, embed_dim)
    assert drawn.keys() == want.keys()
    for name, t in drawn.items():
        assert t.data.dtype == np.float64 and t.data.tobytes() == want[name].tobytes(), name


def test_cli_maps_mismatched_tensors_to_data_error(tmp_path, caplog):
    path = _edited_save(tmp_path, TENSOR_EDITS["missing"][0])
    conll = tmp_path / "in.conll"
    conll.write_text("alice\tI-person\n")
    code = main(["--out", str(tmp_path / "out"), "predict", "--checkpoint", str(path),
                 "--support", str(conll), "--input", str(conll)])
    assert code == 3
    assert "layer0.ff.w1" in caplog.text


# each tensor v3 dropped, and a tensor of its shape that v3 keeps
@pytest.mark.parametrize("name,twin", [("layer1.attn.k.bias", "layer1.attn.q.bias"),
                                       ("proj.mu.b2", "proj.sigma.b2")])
def test_v3_file_holding_a_tensor_v3_dropped_is_data_error(tmp_path, caplog, name, twin):
    path = _edited_save(tmp_path, lambda params: params.update({name: params[twin]}))
    with pytest.raises(CheckpointError, match=f"unexpected tensor {re.escape(name)}"):
        load_checkpoint(str(path))
    conll = tmp_path / "in.conll"
    conll.write_text("alice\tI-person\n")
    code = main(["--out", str(tmp_path / "out"), "predict", "--checkpoint", str(path),
                 "--support", str(conll), "--input", str(conll)])
    assert code == 3
    assert name in caplog.text


def test_cli_maps_bad_metadata_to_data_error(tmp_path):
    path = tmp_path / "meta.ckpt"
    write_container(str(path), 2, b"{x}", {})
    conll = tmp_path / "in.conll"
    conll.write_text("alice\tI-person\n")
    code = main(["--out", str(tmp_path / "out"), "dump-embeddings",
                 "--checkpoint", str(path), "--input", str(conll)])
    assert code == 3


@pytest.mark.parametrize("shape", [
    pytest.param((2**40, 2**40), id="count-wraps-to-zero-in-int64"),
    pytest.param((2**64 - 1, 1) * 16, id="count-overflows-float64"),
])
def test_tensor_shape_larger_than_the_file_is_data_error(tmp_path, capsys, shape):
    _, meta, _ = v1_parts()
    path = tmp_path / "shape.ckpt"
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<IQ", 2, len(meta)) + meta)
        f.write(struct.pack("<IH", 1, 9) + b"emb.token")
        f.write(struct.pack(f"<B{len(shape)}Q", len(shape), *shape) + bytes(64))
    with pytest.raises(CheckpointError, match="truncated") as raised:
        load_checkpoint(str(path))
    assert str(path) in str(raised.value)
    conll = tmp_path / "in.conll"
    conll.write_text("alice\tI-person\n")
    code = main(["--out", str(tmp_path / "out"), "predict", "--checkpoint", str(path),
                 "--support", str(conll), "--input", str(conll)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


def test_failed_save_leaves_previous_file_intact(tmp_path):
    ckpt = load_checkpoint(V1_CKPT)
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, str(path))
    before = path.read_bytes()
    broken = ckpt.clone()
    broken.params["x" * 70_000] = broken.params["emb.pos"]  # name overflows its length field
    with pytest.raises(struct.error):
        save_checkpoint(broken, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.ckpt"]
