import struct
from dataclasses import asdict, fields, make_dataclass

import numpy as np
import numpy.testing as npt
import pytest

from vora import checkpoint, cli, lora, trainer
from vora.model import ModelConfig


def test_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(n_llm=3, n_vit=2, d_model=16, d_vit=8, n_heads=2, d_ff=32,
                      patch=4, rank=2, vembed_hidden=8, vit_heads=2, vit_ff=16)
    pipe = trainer.build_pipeline(cfg, seed=0)
    tensors = trainer.collect_state(pipe)
    path = tmp_path / "ck.vora"
    checkpoint.save(path, cfg, tensors, meta={"stage": "init", "merged": "false"})
    cfg2, loaded, meta = checkpoint.load(path)
    assert meta == {"stage": "init", "merged": "false"}
    assert cfg2 == cfg
    assert set(loaded) == set(tensors)
    for name, t in tensors.items():
        assert loaded[name].tobytes() == t.data.tobytes(), name
        assert loaded[name].shape == t.data.shape


def test_double_roundtrip_identical_files(tmp_path):
    cfg = ModelConfig()
    pipe = trainer.build_pipeline(cfg, seed=1)
    p1, p2 = tmp_path / "a.vora", tmp_path / "b.vora"
    checkpoint.save(p1, cfg, trainer.collect_state(pipe), meta={"merged": "false"})
    cfg2, tensors, meta = checkpoint.load(p1)
    checkpoint.save(p2, cfg2, tensors, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.vora"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(checkpoint.CheckpointError, match="magic"):
        checkpoint.load(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.vora"
    path.write_bytes(b"VORA" + (9).to_bytes(4, "little") + b"\x00" * 16)
    with pytest.raises(checkpoint.CheckpointError, match="version"):
        checkpoint.load(path)


def test_adapter_names_follow_convention(tmp_path):
    cfg = ModelConfig(n_vit=2)
    adapters = lora.attach(cfg, seed=0)
    names = set(adapters.params)
    for block in range(2):
        for layer in lora.LAYER_NAMES:
            assert f"lora.{block}.{layer}.a" in names
            assert f"lora.{block}.{layer}.b" in names


def test_missing_teacher_is_checkpoint_error(tmp_path):
    cfg = ModelConfig()
    state = trainer.collect_state(trainer.build_pipeline(cfg, seed=0))
    tensors = {n: t.data for n, t in state.items() if not n.startswith("teacher.")}
    with pytest.raises(checkpoint.CheckpointError, match="teacher"):
        trainer.pipeline_from_state(cfg, tensors, {"merged": "false"})
    # the CLI maps it to the state-misuse exit code
    path = tmp_path / "noteacher.vora"
    checkpoint.save(path, cfg, tensors, {"merged": "false"})
    assert cli.main(["merge", str(path), str(tmp_path / "merged.vora")]) == cli.EXIT_STATE


def test_pipeline_from_state_restores_forward(tmp_path):
    import vora.tensor as T
    from vora.model import SequenceLayout

    from test_mask import build_attention_mask

    cfg = ModelConfig()
    pipe = trainer.build_pipeline(cfg, seed=2)
    path = tmp_path / "ck.vora"
    checkpoint.save(path, cfg, trainer.collect_state(pipe), meta={"merged": "false"})
    cfg2, tensors, meta = checkpoint.load(path)
    pipe2 = trainer.pipeline_from_state(cfg2, tensors, meta)
    ids = np.arange(5) + 4
    lay = SequenceLayout(0, 5, 1)
    mask = build_attention_mask(lay, 5, "hybrid")
    a, _ = pipe.model.forward(pipe.model.embed_tokens(ids), mask, pipe.adapters)
    b, _ = pipe2.model.forward(pipe2.model.embed_tokens(ids), mask, pipe2.adapters)
    npt.assert_array_equal(a.data, b.data)


def _saved(tmp_path):
    cfg = ModelConfig()
    path = tmp_path / "ck.vora"
    checkpoint.save(path, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)),
                    meta={"stage": "init", "merged": "false"})
    return path


def _tensor_offsets(blob):
    """Byte offsets of the first tensor's name and payload, and of the
    boundary after it, found by walking the format."""
    pos = 8
    (n_cfg,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(n_cfg):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0] + 8
    (n_meta,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(2 * n_meta):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    pos += 4  # tensor count
    name_at = pos + 4
    pos = name_at + struct.unpack_from("<I", blob, pos)[0]
    (ndim,) = struct.unpack_from("<I", blob, pos)
    dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4)
    payload_at = pos + 4 + 4 * ndim
    return name_at, payload_at, payload_at + 4 * int(np.prod(dims))


def test_truncated_checkpoint_is_checkpoint_error(tmp_path):
    blob = _saved(tmp_path).read_bytes()
    name_at, payload_at, boundary = _tensor_offsets(blob)
    cuts = [0, 3, 6, 10, 30, name_at + 2, payload_at + 5, boundary, 30_000, len(blob) // 2, len(blob) - 1]
    paths = [tmp_path / "absent.vora"]  # no file at all
    for cut in cuts:
        paths.append(tmp_path / f"cut{cut}.vora")
        paths[-1].write_bytes(blob[:cut])
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=0\n")
    for path in paths:
        with pytest.raises(checkpoint.CheckpointError, match=str(path)):
            checkpoint.load(path)
        assert cli.main(["eval", str(path), str(cfg_path)]) == cli.EXIT_STATE, path


def test_corrupt_name_is_checkpoint_error(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    name_at, _, _ = _tensor_offsets(bytes(blob))
    blob[name_at] = 0xFF  # not valid utf-8
    path.write_bytes(bytes(blob))
    with pytest.raises(checkpoint.CheckpointError, match="utf-8"):
        checkpoint.load(path)


def _patch_fields(path, **values):
    """Overwrite the f64 value of the named config fields in the file."""
    blob = bytearray(path.read_bytes())
    pos = 8
    (n_cfg,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(n_cfg):
        (n,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4: pos + 4 + n].decode()
        pos += 4 + n
        if name in values:
            struct.pack_into("<d", blob, pos, values[name])
        pos += 8
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("values, field", [({"n_llm": 6.5}, "n_llm"), ({"n_vit": 2.5}, "n_vit"),
                                           ({"d_model": 64.25}, "d_model"), ({"rank": float("nan")}, "rank"),
                                           ({"n_llm": 1e7}, "n_llm"), ({"n_llm": 1e7, "n_vit": 1e7}, "n_llm"),
                                           ({"n_llm": 400.0, "n_vit": 400.0}, "n_llm")])
def test_corrupt_config_field_is_checkpoint_error(tmp_path, values, field):
    # a fraction used to truncate silently; a huge block count built its
    # name tables block by block before any check
    path = _saved(tmp_path)
    _patch_fields(path, **values)
    with pytest.raises(checkpoint.CheckpointError, match=field):
        checkpoint.load(path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=0\n")
    assert cli.main(["eval", str(path), str(cfg_path)]) == cli.EXIT_STATE


@pytest.mark.parametrize("name", ["vembed.fc1", "vembed.fc2", "lora.0.q.b", "aux.1.proj", "llm.blocks.2.q",
                                  "llm.head", "teacher.blocks.0.fc1", "lora.0.q.a", "aux.0.gain"])
def test_missing_required_tensor_is_checkpoint_error(tmp_path, name):
    cfg = ModelConfig()
    state = trainer.collect_state(trainer.build_pipeline(cfg, seed=0))
    tensors = {n: t.data for n, t in state.items() if n != name}
    with pytest.raises(checkpoint.CheckpointError, match=name):
        trainer.pipeline_from_state(cfg, tensors, {"merged": "false"})


@pytest.mark.parametrize("name, like", [("llm.blocks.6.q", "llm.blocks.0.q"),
                                        ("teacher.blocks.4.fc1", "teacher.blocks.0.fc1"),
                                        ("lora.4.q.a", "lora.0.q.a"), ("aux.4.gain", "aux.0.gain")])
def test_unexpected_tensor_is_checkpoint_error(name, like):
    cfg = ModelConfig()
    state = trainer.collect_state(trainer.build_pipeline(cfg, seed=0))
    tensors = {n: t.data for n, t in state.items()}
    tensors[name] = tensors[like].copy()
    with pytest.raises(checkpoint.CheckpointError, match=name):
        trainer.pipeline_from_state(cfg, tensors, {"merged": "false"})


def test_extra_block_checkpoint_exits_4_in_eval(tmp_path):
    # a 6-block student saved under a 5-block config
    tensors = {n: t.data for n, t in trainer.collect_state(trainer.build_pipeline(ModelConfig(), seed=0)).items()}
    ckpt = tmp_path / "extra.vora"
    checkpoint.save(ckpt, ModelConfig(n_llm=5), tensors, {"merged": "false"})
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=0\n")
    assert cli.main(["eval", str(ckpt), str(cfg_path)]) == cli.EXIT_STATE


@pytest.mark.parametrize("name", ["llm.blocks.0.q", "llm.blocks.1.ffn_norm", "llm.embed", "vembed.fc1",
                                  "teacher.blocks.0.fc2", "lora.0.ffn_up.a", "lora.3.ffn_down.b", "aux.1.proj"])
def test_wrong_shape_tensor_is_checkpoint_error(tmp_path, name):
    cfg = ModelConfig()
    state = trainer.collect_state(trainer.build_pipeline(cfg, seed=0))
    tensors = {n: t.data for n, t in state.items()}
    tensors[name] = np.zeros((3, 3), dtype=np.float32)
    want = ", ".join(map(str, state[name].shape))
    with pytest.raises(checkpoint.CheckpointError, match=rf"{name}.*\[3, 3\].*\[{want}\]"):
        trainer.pipeline_from_state(cfg, tensors, {"merged": "false"})


def test_wrong_shape_checkpoint_exits_4_in_eval(tmp_path):
    cfg = ModelConfig()
    tensors = {n: t.data for n, t in trainer.collect_state(trainer.build_pipeline(cfg, seed=0)).items()}
    tensors["llm.blocks.0.q"] = np.zeros((3, 3), dtype=np.float32)
    ckpt = tmp_path / "bad.vora"
    checkpoint.save(ckpt, cfg, tensors, {"merged": "false"})
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=0\n")
    assert cli.main(["eval", str(ckpt), str(cfg_path)]) == cli.EXIT_STATE


@pytest.mark.parametrize("alpha", [8.0, 16.0])
def test_alpha_field_loads_only_at_scale_one(tmp_path, alpha):
    # older files carry an alpha config field: their adapters added (alpha / rank) b a
    cfg = ModelConfig()
    old_cfg = make_dataclass("OldModelConfig", [(f.name, int) for f in fields(cfg)] + [("alpha", float)])
    path = tmp_path / "old.vora"
    tensors = trainer.collect_state(trainer.build_pipeline(cfg, seed=0))
    checkpoint.save(path, old_cfg(**asdict(cfg), alpha=alpha), tensors, {"merged": "false"})
    if alpha == cfg.rank:
        loaded_cfg, loaded, _ = checkpoint.load(path)
        assert loaded_cfg == cfg and loaded.keys() == tensors.keys()
    else:
        with pytest.raises(checkpoint.CheckpointError, match="alpha"):
            checkpoint.load(path)
        assert cli.main(["merge", str(path), str(tmp_path / "merged.vora")]) == cli.EXIT_STATE
