"""Binary checkpoint format, little-endian throughout:

    magic   4 bytes  "VORA"
    version u32      (currently 1)
    config  u32 count, then per field: u32 name length, name utf-8, f64 value
    meta    u32 count, then per entry: u32 key length, key utf-8,
                                       u32 value length, value utf-8
    tensors u32 count, then per tensor: u32 name length, name utf-8,
                                        u32 ndim, u32 dims...,
                                        float32 payload, row-major

Round-trips are bit-exact: f32 payloads are written verbatim and config
ints survive the f64 encoding unchanged. Files written before the adapter
scale was fixed at 1 carry an ``alpha`` field; they load when it equals
``rank`` (scale 1), and any other value is a CheckpointError.
"""

import math
import os
import struct
from dataclasses import fields

import numpy as np

from .model import ModelConfig

MAGIC = b"VORA"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_str(f, s):
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def save(path, cfg, tensors, meta=None):
    """Write config + named f32 arrays (+ string metadata) to path."""
    meta = dict(meta or {})
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        cfg_fields = [(fld.name, float(getattr(cfg, fld.name))) for fld in fields(cfg)]
        f.write(struct.pack("<I", len(cfg_fields)))
        for name, value in cfg_fields:
            _write_str(f, name)
            f.write(struct.pack("<d", value))
        f.write(struct.pack("<I", len(meta)))
        for key in sorted(meta):
            _write_str(f, key)
            _write_str(f, str(meta[key]))
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = tensors[name]
            arr = arr.data if hasattr(arr, "data") and not isinstance(arr, np.ndarray) else arr
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            _write_str(f, name)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load(path):
    """Read (ModelConfig, {name: float32 array}, {meta key: value}).

    A missing, truncated or corrupt file raises CheckpointError naming
    the path, and a config field that is not a whole number, or an n_llm
    above the number of tensors in the file, one naming the field.
    """
    pos = 0

    def take(n):
        # checked against the size first, so a corrupt length never allocates
        nonlocal pos
        if pos + n > size:
            raise CheckpointError(f"{path}: truncated: {n} bytes needed at offset {pos} of {size}")
        pos += n
        return f.read(n)

    def u32():
        return struct.unpack("<I", take(4))[0]

    def text():
        return take(u32()).decode("utf-8")

    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if take(4) != MAGIC:
                raise CheckpointError(f"{path}: bad magic, not a checkpoint")
            version = u32()
            if version != VERSION:
                raise CheckpointError(f"{path}: unsupported version {version}")
            raw_cfg = {}
            for _ in range(u32()):
                name = text()
                raw_cfg[name] = struct.unpack("<d", take(8))[0]
            known = {fld.name: raw_cfg[fld.name] for fld in fields(ModelConfig) if fld.name in raw_cfg}
            for name, value in known.items():
                if not value.is_integer():
                    raise CheckpointError(f"{path}: config field {name}={value!r} is not a whole number")
            cfg = ModelConfig(**{name: int(value) for name, value in known.items()})
            if raw_cfg.get("alpha", cfg.rank) != cfg.rank:
                raise CheckpointError(f"{path}: adapter scale alpha={raw_cfg['alpha']:g} / rank={cfg.rank} "
                                      "is not 1; only alpha == rank is supported")
            meta = {}
            for _ in range(u32()):
                key = text()
                meta[key] = text()
            tensors = {}
            for _ in range(u32()):
                name = text()
                ndim = u32()
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
                tensors[name] = np.array(data, dtype=np.float32)  # own, writable copy
            # every block owns at least one tensor (and n_vit <= n_llm): checked
            # here, before a caller builds the name tables, which grow with n_llm
            if cfg.n_llm > len(tensors):
                raise CheckpointError(f"{path}: config field n_llm={cfg.n_llm} asks for more blocks than "
                                      f"the file's {len(tensors)} tensors")
    except CheckpointError:
        raise
    except (OSError, struct.error, ValueError, OverflowError) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    return cfg, tensors, meta
