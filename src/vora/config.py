"""Flat key=value run configuration.

One ``key=value`` per line, ``#`` starts a comment, unknown keys are
errors. Every key has a documented default except ``seed``, which must
be set explicitly: all randomness flows from it. Parsing builds the
model, training and data configs, so an out-of-range value is a
ConfigFileError before any work starts (``vora ablate`` checks its grid
cells the same way). ``normalize`` renders the resolved config in a
canonical form that parses back identically.
"""

import math
from dataclasses import dataclass, fields

from .data import VOCAB_SIZE, DataConfig, max_packed_len
from .model import ModelConfig
from .trainer import TrainConfig


class ConfigFileError(ValueError):
    pass


def _bool(raw):
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _str_list(raw):
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _int_list(raw):
    return tuple(int(x) for x in _str_list(raw))


def _finite(raw):
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {raw!r}")
    return x


def _float_list(raw):
    return tuple(_finite(x) for x in _str_list(raw))


def _count(raw):
    n = int(raw)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


# key -> (default, parser, help). A None default marks a required key.
SCHEMA = {
    # model
    "n_llm": (6, int, "student block count"),
    "n_vit": (4, int, "teacher block count (= distilled student blocks)"),
    "d_model": (64, int, "student width"),
    "d_vit": (48, int, "teacher width"),
    "n_heads": (4, int, "student attention heads"),
    "d_ff": (256, int, "student FFN inner width"),
    "vocab": (200, int, "vocabulary size (builtin vocabulary has 200)"),
    "patch": (8, int, "patch edge length, pixels"),
    "rank": (8, int, "adapter rank"),
    "max_seq": (160, int, "packing limit"),
    "vembed_hidden": (0, int, "vision-embed hidden width; 0 means d_model/2"),
    "vit_heads": (4, int, "teacher attention heads"),
    "vit_ff": (0, int, "teacher FFN inner width; 0 means 4*d_vit"),
    # training
    "lr": (2e-4, _finite, "learning rate (constant after warmup)"),
    "warmup_steps": (100, int, "linear warmup length"),
    "batch_size": (16, int, "sequences per step"),
    "total_steps": (500, int, "optimizer steps; 0 writes the init checkpoint only"),
    "mode": ("pretrain", str, "pretrain | finetune | full_llm_unstable"),
    "distill_mode": ("block_wise", str, "none | last_block | block_wise"),
    "mask_mode": ("hybrid", str, "hybrid | causal"),
    "seed": (None, int, "root seed; required, no default"),
    "weight_decay": (0.01, _finite, "decoupled decay (0 on norms/embedding)"),
    "log_window": (100, int, "smoothing window for loss curves"),
    "teacher_warm": (False, _bool, "briefly train the teacher before freezing"),
    "teacher_warm_steps": (200, int, "teacher warm-up steps"),
    # data
    "image_fraction": (0.82, _finite, "share of image-caption samples per batch"),
    "resolution_h": (32, int, "image height (fixed-resolution mode)"),
    "resolution_w": (32, int, "image width (fixed-resolution mode)"),
    "anyres": (False, _bool, "sample a random patch-multiple resolution per image"),
    "anyres_min": (16, int, "smallest anyres edge, pixels"),
    "anyres_max": (48, int, "largest anyres edge, pixels"),
    # evaluation
    "eval_captions": (8, _count, "held-out caption samples"),
    "eval_texts": (8, _count, "held-out text samples"),
    "eval_max_new": (24, _count, "decode budget per caption"),
    # ablation
    "ablate_masks": (("hybrid",), _str_list, "mask modes in the ablation grid"),
    "ablate_distills": (("none", "block_wise"), _str_list, "distill modes in the grid"),
    "ablate_ranks": ((8,), _int_list, "adapter ranks in the grid"),
    "thresholds": ((4.8, 4.4, 4.0), _float_list, "LM-loss thresholds to scan"),
    "ablate_steps": (400, _count, "training budget per ablation cell"),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def _build(self, cls, **explicit):
        """``cls`` from the values named like its fields, plus ``explicit``."""
        named = {f.name: self.values[f.name] for f in fields(cls) if f.name not in explicit}
        return cls(**named, **explicit)

    def model_config(self):
        return self._build(ModelConfig)

    def train_config(self, mode=None):
        return self._build(TrainConfig, mode=mode or self.values["mode"])

    def data_config(self):
        return self._build(DataConfig, resolution=(self.values["resolution_h"], self.values["resolution_w"]))


def parse_text(text, source="<config>"):
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigFileError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigFileError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigFileError(f"{source}:{lineno}: missing value for key {key!r}")
        default, caster, _ = SCHEMA[key]
        try:
            seen[key] = caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    values = {}
    for key, (default, _, _) in SCHEMA.items():
        if key in seen:
            values[key] = seen[key]
        elif default is None:
            raise ConfigFileError(f"{source}: missing required key 'seed'")
        else:
            values[key] = default
    run = RunConfig(values)
    try:
        _, _, dcfg = run.model_config(), run.train_config(), run.data_config()
    except ValueError as exc:
        raise ConfigFileError(f"{source}: {exc}") from exc
    if values["vocab"] < VOCAB_SIZE:
        raise ConfigFileError(f"{source}: vocab ({values['vocab']}) must cover the "
                              f"{VOCAB_SIZE}-word data vocabulary")
    longest = max_packed_len(dcfg)
    if longest > values["max_seq"]:
        raise ConfigFileError(f"{source}: max_seq ({values['max_seq']}) is below the longest packed "
                              f"sequence ({longest}: largest vision span plus longest caption)")
    return run


def parse_file(path):
    try:
        with open(path) as f:
            return parse_text(f.read(), source=str(path))
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def normalize(cfg):
    """Canonical text form; parses back to an identical RunConfig."""
    lines = [f"{key}={_render(cfg.values[key])}" for key in sorted(cfg.values)]
    return "\n".join(lines) + "\n"
