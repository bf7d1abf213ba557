"""Flat key=value run configuration.

One ``key=value`` per line, ``#`` starts a comment, unknown keys are
errors. The keys are the fields of ``ModelConfig``, ``TrainConfig`` and
``DataConfig`` with their defaults (``resolution`` as ``resolution_h``
and ``resolution_w``), plus the command keys listed in ``SCHEMA``. Every
key has a default except ``seed``, which must be set explicitly: all
randomness flows from it. Parsing builds the model, training and data
configs, so an out-of-range value is a ConfigFileError before any work
starts (``vora ablate`` checks its grid cells the same way). Whether the
data keys fit a model (``check_data_fits``: vocab, patch and max_seq) is
checked against the model that will run: the run config's under ``vora
pretrain`` and ``vora ablate``, the checkpoint's under ``vora eval`` and
``vora finetune``. The training commands also check that every batch
holds an image (``check_batch_images``); ``vora eval`` sets its own. A
list key repeats no value. ``normalize`` renders the resolved config in
a canonical form that parses back identically.
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


def _finite(raw):
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {raw!r}")
    return x


def _list_of(cast):
    """Comma list of one or more values through ``cast``, none repeated after the cast."""
    def parse(raw):
        items = tuple(cast(x.strip()) for x in raw.split(",") if x.strip())
        if not items:
            raise ValueError(f"needs at least one value, got {raw!r}")
        if len(set(items)) < len(items):
            raise ValueError(f"repeats a value in {raw!r}")
        return items
    return parse


_str_list, _int_list, _float_list = _list_of(str), _list_of(int), _list_of(_finite)


def _count(raw):
    n = int(raw)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


_FIELD_PARSERS = {int: int, float: float, bool: _bool, str: str}  # each config checks its own ranges

# key -> (default, parser); a None default marks a required key. Each config
# field is a key with its default, parsed by its type; the keys after them are not fields.
SCHEMA = {
    **{f.name: (f.default, _FIELD_PARSERS[f.type])
       for cls in (ModelConfig, TrainConfig, DataConfig) for f in fields(cls) if f.name != "resolution"},
    "seed": (None, int),  # root seed; required, no default
    "resolution_h": (DataConfig.resolution[0], int),  # DataConfig.resolution, fixed-resolution mode
    "resolution_w": (DataConfig.resolution[1], int),
    # evaluation
    "eval_captions": (8, _count),  # held-out caption samples
    "eval_texts": (8, _count),  # held-out text samples
    "eval_max_new": (24, _count),  # decode budget per caption
    # ablation
    "ablate_masks": (("hybrid",), _str_list),  # mask modes in the ablation grid
    "ablate_distills": (("none", "block_wise"), _str_list),  # distill modes in the grid
    "ablate_ranks": ((8,), _int_list),  # adapter ranks in the grid
    "thresholds": ((4.8, 4.4, 4.0), _float_list),  # LM-loss thresholds to scan
    "ablate_steps": (400, _count),  # training budget per ablation cell
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
        try:
            seen[key] = SCHEMA[key][1](value)
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    values = {}
    for key, (default, _) in SCHEMA.items():
        if key in seen:
            values[key] = seen[key]
        elif default is None:
            raise ConfigFileError(f"{source}: missing required key {key!r}")
        else:
            values[key] = default
    run = RunConfig(values)
    try:  # building each config checks its keys' ranges
        run.model_config(), run.train_config(), run.data_config()
    except ValueError as exc:
        raise ConfigFileError(f"{source}: {exc}") from exc
    return run


def check_data_fits(dcfg, mcfg, source):
    """ConfigFileError unless data config ``dcfg`` fits model config
    ``mcfg``: a vocab that covers the data vocabulary, the same patch, and
    a max_seq that holds the longest packed sequence."""
    if mcfg.vocab < VOCAB_SIZE:
        raise ConfigFileError(f"{source}: vocab ({mcfg.vocab}) must cover the {VOCAB_SIZE}-word data vocabulary")
    if dcfg.patch != mcfg.patch:
        raise ConfigFileError(f"{source}: patch ({dcfg.patch}) differs from the model's patch ({mcfg.patch})")
    longest = max_packed_len(dcfg)
    if longest > mcfg.max_seq:
        raise ConfigFileError(f"{source}: max_seq ({mcfg.max_seq}) is below the longest packed "
                              f"sequence ({longest}: largest vision span plus longest caption)")


def check_batch_images(dcfg, batch_size, source):
    """ConfigFileError unless every training batch holds an image: the
    vision embed trains in every mode, and only an image gives it a
    gradient."""
    if dcfg.images_per_batch(batch_size) < 1:
        raise ConfigFileError(f"{source}: batch_size ({batch_size}) x image_fraction ({dcfg.image_fraction}) "
                              "rounds to no image per batch; training needs at least one")


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
