"""Low-rank adapters for the first n_vit blocks: creation, the pair each
adapted layer runs with, and exact merge into the base weights.

An adapter is the pair (a, b) and adds b a to its layer's weight, with no
further scale. Unmerged, a layer runs as one ``T.linear(x, w, (a, b))``
call, on the float32 merged weight ``T.merged_weight``; the merge writes
that very weight into the base for good. Every adapter starts with b = 0
so a freshly attached model computes exactly the base model's outputs.
"""

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .model import LAYER_NAMES, Model, init_tensors
from .tensor import Tensor


class MergeStateError(RuntimeError):
    pass


class LoraAdapter(NamedTuple):
    """Rank-r pair (a, b) for one targeted linear layer.

    a: [rank, d_in] small-random; b: [d_out, rank] zero at creation, so
    the initial delta b @ a is exactly zero.
    """

    a: Tensor
    b: Tensor


class AdapterSet:
    """All adapters of a model: ``params`` is the name -> Tensor table of
    ``shapes(cfg)`` it is built from, ``adapters`` its (a, b) pair per
    (block, layer); tracks merge state."""

    def __init__(self, cfg, params):
        self.params = params
        self.adapters = {(block, layer): LoraAdapter(params[a], params[b]) for block, layer, a, b in _pairs(cfg)}
        self.merged = False

    def __len__(self):
        return len(self.adapters)

    def __iter__(self):
        return iter(self.adapters.values())

    def delta(self, block, layer):
        """The layer's (a, b) pair, which ``T.linear`` adds to its weight as
        b·a; None when the layer has no adapter or the set is merged."""
        return None if self.merged else self.adapters.get((block, layer))


def _pairs(cfg):
    """(block, layer, a name, b name) of every adapted layer, in init order:
    each of LAYER_NAMES in blocks 0..n_vit-1."""
    for block in range(cfg.n_vit):
        for layer in LAYER_NAMES:
            yield block, layer, f"lora.{block}.{layer}.a", f"lora.{block}.{layer}.b"


def shapes(cfg):
    """Every adapter factor, name -> shape in init order: a [rank, d_in] and
    b [d_out, rank] for an adapted [d_out, d_in] weight."""
    base = Model.shapes(cfg)
    out = {}
    for block, layer, a, b in _pairs(cfg):
        d_out, d_in = base[f"llm.blocks.{block}.{layer}"]
        out[a], out[b] = (cfg.rank, d_in), (d_out, cfg.rank)
    return out


def attach(cfg, seed=0):
    """One adapter per targeted linear layer in blocks 0..n_vit-1: a is
    0.02 * N(0, 1), b is zero."""
    return AdapterSet(cfg, init_tensors(shapes(cfg), np.random.default_rng(seed), requires_grad=True,
                                        scale=lambda name: 0.0 if name.endswith(".b") else 0.02))


def merge_all(model, adapter_set):
    """Fold every adapter into its base weight in place; one-shot only."""
    if adapter_set.merged:
        raise MergeStateError("adapters already merged")
    for (block, layer), (a, b) in sorted(adapter_set.adapters.items()):
        w = model.params[f"llm.blocks.{block}.{layer}"]
        w.data = T.merged_weight(w.data, a.data, b.data)
    adapter_set.merged = True
