"""Low-rank adapters for the first n_vit blocks: creation, forward delta
and exact merge into the base weights.

An adapter is the pair (a, b) and adds b a to its layer's weight, with no
further scale. Every adapter starts with b = 0 so a freshly attached model
computes exactly the base model's outputs.
"""

import numpy as np

from . import tensor as T
from .model import LAYER_NAMES, weight_shape
from .tensor import Tensor


class MergeStateError(RuntimeError):
    pass


class LoraAdapter:
    """Rank-r pair (a, b) for one targeted linear layer.

    a: [rank, d_in] small-random; b: [d_out, rank] zero at creation, so
    the initial delta b @ a is exactly zero.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class AdapterSet:
    """All adapters of a model, keyed by (block, layer); tracks merge state."""

    def __init__(self, adapters):
        self.adapters = adapters
        self.merged = False

    def __len__(self):
        return len(self.adapters)

    def __iter__(self):
        return iter(self.adapters.values())

    def tensors(self):
        out = {}
        for (block, layer), ad in sorted(self.adapters.items()):
            out[f"lora.{block}.{layer}.a"] = ad.a
            out[f"lora.{block}.{layer}.b"] = ad.b
        return out

    def delta(self, x, block, layer):
        """Low-rank forward contribution (x a^T) b^T, or None."""
        if self.merged:
            return None
        ad = self.adapters.get((block, layer))
        if ad is None:
            return None
        return T.linear(T.linear(x, ad.a), ad.b)


def adapter_shape(cfg, layer, leaf):
    """Shape of factor ``leaf`` ("a" or "b") of the adapter on ``layer``."""
    d_out, d_in = weight_shape(cfg, layer)
    return {"a": (cfg.rank, d_in), "b": (d_out, cfg.rank)}[leaf]


def attach(cfg, seed=0):
    """One adapter per targeted linear layer in blocks 0..n_vit-1."""
    rng = np.random.default_rng(seed)
    adapters = {}
    for block in range(cfg.n_vit):
        for layer in LAYER_NAMES:
            a = Tensor((0.02 * rng.standard_normal(adapter_shape(cfg, layer, "a"))).astype(np.float32),
                       requires_grad=True, name=f"lora.{block}.{layer}.a")
            b = Tensor(np.zeros(adapter_shape(cfg, layer, "b"), dtype=np.float32),
                       requires_grad=True, name=f"lora.{block}.{layer}.b")
            adapters[(block, layer)] = LoraAdapter(a, b)
    return AdapterSet(adapters)


def merge_adapter(base_w, adapter):
    """base_w + b a, accumulated in float64, rounded to f32.

    A zero delta leaves the base bytes untouched.
    """
    delta = adapter.b.data.astype(np.float64) @ adapter.a.data.astype(np.float64)
    if not np.any(delta):
        return base_w.data.copy()
    return (base_w.data.astype(np.float64) + delta).astype(np.float32)


def merge_all(model, adapter_set):
    """Fold every adapter into its base weight in place; one-shot only."""
    if adapter_set.merged:
        raise MergeStateError("adapters already merged")
    for (block, layer), ad in sorted(adapter_set.adapters.items()):
        w = model.params[f"llm.blocks.{block}.{layer}"]
        w.data = merge_adapter(w, ad)
    adapter_set.merged = True
