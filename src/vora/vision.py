"""Vision side: patchification, the shallow-MLP embedding layer with a
resolution-agnostic 2-D sinusoidal positional encoding, and the frozen
toy ViT teacher that exposes per-block hidden states.

The teacher has no CLS token, so student and teacher sequences align
one-to-one at every patch position.
"""

import numpy as np

from . import tensor as T
from .model import attention_mask, attention_plan, init_tensors, rope_tables


class PatchError(ValueError):
    pass


def patchify(image, patch):
    """[S, patch*patch*3] rows of an [H, W, 3] float32 image, row-major
    over the (H/p, W/p) grid.

    Each row is one flattened patch (HWC order within the patch).
    """
    h, w, _ = image.shape
    if h % patch:
        raise PatchError(f"height {h} not divisible by patch {patch}")
    if w % patch:
        raise PatchError(f"width {w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = image.reshape(gh, patch, gw, patch, 3).transpose(0, 2, 1, 3, 4)
    return tiles.reshape(gh * gw, patch * patch * 3)


def sincos_grid(rows, cols, dim):
    """Factorized 2-D sinusoidal encoding [rows*cols, dim], row-major.

    First half of the channels encodes the row index, second half the
    column index, each as [sin | cos] of the ``rope_tables`` ladder (a
    zero column pads an odd width). Defined for any grid, so any
    patch-divisible resolution works.
    """
    def axis(n, width):
        cos, sin = rope_tables(np.arange(n), width)
        return np.concatenate([sin, cos, np.zeros((n, width % 2), np.float32)], axis=1)

    half = dim // 2
    return np.concatenate([np.repeat(axis(rows, half), cols, axis=0),
                           np.tile(axis(cols, dim - half), (rows, 1))], axis=1)


def positions(patches, runs, dim):
    """Positional rows [N, dim] of a flat [N, patch*patch*3] patch stack
    and its list of (grid, n_images) runs: each run's ``sincos_grid``
    table once per image, in run order. PatchError unless they match the
    stack's rows."""
    pe = np.concatenate([np.tile(sincos_grid(*grid, dim), (n, 1)) for grid, n in runs])
    if patches.shape[0] != pe.shape[0]:
        raise PatchError(f"{patches.shape[0]} patches but {pe.shape[0]} positions for runs {runs}")
    return pe


def image_rows(runs):
    """Each image's patch count [n_image], and [n_image, S_max] index of its
    rows in the flat patch stack of a list of (grid, n_images) runs, -1
    past an image's last patch."""
    sizes = np.concatenate([np.full(n, rows * cols) for (rows, cols), n in runs])
    col = np.arange(sizes.max())[None, :]
    return sizes, np.where(col < sizes[:, None], (np.cumsum(sizes) - sizes)[:, None] + col, -1)


class VisionEmbed:
    """Two-layer MLP (GELU between) projecting patches to model width,
    plus the parameter-free positional term."""

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.params = params

    @staticmethod
    def shapes(cfg):
        """Both vision-embed weights, name -> [d_out, d_in] in init order."""
        return {"vembed.fc1": (cfg.vembed_hidden, cfg.patch * cfg.patch * 3),
                "vembed.fc2": (cfg.d_model, cfg.vembed_hidden)}

    @classmethod
    def init(cls, cfg, seed=0):
        return cls(cfg, init_tensors(cls.shapes(cfg), np.random.default_rng(seed), requires_grad=True))

    def forward(self, patches, runs):
        """Embedded rows [N, d_model] of a batch's flat [N, patch*patch*3]
        patch stack and its list of (grid, n_images) runs, all images in
        one call."""
        pe = positions(patches, runs, self.cfg.d_model)
        h = T.gelu(T.linear(T.constant(patches), self.params["vembed.fc1"]))
        y = T.linear(h, self.params["vembed.fc2"])
        return y + T.constant(pe)


class Teacher:
    """Frozen toy ViT: patch embed + sinusoidal positions, pre-norm blocks
    with bi-directional attention and a GELU MLP; per-block outputs are
    the distillation targets. All parameters have requires_grad False
    (``trainer.warm_teacher`` alone trains them), and training reads the
    states through ``forward_batch``, with the tape disabled."""

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.params = params

    @staticmethod
    def shapes(cfg):
        """Every teacher tensor, name -> shape in init order: [d_out, d_in]
        for a weight, [d_vit] for a norm gain."""
        d, ff = cfg.d_vit, cfg.vit_ff
        block = {"attn_norm": (d,), "q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
                 "ffn_norm": (d,), "fc1": (ff, d), "fc2": (d, ff)}
        out = {"teacher.patch_embed": (d, cfg.patch * cfg.patch * 3)}
        for i in range(cfg.n_vit):
            out.update({f"teacher.blocks.{i}.{leaf}": shape for leaf, shape in block.items()})
        return out

    @classmethod
    def init(cls, cfg, seed=100):
        return cls(cfg, init_tensors(cls.shapes(cfg), np.random.default_rng(seed)))

    def forward(self, patches, runs):
        """Per-block states (list of n_vit [N, d_vit] Tensors) of a flat
        [N, patch*patch*3] patch stack and its list of (grid, n_images)
        runs: patch embedding plus sinusoidal positions, then the blocks.
        Every linear layer runs on all N rows; attention is bi-directional
        within each image, an all-vision sequence. Caller controls the tape."""
        pe = positions(patches, runs, self.cfg.d_vit)
        sizes, images = image_rows(runs)
        plan = attention_plan(images, attention_mask(sizes, images.shape[1]))
        x = T.linear(T.constant(patches), self.params["teacher.patch_embed"]) + T.constant(pe)
        states = []
        for i in range(self.cfg.n_vit):
            w = lambda name: self.params[f"teacher.blocks.{i}.{name}"]
            h = T.rms_norm(x, w("attn_norm"))
            q, k, v = (T.linear(h, w(name)) for name in ("q", "k", "v"))
            x = x + T.linear(T.attention(q, k, v, plan, self.cfg.vit_heads), w("o"))
            h = T.rms_norm(x, w("ffn_norm"))
            x = x + T.linear(T.gelu(T.linear(h, w("fc1"))), w("fc2"))
            states.append(x)
        return states

    def forward_batch(self, patches, runs):
        """``forward`` with the tape off: per-block float32 [N, d_vit] arrays."""
        with T.no_grad():
            return [st.data for st in self.forward(patches, runs)]
