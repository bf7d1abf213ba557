"""Vision side: patchification, the shallow-MLP embedding layer with a
resolution-agnostic 2-D sinusoidal positional encoding, and the frozen
toy ViT teacher that exposes per-block hidden states.

The teacher has no CLS token, so student and teacher sequences align
one-to-one at every patch position.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import attention, init_tensors
from .tensor import Tensor


class PatchError(ValueError):
    pass


@dataclass
class Image:
    """HWC float pixels in [0, 1]."""

    pixels: np.ndarray  # [H, W, 3] float32

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise PatchError(f"expected [H, W, 3] pixels, got {self.pixels.shape}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


def patchify(image, patch):
    """[S, patch*patch*3] rows, row-major over the (H/p, W/p) grid.

    Each row is one flattened patch (HWC order within the patch).
    """
    px = image.pixels if isinstance(image, Image) else np.asarray(image, dtype=np.float32)
    h, w, _ = px.shape
    if h % patch:
        raise PatchError(f"height {h} not divisible by patch {patch}")
    if w % patch:
        raise PatchError(f"width {w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = px.reshape(gh, patch, gw, patch, 3).transpose(0, 2, 1, 3, 4)
    return tiles.reshape(gh * gw, patch * patch * 3)


def sincos_grid(rows, cols, dim):
    """Factorized 2-D sinusoidal encoding [rows*cols, dim], row-major.

    First half of the channels encodes the row index, second half the
    column index, each with a standard 1-D sin/cos ladder. Defined for
    any grid, so any patch-divisible resolution works.
    """
    half = dim // 2

    def ladder(pos, n, d):
        quarter = d // 2
        freq = 1.0 / 10000.0 ** (np.arange(quarter) / max(quarter, 1))
        ang = pos[:, None] * freq[None, :]
        out = np.zeros((n, d), dtype=np.float32)
        out[:, :quarter] = np.sin(ang)
        out[:, quarter : 2 * quarter] = np.cos(ang)
        return out

    r = np.repeat(np.arange(rows), cols).astype(np.float64)
    c = np.tile(np.arange(cols), rows).astype(np.float64)
    pe = np.zeros((rows * cols, dim), dtype=np.float32)
    pe[:, :half] = ladder(r, rows * cols, half)
    pe[:, half:] = ladder(c, rows * cols, dim - half)
    return pe


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

    def forward(self, patches, grid):
        """patches [S, patch*patch*3] or [n, S, patch*patch*3] (Tensor or
        array), grid (rows, cols)."""
        rows, cols = grid
        pt = patches if isinstance(patches, Tensor) else T.constant(np.asarray(patches, dtype=np.float32))
        s = pt.data.shape[-2]
        if s != rows * cols:
            raise PatchError(f"{s} patches but grid {rows}x{cols}")
        h = T.gelu(T.linear(pt, self.params["vembed.fc1"]))
        y = T.linear(h, self.params["vembed.fc2"])
        return y + T.constant(sincos_grid(rows, cols, self.cfg.d_model))


class Teacher:
    """Frozen toy ViT: patch embed + sinusoidal positions, pre-norm blocks
    with bi-directional attention and a GELU MLP; per-block outputs are
    the distillation targets. All parameters have requires_grad False and
    the forward runs with the tape disabled."""

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

    def blocks_forward(self, x):
        """Stack body on [B, S, d_vit]; caller controls the tape."""
        s = x.data.shape[1]
        zero_mask = np.zeros((s, s), dtype=np.float32)  # bi-directional
        states = []
        for i in range(self.cfg.n_vit):
            w = lambda name: self.params[f"teacher.blocks.{i}.{name}"]
            h = T.rms_norm(x, w("attn_norm"), eps=1e-6)
            q, k, v = (T.linear(h, w(name)) for name in ("q", "k", "v"))
            x = x + T.linear(attention(q, k, v, zero_mask, self.cfg.vit_heads), w("o"))
            h = T.rms_norm(x, w("ffn_norm"), eps=1e-6)
            x = x + T.linear(T.gelu(T.linear(h, w("fc1"))), w("fc2"))
            states.append(x)
        return states

    def embed_patches(self, patches, grid):
        """Patch embedding plus sinusoidal positions: [..., S, d_vit]."""
        rows, cols = grid
        pt = patches if isinstance(patches, Tensor) else T.constant(np.asarray(patches, dtype=np.float32))
        x = T.linear(pt, self.params["teacher.patch_embed"])
        return x + T.constant(sincos_grid(rows, cols, self.cfg.d_vit))

    def forward_batch(self, images):
        """Per-block states for same-resolution images: list (length n_vit)
        of [B, S, d_vit] arrays, gradient-free."""
        patch = self.cfg.patch
        stacks = []
        grid = None
        for image in images:
            px = image.pixels if isinstance(image, Image) else image
            g = (px.shape[0] // patch, px.shape[1] // patch)
            if grid is None:
                grid = g
            elif g != grid:
                raise PatchError("forward_batch needs a uniform resolution")
            stacks.append(patchify(image, patch))
        with T.no_grad():
            states = self.blocks_forward(self.embed_patches(np.stack(stacks), grid))
        return [st.data for st in states]
