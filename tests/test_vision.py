import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import distill, lora
from vora.model import Model, ModelConfig
from vora.vision import PatchError, Teacher, VisionEmbed, patchify, sincos_grid


def rand_image(rng, h, w):
    return rng.random((h, w, 3)).astype(np.float32)


class TestPatchify:
    def test_32x32_patch8(self):
        rng = np.random.default_rng(0)
        out = patchify(rand_image(rng, 32, 32), 8)
        assert out.shape == (16, 192)

    def test_native_resolution_32x48(self):
        rng = np.random.default_rng(1)
        out = patchify(rand_image(rng, 32, 48), 8)
        assert out.shape == (24, 192)

    def test_constant_image_identical_rows(self):
        img = np.full((16, 16, 3), 0.25, dtype=np.float32)
        out = patchify(img, 8)
        for row in out[1:]:
            npt.assert_array_equal(row, out[0])

    def test_non_divisible_names_dimension(self):
        rng = np.random.default_rng(2)
        with pytest.raises(PatchError, match="height 30"):
            patchify(rand_image(rng, 30, 32), 8)
        with pytest.raises(PatchError, match="width 33"):
            patchify(np.zeros((32, 33, 3), dtype=np.float32), 8)

    def test_row_major_patch_order(self):
        # paint one patch and find it at the right row
        px = np.zeros((16, 16, 3), dtype=np.float32)
        px[8:16, 0:8] = 1.0  # grid position (1, 0) -> row index 2 of a 2x2 grid
        out = patchify(px, 8)
        assert out[2].min() == 1.0
        assert out[0].max() == 0.0 and out[1].max() == 0.0 and out[3].max() == 0.0


class TestVisionEmbed:
    def test_single_patch_origin(self):
        cfg = ModelConfig()
        ve = VisionEmbed.init(cfg, seed=0)
        rng = np.random.default_rng(0)
        patches = rng.random((1, cfg.patch * cfg.patch * 3)).astype(np.float32)
        out = ve.forward(patches, [((1, 1), 1)])
        assert out.shape == (1, cfg.d_model)
        assert np.isfinite(out.data).all()

    def test_origin_rows_match_across_resolutions(self):
        # same patch content at grid origin -> identical embedded rows,
        # because the positional term at (0, 0) is grid-independent
        cfg = ModelConfig()
        ve = VisionEmbed.init(cfg, seed=1)
        rng = np.random.default_rng(1)
        shared = rng.random((cfg.patch * cfg.patch * 3,)).astype(np.float32)
        small = np.stack([shared, rng.random(192).astype(np.float32)])
        big = np.stack([shared] + [rng.random(192).astype(np.float32) for _ in range(5)])
        out_small = ve.forward(small, [((1, 2), 1)]).data
        out_big = ve.forward(big, [((2, 3), 1)]).data
        npt.assert_array_equal(out_small[0], out_big[0])

    def test_independent_mlp_pe_recomputation(self):
        # one (2, 3) image, then two (1, 2) images: each image's positions
        # restart at its own grid origin
        cfg = ModelConfig()
        ve = VisionEmbed.init(cfg, seed=2)
        rng = np.random.default_rng(2)
        patches = rng.random((10, 192)).astype(np.float32)
        got = ve.forward(patches, [((2, 3), 1), ((1, 2), 2)]).data

        # independent recomputation: MLP + factorized sin/cos table
        def gelu(x):
            return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))

        w1 = ve.params["vembed.fc1"].data
        w2 = ve.params["vembed.fc2"].data
        ref = gelu(patches @ w1.T) @ w2.T
        half = cfg.d_model // 2
        quarter = half // 2
        freq = 1.0 / 10000.0 ** (np.arange(quarter) / quarter)
        pe = np.zeros((10, cfg.d_model), dtype=np.float32)
        grid_cols = [3] * 6 + [2] * 2 + [2] * 2
        image_start = [0] * 6 + [6] * 2 + [8] * 2
        for idx in range(10):
            r, c = divmod(idx - image_start[idx], grid_cols[idx])
            pe[idx, :quarter] = np.sin(r * freq)
            pe[idx, quarter:half] = np.cos(r * freq)
            pe[idx, half : half + quarter] = np.sin(c * freq)
            pe[idx, half + quarter :] = np.cos(c * freq)
        npt.assert_allclose(got, ref + pe, atol=1e-6)

    def test_grid_mismatch(self):
        cfg = ModelConfig()
        ve = VisionEmbed.init(cfg, seed=3)
        with pytest.raises(PatchError):
            ve.forward(np.zeros((5, 192), dtype=np.float32), [((2, 3), 1)])
        with pytest.raises(PatchError):  # one image short of the runs
            ve.forward(np.zeros((6, 192), dtype=np.float32), [((2, 3), 2)])

    def test_param_share_below_two_percent(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        ve = VisionEmbed.init(cfg, seed=0)
        student = sum(p.data.size for p in model.params.values())
        assert sum(p.data.size for p in ve.params.values()) / student < 0.02


def straightline_teacher(cfg, params, patches, grid):
    """Independent plain-numpy re-implementation of the teacher (no tape).

    patches [B, S, patch*patch*3]; returns the per-block states [B, S, d_vit].
    """

    def rms(x, g, eps=1e-6):
        return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * g

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def ladder(pos, width):
        # [sin | cos] pairs, and a zero column when width is odd
        quarter = width // 2
        freq = 1.0 / 10000.0 ** (np.arange(quarter) / quarter)
        return np.concatenate([np.sin(pos[:, None] * freq), np.cos(pos[:, None] * freq),
                               np.zeros((len(pos), width % 2))], axis=1)

    rows, cols = grid
    b, s, _ = patches.shape
    d, heads = cfg.d_vit, cfg.vit_heads
    hd = d // heads
    r, c = np.divmod(np.arange(s), cols)
    pe = np.concatenate([ladder(r, d // 2), ladder(c, d - d // 2)], axis=1).astype(np.float32)
    x = patches @ params["teacher.patch_embed"].data.T + pe
    states = []
    for i in range(cfg.n_vit):
        g = lambda name: params[f"teacher.blocks.{i}.{name}"].data
        h = rms(x, g("attn_norm"))
        q, k, v = ((h @ g(n).T).reshape(b, s, heads, hd).transpose(0, 2, 1, 3) for n in "qkv")
        probs = softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd))
        x = x + (probs @ v).transpose(0, 2, 1, 3).reshape(b, s, d) @ g("o").T
        h = rms(x, g("ffn_norm"))
        x = x + gelu(h @ g("fc1").T) @ g("fc2").T
        states.append(x)
    return states


class TestTeacher:
    def test_straightline_oracle_nonsquare_batch(self):
        # two 2x3 images and one 1x2 image in one flat stack: the oracle
        # runs each grid's images on their own
        cfg = ModelConfig(n_llm=2, n_vit=2, d_model=8, d_vit=12, n_heads=2, d_ff=8, patch=4,
                          rank=2, vembed_hidden=4, vit_heads=3, vit_ff=16)
        teacher = Teacher.init(cfg, seed=9)
        rng = np.random.default_rng(9)
        # larger weights than init, so attention mixes rows visibly
        for p in teacher.params.values():
            p.data = (0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)
        wide = np.stack([patchify(rand_image(rng, 8, 12), cfg.patch) for _ in range(2)])  # 2x3 grid
        flat = patchify(rand_image(rng, 4, 8), cfg.patch)[None]  # 1x2 grid
        got = teacher.forward_batch(np.concatenate([wide.reshape(12, -1), flat[0]]), [((2, 3), 2), ((1, 2), 1)])
        ref = [np.concatenate([a.reshape(12, -1), b.reshape(2, -1)])
               for a, b in zip(straightline_teacher(cfg, teacher.params, wide, (2, 3)),
                               straightline_teacher(cfg, teacher.params, flat, (1, 2)))]
        assert len(got) == len(ref) == cfg.n_vit
        for st, want in zip(got, ref):
            assert st.shape == (14, cfg.d_vit)
            npt.assert_allclose(st, want, atol=1e-6)

    def test_frozen_and_deterministic(self):
        cfg = ModelConfig()
        teacher = Teacher.init(cfg, seed=0)
        rng = np.random.default_rng(4)
        patches = patchify(rand_image(rng, 32, 32), cfg.patch)
        s1 = teacher.forward_batch(patches, [((4, 4), 1)])
        s2 = teacher.forward_batch(patches, [((4, 4), 1)])
        for a, b in zip(s1, s2):
            npt.assert_array_equal(a, b)

    def test_shapes(self):
        cfg = ModelConfig()
        teacher = Teacher.init(cfg, seed=0)
        rng = np.random.default_rng(5)
        states = teacher.forward_batch(patchify(rand_image(rng, 32, 48), cfg.patch), [((4, 6), 1)])
        assert len(states) == cfg.n_vit
        for st in states:
            assert st.shape == (24, cfg.d_vit)
            assert np.isfinite(st).all()

    def test_patch_embed_permutation_equivariance(self):
        # permuting two input patches permutes the pre-positional rows
        cfg = ModelConfig()
        teacher = Teacher.init(cfg, seed=0)
        rng = np.random.default_rng(6)
        patches = rng.random((16, 192)).astype(np.float32)
        w = teacher.params["teacher.patch_embed"].data
        base = patches @ w.T
        swapped = patches[[1, 0] + list(range(2, 16))] @ w.T
        npt.assert_array_equal(swapped[0], base[1])
        npt.assert_array_equal(swapped[1], base[0])

    def test_no_gradients_ever(self):
        cfg = ModelConfig()
        teacher = Teacher.init(cfg, seed=0)
        head = distill.init_heads(cfg, seed=1)[0]
        rng = np.random.default_rng(7)
        states = teacher.forward_batch(patchify(rand_image(rng, 32, 32), cfg.patch), [((4, 4), 1)])
        h = T.param((0.1 * rng.standard_normal((16, cfg.d_model))).astype(np.float32))
        loss = distill.block_distill_loss(h, states[0], head)
        T.backward(loss)
        for p in teacher.params.values():
            assert p.grad is None
        assert head.proj.grad is not None


@pytest.mark.parametrize("dim", [2, 5, 9, 48])
def test_sincos_grid_matches_float64_formula(dim):
    # channel j < w//2 of an axis half of width w is sin(p / 10000^(j / (w//2))),
    # the next w//2 channels the matching cos, and an odd width ends in a 0
    def half(pos, width):
        quarter = width // 2
        out = np.zeros((len(pos), width))
        for j in range(quarter):
            ang = pos / 10000.0 ** (j / quarter)
            out[:, j], out[:, quarter + j] = np.sin(ang), np.cos(ang)
        return out

    for rows, cols in ((1, 1), (1, 3), (2, 7), (5, 3), (4, 4)):
        k = np.arange(rows * cols, dtype=np.float64)
        want = np.concatenate([half(k // cols, dim // 2), half(k % cols, dim - dim // 2)], axis=1)
        got = sincos_grid(rows, cols, dim)
        assert got.dtype == np.float32 and got.shape == (rows * cols, dim)
        npt.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_sincos_any_grid_finite():
    for rows, cols in ((1, 1), (2, 7), (5, 3), (12, 12)):
        pe = sincos_grid(rows, cols, 64)
        assert pe.shape == (rows * cols, 64)
        assert np.isfinite(pe).all()
