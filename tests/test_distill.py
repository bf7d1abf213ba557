import math

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import data, distill, trainer
from vora.model import ModelConfig, SequenceLayout


def make_head(cfg, seed=0):
    return distill.AuxHead.init(cfg, 0, seed=seed)


def head_output(head, h):
    with T.no_grad():
        return head.forward(h).data


class TestBlockDistillLoss:
    def test_perfect_alignment_is_zero(self):
        cfg = ModelConfig()
        head = make_head(cfg)
        rng = np.random.default_rng(0)
        h = T.constant(rng.standard_normal((5, cfg.d_model)).astype(np.float32))
        target = head_output(head, h)  # teacher equals the head output
        loss = distill.block_distill_loss(h, target, head)
        assert abs(float(loss.data)) <= 1e-6

    def test_anti_alignment_is_two(self):
        cfg = ModelConfig()
        head = make_head(cfg)
        rng = np.random.default_rng(1)
        h = T.constant(rng.standard_normal((4, cfg.d_model)).astype(np.float32))
        loss = distill.block_distill_loss(h, -head_output(head, h), head)
        npt.assert_allclose(float(loss.data), 2.0, atol=1e-6)

    def test_direct_cosine_oracle(self):
        cfg = ModelConfig(d_vit=4)
        head = make_head(cfg)
        rng = np.random.default_rng(2)
        h = T.constant(rng.standard_normal((3, cfg.d_model)).astype(np.float32))
        v = rng.standard_normal((3, 4)).astype(np.float32)
        p = head_output(head, h)
        want = np.mean([1.0 - p[i] @ v[i] / (np.linalg.norm(p[i]) * np.linalg.norm(v[i]))
                        for i in range(3)])
        loss = distill.block_distill_loss(h, v, head)
        npt.assert_allclose(float(loss.data), want, atol=1e-6)

    def test_zero_norm_errors(self):
        cfg = ModelConfig()
        head = make_head(cfg)
        h = T.constant(0.1 * np.ones((2, cfg.d_model), dtype=np.float32))
        v = np.zeros((2, cfg.d_vit), dtype=np.float32)
        with pytest.raises(ValueError, match="zero-norm"):
            distill.block_distill_loss(h, v, head)

    def test_teacher_scale_invariance(self):
        cfg = ModelConfig()
        head = make_head(cfg)
        rng = np.random.default_rng(3)
        h = T.constant(rng.standard_normal((4, cfg.d_model)).astype(np.float32))
        v = rng.standard_normal((4, cfg.d_vit)).astype(np.float32)
        base = float(distill.block_distill_loss(h, v, head).data)
        for s in (0.5, 3.0, 41.0):
            scaled = float(distill.block_distill_loss(h, s * v, head).data)
            assert abs(scaled - base) <= 1e-6

    def test_range_fuzz_200_trials(self):
        cfg = ModelConfig(d_vit=8)
        head = make_head(cfg)
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = int(rng.integers(1, 7))
            h = T.constant(rng.standard_normal((s, cfg.d_model)).astype(np.float32))
            v = rng.standard_normal((s, 8)).astype(np.float32)
            loss = float(distill.block_distill_loss(h, v, head).data)
            assert -1e-6 <= loss <= 2.0 + 1e-6


NANO = dict(d_model=8, d_vit=8, n_heads=2, d_ff=8, patch=4, rank=2, max_seq=64,
            vembed_hidden=4, vit_heads=2, vit_ff=8)


def nano_pipe(n_vit=2, seed=0):
    cfg = ModelConfig(n_llm=max(2, n_vit), n_vit=n_vit, **NANO)
    return trainer.build_pipeline(cfg, seed=seed)


def image_batch(sizes, seed=0):
    """Packed batch of one 4-pixel-patch image caption per (h, w)."""
    samples = [data.gen_image_caption(seed + i, hw, patch=4) for i, hw in enumerate(sizes)]
    return data.pack_samples(samples, 4, 64)


class TestDistillLoss:
    """The per-block combiner inside trainer.compute_losses."""

    def _losses(self, monkeypatch, values, mode, sizes=((8, 8), (8, 8))):
        """compute_losses with block b's cosine term pinned to values[b]."""
        pipe = nano_pipe(n_vit=len(values))
        monkeypatch.setattr(distill, "block_distill_loss",
                            lambda h, v, head, weights: T.constant(np.float32(values[pipe.heads.index(head)])))
        return trainer.compute_losses(pipe, image_batch(sizes), "hybrid", mode)

    def test_mean_of_constant_blocks(self, monkeypatch):
        out = self._losses(monkeypatch, [0.7, 0.7, 0.7], "block_wise")
        npt.assert_allclose(float(out.dist.data), 0.7, atol=1e-6)

    def test_constructed_point_four_point_eight(self, monkeypatch):
        out = self._losses(monkeypatch, [0.4, 0.8], "block_wise")
        npt.assert_allclose(out.per_block, [0.4, 0.8], atol=1e-6)
        npt.assert_allclose(float(out.dist.data), 0.6, atol=1e-6)

    def test_last_block_uses_final_block_only(self, monkeypatch):
        out = self._losses(monkeypatch, [0.3, 0.9], "last_block")
        npt.assert_allclose(out.per_block, [0.9], atol=1e-6)
        npt.assert_allclose(float(out.dist.data), 0.9, atol=1e-6)

    def test_grid_runs_weighted_by_image_count(self, monkeypatch):
        # one call per block over every image's vision rows; each image's
        # rows share weight 1/n_image, so the term is the mean over images
        pipe = nano_pipe(n_vit=1)
        calls = []

        def fake(h, v, head, weights):
            calls.append((h.data.shape[0], v.shape[0], weights))
            return T.constant(np.float32(weights @ row_sizes))

        monkeypatch.setattr(distill, "block_distill_loss", fake)
        sizes = [4, 6, 6]  # grid (2, 2) sorts before (2, 3)
        row_sizes = np.repeat(sizes, sizes).astype(np.float32)  # each row's image token count
        out = trainer.compute_losses(pipe, image_batch([(8, 12), (8, 8), (8, 12)]), "hybrid", "block_wise")
        assert [c[:2] for c in calls] == [(16, 16)]
        weights = calls[0][2]
        npt.assert_allclose([weights[0:4].sum(), weights[4:10].sum(), weights[10:16].sum()], [1 / 3] * 3, rtol=1e-6)
        npt.assert_allclose(float(out.dist.data), np.mean(sizes), rtol=1e-6)

    def test_mode_none_zero_no_edges(self):
        out = trainer.compute_losses(nano_pipe(), image_batch([(8, 8)]), "hybrid", "none")
        assert float(out.dist.data) == 0.0
        assert not out.dist.requires_grad
        assert out.per_block == []

    def test_unknown_mode(self):
        pipe = nano_pipe()
        with pytest.raises(ValueError, match="everything"):
            trainer.compute_losses(pipe, image_batch([(8, 8)]), "hybrid", "everything")


class TestGradientRouting:
    def test_distill_backward_reaches_only_student_vision_params(self):
        pipe = nano_pipe(n_vit=2, seed=0)
        out = trainer.compute_losses(pipe, image_batch([(8, 8)], seed=5), "hybrid", "block_wise")
        T.backward(out.dist)
        for ad in pipe.adapters:
            assert ad.a.grad is not None and ad.b.grad is not None
        for p in pipe.vembed.params.values():
            assert p.grad is not None
        for h in pipe.heads:
            assert h.proj.grad is not None and h.norm_gain.grad is not None
        for p in pipe.model.params.values():
            assert p.grad is None
        for p in pipe.teacher.params.values():
            assert p.grad is None

    def test_mode_none_total_touches_no_aux(self):
        pipe = nano_pipe(seed=9)
        out = trainer.compute_losses(pipe, image_batch([(8, 8)], seed=9), "hybrid", "none")
        T.backward(out.total)
        assert pipe.vembed.params["vembed.fc1"].grad is not None
        for h in pipe.heads:
            assert h.proj.grad is None and h.norm_gain.grad is None


class TestLmLoss:
    # lm_loss takes the supervised rows: logits[:, :-1][supervised(...)]
    def test_empty_supervision_errors(self):
        lay = SequenceLayout(0, 5, 5)  # supervise_from == T
        with pytest.raises(ValueError, match="supervised"):
            distill.lm_loss(T.constant(np.zeros((0, 8), dtype=np.float32)), [lay], np.zeros((1, 5), dtype=np.int64))

    def test_uniform_logits_ln_v(self):
        logits = np.zeros((1, 5, 8), dtype=np.float32)
        lay = SequenceLayout(0, 5, 2)  # 3 supervised tokens
        rows = T.constant(logits[:, :-1][distill.supervised([lay], 5)])
        loss = distill.lm_loss(rows, [lay], np.zeros((1, 5), dtype=np.int64))
        npt.assert_allclose(float(loss.data), math.log(8), atol=1e-6)

    def test_text_only_equals_plain_causal_lm(self):
        # supervising the whole sequence after <bos> equals a plain LM loss
        rng = np.random.default_rng(11)
        v, s = 12, 6
        logits_arr = rng.standard_normal((1, s, v)).astype(np.float32)
        tokens = rng.integers(0, v, size=(1, s))
        lay = SequenceLayout(0, s, 1)
        rows = T.constant(logits_arr[:, :-1][distill.supervised([lay], s)])
        got = float(distill.lm_loss(rows, [lay], tokens).data)
        # plain next-token causal LM oracle
        nll = []
        for t in range(1, s):
            row = logits_arr[0, t - 1]
            lse = np.log(np.exp(row - row.max()).sum()) + row.max()
            nll.append(lse - row[tokens[0, t]])
        npt.assert_allclose(got, np.mean(nll), atol=1e-5)

    def test_vision_positions_not_supervised(self):
        rng = np.random.default_rng(12)
        logits_arr = rng.standard_normal((1, 8, 9)).astype(np.float32)
        tokens = rng.integers(0, 9, size=(1, 8))
        lay = SequenceLayout(4, 8, 5)
        rows = T.constant(logits_arr[:, :-1][distill.supervised([lay], 8)])
        got = float(distill.lm_loss(rows, [lay], tokens).data)
        nll = []
        for t in range(5, 8):
            row = logits_arr[0, t - 1]
            lse = np.log(np.exp(row - row.max()).sum()) + row.max()
            nll.append(lse - row[tokens[0, t]])
        npt.assert_allclose(got, np.mean(nll), atol=1e-5)


class TestTotalLoss:
    @pytest.mark.parametrize("a,b", [(0.0, 1.5), (1.5, 0.0), (0.25, 1.75)])
    def test_exact_sum(self, a, b):
        ta = T.constant(np.asarray(a, dtype=np.float32))
        tb = T.constant(np.asarray(b, dtype=np.float32))
        assert float(distill.total_loss(ta, tb).data) == np.float32(a) + np.float32(b)
