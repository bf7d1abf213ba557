import math

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import data, distill, lora, trainer
from vora.model import ModelConfig
from vora.tensor import Tensor

SMALL = dict(total_steps=12, warmup_steps=3, batch_size=4)


def small_cfgs(seed=0, **overrides):
    args = dict(SMALL)
    args.update(overrides)
    return ModelConfig(), trainer.TrainConfig(seed=seed, **args), data.DataConfig()


class TestAdamW:
    def _state(self, value=1.0):
        p = Tensor(np.array([value], dtype=np.float32), requires_grad=True, name="w")
        state = trainer.TrainState.create({"w": p}, {})
        return p, state

    def test_zero_grad_zero_decay_fixed_point(self):
        p, state = self._state()
        p.grad = np.zeros(1, dtype=np.float32)
        cfg = trainer.TrainConfig(weight_decay=0.0, warmup_steps=0, total_steps=1, seed=0)
        for _ in range(3):
            trainer.adamw_step(state, lr=0.1, cfg=cfg)
        npt.assert_array_equal(p.data, [1.0])

    def test_two_step_closed_form_recurrence(self):
        p, state = self._state(0.5)
        lr, b1, b2, eps = 1e-2, trainer.BETA1, trainer.BETA2, trainer.ADAM_EPS
        grads = [0.3, -0.2]
        # hand-rolled recurrence in float64
        w, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            w -= lr * mhat / (math.sqrt(vhat) + eps)
        cfg = trainer.TrainConfig(weight_decay=0.0, warmup_steps=0, total_steps=1, seed=0)
        for g in grads:
            p.grad = np.array([g], dtype=np.float32)
            trainer.adamw_step(state, lr=lr, cfg=cfg)
        npt.assert_allclose(p.data[0], w, atol=1e-7)

    def test_decoupled_decay_shrinks(self):
        p, state = self._state(2.0)
        cfg = trainer.TrainConfig(weight_decay=0.01, warmup_steps=0, total_steps=1, seed=0)
        lr = 0.5
        p.grad = np.zeros(1, dtype=np.float32)
        trainer.adamw_step(state, lr=lr, cfg=cfg)
        npt.assert_allclose(p.data[0], 2.0 * (1 - lr * 0.01), rtol=1e-6)

    def test_missing_grad_names_tensor(self):
        p, state = self._state()
        cfg = trainer.TrainConfig(warmup_steps=0, total_steps=1, seed=0)
        with pytest.raises(ValueError, match="w"):
            trainer.adamw_step(state, lr=0.1, cfg=cfg)

    def test_no_decay_on_norms_and_embedding(self):
        assert trainer.decay_for("llm.blocks.0.attn_norm", 0.01) == 0.0
        assert trainer.decay_for("aux.1.gain", 0.01) == 0.0
        assert trainer.decay_for("llm.embed", 0.01) == 0.0
        assert trainer.decay_for("llm.blocks.0.q", 0.01) == 0.01
        assert trainer.decay_for("vembed.fc1", 0.01) == 0.01


class TestWarmup:
    def test_schedule_formula(self):
        cfg = trainer.TrainConfig(lr=2e-4, warmup_steps=100, total_steps=200, seed=0)
        for s in (0, 1, 50, 99):
            assert trainer.lr_at(cfg, s) == pytest.approx(2e-4 * s / 100)
        for s in (100, 150, 199):
            assert trainer.lr_at(cfg, s) == 2e-4

    def test_logged_lr_matches(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        _, metrics = trainer.pretrain(pipe, tcfg, dcfg)
        for rec in metrics:
            assert rec["lr"] == pytest.approx(trainer.lr_at(tcfg, rec["step"]))


class TestPretrain:
    def test_zero_steps_checkpoint_identical_to_init(self):
        mcfg = ModelConfig()
        dcfg = data.DataConfig()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        before = {n: t.data.tobytes() for n, t in trainer.collect_state(pipe).items()}
        tcfg = trainer.TrainConfig(total_steps=0, seed=0)
        ckpt, metrics = trainer.pretrain(pipe, tcfg, dcfg)
        assert metrics == []
        after = {n: t.data.tobytes() for n, t in ckpt.items()}
        assert before == after

    def test_frozen_base_and_moving_extras_after_50_steps(self):
        mcfg, tcfg, dcfg = small_cfgs(total_steps=50, warmup_steps=5, batch_size=4)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        base_before = {n: t.data.tobytes() for n, t in pipe.model.params.items()}
        teach_before = {n: t.data.tobytes() for n, t in pipe.teacher.params.items()}
        extras_before = {n: t.data.tobytes() for n, t in trainer.collect_state(pipe).items()
                         if n.startswith(("lora.", "vembed.", "aux."))}
        trainer.pretrain(pipe, tcfg, dcfg)
        for n, blob in base_before.items():
            assert pipe.model.params[n].data.tobytes() == blob, n
        for n, blob in teach_before.items():
            assert pipe.teacher.params[n].data.tobytes() == blob, n
        after = trainer.collect_state(pipe)
        for n, blob in extras_before.items():
            assert after[n].data.tobytes() != blob, n

    def test_metrics_fields(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        _, metrics = trainer.pretrain(pipe, tcfg, dcfg)
        assert len(metrics) == tcfg.total_steps
        for rec in metrics:
            assert {"step", "lr", "total_loss", "lm_loss", "distill_loss", "per_block"} <= set(rec)
            assert len(rec["per_block"]) == mcfg.n_vit

    def test_nan_abort_names_step_and_components(self):
        mcfg = ModelConfig()
        dcfg = data.DataConfig()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        tcfg = trainer.TrainConfig(lr=1e30, warmup_steps=0, total_steps=30, batch_size=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(trainer.TrainAbort, match="step"):
            trainer.pretrain(pipe, tcfg, dcfg)

    def test_last_block_trains_only_the_last_head(self):
        mcfg, tcfg, dcfg = small_cfgs(total_steps=3, warmup_steps=1, distill_mode="last_block")
        pipe = trainer.build_pipeline(mcfg, seed=0)
        before = [{n: t.data.tobytes() for n, t in head.tensors().items()} for head in pipe.heads]
        _, metrics = trainer.pretrain(pipe, tcfg, dcfg)
        assert len(metrics) == 3 and all(len(m["per_block"]) == 1 for m in metrics)
        for head, blobs in zip(pipe.heads[:-1], before[:-1]):
            for n, t in head.tensors().items():
                assert t.data.tobytes() == blobs[n], n
        assert pipe.heads[-1].proj.data.tobytes() != before[-1][pipe.heads[-1].proj.name]

    def test_gradients_are_c_ordered_float32_like_their_tensor(self):
        # adamw_step hands p.grad to the kernel as it is: the tape must give
        # every trainable tensor a C-contiguous float32 gradient of its shape
        mcfg, tcfg, dcfg = ModelConfig(), trainer.TrainConfig(seed=0), data.DataConfig()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        trainable, _ = trainer._partition(pipe, tcfg)
        batch = data.make_batch(np.random.default_rng(0), tcfg.batch_size, dcfg=dcfg, max_seq=mcfg.max_seq)
        out, _ = trainer.compute_losses(pipe, batch, tcfg.mask_mode, tcfg.distill_mode)
        T.backward(out.total)
        bad = [name for name, p in trainable.items()
               if not (p.grad.dtype == np.float32 and p.grad.shape == p.data.shape
                       and p.grad.flags.c_contiguous)]
        assert not bad

    def test_pretrain_requires_unmerged(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        lora.merge_all(pipe.model, pipe.adapters)
        with pytest.raises(lora.MergeStateError):
            trainer.pretrain(pipe, tcfg, dcfg)


class TestGridRuns:
    NANO = dict(n_llm=2, n_vit=2, d_model=8, d_vit=8, n_heads=2, d_ff=8, patch=4, rank=2,
                max_seq=64, vembed_hidden=4, vit_heads=2, vit_ff=8)

    def test_text_first_batch_computes_losses(self):
        pipe = trainer.build_pipeline(ModelConfig(), seed=0)
        batch = data.pack_samples([data.gen_text_sample(1), data.gen_image_caption(2)], 8, 160)
        out, _ = trainer.compute_losses(pipe, batch, "hybrid", "block_wise")
        assert np.isfinite(out.total.item()) and out.dist.item() > 0.0

    def test_mixed_grid_dist_is_mean_of_single_images(self):
        pipe = trainer.build_pipeline(ModelConfig(**self.NANO), seed=0)
        samples = [data.gen_image_caption(i, hw, patch=4)
                   for i, hw in enumerate([(8, 12), (8, 8), (12, 8), (8, 8)])]
        samples.append(data.gen_text_sample(9))

        def dist(batch_samples):
            with T.no_grad():
                out, _ = trainer.compute_losses(pipe, data.pack_samples(batch_samples, 4, 64),
                                                "hybrid", "block_wise")
            return out.dist.item()

        singles = [dist([smp]) for smp in samples[:4]]
        assert abs(dist(samples) - np.mean(singles)) <= 1e-6


class TestFinetune:
    def _pretrained(self, steps=8):
        mcfg, tcfg, dcfg = small_cfgs(total_steps=steps, warmup_steps=2)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        trainer.pretrain(pipe, tcfg, dcfg)
        return mcfg, dcfg, pipe

    def test_first_forward_after_merge_matches(self):
        # merge continuity over 12 random inputs, with trained adapters
        mcfg, dcfg, pipe = self._pretrained()
        batches = [data.make_batch(np.random.default_rng(3 + i), 4, dcfg=dcfg, max_seq=mcfg.max_seq)
                   for i in range(3)]
        with T.no_grad():
            before = [pipe.model.forward(trainer.pack_embedded(pipe, b),
                                         trainer.batch_masks(b, "hybrid"), pipe.adapters)[0].data
                      for b in batches]
        lora.merge_all(pipe.model, pipe.adapters)
        pipe.adapters = None
        with T.no_grad():
            after = [pipe.model.forward(trainer.pack_embedded(pipe, b),
                                        trainer.batch_masks(b, "hybrid"), None)[0].data
                     for b in batches]
        for x, y in zip(before, after):
            assert np.abs(x - y).max() <= 1e-5

    def test_finetuned_state_has_no_lora_or_aux(self):
        mcfg, dcfg, pipe = self._pretrained()
        tcfg = trainer.TrainConfig(mode="finetune", total_steps=4, warmup_steps=1,
                                   batch_size=4, seed=0)
        ckpt, metrics = trainer.finetune(pipe, tcfg, dcfg)
        assert not any(n.startswith(("lora.", "aux.")) for n in ckpt)
        for rec in metrics:
            assert "distill_loss" not in rec

    def test_finetune_trains_base(self):
        mcfg, dcfg, pipe = self._pretrained()
        merged_q = pipe.model.params["llm.blocks.0.q"].data.copy()
        tcfg = trainer.TrainConfig(mode="finetune", total_steps=4, warmup_steps=1,
                                   batch_size=4, seed=0)
        trainer.finetune(pipe, tcfg, dcfg)
        assert not np.array_equal(pipe.model.params["llm.blocks.0.q"].data, merged_q)

    def test_finetune_rejects_merged(self):
        mcfg, dcfg, pipe = self._pretrained()
        lora.merge_all(pipe.model, pipe.adapters)
        tcfg = trainer.TrainConfig(mode="finetune", total_steps=4, warmup_steps=1, seed=0)
        with pytest.raises(lora.MergeStateError):
            trainer.finetune(pipe, tcfg, dcfg)


class TestAblation:
    def test_single_cell_single_threshold_one_row(self, tmp_path):
        mcfg, tcfg, dcfg = small_cfgs()
        rows, _ = trainer.run_ablation(mcfg, tcfg, dcfg, [("hybrid", "none", 8)],
                                       thresholds=[5.0], budget_steps=6,
                                       csv_path=tmp_path / "r.csv")
        assert len(rows) == 1
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "mask_mode,distill_mode,rank,threshold,steps_to_threshold,final_loss"

    def test_identical_cells_identical_curves(self):
        mcfg, tcfg, dcfg = small_cfgs()
        _, curves = trainer.run_ablation(mcfg, tcfg, dcfg,
                                         [("hybrid", "none", 8), ("hybrid", "none", 8)],
                                         thresholds=[5.0], budget_steps=6)
        # dict keyed by cell collapses identical cells; run twice instead
        _, curves2 = trainer.run_ablation(mcfg, tcfg, dcfg, [("hybrid", "none", 8)],
                                          thresholds=[5.0], budget_steps=6)
        a = curves[("hybrid", "none", 8)]
        b = curves2[("hybrid", "none", 8)]
        assert a == b

    def test_steps_to_threshold_matches_curve_scan(self):
        losses = [5.0, 4.0, 3.0, 2.0, 1.0]
        window = 2
        sm = trainer.smoothed(losses, window)
        for thr in (4.6, 3.4, 1.6, 0.5):
            want = next((i + 1 for i, v in enumerate(sm) if v <= thr), -1)
            assert trainer.steps_to_threshold(losses, thr, window) == want

    def test_smoothed_window(self):
        vals = [4.0, 2.0, 6.0, 0.0]
        npt.assert_allclose(trainer.smoothed(vals, 2), [4.0, 3.0, 4.0, 3.0])


class TestEval:
    def test_untrained_perplexity_near_vocab(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        out = trainer.eval_metrics(pipe, dcfg, tcfg, n_caption=4, n_text=64)
        v = mcfg.vocab
        assert abs(out["text_perplexity"] - v) / v < 0.2
        assert -1.0 <= out["distill_alignment"] <= 1.0
        assert 0.0 <= out["caption_token_accuracy"] <= 1.0

    def test_scores_exactly_n_text_texts(self, monkeypatch):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        sizes = []
        make_batch = data.make_batch

        def spy(rng, batch_size, image_fraction=None, **kwargs):
            if image_fraction == 0.0:
                sizes.append(batch_size)
            return make_batch(rng, batch_size, image_fraction=image_fraction, **kwargs)

        monkeypatch.setattr(data, "make_batch", spy)
        trainer.eval_metrics(pipe, dcfg, tcfg, n_caption=1, n_text=12, max_new=1)
        assert sum(sizes) == 12

    def test_empty_heldout_errors(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        with pytest.raises(ValueError, match="heldout"):
            trainer.eval_metrics(pipe, dcfg, tcfg, n_caption=0, n_text=4)


class TestFullLlmProbe:
    def test_probe_runs_and_reports(self):
        mcfg = ModelConfig()
        dcfg = data.DataConfig()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        tcfg = trainer.TrainConfig(mode="full_llm_unstable", total_steps=8, warmup_steps=2,
                                   batch_size=4, seed=0)
        _, metrics, summary = trainer.full_llm_probe(pipe, tcfg, dcfg)
        assert len(metrics) == 8
        assert set(summary) == {"spike_detected", "spike_step"}
        # base weights must have moved (everything is unfrozen)
        fresh = trainer.build_pipeline(mcfg, seed=0)
        assert not np.array_equal(pipe.model.params["llm.blocks.0.q"].data,
                                  fresh.model.params["llm.blocks.0.q"].data)


def test_train_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(lr=0.0, seed=0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(total_steps=50, warmup_steps=100, seed=0)
    trainer.TrainConfig(total_steps=0, warmup_steps=100, seed=0)  # no-op run allowed
    with pytest.raises(ValueError):
        trainer.TrainConfig(mode="training", seed=0)
