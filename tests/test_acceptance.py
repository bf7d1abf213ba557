"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live). Property-based; the ablation echo
criterion may print WARN instead of failing, as documented.
"""

import itertools
import math
import os

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import data, distill, gradcheck, kernels, lora, trainer, vision
from vora.model import Model, ModelConfig, SequenceLayout, decode_greedy

from test_data import decode
from test_mask import build_attention_mask

MICRO = dict(n_llm=6, n_vit=4, d_model=64, d_vit=48, rank=8)


def micro_config():
    return ModelConfig(**MICRO)


def cpu_seconds():
    """CPU seconds used by this process and its joined children (a training
    run joins its shard worker before it returns): a time bound on it holds
    however loaded the host is, where wall time does not."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_01_merge_equivalence():
    t0 = cpu_seconds()
    cfg = micro_config()
    worst = 0.0
    for seed in range(10):
        model = Model.init(cfg, seed=seed)
        adapters = lora.attach(cfg, seed=seed + 100)
        rng = np.random.default_rng(seed + 200)
        for ad in adapters:
            ad.b.data = (0.02 * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
        emb = T.constant((0.1 * rng.standard_normal((20, cfg.d_model))).astype(np.float32))
        lay = SequenceLayout(8, 20, 9)
        mask = build_attention_mask(lay, 20, "hybrid")
        with T.no_grad():
            split, _ = model.forward(emb, mask, adapters=adapters)
            lora.merge_all(model, adapters)
            merged, _ = model.forward(emb, mask, adapters=adapters)  # merged set yields no delta
        worst = max(worst, float(np.abs(split.data - merged.data).max()))
    cpu = cpu_seconds() - t0
    ok = worst <= 1e-5 and cpu < 10.0
    report(1, "merge equivalence", ok, f"max |diff| {worst:.2e}, {cpu:.1f} CPU s")
    assert worst <= 1e-5
    assert cpu < 10.0


@pytest.mark.slow
def test_02_frozen_base_invariance():
    t0 = cpu_seconds()
    cfg = micro_config()
    pipe = trainer.build_pipeline(cfg, seed=0)
    base_before = {n: t.data.tobytes() for n, t in pipe.model.params.items()}
    extras_before = {n: t.data.tobytes() for n, t in trainer.collect_state(pipe).items()
                     if n.startswith(("lora.", "vembed.", "aux."))}
    tcfg = trainer.TrainConfig(total_steps=200, warmup_steps=100, batch_size=16, seed=0)
    trainer.pretrain(pipe, tcfg, data.DataConfig())
    frozen_ok = all(pipe.model.params[n].data.tobytes() == blob for n, blob in base_before.items())
    after = trainer.collect_state(pipe)
    moved_ok = all(after[n].data.tobytes() != blob for n, blob in extras_before.items())
    cpu = cpu_seconds() - t0
    ok = frozen_ok and moved_ok and cpu < 120.0
    report(2, "frozen-base invariance after 200 steps", ok,
           f"{len(base_before)} base tensors frozen, {len(extras_before)} trainable moved, {cpu:.0f} CPU s")
    assert frozen_ok and moved_ok
    assert cpu < 120.0


def test_03_zero_init_identity():
    cfg = micro_config()
    model = Model.init(cfg, seed=1)
    adapters = lora.attach(cfg, seed=2)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 16))
        ids = rng.integers(0, cfg.vocab, size=n)
        lay = SequenceLayout(0, n, min(1, n))
        mask = build_attention_mask(lay, n, "hybrid")
        with T.no_grad():
            base, _ = model.forward(model.embed_tokens(ids), mask)
            attached, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        ok &= base.data.tobytes() == attached.data.tobytes()
    report(3, "zero-init adapters leave logits bit-identical", ok, "20 prompts")
    assert ok


def test_04_gradient_correctness():
    t0 = cpu_seconds()
    op_results = gradcheck.op_suite(seed=0, trials=50)
    e2e_results, e2e_ok = gradcheck.end_to_end_check(seed=0)
    worst_op = max(err for _, err, _ in op_results)
    worst_e2e = max(err for _, err, _ in e2e_results)
    ops_ok = all(ok for _, _, ok in op_results)
    cpu = cpu_seconds() - t0
    ok = ops_ok and e2e_ok and cpu < 60.0
    report(4, "finite-difference gradient suite", ok,
           f"worst op {worst_op:.1e}, worst end-to-end {worst_e2e:.1e}, {cpu:.0f} CPU s")
    assert ops_ok, [r for r in op_results if not r[2]]
    assert e2e_ok, [r for r in e2e_results if not r[2]]
    assert cpu < 60.0


def test_05_mask_correctness():
    rng = np.random.default_rng(7)
    ok = True
    for total in range(1, 9):
        for v1 in range(0, total + 1):
            lay = SequenceLayout(v1, total, min(max(v1, 1), total))
            for mode in ("hybrid", "causal"):
                mask = build_attention_mask(lay, total, mode)
                for q in range(total):
                    for k in range(total):
                        if mode == "causal":
                            want = k <= q
                        elif q < v1:
                            want = k < v1
                        else:
                            want = k <= q
                        ok &= (mask[q, k] == 0.0) == want
                scores = rng.standard_normal((total, total)).astype(np.float32)
                probs = kernels.softmax_fwd(scores, mask)
                ok &= bool((probs[mask < 0] == 0.0).all())
    report(5, "mask rule exhaustive to len 8, disallowed prob exactly 0", ok)
    assert ok


def test_06_loss_definitions():
    cfg = micro_config()
    head = distill.AuxHead.init(cfg, 0, seed=0)
    rng = np.random.default_rng(0)
    range_ok = True
    for _ in range(100):
        s = int(rng.integers(1, 8))
        h = T.constant(rng.standard_normal((s, cfg.d_model)).astype(np.float32))
        v = rng.standard_normal((s, cfg.d_vit)).astype(np.float32)
        val = float(distill.block_distill_loss(h, v, head).data)
        range_ok &= -1e-6 <= val <= 2.0 + 1e-6

    h = T.constant(rng.standard_normal((6, cfg.d_model)).astype(np.float32))
    with T.no_grad():
        aligned = head.forward(h).data
    perfect = float(distill.block_distill_loss(h, aligned, head).data)
    perfect_ok = abs(perfect) <= 1e-6

    v = cfg.vocab
    lay = SequenceLayout(0, 5, 2)  # 3 supervised positions: 3 zero logit rows
    rows = T.constant(np.zeros((3, v), dtype=np.float32))
    uniform = float(distill.lm_loss(rows, [lay], np.zeros((1, 5), dtype=np.int64)).data)
    uniform_ok = abs(uniform - math.log(v)) <= 1e-4

    sum_ok = True
    for a, b in ((0.0, 1.5), (1.5, 0.0), (0.25, 1.75), (0.4, 0.8)):
        ta, tb = T.constant(np.float32(a)), T.constant(np.float32(b))
        sum_ok &= float(distill.total_loss(ta, tb).data) == float(np.float32(a) + np.float32(b))

    ok = range_ok and perfect_ok and uniform_ok and sum_ok
    report(6, "loss definitions", ok,
           f"range {range_ok}, perfect {perfect:.1e}, uniform |d|={abs(uniform - math.log(v)):.1e}, sum exact {sum_ok}")
    assert ok


@pytest.mark.slow
def test_07_training_sanity():
    t0 = cpu_seconds()
    cfg = micro_config()
    pipe = trainer.build_pipeline(cfg, seed=0)
    tcfg = trainer.TrainConfig(total_steps=500, warmup_steps=100, batch_size=16, seed=0)
    _, metrics = trainer.pretrain(pipe, tcfg, data.DataConfig())
    losses = [m["total_loss"] for m in metrics]
    finite_ok = all(np.isfinite(x) for x in losses)
    sm = trainer.smoothed(losses, 100)
    decrease_ok = sm[499] < sm[49]
    cpu = cpu_seconds() - t0
    ok = finite_ok and decrease_ok and cpu < 300.0
    report(7, "training sanity over 500 steps", ok,
           f"smoothed step50 {sm[49]:.3f} -> step500 {sm[499]:.3f}, {cpu:.0f} CPU s")
    assert finite_ok and decrease_ok
    assert cpu < 300.0


@pytest.mark.slow
def test_08_directional_ablation_echo(tmp_path):
    cfg = micro_config()
    tcfg = trainer.TrainConfig(total_steps=400, warmup_steps=100, batch_size=8, seed=0,
                               teacher_warm=True, teacher_warm_steps=300)
    thresholds = (4.8, 4.4)
    rows, _ = trainer.run_ablation(cfg, tcfg, data.DataConfig(),
                                   [("hybrid", "none", 8), ("hybrid", "block_wise", 8)],
                                   thresholds=thresholds, budget_steps=400,
                                   csv_path=tmp_path / "report.csv")
    assert (tmp_path / "report.csv").exists()
    by_cell = {(r["distill_mode"], r["threshold"]): r["steps_to_threshold"] for r in rows}
    echo = None
    for thr in thresholds:
        none_steps = by_cell[("none", thr)]
        bw_steps = by_cell[("block_wise", thr)]
        if none_steps > 0 and bw_steps > 0:
            echo = (thr, bw_steps, none_steps)
            break
    assert echo is not None, "no threshold reachable by both cells; lower the thresholds"
    thr, bw_steps, none_steps = echo
    if bw_steps <= none_steps:
        report(8, "directional ablation echo", True,
               f"threshold {thr}: block_wise {bw_steps} <= none {none_steps}")
    else:
        # documented as non-failing: desk scale need not reproduce the trend
        report(8, "directional ablation echo", True,
               f"WARN threshold {thr}: block_wise {bw_steps} > none {none_steps}")
        print("[criterion  8] WARN: distillation did not accelerate at this scale")


def test_09_anyres_support():
    cfg = micro_config()
    rng = np.random.default_rng(0)
    counts_ok = True
    for _ in range(20):
        h = int(rng.integers(1, 8)) * cfg.patch
        w = int(rng.integers(1, 8)) * cfg.patch
        sample = data.gen_image_caption(int(rng.integers(0, 10000)), (h, w), patch=cfg.patch)
        patches = vision.patchify(sample.image, cfg.patch)
        counts_ok &= patches.shape[0] == (h // cfg.patch) * (w // cfg.patch)

    pipe = trainer.build_pipeline(cfg, seed=0)
    dcfg = data.DataConfig(anyres=True, anyres_min=8, anyres_max=56)
    tcfg = trainer.TrainConfig(total_steps=20, warmup_steps=5, batch_size=3, seed=0)
    _, metrics = trainer.pretrain(pipe, tcfg, dcfg)
    finite_ok = all(np.isfinite(m["total_loss"]) for m in metrics)

    batch = data.make_batch(np.random.default_rng(1), 8, image_fraction=1.0, dcfg=dcfg,
                            max_seq=cfg.max_seq)
    span_ok = all(lay.n_vision == g[0] * g[1] for lay, g in zip(batch.layouts, batch.grids))
    ok = counts_ok and finite_ok and span_ok
    report(9, "native-resolution fuzz", ok,
           f"20 grids counted, 20 training steps finite={finite_ok}")
    assert ok


def test_10_overfit_one_sample():
    t0 = cpu_seconds()
    cfg = micro_config()
    pipe = trainer.build_pipeline(cfg, seed=0)
    sample = data.gen_image_caption(0)
    # repeat the one sample (hybrid mask, no distillation) until memorized
    tcfg = trainer.TrainConfig(lr=3e-3, warmup_steps=10, batch_size=1, total_steps=300, distill_mode="none", seed=0)
    batch = data.pack_samples([sample], cfg.patch, cfg.max_seq)
    trainer.train_loop(pipe, tcfg, itertools.repeat(batch))
    # decode from the packed prefix ([vision span][prompt])
    lay = batch.layouts[0]
    with T.no_grad():
        prefix = T.constant(trainer.pack_embedded(pipe, batch).data[0, : lay.supervise_from])
    decoded = decode_greedy(pipe.model, prefix, lay, data.EOS, len(sample.answer_tokens) + 4,
                            adapters=pipe.adapters, mask_mode=tcfg.mask_mode)
    want = list(sample.answer_tokens) + [data.EOS]
    exact = decoded == want
    cpu = cpu_seconds() - t0
    ok = exact and cpu < 120.0
    report(10, "overfit one sample reproduces its caption", ok,
           f"'{decode(decoded)}', {cpu:.0f} CPU s")
    assert exact, (decode(decoded), decode(want))
    assert cpu < 120.0
