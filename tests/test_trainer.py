import math
import multiprocessing
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import data, distill, kernels, lora, trainer, vision
from vora.model import ModelConfig, decode_greedy
from vora.tensor import Tensor

SMALL = dict(total_steps=12, warmup_steps=3, batch_size=4)


def small_cfgs(seed=0, **overrides):
    args = dict(SMALL)
    args.update(overrides)
    return ModelConfig(), trainer.TrainConfig(seed=seed, **args), data.DataConfig()


def reference_adamw(p, g, m, v, lr, b1, b2, eps, wd, bc1, bc2):
    """The allocating AdamW kernel that ``kernels.adamw_update`` replaced,
    kept as its oracle."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    p -= lr * update + lr * wd * p


class TestAdamW:
    def _state(self, value=1.0):
        p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
        state = trainer.TrainState.create({"w": p})
        return p, state

    def test_zero_grad_zero_decay_fixed_point(self):
        p, state = self._state()
        cfg = trainer.TrainConfig(weight_decay=0.0, warmup_steps=0, total_steps=1, seed=0)
        for _ in range(3):
            state.grads[0][:] = 0.0
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
            state.grads[0][:] = g
            trainer.adamw_step(state, lr=lr, cfg=cfg)
        npt.assert_allclose(p.data[0], w, atol=1e-7)

    def test_decoupled_decay_shrinks(self):
        p, state = self._state(2.0)
        cfg = trainer.TrainConfig(weight_decay=0.01, warmup_steps=0, total_steps=1, seed=0)
        lr = 0.5
        state.grads[0][:] = 0.0
        trainer.adamw_step(state, lr=lr, cfg=cfg)
        npt.assert_allclose(p.data[0], 2.0 * (1 - lr * 0.01), rtol=1e-6)

    def test_missing_grad_names_tensor(self):
        # the loss reaches u only: the step names w and leaves both weights as they were
        p, _ = self._state()
        u = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        state = trainer.TrainState.create({"w": p, "u": u})
        cfg = trainer.TrainConfig(warmup_steps=0, total_steps=1, seed=0)

        def loss_fn():
            loss = T.tsum(u)
            return trainer.LossOut(loss, loss, T.constant(np.zeros((), dtype=np.float32)))

        with pytest.raises(ValueError, match="trainable tensor w$"):
            trainer.train_step(state, cfg, 0, loss_fn)
        npt.assert_array_equal(state.weights, [1.0, 3.0])

    def test_missing_grad_in_both_shards_names_tensor(self, monkeypatch):
        # text-only batches: neither shard of a step gives the vision embed a gradient
        monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: False)
        mcfg, tcfg, _ = small_cfgs(total_steps=2, warmup_steps=1)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        with pytest.raises(ValueError, match="missing gradient for trainable tensor vembed"):
            trainer.pretrain(pipe, tcfg, data.DataConfig(image_fraction=0.0))

    def test_no_decay_on_norms_and_embedding(self):
        assert not trainer.decays("llm.blocks.0.attn_norm")
        assert not trainer.decays("aux.1.gain")
        assert not trainer.decays("llm.embed")
        assert trainer.decays("llm.blocks.0.q")
        assert trainer.decays("vembed.fc1")

    def test_arenas_order_tensors_by_decay_class(self):
        pipe = trainer.build_pipeline(ModelConfig(), seed=0)
        trainable = trainer._partition(pipe, trainer.TrainConfig(seed=0))
        state = trainer.TrainState.create(trainable)
        try:
            names = list(state.trainable)
            flags = [trainer.decays(name) for name in names]
            assert flags == sorted(flags, reverse=True) and set(flags) == {True, False}
            for flag in (True, False):  # each class keeps the order of the map it was made from
                assert [n for n in names if trainer.decays(n) == flag] == [n for n in trainable
                                                                             if trainer.decays(n) == flag]
            assert state.n_decay == sum(t.data.size for name, t in trainable.items() if trainer.decays(name))
            for t, view in zip(state.trainable.values(), state.views(state.weights)):
                assert np.shares_memory(t.data, view)
        finally:
            state.release()
        assert all(t.data.flags.owndata for t in trainable.values())

    def test_kernel_matches_the_allocating_reference_bit_for_bit(self):
        # two decay classes as two slices of one arena against the reference
        # per tensor, gradients from 1e-9 to 1, so some sit near ADAM_EPS
        rng = np.random.default_rng(0)
        sizes, n_decay = [7, 300, 64, 1, 129], 371
        n = sum(sizes)
        p = rng.standard_normal(n).astype(np.float32)
        m, v = np.zeros(n, np.float32), np.zeros(n, np.float32)
        p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
        bounds = np.cumsum([0] + sizes)
        scratch = np.empty(n, np.float32)
        for t in range(1, 6):
            g = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9, 0, n)).astype(np.float32)
            g[::17] = 0.0
            lr, bc1, bc2 = 1e-3 * t, 1.0 - trainer.BETA1**t, 1.0 - trainer.BETA2**t
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                wd = 0.01 if hi <= n_decay else 0.0
                reference_adamw(p_ref[lo:hi], g[lo:hi], m_ref[lo:hi], v_ref[lo:hi], lr, trainer.BETA1,
                                trainer.BETA2, trainer.ADAM_EPS, wd, bc1, bc2)
            for part, wd in ((slice(0, n_decay), 0.01), (slice(n_decay, n), 0.0)):
                kernels.adamw_update(p[part], g.copy()[part], m[part], v[part], lr, trainer.BETA1, trainer.BETA2,
                                     trainer.ADAM_EPS, wd, bc1, bc2, scratch[part])
            for got, want in ((p, p_ref), (m, m_ref), (v, v_ref)):
                npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("decay, rest", [((7, 300, 1), (129, 5)), ((1,), ()), ((), (3,)), ((1,), (1,))])
    def test_split_halves_match_the_whole_classes_bit_for_bit(self, decay, rest):
        # adamw_step with a second_half, which runs the second half of each
        # decay class as the worker would (from the step t it is sent),
        # against the whole-class calls: odd class sizes, a class of one
        # entry (one half empty) and an empty class
        rng = np.random.default_rng(0)
        init = {**{f"w{i}": rng.standard_normal(n) for i, n in enumerate(decay)},
                **{f"b{i}.gain": rng.standard_normal(n) for i, n in enumerate(rest)}}
        whole, split = (trainer.TrainState.create({name: Tensor(x, requires_grad=True) for name, x in init.items()})
                        for _ in range(2))
        sent = []
        split.second_half = lambda *msg: sent.append(msg)
        cfg = trainer.TrainConfig(weight_decay=0.01, warmup_steps=0, total_steps=1, seed=0)
        n = whole.weights.size
        for t in range(1, 6):
            g = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9, 0, n)).astype(np.float32)
            g[::7] = 0.0
            for state in (whole, split):
                state.grads[0][:] = g
                state.grads[1][:] = rng.standard_normal(n)  # scratch: never read
                trainer.adamw_step(state, lr=1e-3 * t, cfg=cfg)
            assert sent == [(t, 1e-3 * t, 0.01)] and split.step == whole.step == t
            trainer._adamw(split, *sent.pop(), half=1)
            for got, want in ((split.weights, whole.weights), (split.m, whole.m), (split.v, whole.v)):
                npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_a_pretrain_step_calls_the_kernel_at_most_twice(self, monkeypatch):
        # in one process: with a worker, this process sees only its halves
        # (the split is checked by TestShards)
        monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: False)
        calls = []
        real = kernels.adamw_update

        def count(p, *args):
            calls.append(p.size)
            real(p, *args)

        monkeypatch.setattr(kernels, "adamw_update", count)
        mcfg, tcfg, dcfg = small_cfgs(total_steps=2, warmup_steps=1)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        trainer.pretrain(pipe, tcfg, dcfg)
        n = sum(t.data.size for t in trainer.collect_state(pipe).values() if t.requires_grad)
        assert 0 < len(calls) <= 2 * tcfg.total_steps
        assert sum(calls) == n * tcfg.total_steps  # every trainable entry, once a step


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
        before = [{n: t.data.tobytes() for n, t in head.params.items()} for head in pipe.heads]
        _, metrics = trainer.pretrain(pipe, tcfg, dcfg)
        assert len(metrics) == 3 and all(len(m["per_block"]) == 1 for m in metrics)
        for head, blobs in zip(pipe.heads[:-1], before[:-1]):
            for n, t in head.params.items():
                assert t.data.tobytes() == blobs[n], n
        assert pipe.heads[-1].proj.data.tobytes() != before[-1][f"aux.{mcfg.n_vit - 1}.proj"]

    def test_gradients_are_c_ordered_float32_like_their_tensor(self):
        # the tape keeps a first gradient as it comes and adds later ones
        # into it in place, and run_shard copies the result into a gradient
        # arena view: every trainable tensor must get a C-contiguous float32
        # gradient of its shape, of its own. In finetune every base weight
        # trains, so a linear layer's weight gradient is kept straight from
        # its GEMM.
        for mode in ("pretrain", "finetune"):
            mcfg, tcfg, dcfg = ModelConfig(), trainer.TrainConfig(seed=0, mode=mode), data.DataConfig()
            pipe = trainer.build_pipeline(mcfg, seed=0)
            distill_mode = tcfg.distill_mode
            if mode == "finetune":  # the state trainer.finetune trains in
                trainer.merge(pipe)
                distill_mode = "none"
            trainable = trainer._partition(pipe, tcfg)
            batch = data.make_batch(np.random.default_rng(0), tcfg.batch_size, dcfg=dcfg, max_seq=mcfg.max_seq)
            out = trainer.compute_losses(pipe, batch, tcfg.mask_mode, distill_mode)
            T.backward(out.total)
            bad = [name for name, p in trainable.items()
                   if not (p.grad.dtype == np.float32 and p.grad.shape == p.data.shape
                           and p.grad.flags.c_contiguous)]
            assert not bad, mode
            grads = [p.grad for p in trainable.values()]
            assert not any(np.shares_memory(g, h) for i, g in enumerate(grads) for h in grads[i + 1:]), mode
        assert "llm.blocks.0.q" in trainable and "llm.embed" in trainable

    @pytest.mark.parametrize("mode, most", [("pretrain", 156), ("finetune", 137)])
    def test_tape_nodes_per_step_stay_within_budget(self, mode, most):
        # a work counter: the tape nodes one compute_losses records on a
        # seeded default batch, with the requires_grad flags a training step
        # of that mode runs with
        mcfg, tcfg, dcfg = ModelConfig(), trainer.TrainConfig(seed=0, mode=mode), data.DataConfig()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        distill_mode = tcfg.distill_mode
        if mode == "finetune":
            trainer.merge(pipe)
            distill_mode = "none"
        trainer._partition(pipe, tcfg)
        batch = data.make_batch(np.random.default_rng(0), tcfg.batch_size, dcfg=dcfg, max_seq=mcfg.max_seq)
        T.active_tape().reset()
        trainer.compute_losses(pipe, batch, tcfg.mask_mode, distill_mode)
        nodes = len(T.active_tape().nodes)
        T.active_tape().reset()
        assert nodes <= most

    def test_a_warmed_teacher_is_frozen_on_private_arrays(self):
        cold = trainer.build_pipeline(ModelConfig(), seed=0).teacher.params
        warm = trainer.build_pipeline(ModelConfig(), seed=0, teacher_warm=True, teacher_warm_steps=2).teacher.params
        assert all(t.data.flags.owndata and not t.requires_grad and t.grad is None for t in warm.values())
        assert any(t.data.tobytes() != cold[n].data.tobytes() for n, t in warm.items())

    def test_pretrain_requires_unmerged(self):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        lora.merge_all(pipe.model, pipe.adapters)
        with pytest.raises(lora.MergeStateError):
            trainer.pretrain(pipe, tcfg, dcfg)


def capture_adamw(mp):
    """name -> a copy of the gradient ``trainer.adamw_step`` is given (the
    summed gradient of a step, which the tensors do not keep), and name ->
    the weights ``reference_adamw`` makes of it from the weights and
    moments the step starts from; both filled in at each call."""
    grads, want, real = {}, {}, trainer.adamw_step

    def capture(state, lr, cfg):
        t = state.step + 1
        for name, g, p, m, v in zip(state.trainable, *map(state.views, (state.grads[0], state.weights, state.m,
                                                                         state.v))):
            grads[name], want[name] = g.copy(), p.copy()
            reference_adamw(want[name], g.copy(), m.copy(), v.copy(), lr, trainer.BETA1, trainer.BETA2,
                            trainer.ADAM_EPS, cfg.weight_decay if trainer.decays(name) else 0.0,
                            1.0 - trainer.BETA1**t, 1.0 - trainer.BETA2**t)
        real(state, lr, cfg)

    mp.setattr(trainer, "adamw_step", capture)
    return grads, want


def one_step(mcfg, dcfg, fork, mode="pretrain", **train):
    """One training step at lr 2e-4 (no warmup), shard 1 in a forked
    worker or in this process: its metrics record, then name -> gradient,
    name -> weights after AdamW and name -> ``reference_adamw``'s weights
    (``capture_adamw``) of every trained tensor."""
    tcfg = trainer.TrainConfig(seed=0, total_steps=1, warmup_steps=0, mode=mode, **train)
    pipe = trainer.build_pipeline(mcfg, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_two_shards", lambda tcfg: fork)
        grads, want = capture_adamw(mp)
        _, (rec,) = (trainer.finetune if mode == "finetune" else trainer.pretrain)(pipe, tcfg, dcfg)
    trained = {n: t for n, t in trainer.collect_state(pipe).items() if t.requires_grad}
    return rec, grads, {n: t.data for n, t in trained.items()}, want


def whole_step(mcfg, dcfg, mode="pretrain", **train):
    """The oracle of ``one_step``: the same first batch, unsharded, through
    ``compute_losses``, one backward and ``adamw_step``, in its return form."""
    tcfg = trainer.TrainConfig(seed=0, total_steps=1, warmup_steps=0, mode=mode, **train)
    pipe = trainer.build_pipeline(mcfg, seed=0)
    distill_mode = "none" if mode == "finetune" else tcfg.distill_mode
    if mode == "finetune":
        trainer.merge(pipe)
    state = trainer.TrainState.create(trainer._partition(pipe, tcfg))
    T.active_tape().reset()
    out = trainer.compute_losses(pipe, next(trainer.batch_draws(pipe, tcfg, dcfg)), tcfg.mask_mode, distill_mode)
    T.backward(out.total)
    for t, view in zip(state.trainable.values(), state.views(state.grads[0])):
        view[...] = t.grad
    with pytest.MonkeyPatch.context() as mp:
        grads, want = capture_adamw(mp)
        trainer.adamw_step(state, tcfg.lr, tcfg)
    state.release()
    rec = {"step": 0, "lr": tcfg.lr, "total_loss": float(out.total.data), "lm_loss": float(out.lm.data)}
    if distill_mode != "none":
        rec.update(distill_loss=float(out.dist.data), per_block=out.per_block)
    return rec, grads, {n: t.data for n, t in state.trainable.items()}, want


def assert_steps_equal(got, want):
    """Two ``one_step`` results agree bit for bit, each gradient a float32
    array of its tensor's shape."""
    (rec, grads, weights, _), (rec_want, grads_want, weights_want, _) = got, want
    assert rec == rec_want
    for arrays, arrays_want in ((grads, grads_want), (weights, weights_want)):
        assert arrays.keys() == arrays_want.keys()
        for name in arrays:
            npt.assert_array_equal(arrays[name], arrays_want[name], err_msg=name)
    assert grads.keys() == weights.keys()
    for name, weight in weights.items():
        for g in (grads[name], grads_want[name]):
            assert isinstance(g, np.ndarray) and g.dtype == np.float32 and g.shape == weight.shape, name


def assert_steps_match(got, want, rel=1e-5):
    """A ``one_step`` result and its ``whole_step`` oracle agree: each loss,
    per-block term and gradient at most rel times its largest magnitude
    off, and each side's updated tensors are, bit for bit, what
    ``reference_adamw`` makes of that side's own gradient. The weights are
    not compared across the sides: the first AdamW step moves an entry by
    lr * g / (|g| + 1e-8), so a gradient entry near or below 1e-8 carries
    its float32 rounding into the weights at full size."""
    (rec, grads, weights, adamw), (rec_want, grads_want, weights_want, adamw_want) = got, want
    assert set(rec) == set(rec_want)
    for key in ("total_loss", "lm_loss", "distill_loss"):
        if key in rec:
            assert abs(rec[key] - rec_want[key]) <= rel * abs(rec_want[key]), key
    assert len(rec.get("per_block", [])) == len(rec_want.get("per_block", []))
    for a, b in zip(rec.get("per_block", []), rec_want.get("per_block", [])):
        assert abs(a - b) <= rel * abs(b)
    assert set(grads) == set(grads_want) == set(weights) == set(weights_want)
    for name in grads:
        assert np.abs(grads[name] - grads_want[name]).max() <= rel * np.abs(grads_want[name]).max(), name
        for w, ref in ((weights, adamw), (weights_want, adamw_want)):
            npt.assert_array_equal(w[name].view(np.uint32), ref[name].view(np.uint32), err_msg=name)


@pytest.fixture
def workers(monkeypatch):
    """Every shard worker a test starts, in start order; every run of the
    test takes two shards, whatever the host."""
    monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: True)
    made = []
    init = trainer._ShardWorker.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(trainer._ShardWorker, "__init__", record)
    return made


def assert_gone(workers, count=1):
    """count workers ran, each has exited and been reaped, and no child process is left."""
    assert len(workers) == count
    for w in workers:
        assert w.proc.exitcode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(w.proc.pid, 0)
    assert multiprocessing.active_children() == []


def in_worker(fn, real=None):
    """A real (by default compute_losses) that runs fn() instead in any
    process but this one."""
    main, real = os.getpid(), real or trainer.compute_losses

    def patched(*args):
        return real(*args) if os.getpid() == main else fn()

    return patched


class TestShards:
    @pytest.mark.parametrize("mode, anyres, mask_mode", [
        ("pretrain", False, "hybrid"), ("pretrain", True, "hybrid"), ("pretrain", False, "causal"),
        ("pretrain", True, "causal"), ("finetune", False, "hybrid"),
    ])
    def test_two_shard_step_equals_one_shard_step(self, mode, anyres, mask_mode):
        # one process and two compute the same bits, and the shards sum to the whole batch's step
        dcfg = data.DataConfig(anyres=anyres)
        serial, forked = (one_step(ModelConfig(), dcfg, fork, mode=mode, mask_mode=mask_mode) for fork in (False, True))
        assert_steps_equal(serial, forked)
        assert_steps_match(forked, whole_step(ModelConfig(), dcfg, mode=mode, mask_mode=mask_mode))

    def test_combine_keeps_a_gradient_only_one_shard_gave_bit_for_bit(self):
        # shard 0's loss misses p, so its arena holds -0.0 there, and the
        # sum keeps every bit of shard 1's gradient, the signs of zeros too
        p, q = (Tensor(np.ones(4, dtype=np.float32), requires_grad=True) for _ in range(2))
        state = trainer.TrainState.create({"p": p, "q": q})

        def loss_fn():
            loss = T.tsum(q)
            return trainer.LossOut(loss, loss, T.constant(np.zeros((), dtype=np.float32)))

        a = trainer.run_shard(state, 0, loss_fn)
        g1 = np.array([-0.0, 0.0, -1e-40, 2.5, 1.0, -1.0, 0.0, -0.0], dtype=np.float32)
        state.grads[1][:] = g1
        lm, dist, per_block, got = trainer.combine(state, a, (1.0, 0.0, [], [True, True]))
        npt.assert_array_equal(state.grads[0][:4].view(np.uint32), g1[:4].view(np.uint32))
        npt.assert_array_equal(state.grads[0][4:], [2.0, 0.0, 1.0, 1.0])
        assert a[3] == [False, True] and got == [True, True] and (lm, dist) == (5.0, 0.0)

    def test_the_worker_ends_with_the_loop_and_leaves_private_arrays(self, workers):
        mcfg, tcfg, dcfg = small_cfgs(total_steps=3, warmup_steps=1)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        trainer.pretrain(pipe, tcfg, dcfg)
        assert_gone(workers)
        assert all(t.data.flags.owndata for t in trainer.collect_state(pipe).values() if t.requires_grad)

    def test_one_shard_starts_no_worker(self, workers, monkeypatch):
        # both shards of every step in this process: no worker forks
        monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: False)
        mcfg, tcfg, dcfg = small_cfgs(total_steps=2, warmup_steps=1)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        trainer.pretrain(pipe, tcfg, dcfg)
        assert_gone(workers, count=0)
        assert all(t.data.flags.owndata for t in trainer.collect_state(pipe).values() if t.requires_grad)

    def test_two_shards_need_two_sequences_a_step_two_cpus_and_fork(self, monkeypatch):
        tcfg = trainer.TrainConfig(seed=0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
        assert trainer._two_shards(tcfg)
        assert not trainer._two_shards(trainer.TrainConfig(seed=0, batch_size=1))
        assert not trainer._two_shards(trainer.TrainConfig(seed=0, total_steps=0))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not trainer._two_shards(tcfg)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert not trainer._two_shards(tcfg)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert not trainer._two_shards(tcfg)

    def test_a_failed_fork_leaves_blas_and_the_weights_as_they_were(self, workers, monkeypatch):
        before = trainer._set_blas_threads(2)
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")

        def no_fork(self):
            raise OSError("cannot fork")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        try:
            with pytest.raises(OSError, match="cannot fork"):
                trainer.pretrain(pipe, tcfg, dcfg)
            assert trainer._set_blas_threads(before) == 2
        finally:
            trainer._set_blas_threads(before)
        assert all(t.data.flags.owndata for t in trainer.collect_state(pipe).values() if t.requires_grad)
        assert_gone(workers, count=0)

    def test_a_raising_metrics_sink_ends_the_worker(self, workers):
        class Stop(Exception):
            pass

        def sink(rec):
            if rec["step"] == 1:
                raise Stop

        mcfg, tcfg, dcfg = small_cfgs()
        with pytest.raises(Stop):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg, metrics_sink=sink)
        assert_gone(workers)

    def test_a_numeric_abort_ends_the_worker(self, workers):
        tcfg = trainer.TrainConfig(lr=1e30, warmup_steps=0, total_steps=30, batch_size=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(trainer.TrainAbort, match="step"):
            trainer.pretrain(trainer.build_pipeline(ModelConfig(), seed=0), tcfg, data.DataConfig())
        assert_gone(workers)

    @pytest.mark.parametrize("exc", [T.ShapeError("shape fault in shard 1"), ValueError("value fault in shard 1")])
    def test_a_worker_exception_is_raised_as_itself(self, workers, monkeypatch, exc):
        def fail():
            raise exc

        monkeypatch.setattr(trainer, "compute_losses", in_worker(fail))
        mcfg, tcfg, dcfg = small_cfgs()
        with pytest.raises(type(exc), match="in shard 1"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        assert_gone(workers)

    def test_a_dead_worker_raises_shard_worker_error(self, workers, monkeypatch):
        monkeypatch.setattr(trainer, "compute_losses", in_worker(lambda: os._exit(7)))
        mcfg, tcfg, dcfg = small_cfgs()
        with pytest.raises(trainer.ShardWorkerError, match="step 0: the shard worker died"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        assert_gone(workers)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_a_worker_that_dies_in_its_adamw_half_names_the_step(self, workers, monkeypatch, steps):
        # read where the next step starts, or after the last step
        monkeypatch.setattr(kernels, "adamw_update", in_worker(lambda: os._exit(7), kernels.adamw_update))
        mcfg, tcfg, dcfg = small_cfgs(total_steps=steps, warmup_steps=0)
        with pytest.raises(trainer.ShardWorkerError, match=r"step 0: the shard worker died \(exit code 7\)"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        assert_gone(workers)

    @pytest.mark.parametrize("exc", [FloatingPointError("fault in the half"), ValueError("fault in the half")])
    def test_a_worker_exception_in_its_adamw_half_is_raised_as_itself(self, workers, monkeypatch, exc):
        def fail():
            raise exc

        monkeypatch.setattr(kernels, "adamw_update", in_worker(fail, kernels.adamw_update))
        mcfg, tcfg, dcfg = small_cfgs()
        with pytest.raises(type(exc), match="in the half"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        assert_gone(workers)

    def test_an_aborted_step_leaves_the_arenas_as_they_were(self, workers, monkeypatch):
        # forked runs that abort at step 1, after a step whose second halves
        # the worker wrote: once on a non-finite loss, once on a tensor
        # neither shard gave a gradient. The worker gets its AdamW job only
        # after this process's checks, so weights, m and v keep their bits.
        starts, real = [], trainer.train_step

        def record(state, *args):
            starts.append((state, [a.copy() for a in (state.weights, state.m, state.v)]))
            return real(state, *args)

        monkeypatch.setattr(trainer, "train_step", record)
        mcfg, dcfg = ModelConfig(), data.DataConfig()
        tcfg = trainer.TrainConfig(lr=1e30, warmup_steps=0, total_steps=30, batch_size=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(trainer.TrainAbort, match="step 1"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        rng = np.random.default_rng(0)
        batches = [data.make_batch(rng, 4, image_fraction=f, dcfg=dcfg, max_seq=mcfg.max_seq) for f in (0.5, 0.0)]
        tcfg = trainer.TrainConfig(warmup_steps=0, total_steps=2, batch_size=4, seed=0)
        with pytest.raises(ValueError, match="missing gradient"):
            trainer.train_loop(trainer.build_pipeline(mcfg, seed=0), tcfg, batches)
        assert len(starts) == 4
        for (_, first), (state, before) in (starts[:2], starts[2:]):
            moved, mid = before[0] != first[0], state.n_decay // 2
            assert moved[:mid].any() and moved[mid:state.n_decay].any()  # both halves of step 0 landed
            for arena, was in zip((state.weights, state.m, state.v), before):
                npt.assert_array_equal(arena.view(np.uint32), was.view(np.uint32))
        assert_gone(workers, count=2)

    def test_a_silent_worker_times_out(self, workers, monkeypatch):
        monkeypatch.setattr(trainer, "WORKER_TIMEOUT_S", 0.5)
        monkeypatch.setattr(trainer, "compute_losses", in_worker(lambda: time.sleep(60)))
        mcfg, tcfg, dcfg = small_cfgs()
        start = time.perf_counter()
        with pytest.raises(trainer.ShardWorkerError, match="step 0: the shard worker gave no answer in 0.5 s"):
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg)
        assert time.perf_counter() - start < 30
        assert_gone(workers)

    def test_blas_runs_one_thread_during_a_two_shard_run_only(self, workers):
        before = trainer._set_blas_threads(2)
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        during = []
        mcfg, tcfg, dcfg = small_cfgs(total_steps=2, warmup_steps=1)
        try:
            trainer.pretrain(trainer.build_pipeline(mcfg, seed=0), tcfg, dcfg,
                             metrics_sink=lambda rec: during.append(trainer._set_blas_threads(1)))
            assert during == [1, 1]
            assert trainer._set_blas_threads(before) == 2
        finally:
            trainer._set_blas_threads(before)

    def test_the_worker_exits_when_the_main_end_closes(self):
        worker = trainer._ShardWorker(lambda shard: None)
        worker.conn.close()
        worker.proc.join(10)
        assert worker.proc.exitcode == 0
        worker.close()
        assert multiprocessing.active_children() == []


class TestOwners:
    N_VIT = ModelConfig().n_vit
    AUX = tuple(f"aux.{b}" for b in range(N_VIT))

    @pytest.mark.parametrize("mode, trained", [
        ("pretrain", ("lora", "vembed") + AUX),
        ("finetune", ("llm", "vembed")),
        ("full_llm_unstable", ("llm", "vembed") + AUX),
    ])
    def test_groups_partition_the_state_and_trained_owners(self, mode, trained):
        pipe = trainer.build_pipeline(ModelConfig(), seed=0)
        if mode == "finetune":  # the state trainer.finetune trains in
            trainer.merge(pipe)
        groups = pipe.groups()
        owners = ["llm", "vembed", "teacher"] if mode == "finetune" else ["llm", "lora", "vembed", "teacher", *self.AUX]
        assert list(groups) == owners
        state = trainer.collect_state(pipe)
        names = [name for tensors in groups.values() for name in tensors]
        assert len(names) == len(set(names)) and set(names) == set(state)  # each tensor in exactly one group
        trainable = trainer._partition(pipe, trainer.TrainConfig(mode=mode, seed=0))
        assert set(trainable) == {name for owner in trained for name in groups[owner]}
        assert all(t.requires_grad == (name in trainable) for name, t in state.items())


class TestGridRuns:
    NANO = dict(n_llm=2, n_vit=2, d_model=8, d_vit=8, n_heads=2, d_ff=8, patch=4, rank=2,
                max_seq=64, vembed_hidden=4, vit_heads=2, vit_ff=8)

    def test_text_first_batch_computes_losses(self):
        pipe = trainer.build_pipeline(ModelConfig(), seed=0)
        packed = data.pack_samples([data.gen_text_sample(1), data.gen_image_caption(2)], 8, 160)
        # pack_samples puts the image first; the rows swapped, the text leads (the one image's patches stay)
        batch = data.PackedBatch(np.ascontiguousarray(packed.tokens[::-1]), packed.layouts[::-1], packed.patches,
                                 packed.grids[::-1])
        assert batch.grids == [None, packed.grids[0]]
        out = trainer.compute_losses(pipe, batch, "hybrid", "block_wise")
        assert np.isfinite(float(out.total.data)) and float(out.dist.data) > 0.0

    def test_mixed_grid_dist_is_mean_of_single_images(self):
        pipe = trainer.build_pipeline(ModelConfig(**self.NANO), seed=0)
        samples = [data.gen_image_caption(i, hw, patch=4)
                   for i, hw in enumerate([(8, 12), (8, 8), (12, 8), (8, 8)])]
        samples.append(data.gen_text_sample(9))

        def dist(batch_samples):
            with T.no_grad():
                out = trainer.compute_losses(pipe, data.pack_samples(batch_samples, 4, 64), "hybrid", "block_wise")
            return float(out.dist.data)

        singles = [dist([smp]) for smp in samples[:4]]
        assert abs(dist(samples) - np.mean(singles)) <= 1e-6

    def test_each_image_patchified_once_per_step(self, monkeypatch):
        # the batch carries every image's patches in one stack; the vision
        # embed and the teacher both read it, so a step patchifies each image
        # exactly once
        calls = []

        def counting(image, patch):
            calls.append(patch)
            return patchify(image, patch)

        patchify = vision.patchify
        monkeypatch.setattr(vision, "patchify", counting)
        monkeypatch.setattr(data, "patchify", counting, raising=False)
        cfg = ModelConfig()
        batch = data.make_batch(np.random.default_rng(0), 8, image_fraction=1.0,
                                dcfg=data.DataConfig(anyres=True), max_seq=cfg.max_seq)
        with T.no_grad():
            trainer.compute_losses(trainer.build_pipeline(cfg, seed=0), batch, "hybrid", "block_wise")
        assert len(calls) == 8


class TestTokenMajor:
    """The token-major path of compute_losses against the padded forward it
    replaced and against one-sample batches."""

    CFG = dict(n_llm=3, n_vit=2, d_model=32, d_vit=24, n_heads=2, d_ff=64, rank=4, vit_heads=2)
    RESOLUTIONS = {"fixed": [(32, 32)] * 3, "anyres": [(16, 24), (32, 32), (16, 16), (24, 16)],
                   "text": [], "image": [(32, 24), (32, 24), (16, 32)]}
    N_TEXT = {"fixed": 2, "anyres": 2, "text": 4, "image": 0}

    def _pipe(self):
        pipe = trainer.build_pipeline(ModelConfig(**self.CFG), seed=3)
        rng = np.random.default_rng(4)
        for ad in pipe.adapters:  # non-zero deltas, so the adapter path is checked too
            ad.b.data = (0.05 * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
        return pipe

    def _samples(self, kind):
        images = [data.gen_image_caption(10 + i, hw) for i, hw in enumerate(self.RESOLUTIONS[kind])]
        return images + [data.gen_text_sample(20 + i) for i in range(self.N_TEXT[kind])]

    @staticmethod
    def _padded_embedding(pipe, batch):
        """The padded input built image by image: each image's vision-embed
        rows on its own grid at its vision span, token embeddings elsewhere
        (PAD included)."""
        emb = pipe.model.embed_tokens(batch.tokens).data.copy()
        start = 0
        for row, grid in enumerate(batch.grids):
            if grid is not None:
                s_v = grid[0] * grid[1]
                emb[row, :s_v] = pipe.vembed.forward(batch.patches[start:start + s_v], [(grid, 1)]).data
                start += s_v
        return T.constant(emb)

    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    @pytest.mark.parametrize("kind", ["fixed", "anyres", "text", "image"])
    def test_flat_forward_matches_padded_forward(self, kind, mask_mode):
        pipe = self._pipe()
        batch = data.pack_samples(self._samples(kind), 8, 160)
        rows = batch.rows
        live = rows >= 0
        masks = trainer.batch_masks(batch, mask_mode)
        with T.no_grad():
            ref = self._padded_embedding(pipe, batch)
            npt.assert_allclose(trainer.pack_embedded(pipe, batch).data[live], ref.data[live], atol=1e-6)
            want, want_taps = pipe.model.forward(ref, masks, pipe.adapters)
            got, got_taps = pipe.model.forward(trainer.embed_batch(pipe, batch), masks, pipe.adapters, rows=rows)
        assert got.shape == (live.sum(), pipe.cfg.vocab)
        npt.assert_allclose(got.data[rows[live]], want.data[live], atol=1e-5)
        for g, w in zip(got_taps, want_taps):
            npt.assert_allclose(g.data[rows[live]], w.data[live], atol=1e-5)

    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    @pytest.mark.parametrize("kind", ["fixed", "anyres", "text", "image"])
    def test_batch_losses_are_weighted_single_sample_losses(self, kind, mask_mode):
        # lm: mean over supervised tokens; dist and per_block: mean over images
        pipe = self._pipe()
        samples = self._samples(kind)

        def losses(batch_samples):
            with T.no_grad():
                return trainer.compute_losses(pipe, data.pack_samples(batch_samples, 8, 160), mask_mode,
                                              "block_wise")

        out = losses(samples)
        singles = [losses([smp]) for smp in samples]
        n_sup = [len(smp.answer_tokens) + 1 for smp in samples]  # answer and EOS
        npt.assert_allclose(float(out.lm.data), np.dot(n_sup, [float(o.lm.data) for o in singles]) / sum(n_sup), rtol=2e-6)
        images = [o for smp, o in zip(samples, singles) if smp.image is not None]
        if not images:
            assert float(out.dist.data) == 0.0 and out.per_block == []
            return
        npt.assert_allclose(float(out.dist.data), np.mean([float(o.dist.data) for o in images]), rtol=2e-6)
        npt.assert_allclose(out.per_block, np.mean([o.per_block for o in images], axis=0), rtol=2e-6)


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
        trainer.merge(pipe)
        with T.no_grad():
            after = [pipe.model.forward(trainer.pack_embedded(pipe, b),
                                        trainer.batch_masks(b, "hybrid"), pipe.adapters)[0].data
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


def per_caption_eval_metrics(pipe, dcfg, tcfg, n_caption=8, n_text=8, max_new=24):
    """The oracle of the batched ``trainer.eval_metrics``: the same metrics
    from one batch-1 decode per caption. Returns (metrics, decoded ids)."""
    cfg = pipe.cfg
    rng = np.random.default_rng([tcfg.seed, 11])
    correct = total = 0
    decodes = []
    for _ in range(n_caption):
        idx = data.HELDOUT_BASE + int(rng.integers(0, data.HELDOUT_BASE))
        sample = data.gen_image_caption(idx, dcfg.resolution, patch=dcfg.patch)
        batch = data.pack_samples([sample], dcfg.patch, cfg.max_seq)
        lay = batch.layouts[0]
        with T.no_grad():
            prefix = T.constant(trainer.pack_embedded(pipe, batch).data[0, : lay.supervise_from])
        decoded = decode_greedy(pipe.model, prefix, lay, data.EOS, max_new, adapters=pipe.adapters,
                                mask_mode=tcfg.mask_mode)
        decodes.append(decoded)
        target = list(sample.answer_tokens) + [data.EOS]
        total += len(target)
        correct += sum(1 for a, b in zip(decoded, target) if a == b)
    result = {"caption_token_accuracy": correct / total}

    batch = data.make_batch(rng, n_text, image_fraction=0.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
    with T.no_grad():
        out = trainer.compute_losses(pipe, batch, tcfg.mask_mode, "none")
    result["text_perplexity"] = float(np.exp(float(out.lm.data)))
    if pipe.heads:
        batch = data.make_batch(rng, 4, image_fraction=1.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
        with T.no_grad():
            out = trainer.compute_losses(pipe, batch, tcfg.mask_mode, "block_wise")
        result["distill_alignment"] = 1.0 - float(out.dist.data)
    return result, decodes


class TestEval:
    @pytest.mark.parametrize("anyres", [False, True])
    def test_batched_decode_matches_per_caption_oracle(self, monkeypatch, anyres):
        mcfg, tcfg, dcfg = small_cfgs(seed=3)
        dcfg = data.DataConfig(anyres=anyres)
        pipe = trainer.build_pipeline(mcfg, seed=0)
        rng = np.random.default_rng(5)
        for ad in pipe.adapters:
            ad.b.data = (0.5 * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
        for t in pipe.vembed.params.values():  # images steer the decodes apart
            t.data = 20 * t.data
        decodes = []

        def spy(*args, **kwargs):
            decodes.append(decode_greedy(*args, **kwargs))
            return decodes[-1]

        monkeypatch.setattr(trainer, "decode_greedy", spy)
        for merged in (False, True):
            if merged:
                trainer.merge(pipe)
            for n in (1, 3, 8):
                decodes.clear()
                got = trainer.eval_metrics(pipe, dcfg, tcfg, n_caption=n)
                want, want_ids = per_caption_eval_metrics(pipe, dcfg, tcfg, n_caption=n)
                assert got == want
                assert decodes == [want_ids]  # one decode call for the n captions
            assert len(set(map(tuple, want_ids))) > 1

    def test_scores_each_caption_against_its_own_decode(self, monkeypatch):
        mcfg, tcfg, dcfg = small_cfgs()
        pipe = trainer.build_pipeline(mcfg, seed=0)
        packed = []
        pack_samples = data.pack_samples

        def spy(samples, *args):
            packed.append(pack_samples(samples, *args))
            return packed[-1]

        def perfect(model, prefix, layouts, *args, **kwargs):
            """Each row's own answer and EOS, read from the caption batch."""
            return [packed[-1].tokens[row, lay.supervise_from: lay.length].tolist()
                    for row, lay in enumerate(layouts)]

        monkeypatch.setattr(data, "pack_samples", spy)
        monkeypatch.setattr(trainer, "decode_greedy", perfect)
        assert trainer.eval_metrics(pipe, dcfg, tcfg, n_caption=8)["caption_token_accuracy"] == 1.0
        assert len({tuple(row) for row in packed[0].tokens.tolist()}) == 8

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
