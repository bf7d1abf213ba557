"""Finite-difference gradient verification for every tape op.

The oracle only ever evaluates forward passes (central differences with
step ``H``), so it stays independent of the backward implementations it
checks. Error metric per entry: |analytic - fd| / max(1, |fd|); a case
passes at or below ``TOL``. ``end_to_end_check`` samples ``MAX_ENTRIES``
entries of each larger tensor.
"""

import zlib

import numpy as np

from . import tensor as T
from .model import MASK_MODES, attention_mask, attention_plan, rope_qk_tables

H = 1e-3  # central-difference step
TOL = 1e-3  # worst error a passing case may read
MAX_ENTRIES = 48  # entries end_to_end_check samples per tensor


def _grad_error(value_fn, t, idxs=None):
    """Worst |analytic - fd| / max(1, |fd|) over t's flat entries idxs (all
    by default): analytic is the tape gradient already in t.grad (zeros
    when none arrived), fd the central difference of float-valued
    value_fn(), run under no_grad."""
    flat = t.data.reshape(-1)
    idxs = np.arange(flat.size) if idxs is None else idxs
    fd = np.zeros(len(idxs), dtype=t.data.dtype)
    with T.no_grad():
        for j, i in enumerate(idxs):
            keep = flat[i]
            flat[i] = keep + H
            hi = value_fn()
            flat[i] = keep - H
            lo = value_fn()
            flat[i] = keep
            fd[j] = (hi - lo) / (2.0 * H)
    analytic = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)[idxs]
    err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
    return float(err.max()) if err.size else 0.0


def project(out, r):
    """sum(out * r), r an array of out's shape, as a [1, 1] linear node: out gets exactly g·r."""
    return T.linear(T.reshape(out, (1, -1)), T.constant(r.reshape(1, -1)))


def _check_projected(make_out, inputs, r):
    """Gradients of sum(out * r): tape vs finite differences.

    The analytic side runs entirely on the float32 tape; the fd side
    reduces the op's float32 output in float64, so the check measures
    the op's own precision, not cancellation noise in the test's sum.
    """
    for t in inputs:
        t.grad = None
    T.backward(project(make_out(), r))

    def value():
        with T.no_grad():
            return float(np.sum(make_out().data.astype(np.float64) * r))

    return max((_grad_error(value, t) for t in inputs if t.requires_grad), default=0.0)


def _rand(rng, *shape):
    return T.param((0.5 * rng.standard_normal(shape)).astype(np.float32))


def op_suite(seed=0, trials=50):
    """Run the per-op finite-difference suite.

    Returns a list of (op_name, worst_error, passed). Shapes use extents
    <= 8 throughout.
    """
    results = []

    def run(name, make_case):
        # crc32, not hash(): case draws must not depend on PYTHONHASHSEED
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        worst = 0.0
        for _ in range(trials):
            make_out, inputs = make_case(rng)
            with T.no_grad():
                shape = make_out().data.shape
            r = rng.standard_normal(shape).astype(np.float32)
            worst = max(worst, _check_projected(make_out, inputs, r))
        results.append((name, worst, worst <= TOL))

    def case_add(rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
        return (lambda: T.add(a, b)), [a, b]

    def case_scale(rng):
        a = _rand(rng, 5)
        c = float(rng.uniform(-2, 2))
        return (lambda: T.scale(a, c)), [a]

    def case_matmul(rng):
        # a 2-D b, a weight (transpose_b), and attention's batched q·kᵀ and probs·v
        a_shape, b_shape, transpose_b = [((3, 4), (4, 2), False), ((2, 3, 4), (5, 4), True),
                                         ((2, 3, 4), (2, 5, 4), True), ((2, 3, 4), (2, 4, 5), False)][rng.integers(4)]
        a, b = _rand(rng, *a_shape), _rand(rng, *b_shape)
        return (lambda: T.matmul(a, b, transpose_b=transpose_b)), [a, b]

    def case_linear(rng):
        x = _rand(rng, 3, 4) if rng.random() < 0.5 else _rand(rng, 2, 3, 4)
        w = _rand(rng, 5, 4)
        return (lambda: T.linear(x, w)), [x, w]

    def case_adapted_linear(rng):
        # x·(w + b·a)ᵀ with a rank-2 pair
        x = _rand(rng, 3, 4) if rng.random() < 0.5 else _rand(rng, 2, 3, 4)
        w, a, b = _rand(rng, 5, 4), _rand(rng, 2, 4), _rand(rng, 5, 2)
        return (lambda: T.linear(x, w, (a, b))), [x, w, a, b]

    def case_transpose(rng):
        a = _rand(rng, 2, 3, 4)
        return (lambda: T.transpose(a, (2, 0, 1))), [a]

    def case_reshape(rng):
        a = _rand(rng, 2, 6)
        return (lambda: T.reshape(a, (3, 4))), [a]

    def case_concat(rng):
        a, b = _rand(rng, 2, 3), _rand(rng, 4, 3)
        return (lambda: T.concat([a, b])), [a, b]

    def case_embedding(rng):
        table = _rand(rng, 6, 4)
        ids = rng.integers(0, 6, size=7)
        return (lambda: T.embedding(table, ids)), [table]

    def lead(rng):
        # the row kernels take any leading dims: half the draws are 3-D
        return (2,) if rng.random() < 0.5 else ()

    def case_gelu(rng):
        a = _rand(rng, *lead(rng), 3, 5)
        return (lambda: T.gelu(a)), [a]

    def case_swiglu(rng):
        shape = (*lead(rng), 3, 5)
        gate, up = _rand(rng, *shape), _rand(rng, *shape)
        return (lambda: T.swiglu(gate, up)), [gate, up]

    def case_rms_norm(rng):
        a = _rand(rng, *lead(rng), 3, 6)
        gain = _rand(rng, 6)
        return (lambda: T.rms_norm(a, gain, eps=1e-5)), [a, gain]

    def case_gather_rows(rng):
        # distinct row numbers below 7, with some -1 holes
        rows = rng.permutation(7)[:6].reshape(2, 3)
        rows[rng.random((2, 3)) < 0.3] = -1
        a = _rand(rng, 7, *lead(rng), 3)
        return (lambda: T.gather_rows(a, rows)), [a]

    def case_attention(rng):
        # 2 sequences of live length 1-4 in [2, 4] rows, an interior hole
        # in some, 2 heads of hd 2, rope or none, either mask mode, as the
        # plan's one group or as one group per sequence
        lengths = rng.integers(1, 5, size=2)
        before_last = np.arange(4) < lengths[:, None] - 1
        live = (np.arange(4) < lengths[:, None]) & ~(before_last & (rng.random((2, 4)) < 0.2))
        rows = np.full((2, 4), -1)
        rows[live] = rng.permutation(int(live.sum()))
        spans = [int(rng.integers(0, n + 1)) for n in lengths]
        mask = attention_mask(spans, 4, MASK_MODES[rng.integers(2)])
        n = int(live.sum())
        pos = np.zeros(n, dtype=np.intp)
        pos[rows[live]] = np.nonzero(live)[1]
        rope = rope_qk_tables(pos, 2, 2) if rng.random() < 0.5 else None
        q, k, v = (_rand(rng, n, 4) for _ in range(3))
        plan = attention_plan(rows, mask)
        if rng.random() < 0.5:
            plan = [(T.RowIndex(rows[[b], :n]), mask[[b], :n, :n]) for b, n in enumerate(lengths)]
        return (lambda: T.attention(q, k, v, plan, 2, rope)), [q, k, v]

    def case_cross_entropy(rng):
        logits = _rand(rng, 6, 5)
        targets = rng.integers(0, 5, size=6)
        return (lambda: T.cross_entropy(logits, targets)), [logits]

    def case_tsum(rng):
        a = _rand(rng, 3, 4)
        if rng.random() < 0.5:
            return (lambda: T.tsum(a)), [a]
        return (lambda: T.tsum(a, axis=1)), [a]

    def case_cosine_loss(rng):
        p = _rand(rng, *lead(rng), 3, 4)
        v = 0.5 * rng.standard_normal(p.shape).astype(np.float32)
        weights = rng.uniform(0.1, 1.0, p.shape[:-1]).astype(np.float32)
        return (lambda: T.cosine_loss(p, v, weights)), [p]

    run("add", case_add)
    run("scale", case_scale)
    run("matmul", case_matmul)
    run("linear", case_linear)
    run("adapted_linear", case_adapted_linear)
    run("transpose", case_transpose)
    run("reshape", case_reshape)
    run("concat", case_concat)
    run("gather_rows", case_gather_rows)
    run("embedding", case_embedding)
    run("gelu", case_gelu)
    run("swiglu", case_swiglu)
    run("rms_norm", case_rms_norm)
    run("attention", case_attention)
    run("cross_entropy", case_cross_entropy)
    run("cosine_loss", case_cosine_loss)
    run("tsum", case_tsum)
    return results


def nano_config():
    """Smallest end-to-end model: every internal extent 8 or less."""
    from .model import ModelConfig

    return ModelConfig(n_llm=2, n_vit=1, d_model=8, d_vit=8, n_heads=2, d_ff=8,
                       patch=4, rank=2, max_seq=64, vembed_hidden=4, vit_heads=2, vit_ff=8)


def end_to_end_check(seed=0):
    """Finite-difference the combined objective on the nano model.

    Two batches: "fixed" (one 8x8 image row, one text row) and
    "mixed-grid" (a text row and two images on different grids, so the
    teacher groups its attention by image and the distillation term
    weighs the rows of two grids). Checks a
    deterministic entry sample of every trainable tensor (all entries
    when a tensor has at most MAX_ENTRIES). Returns (results,
    all_passed) with per-tensor worst errors, named "<batch>/<tensor>".
    """
    from . import data as D
    from . import trainer

    cfg = nano_config()
    dcfg = D.DataConfig(resolution=(8, 8), patch=4)
    pipe = trainer.build_pipeline(cfg, seed=seed)
    rng = np.random.default_rng([seed, 42])
    batches = {
        "fixed": D.make_batch(rng, 2, image_fraction=0.5, dcfg=dcfg, max_seq=cfg.max_seq),
        "mixed-grid": D.pack_samples([D.gen_text_sample(seed), D.gen_image_caption(seed, (8, 12), patch=4),
                                      D.gen_image_caption(seed + 1, (8, 8), patch=4)], cfg.patch, cfg.max_seq),
    }

    trainable = trainer._partition(pipe, trainer.TrainConfig())  # the pretrain partition

    pick = np.random.default_rng(seed)
    results = []
    for case, batch in batches.items():
        def fn():
            return trainer.compute_losses(pipe, batch, "hybrid", "block_wise").total

        for t in trainable.values():
            t.grad = None
        T.active_tape().reset()
        T.backward(fn())
        for name in sorted(trainable):
            t = trainable[name]
            idxs = None
            if t.data.size > MAX_ENTRIES:
                idxs = np.sort(pick.choice(t.data.size, size=MAX_ENTRIES, replace=False))
            worst = _grad_error(lambda: float(fn().data), t, idxs)
            results.append((f"{case}/{name}", worst, worst <= TOL))
    return results, all(ok for _, _, ok in results)
