"""Finite-difference gradient verification for every tape op.

The oracle only ever evaluates forward passes (central differences,
h=1e-3), so it stays independent of the backward implementations it
checks. Error metric per element: |analytic - fd| / max(1, |fd|).
"""

import zlib

import numpy as np

from . import tensor as T


def fd_gradient(value_fn, t, h=1e-3, idxs=None):
    """Central-difference gradient of float-valued value_fn() w.r.t. the
    flat entries idxs of t (all of them by default), as a flat array."""
    flat = t.data.reshape(-1)
    idxs = range(flat.size) if idxs is None else idxs
    g = np.zeros(len(idxs), dtype=t.data.dtype)
    with T.no_grad():
        for j, i in enumerate(idxs):
            keep = flat[i]
            flat[i] = keep + h
            hi = value_fn()
            flat[i] = keep - h
            lo = value_fn()
            flat[i] = keep
            g[j] = (hi - lo) / (2.0 * h)
    return g


def _rel_error(analytic, fd):
    """Worst |analytic - fd| / max(1, |fd|) over matching flat arrays."""
    err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
    return float(err.max()) if err.size else 0.0


def _worst_error(value_fn, inputs, h):
    """Worst error of the tape gradients already in inputs' .grad against
    finite differences of value_fn, over every requires_grad input."""
    worst = 0.0
    for t in inputs:
        if t.requires_grad:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            worst = max(worst, _rel_error(analytic.reshape(-1), fd_gradient(value_fn, t, h=h)))
    return worst


def max_rel_error(fn, inputs, h=1e-3):
    """Compare tape gradients of scalar fn() against finite differences.

    Returns the worst |analytic - fd| / max(1, |fd|) over all entries of
    all requires_grad inputs.
    """
    for t in inputs:
        t.grad = None
    T.backward(fn())
    return _worst_error(lambda: float(fn().data), inputs, h)


def _check_projected(make_out, inputs, r, h):
    """Gradients of sum(out * r): tape vs finite differences.

    The analytic side runs entirely on the float32 tape; the fd side
    reduces the op's float32 output in float64, so the check measures
    the op's own precision, not cancellation noise in the test's sum.
    """
    for t in inputs:
        t.grad = None
    T.backward(T.tsum(T.mul(make_out(), T.constant(r))))

    def value():
        with T.no_grad():
            return float(np.sum(make_out().data.astype(np.float64) * r))

    return _worst_error(value, inputs, h)


def _rand(rng, *shape):
    return T.param((0.5 * rng.standard_normal(shape)).astype(np.float32))


def op_suite(seed=0, trials=50, tol=1e-3, h=1e-3):
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
            worst = max(worst, _check_projected(make_out, inputs, r, h))
        results.append((name, worst, worst <= tol))

    def case_add(rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
        return (lambda: T.add(a, b)), [a, b]

    def case_mul(rng):
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4)
        return (lambda: T.mul(a, b)), [a, b]

    def case_scale(rng):
        a = _rand(rng, 5)
        c = float(rng.uniform(-2, 2))
        return (lambda: T.scale(a, c)), [a]

    def case_matmul(rng):
        if rng.random() < 0.5:
            a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
        else:
            a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5)
        return (lambda: T.matmul(a, b)), [a, b]

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
        return (lambda: T.concat([a, b], axis=0)), [a, b]

    def case_slice(rng):
        a = _rand(rng, 5, 4)
        return (lambda: T.slice_axis(a, 0, 1, 3)), [a]

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

    def case_rope(rng):
        # 4 rows of 2 heads of hd 4; rope is linear in x, so any tables
        # exercise its backward
        x = _rand(rng, 4, 8)
        cos, sin = (rng.uniform(-1, 1, (4, 8)).astype(np.float32) for _ in range(2))
        return (lambda: T.rope(x, cos, sin, 2)), [x]

    def holes(rng, shape, n):
        # distinct row numbers below n, with some -1 holes
        rows = rng.permutation(n)[: int(np.prod(shape))].reshape(shape)
        rows[rng.random(shape) < 0.3] = -1
        return rows

    # half the gather/scatter draws are head-major: 2 heads of width 2
    def case_gather_rows(rng):
        rows = holes(rng, (2, 3), 7)
        if rng.random() < 0.5:
            a = _rand(rng, 7, 4)
            return (lambda: T.gather_rows(a, rows, heads=2)), [a]
        a = _rand(rng, 7, *lead(rng), 3)
        return (lambda: T.gather_rows(a, rows)), [a]

    def case_scatter_rows(rng):
        rows = holes(rng, (2, 3), 8)
        if rng.random() < 0.5:
            a = _rand(rng, 2, 2, 3, 2)
            return (lambda: T.scatter_rows(a, rows, 8, heads=2)), [a]
        a = _rand(rng, 2, 3, *lead(rng), 3)
        return (lambda: T.scatter_rows(a, rows, 8)), [a]

    def case_softmax(rng):
        a = _rand(rng, *lead(rng), 4, 5)
        mask = np.zeros((4, 5), dtype=np.float32)  # broadcast over any leading dim
        drop = rng.random((4, 5)) < 0.3
        drop[:, 0] = False  # keep every row alive
        mask[drop] = T.NEG_MASK
        return (lambda: T.softmax_rows(a, mask)), [a]

    def case_cross_entropy(rng):
        logits = _rand(rng, 6, 5)
        targets = rng.integers(0, 5, size=6)
        return (lambda: T.cross_entropy(logits, targets)), [logits]

    def case_tsum(rng):
        a = _rand(rng, 3, 4)
        if rng.random() < 0.5:
            return (lambda: T.tsum(a)), [a]
        return (lambda: T.tsum(a, axis=1)), [a]

    def case_power(rng):
        a = T.param((rng.random((3, 4)) + 0.75).astype(np.float32))
        c = float(rng.choice([0.5, 2.0, -1.0]))
        return (lambda: T.power(a, c)), [a]

    run("add", case_add)
    run("mul", case_mul)
    run("scale", case_scale)
    run("matmul", case_matmul)
    run("linear", case_linear)
    run("adapted_linear", case_adapted_linear)
    run("transpose", case_transpose)
    run("reshape", case_reshape)
    run("concat", case_concat)
    run("slice_axis", case_slice)
    run("gather_rows", case_gather_rows)
    run("scatter_rows", case_scatter_rows)
    run("embedding", case_embedding)
    run("gelu", case_gelu)
    run("swiglu", case_swiglu)
    run("rms_norm", case_rms_norm)
    run("rope", case_rope)
    run("softmax_rows", case_softmax)
    run("cross_entropy", case_cross_entropy)
    run("tsum", case_tsum)
    run("power", case_power)
    return results


def nano_config():
    """Smallest end-to-end model: every internal extent 8 or less."""
    from .model import ModelConfig

    return ModelConfig(n_llm=2, n_vit=1, d_model=8, d_vit=8, n_heads=2, d_ff=8,
                       patch=4, rank=2, max_seq=64, vembed_hidden=4, vit_heads=2, vit_ff=8)


def end_to_end_check(seed=0, h=1e-3, tol=1e-3, max_entries=48):
    """Finite-difference the combined objective on the nano model.

    Two batches: "fixed" (one 8x8 image row, one text row) and
    "mixed-grid" (a text row and two images on different grids, so the
    teacher groups its attention by image and the distillation term
    weighs the rows of two grids). Checks a
    deterministic entry sample of every trainable tensor (all entries
    when a tensor has at most max_entries). Returns (results,
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
            analytic = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
            idxs = np.arange(t.data.size)
            if t.data.size > max_entries:
                idxs = np.sort(pick.choice(t.data.size, size=max_entries, replace=False))
            worst = _rel_error(analytic[idxs], fd_gradient(lambda: float(fn().data), t, h=h, idxs=idxs))
            results.append((f"{case}/{name}", worst, worst <= tol))
    return results, all(ok for _, _, ok in results)
