"""Dense float32 tensors with reverse-mode autodiff on an eager tape.

The op set is exactly what the model stack needs: elementwise add of
equal shapes, scalar scale, matmul, linear, transpose, reshape,
concat along axis 0, row gather by an index with -1 holes
(``gather_rows``, the one row selection), embedding lookup, GELU, the
fused SwiGLU gate (``swiglu``; there is no separate SiLU op), RMS-norm,
multi-head attention as one node (``attention``: rotary positions, the
masked softmax and both GEMMs, run only over the live length groups of a
plan), cross entropy, the weighted cosine loss of distillation
(``cosine_loss``) and sum. No op broadcasts its tensor operands: unequal shapes are a
``ShapeError``. Every linear layer, x·wᵀ or with an adapter pair
x·(w + b·a)ᵀ, is one tape node of ``_linear_node``: one 2-D GEMM forward
and one per operand gradient, whatever the leading dims of x. Heavy
elementwise work is delegated to :mod:`vora.kernels`; matmul goes
straight to BLAS.

Gradients accumulate additively when a tensor feeds several consumers.
A backward computes only the gradients of inputs that require one, so a
frozen weight costs no arithmetic, and a leaf keeps the array its first
gradient arrived in unless that array is strided or shared (``_accum``).
``backward`` walks the tape in reverse recording order and clears it.
"""

import functools
import math

import numpy as np

from . import kernels

# Additive-mask sentinel for "disallowed": most-negative finite float32.
NEG_MASK = float(np.finfo(np.float32).min)
RMS_EPS = 1e-6  # rms_norm's default eps, and the cached forward's


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)  # a float32 array is kept as it is
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # light operator sugar; every path funnels into the module-level ops
    def __add__(self, other):
        return add(self, other)


def param(data):
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def constant(data):
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# tape

_grad_enabled = True


def grad_enabled():
    """Whether ops record tape nodes (False inside ``no_grad``)."""
    return _grad_enabled


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tape:
    """Ordered record of ops; reverse traversal is the backward pass."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def reset(self):
        self.nodes.clear()


_TAPE = Tape()


def active_tape():
    return _TAPE


def _make(out_data, inputs, backward):
    """Wrap op output; record a tape node when gradients can flow."""
    req = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        _TAPE.nodes.append((out, backward))
    return out


def _accum(t, g, copy=False):
    """Add g into t.grad; callers pass only inputs that require a gradient.

    g is handed over: a backward passes arrays that nothing else holds,
    new ones or views of its own released output gradient. A first
    gradient keeps g when it is a writeable C-contiguous float32 array of
    t's shape. Any other g (a strided view, a broadcast) is copied, which
    sets the layout every gradient has: C-ordered float32. copy=True: g
    also goes to another consumer, so it is never kept.
    """
    if t.grad is not None:
        t.grad += g
    elif (not copy and g.dtype == np.float32 and g.shape == t.data.shape
          and g.flags.c_contiguous and g.flags.writeable):
        t.grad = g
    else:
        t.grad = np.array(g, dtype=np.float32, order="C")


def backward(loss):
    """Populate ``grad`` on every requires_grad leaf reachable from loss.

    ``loss`` must be a scalar produced through recorded ops. The tape is
    consumed: it is cleared after the walk, and each op output's gradient
    is handed to its inputs, so op outputs end with ``grad`` None.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for out, bwd in reversed(_TAPE.nodes):
        if out.grad is not None:
            # every consumer of out ran before its node: the node's inputs
            # take its gradient over, and op outputs keep no .grad
            g, out.grad = out.grad, None
            bwd(g)
    _TAPE.reset()


# ---------------------------------------------------------------------------
# ops


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add of unequal shapes: {a.data.shape} and {b.data.shape}")
    out = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g, copy=b.requires_grad)
        if b.requires_grad:
            _accum(b, g)

    return _make(out, (a, b), bwd)


def scale(a, s):
    s = np.float32(s)
    out = a.data * s

    def bwd(g):
        _accum(a, g * s)

    return _make(out, (a,), bwd)


def matmul(a, b, transpose_b=False):
    """a @ b, or a @ bᵀ (b's last two axes swapped) when ``transpose_b``.

    Equal-rank operands are a batch of matrices with equal leading dims.
    A 2-D b with ``transpose_b`` is a weight [d_out, d_in] (``linear``);
    a higher-rank a times a 2-D b without it is a ``ShapeError``.
    """
    bm = b.data.swapaxes(-1, -2) if transpose_b else b.data
    weight = transpose_b and bm.ndim == 2
    if (a.data.ndim < 2 or bm.ndim < 2 or a.data.shape[-1] != bm.shape[-2]
            or not weight and a.data.shape[:-2] != bm.shape[:-2]):
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {bm.shape}")
    if weight:
        return _linear_node(a, b)
    out = a.data @ bm

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ bm.swapaxes(-1, -2))
        if b.requires_grad:
            _accum(b, g.swapaxes(-1, -2) @ a.data if transpose_b else a.data.swapaxes(-1, -2) @ g)

    return _make(out, (a, b), bwd)


def transpose(a, axes=None):
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = sorted(range(len(axes)), key=axes.__getitem__)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _make(out, (a,), bwd)


def merged_weight(w, a, b):
    """w + b·a of arrays in float32, b·a first, then w added in place: the
    one merged weight, which ``linear`` trains on and ``lora.merge_all``
    writes."""
    out = b @ a
    out += w
    return out


def linear(x, w, ab=None):
    """x·wᵀ for a weight stored [d_out, d_in], or x·(w + b·a)ᵀ with a
    low-rank pair ab = (a [r, d_in], b [d_out, r]) (arXiv 2106.09685):
    every linear layer is one ``_linear_node``, a plain one through
    ``matmul(x, w, transpose_b=True)``."""
    if ab is None:
        return matmul(x, w, transpose_b=True)
    a, b = ab
    (d_out, d_in), r = w.data.shape, a.data.shape[0]
    if x.data.shape[-1:] != (d_in,) or a.data.shape != (r, d_in) or b.data.shape != (d_out, r):
        raise ShapeError(f"linear shape mismatch: {x.data.shape} x ({w.data.shape} + "
                         f"{b.data.shape}·{a.data.shape})ᵀ")
    return _linear_node(x, w, a, b)


def _linear_node(x, w, a=None, b=None):
    """The one weight product, one node: x [..., d_in] as [N, d_in] times
    wᵀ, or times w'ᵀ for w' = ``merged_weight(w, a, b)``, one 2-D GEMM at
    any leading dims. The backward gives dx = g·w', dw = gᵀ·x,
    da = (g·b)ᵀ·x and db = gᵀ·(x·aᵀ), each only for an input that
    requires it; x·aᵀ is kept from the forward only when b trains."""
    d_out, d_in = w.data.shape
    x2 = x.data.reshape(-1, d_in)
    wm = w.data if a is None else merged_weight(w.data, a.data, b.data)
    out = (x2 @ wm.T).reshape(x.data.shape[:-1] + (d_out,))
    u = x2 @ a.data.T if a is not None and _grad_enabled and b.requires_grad else None

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            _accum(x, (g2 @ wm).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, g2.T @ x2)
        if a is not None and a.requires_grad:
            _accum(a, (g2 @ b.data).T @ x2)
        if u is not None:  # b requires a gradient
            _accum(b, g2.T @ u)

    return _make(out, (x, w) if a is None else (x, w, a, b), bwd)


def reshape(a, shape):
    old = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(old))

    return _make(out, (a,), bwd)


def concat(tensors):
    """The tensors stacked along axis 0."""
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors])
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, g[lo:hi])

    return _make(out, tuple(tensors), bwd)


class RowIndex:
    """An int index of any shape into the rows of a [N, ...] stack, -1 at
    holes, with its live entries found once: ``shape``, the index's,
    ``at``, the live entries' flat positions, and ``rows``, their entries.
    ``gather_rows`` takes one or a plain int array; ``attention`` takes
    one per length group of its plan (``model.attention_plan``), built
    once per forward for every block."""

    __slots__ = ("shape", "at", "rows")

    def __init__(self, rows):
        rows = np.asarray(rows)
        flat = rows.reshape(-1)
        self.shape = rows.shape
        self.at = np.flatnonzero(flat >= 0)
        self.rows = flat[self.at]


def _gather(x, idx):
    # [*idx.shape, ...]: row idx.rows[j] of x at flat position idx.at[j], zero elsewhere
    size = math.prod(idx.shape)
    out = (np.empty if idx.at.size == size else np.zeros)((size,) + x.shape[1:], dtype=np.float32)
    out[idx.at] = x[idx.rows]
    return out.reshape(idx.shape + x.shape[1:])


def _put(out, x, idx):
    # out[idx.rows[j]] = entry idx.at[j] of x [*idx.shape, ...], a view or an
    # array, its trailing axes joined into one row; out's other rows keep theirs
    out[idx.rows] = x.reshape((-1,) + out.shape[1:])[idx.at]
    return out


def gather_rows(a, rows):
    """Rows of a [N, ...] tensor picked by an int index of any shape (or
    its ``RowIndex``): out[j] = a[rows[j]], a zero row where rows[j] is -1.
    The picked rows must be distinct; the backward scatters them back.
    The result is a C-ordered array of its own, never a view of a."""
    idx = rows if isinstance(rows, RowIndex) else RowIndex(rows)
    shape = a.data.shape
    new = np.empty if idx.rows.size == shape[0] else np.zeros  # every row written?
    return _make(_gather(a.data, idx), (a,), lambda g: _accum(a, _put(new(shape, dtype=np.float32), g, idx)))


def embedding(table, ids):
    """Row lookup: table[V, d] indexed by an integer array of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accum(table, gt)

    return _make(out, (table,), bwd)


def gelu(a):
    out = kernels.gelu_fwd(a.data)

    def bwd(g):
        _accum(a, kernels.gelu_bwd(a.data, g))

    return _make(out, (a,), bwd)


def swiglu(gate, up):
    """silu(gate) * up, the gated FFN activation (arXiv 2002.05202), as one
    node: one kernel pass forward and one for both gradients."""
    if gate.data.shape != up.data.shape:
        raise ShapeError(f"swiglu: gate {gate.data.shape} and up {up.data.shape}")
    out, sig = kernels.swiglu_fwd(gate.data, up.data)

    def bwd(g):
        dg, du = kernels.swiglu_bwd(gate.data, up.data, sig, g, gate.requires_grad, up.requires_grad)
        if dg is not None:
            _accum(gate, dg)
        if du is not None:
            _accum(up, du)

    return _make(out, (gate, up), bwd)


def rms_norm(a, gain, eps=RMS_EPS):
    """y = x / sqrt(mean(x^2) + eps) * gain, per trailing vector."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeError(f"rms_norm gain shape {gain.data.shape} != ({d},)")
    y, inv = kernels.rmsnorm_fwd(a.data, gain.data, float(eps))

    def bwd(g):
        if a.requires_grad:
            _accum(a, kernels.rmsnorm_bwd(a.data, gain.data, inv, g))
        if gain.requires_grad:
            _accum(gain, kernels.rmsnorm_gain_bwd(a.data, inv, g))

    return _make(y, (a, gain), bwd)


@functools.cache
def _halves_swapped(d, n_heads):
    # column order of [N, d] rows with each head's two halves exchanged
    return np.arange(d).reshape(n_heads, 2, -1)[:, ::-1].reshape(-1)


def _turn(x, cos, sin, n_heads, back):
    # x·cos plus x with each head's halves swapped times sin (forward), or
    # the adjoint, (x·sin) with the halves swapped (back): one gather each
    swap = _halves_swapped(x.shape[1], n_heads)
    return (x * sin).take(swap, axis=1) + x * cos if back else x.take(swap, axis=1) * sin + x * cos


def attention(q, k, v, plan, n_heads, rope=None):
    """Multi-head scaled dot-product attention of flat [N, d] projections
    as one node, run only over the length groups of ``plan``
    (``model.attention_plan``): a list of (``RowIndex`` [G, S_g] of each
    group's positions into the N rows, -1 at holes, additive mask
    [G, S_g, S_g] or [1, S_g, S_g]). Every query row lies in at most one
    group; a row in none gets a zero context.

    rope: per-row (cos, sin) tables [N, d] of q and of k
    (``model.rope_qk_tables``), each head's halves turned as in
    arXiv 2104.09864: x·cos plus x with each head's halves swapped times
    sin. q's tables carry the 1/√hd score scale; without rope q is scaled
    by it. Per group, q, k and v are gathered once as rows [G, S_g, d],
    whose heads are views [G, heads, S_g, hd], the scores q·kᵀ and the
    context p·v are ``matmul`` of constant Tensors (no node of their own)
    and the softmax runs under the group's mask; the live context rows are
    put into one [N, d] output. The node keeps each group's index, q, k, v
    and probabilities, never its scores; its backward runs the same groups
    by hand, puts their gradient rows likewise and gives only the inputs
    that require one their gradient.
    """
    shape = q.data.shape
    if (len(shape) != 2 or shape[1] % n_heads or k.data.shape != shape or v.data.shape != shape
            or rope is not None and (shape[1] // n_heads % 2 or any(t.shape != shape for pair in rope for t in pair))):
        raise ShapeError(f"attention: q {q.data.shape}, k {k.data.shape}, v {v.data.shape} in {n_heads} heads"
                         + ("" if rope is None else f" with tables {[t.shape for pair in rope for t in pair]}"))
    n, d = shape
    scale_q = np.float32(1.0 / math.sqrt(d // n_heads))

    def turn(x, which, back):  # rope on q (0) or k (1), or its adjoint; else q's scale
        if rope is None:
            return x * scale_q if which == 0 else x
        return _turn(x, *rope[which], n_heads, back)

    def heads(x):  # a view [G, heads, S_g, hd] of a group's rows [G, S_g, d]
        return x.reshape(x.shape[:2] + (n_heads, -1)).swapaxes(1, 2)

    qr, kr = turn(q.data, 0, False), turn(k.data, 1, False)
    keep = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    new = np.empty if sum(idx.rows.size for idx, _ in plan) == n else np.zeros  # every row written?
    out = new((n, d), dtype=np.float32)
    saved = []
    for idx, mask in plan:
        qg, kg, vg = (heads(_gather(x, idx)) for x in (qr, kr, v.data))
        probs = kernels.softmax_fwd(matmul(constant(qg), constant(kg), transpose_b=True).data,
                                    mask[:, None])  # one mask for every head
        _put(out, matmul(constant(probs), constant(vg)).data.swapaxes(1, 2), idx)
        if keep:
            saved.append((idx, qg, kg, vg, probs))

    def bwd(g):
        dq, dk, dv = (new((n, d), dtype=np.float32) if t.requires_grad else None for t in (q, k, v))
        for idx, qg, kg, vg, probs in saved:
            gg = heads(_gather(g, idx))  # zero at holes
            if dv is not None:
                _put(dv, (probs.swapaxes(-1, -2) @ gg).swapaxes(1, 2), idx)
            if dq is not None or dk is not None:
                ds = kernels.softmax_bwd(probs, gg @ vg.swapaxes(-1, -2))
                if dq is not None:
                    _put(dq, (ds @ kg).swapaxes(1, 2), idx)
                if dk is not None:
                    _put(dk, (ds.swapaxes(-1, -2) @ qg).swapaxes(1, 2), idx)
        for which, (t, grad) in enumerate(((q, dq), (k, dk))):
            if grad is not None:
                _accum(t, turn(grad, which, True))
        if dv is not None:
            _accum(v, dv)

    return _make(out, (q, k, v), bwd)


def cross_entropy(logits, targets, n=None):
    """Sum over all t rows of the negative log-softmax probability of
    the row's target, divided by n (default t: the mean).

    logits: [t, V] with t >= 1; targets: int ids in [0, V). A caller that
    supervises only some rows computes only those (``trainer.compute_losses``),
    and a shard of a batch divides by the batch's row count.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [t, V] logits, got {logits.data.shape}")
    t, v = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (t,):
        raise ShapeError(f"targets shape {targets.shape} != ({t},)")
    if t == 0:
        raise ValueError("cross_entropy of zero rows")
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError(f"target id out of range [0, {v})")
    nll, probs = kernels.ce_fwd(logits.data, targets)
    n = t if n is None else n
    loss = np.float32(nll.sum(dtype=np.float64) / n)

    def bwd(g):
        _accum(logits, kernels.ce_bwd(probs, targets, float(g) / n))

    return _make(np.asarray(loss), (logits,), bwd)


def cosine_loss(p, v, weights):
    """Σᵢ wᵢ·(1 − cos(pᵢ, vᵢ)) over the rows of p [..., d] against a constant
    array v of p's shape, weights of p's leading shape: one node, float32
    throughout. A zero row on either side is a ValueError."""
    v, w = np.asarray(v, dtype=np.float32), np.asarray(weights, dtype=np.float32)
    if v.shape != p.data.shape or w.shape != v.shape[:-1]:
        raise ShapeError(f"cosine_loss: p {p.data.shape}, v {v.shape}, weights {w.shape}")
    x = p.data
    dots, pn, vn = ((a * b).sum(axis=-1, dtype=np.float32) for a, b in ((x, v), (x, x), (v, v)))
    if float(pn.min()) <= 0.0 or float(vn.min()) <= 0.0:
        raise ValueError("zero-norm vector: cosine undefined")
    pv = pn * vn
    inv = pv ** np.float32(-0.5)
    loss = ((np.float32(1.0) - dots * inv) * w).sum(dtype=np.float32)

    def bwd(g):
        gc = -(g * w)  # d/dcos of each row
        dx = (gc * dots * np.float32(-0.5) * pv ** np.float32(-1.5) * vn)[..., None] * x  # through p·p
        dx += dx  # once per operand of p·p
        dx += (gc * inv)[..., None] * v
        _accum(p, dx)

    return _make(np.asarray(loss), (p,), bwd)


def tsum(a, axis=None):
    out = a.data.sum(axis=axis, dtype=np.float32)

    def bwd(g):
        _accum(a, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape))

    return _make(np.asarray(out), (a,), bwd)
