"""Dense float32 tensors with reverse-mode autodiff on an eager tape.

The op set is exactly what the model stack needs: elementwise add of
equal shapes, scalar scale, (batched) matmul, transpose, reshape,
concat along axis 0, row gather/scatter by an index with -1 holes
(head-major for attention; a gather is the one row selection),
embedding lookup, GELU, the fused SwiGLU gate (``swiglu``; there is no
separate SiLU op),
RMS-norm, rotary positions on flat rows (``rope``), masked row softmax,
cross entropy, the weighted cosine loss of distillation (``cosine_loss``)
and sum. No op broadcasts its tensor operands: unequal shapes are a
``ShapeError``. ``linear`` (x·wᵀ) is every linear layer: one tape node,
one 2-D GEMM forward and one per operand gradient, whatever the leading
dims of x. With an adapter pair (a, b) it is x·(w + b·a)ᵀ, still one
node and, when it trains, one GEMM forward on the merged weight. Heavy
elementwise work is delegated to :mod:`vora.kernels`; matmul goes
straight to BLAS.

Gradients accumulate additively when a tensor feeds several consumers.
A backward computes only the gradients of inputs that require one, so a
frozen weight costs no arithmetic, and a leaf keeps the array its first
gradient arrived in unless that array is strided or shared (``_accum``).
``backward`` walks the tape in reverse recording order and clears it.
"""

import math

import numpy as np

from . import kernels

# Additive-mask sentinel for "disallowed": most-negative finite float32.
NEG_MASK = float(np.finfo(np.float32).min)


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

    A 2-D b multiplies every row of a, whatever its leading dims, in one
    2-D GEMM, and its gradient is one 2-D GEMM too; a higher-rank b is a
    batch of matrices with the same leading dims as a.
    """
    bm = b.data.swapaxes(-1, -2) if transpose_b else b.data
    if (a.data.ndim < 2 or bm.ndim < 2 or a.data.shape[-1] != bm.shape[-2]
            or bm.ndim > 2 and a.data.shape[:-2] != bm.shape[:-2]):
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {bm.shape}")
    if bm.ndim == 2:
        return _matmul_2d(a, b, bm, transpose_b)
    out = a.data @ bm

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ bm.swapaxes(-1, -2))
        if b.requires_grad:
            _accum(b, g.swapaxes(-1, -2) @ a.data if transpose_b else a.data.swapaxes(-1, -2) @ g)

    return _make(out, (a, b), bwd)


def _matmul_2d(a, b, bm, transpose_b):
    # a [..., K] flattened to [N, K]; bm [K, M] is b, or bᵀ when transpose_b
    lead, k = a.data.shape[:-1], a.data.shape[-1]
    a2 = a.data.reshape(-1, k)
    out = (a2 @ bm).reshape(lead + bm.shape[-1:])

    def bwd(g):
        g2 = g.reshape(a2.shape[0], -1)
        if a.requires_grad:
            _accum(a, (g2 @ bm.T).reshape(a.data.shape))
        if b.requires_grad:
            _accum(b, g2.T @ a2 if transpose_b else a2.T @ g2)

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
    """x·wᵀ for a weight stored [d_out, d_in]: one matmul node, one 2-D GEMM.

    ab: a low-rank pair (a [r, d_in], b [d_out, r]). The layer is then
    x·(w + b·a)ᵀ = x·wᵀ + (x·aᵀ)·bᵀ (arXiv 2106.09685), as one node on the
    merged weight w' = w + b·a, built once per call: one 2-D GEMM forward,
    and dx = g·w', dw = gᵀ·x, db = gᵀ·(x·aᵀ) and da = (g·b)ᵀ·x, each only
    for an input that requires it; x·aᵀ is kept from the forward only
    when b needs it. A call that records no node and has fewer rows than
    d_in·d_out / (d_in + d_out), such as a decode step, runs
    x·wᵀ + (x·aᵀ)·bᵀ instead. That path is kept because it measured 3-4%
    faster on unmerged decode (2-CPU host; perfbench eval-decode
    decode_tokens_per_s_unmerged 593 vs 566 tokens/s without it). It
    leaves unmerged decode logits a float32 rounding apart from merged
    ones (at most 2.4e-7 seen, with equal decoded ids).
    """
    if ab is None:
        return matmul(x, w, transpose_b=True)
    a, b = ab
    (d_out, d_in), r = w.data.shape, a.data.shape[0]
    if x.data.shape[-1:] != (d_in,) or a.data.shape != (r, d_in) or b.data.shape != (d_out, r):
        raise ShapeError(f"linear shape mismatch: {x.data.shape} x ({w.data.shape} + "
                         f"{b.data.shape}·{a.data.shape})ᵀ")
    x2 = x.data.reshape(-1, d_in)
    lead = x.data.shape[:-1]
    if x2.shape[0] * (d_in + d_out) < d_in * d_out and not (
            _grad_enabled and any(t.requires_grad for t in (x, w, a, b))):
        return Tensor((x2 @ w.data.T + (x2 @ a.data.T) @ b.data.T).reshape(lead + (d_out,)))
    wm = merged_weight(w.data, a.data, b.data)
    out = (x2 @ wm.T).reshape(lead + (d_out,))
    u = x2 @ a.data.T if _grad_enabled and b.requires_grad else None

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            _accum(x, (g2 @ wm).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, g2.T @ x2)
        if a.requires_grad:
            _accum(a, (g2 @ b.data).T @ x2)
        if b.requires_grad:
            _accum(b, g2.T @ u)

    return _make(out, (x, w, a, b), bwd)


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
    holes, with its live entries found once: ``at``, their flat positions,
    ``rows``, their entries, and for a [B, S] index ``cells``, their
    (sequence, position) pairs. ``gather_rows`` and ``scatter_rows`` take
    one or a plain int array; a caller that moves rows by one index many
    times (attention, in every block) builds it once."""

    __slots__ = ("shape", "at", "rows", "cells")

    def __init__(self, rows):
        rows = np.asarray(rows)
        flat = rows.reshape(-1)
        self.shape = rows.shape
        self.at = np.flatnonzero(flat >= 0)
        self.rows = flat[self.at]
        self.cells = np.divmod(self.at, rows.shape[1]) if rows.ndim == 2 else None


def _gather(x, idx, heads):
    # [*idx.shape, ...]: row idx.rows[j] of x at flat position idx.at[j], zero
    # elsewhere; heads: x is [N, d], out [B, heads, S, d/heads]
    size = math.prod(idx.shape)
    new = np.empty if idx.at.size == size else np.zeros  # no holes: every entry is written
    if heads:
        b, s = idx.shape
        hd = x.shape[1] // heads
        out = new((b, heads, s, hd), dtype=np.float32)
        out.transpose(0, 2, 1, 3)[idx.cells] = x[idx.rows].reshape(-1, heads, hd)
        return out
    out = new((size,) + x.shape[1:], dtype=np.float32)
    out[idx.at] = x[idx.rows]
    return out.reshape(idx.shape + x.shape[1:])


def _scatter(x, n, idx, heads):
    # [n, ...]: flat entry idx.at[j] of x (the index's axes flattened) at row
    # idx.rows[j], zero elsewhere; heads: x is [B, heads, S, hd], out [n, heads * hd]
    if heads:
        picked = x.transpose(0, 2, 1, 3)[idx.cells].reshape(idx.at.size, heads * x.shape[3])
    else:
        picked = x.reshape((-1,) + x.shape[len(idx.shape):])[idx.at]
    out = (np.empty if idx.rows.size == n else np.zeros)((n,) + picked.shape[1:], dtype=np.float32)
    out[idx.rows] = picked
    return out


def gather_rows(a, rows, heads=0):
    """Rows of a [N, ...] tensor picked by an int index of any shape (or
    its ``RowIndex``): out[j] = a[rows[j]], a zero row where rows[j] is -1.
    The picked rows must be distinct; ``scatter_rows`` is the backward.
    heads: a is [N, d], the rows of that many heads, and rows is [B, S];
    the picked rows land head-major, [B, heads, S, d/heads], as attention
    takes them."""
    idx = rows if isinstance(rows, RowIndex) else RowIndex(rows)
    if heads and (idx.cells is None or a.data.ndim != 2 or a.data.shape[1] % heads):
        raise ShapeError(f"gather_rows: {a.data.shape} in {heads} heads by rows {idx.shape}")
    n = a.data.shape[0]
    return _make(_gather(a.data, idx, heads), (a,), lambda g: _accum(a, _scatter(g, n, idx, heads)))


def scatter_rows(a, rows, n, heads=0):
    """The adjoint of ``gather_rows``: [n, ...] rows from a [*rows.shape, ...]
    tensor, out[rows[j]] = a[j] for every rows[j] >= 0 (distinct), zero
    rows where no entry points; entries at -1 are dropped.
    heads: a is head-major [B, heads, S, hd] and rows [B, S]; the rows
    come out [n, heads * hd]."""
    idx = rows if isinstance(rows, RowIndex) else RowIndex(rows)
    if heads and (idx.cells is None or a.data.shape[:3:2] != idx.shape or a.data.shape[1] != heads):
        raise ShapeError(f"scatter_rows: {a.data.shape} in {heads} heads by rows {idx.shape}")
    return _make(_scatter(a.data, n, idx, heads), (a,), lambda g: _accum(a, _gather(g, idx, heads)))


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


def rms_norm(a, gain, eps=1e-6):
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


def _turn(x, cos, sin, n_heads, back):
    # x·cos plus x with each head's halves swapped times sin (forward), or
    # the adjoint, (x·sin) with the halves swapped (back)
    n, d = x.shape
    out = np.empty((n, d), dtype=np.float32)
    xv, sv, ov = (t.reshape(n, n_heads, 2, -1) for t in (x, sin, out))
    for i in (0, 1):
        np.multiply(xv[:, :, 1 - i], sv[:, :, 1 - i if back else i], out=ov[:, :, i])
    out += x * cos
    return out


def rope(x, cos, sin, n_heads):
    """Rotary positions (arXiv 2104.09864) on [N, d] rows of n_heads heads:
    each head's (i, i + hd/2) pair turns by its row's angle.

    cos and sin are full-width per-row tables [N, d] (see
    ``model.rope_row_tables``): cos repeats over both halves of every
    head and sin is negated on the first half, so out = x·cos + x'·sin
    with x' each head's halves swapped. Tables scaled by a constant scale
    the output."""
    if x.data.ndim != 2 or x.data.shape[1] % (2 * n_heads) or not cos.shape == sin.shape == x.data.shape:
        raise ShapeError(f"rope: {x.data.shape} in {n_heads} heads with tables {cos.shape}, {sin.shape}")
    out = _turn(x.data, cos, sin, n_heads, False)
    return _make(out, (x,), lambda g: _accum(x, _turn(g, cos, sin, n_heads, True)))


def softmax_rows(a, additive_mask):
    """Softmax over the last axis with an additive 0 / NEG_MASK mask array.

    The mask broadcasts against ``a``; masked entries come out exactly 0,
    each row sums to 1 over the rest, and a fully masked row is an error.
    """
    if np.any((additive_mask < 0.0).all(axis=-1)):
        raise ValueError("row fully masked")
    probs = kernels.softmax_fwd(a.data, additive_mask)

    def bwd(g):
        _accum(a, kernels.softmax_bwd(probs, g))

    return _make(probs, (a,), bwd)


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
