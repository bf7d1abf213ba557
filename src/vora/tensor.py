"""Dense float32 tensors with reverse-mode autodiff on an eager tape.

The op set is exactly what the model stack needs: elementwise add/mul,
scalar scale, (batched) matmul, transpose/reshape/concat/slice, embedding
lookup, GELU/SiLU, RMS-norm, masked row softmax, cross entropy, sum and
elementwise power; ``linear`` (x·wᵀ) is every linear layer. Heavy
elementwise work is delegated to :mod:`vora.kernels`; matmul goes
straight to BLAS.

Gradients accumulate additively when a tensor feeds several consumers.
``backward`` walks the tape in reverse recording order and clears it.
"""

import numpy as np

from . import kernels

# Additive-mask sentinel for "disallowed": most-negative finite float32.
NEG_MASK = float(np.finfo(np.float32).min)


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float32)  # a float32 array is kept as it is
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # light operator sugar; every path funnels into the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def param(data, name=None):
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


# ---------------------------------------------------------------------------
# tape

_grad_enabled = True


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


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # the one place a gradient's layout is set: a C-ordered float32 copy
        t.grad = np.array(g, dtype=np.float32, order="C")
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient over broadcast dimensions back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss):
    """Populate ``grad`` on every requires_grad tensor reachable from loss.

    ``loss`` must be a scalar produced through recorded ops. The tape is
    consumed: it is cleared after the walk.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for out, bwd in reversed(_TAPE.nodes):
        if out.grad is not None:
            bwd(out.grad)
    _TAPE.reset()


# ---------------------------------------------------------------------------
# ops


def add(a, b):
    out = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bwd)


def mul(a, b):
    out = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def scale(a, s):
    s = np.float32(s)
    out = a.data * s

    def bwd(g):
        _accum(a, g * s)

    return _make(out, (a,), bwd)


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

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


def linear(x, w):
    """x·wᵀ for a weight stored [d_out, d_in]: records transpose, then matmul."""
    return matmul(x, transpose(w))


def swap(a, ax0, ax1):
    axes = list(range(a.data.ndim))
    axes[ax0], axes[ax1] = axes[ax1], axes[ax0]
    return transpose(a, axes)


def reshape(a, shape):
    old = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(old))

    return _make(out, (a,), bwd)


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(out, tuple(tensors), bwd)


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def bwd(g):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _make(out, (a,), bwd)


def embedding(table, ids):
    """Row lookup: table[V, d] indexed by an integer array of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def bwd(g):
        if not table.requires_grad:
            return
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accum(table, gt)

    return _make(out, (table,), bwd)


def gelu(a):
    out = kernels.gelu_fwd(a.data)

    def bwd(g):
        _accum(a, kernels.gelu_bwd(a.data, g))

    return _make(out, (a,), bwd)


def silu(a):
    out = kernels.silu_fwd(a.data)

    def bwd(g):
        _accum(a, kernels.silu_bwd(a.data, g))

    return _make(out, (a,), bwd)


def rms_norm(a, gain, eps=1e-6):
    """y = x / sqrt(mean(x^2) + eps) * gain, per trailing vector."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeError(f"rms_norm gain shape {gain.data.shape} != ({d},)")
    y, inv = kernels.rmsnorm_fwd(a.data, gain.data, float(eps))

    def bwd(g):
        gx, ggain = kernels.rmsnorm_bwd(a.data, gain.data, inv, g)
        _accum(a, gx)
        _accum(gain, ggain)

    return _make(y, (a, gain), bwd)


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


def cross_entropy(logits, targets, ignore_mask=None):
    """Mean negative log-softmax probability over unignored positions.

    logits: [t, V]; targets: int ids in [0, V); ignore_mask: bool[t],
    True = excluded from the mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [t, V] logits, got {logits.data.shape}")
    t, v = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (t,):
        raise ShapeError(f"targets shape {targets.shape} != ({t},)")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range [0, {v})")
    if ignore_mask is None:
        live = np.ones(t, dtype=bool)
    else:
        live = ~np.asarray(ignore_mask, dtype=bool)
    n_live = int(live.sum())
    if n_live == 0:
        raise ValueError("all positions ignored")
    nll, probs = kernels.ce_fwd(logits.data, targets, live)
    loss = np.float32(nll.sum(dtype=np.float64) / n_live)

    def bwd(g):
        _accum(logits, kernels.ce_bwd(probs, targets, live, float(g) / n_live))

    return _make(np.asarray(loss), (logits,), bwd)


def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32)

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(out), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def power(a, p):
    """Elementwise a**p; caller guarantees the domain (used on positives)."""
    out = a.data**np.float32(p)

    def bwd(g):
        _accum(a, g * p * a.data ** np.float32(p - 1))

    return _make(out, (a,), bwd)
