"""The reference attention of the tests: multi-head attention as nine tape
nodes on the padded [B, S] grid, the form ``vora.tensor.attention``
replaced. q and k are rotated as rows (``rope``), q, k and v are gathered
head-major into [B, heads, S, hd] (``gather_heads``), the scores are
``T.matmul`` q·kᵀ (scaled by 1/√hd only without rope), ``softmax_rows``
runs under the whole [B, S, S] mask, and the context p·v is scattered
straight back to [N, d] (``scatter_heads``). The ops are built here on the
tape's own recorder, each with its own backward, and share no code with
the op they check but ``T.matmul``, ``T.scale`` and the softmax kernels.
"""

import numpy as np

import vora.tensor as T
from vora import kernels


def _halves_swapped(x):
    # [N, heads, hd] with each head's two halves exchanged
    a, b = np.split(x, 2, axis=-1)
    return np.concatenate([b, a], axis=-1)


def rope(x, cos, sin, n_heads):
    """Rotary positions on [N, d] rows of n_heads heads: out = x·cos + x'·sin,
    x' each head's halves swapped, for full-width tables [N, d]
    (``model.rope_qk_tables``); the backward is the adjoint, (g·sin)'
    plus g·cos."""
    n, d = x.data.shape
    if d % (2 * n_heads) or not cos.shape == sin.shape == (n, d):
        raise T.ShapeError(f"rope: {x.data.shape} in {n_heads} heads with tables {cos.shape}, {sin.shape}")

    def swap(a):
        return _halves_swapped(a.reshape(n, n_heads, -1)).reshape(n, d)

    out = swap(x.data) * sin + x.data * cos
    return T._make(out, (x,), lambda g: T._accum(x, swap(g * sin) + g * cos))


def gather_heads(a, rows, n_heads):
    """[B, heads, S, hd] rows of a [N, d] tensor by a [B, S] index, zero at -1."""
    rows = np.asarray(rows)
    b, s = rows.shape
    n, d = a.data.shape
    if d % n_heads:
        raise T.ShapeError(f"gather_heads: {a.data.shape} in {n_heads} heads")
    live = rows >= 0

    def pick(x):
        out = np.zeros((b, s, d), dtype=np.float32)
        out[live] = x[rows[live]]
        return np.ascontiguousarray(out.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3))

    def put(g):
        out = np.zeros((n, d), dtype=np.float32)
        out[rows[live]] = g.transpose(0, 2, 1, 3).reshape(b, s, d)[live]
        return out

    return T._make(pick(a.data), (a,), lambda g: T._accum(a, put(g)))


def scatter_heads(a, rows, n):
    """The adjoint of ``gather_heads``: [n, d] rows from head-major
    [B, heads, S, hd], out[rows[j]] = a[j] joined over heads; entries at -1
    are dropped, rows no entry points at are zero."""
    rows = np.asarray(rows)
    b, heads, s, hd = a.data.shape
    if rows.shape != (b, s):
        raise T.ShapeError(f"scatter_heads: {a.data.shape} by rows {rows.shape}")
    live = rows >= 0

    def put(x):
        out = np.zeros((n, heads * hd), dtype=np.float32)
        out[rows[live]] = x.transpose(0, 2, 1, 3).reshape(b, s, heads * hd)[live]
        return out

    def pick(g):
        out = np.zeros((b, s, heads * hd), dtype=np.float32)
        out[live] = g[rows[live]]
        return np.ascontiguousarray(out.reshape(b, s, heads, hd).transpose(0, 2, 1, 3))

    return T._make(put(a.data), (a,), lambda g: T._accum(a, pick(g)))


def softmax_rows(a, additive_mask):
    """Softmax over the last axis with an additive 0 / NEG_MASK mask array
    that broadcasts against a; a fully masked row is a ValueError."""
    if np.any((additive_mask < 0.0).all(axis=-1)):
        raise ValueError("row fully masked")
    probs = kernels.softmax_fwd(a.data, additive_mask)
    return T._make(probs, (a,), lambda g: T._accum(a, kernels.softmax_bwd(probs, g)))


def attention(q, k, v, mask, n_heads, rows, rope_tables=None):
    """Nine-node attention of flat [N, d] projections on the padded grid of
    rows [B, S] under the whole mask [B, S, S]; rope_tables as
    ``T.attention``'s rope."""
    n, d = q.data.shape
    if rope_tables is not None:
        (q_cos, q_sin), (k_cos, k_sin) = rope_tables
        q, k = rope(q, q_cos, q_sin, n_heads), rope(k, k_cos, k_sin, n_heads)
    q, k, v = (gather_heads(t, rows, n_heads) for t in (q, k, v))
    scores = T.matmul(q, k, transpose_b=True)
    if rope_tables is None:
        scores = T.scale(scores, 1.0 / np.sqrt(d // n_heads))
    probs = softmax_rows(scores, np.asarray(mask)[..., None, :, :])  # one mask for every head
    return scatter_heads(T.matmul(probs, v), rows, n)
