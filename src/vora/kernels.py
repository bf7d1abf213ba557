"""Hot numeric kernels, vectorized numpy.

The tape ops in ``tensor`` call these for the row reductions and
elementwise transcendentals of the model (masked softmax, RMS-norm,
GELU/SiLU, cross-entropy); ``trainer.adamw_step`` calls ``adamw_update``
once per trainable tensor. Kernels take float32 arrays of any shape and
layout, as the tape holds them, and return float32; every reduction runs
over the last axis with ``keepdims``. Matmuls go straight to numpy/BLAS.
"""

import numpy as np

# numpy is the only kernel path; run directories record this flag
USE_NUMBA = False

# GELU tanh approximation constants
_GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_K1 = 0.044715


def softmax_fwd(x, mask):
    # exp underflows to exactly 0 at NEG_MASK, the one masked value: masked
    # entries need no zeroing pass
    z = x + mask
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_bwd(probs, gout):
    dot = np.sum(probs * gout, axis=-1, keepdims=True)
    return probs * (gout - dot)


def gelu_fwd(x):
    inner = _GELU_K0 * (x + _GELU_K1 * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_bwd(x, gout):
    inner = _GELU_K0 * (x + _GELU_K1 * x * x * x)
    t = np.tanh(inner)
    dinner = _GELU_K0 * (1.0 + 3.0 * _GELU_K1 * x * x)
    dydx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return gout * dydx


def silu_fwd(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def silu_bwd(x, gout):
    s = 1.0 / (1.0 + np.exp(-x))
    return gout * (s * (1.0 + x * (1.0 - s)))


def rmsnorm_fwd(x, gain, eps):
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * inv * gain, inv


def rmsnorm_bwd(x, gain, inv, gout):
    d = x.shape[-1]
    gy_g = gout * gain
    dot = np.sum(gy_g * x, axis=-1, keepdims=True)
    return gy_g * inv - x * (dot * inv**3 / d)


def rmsnorm_gain_bwd(x, inv, gout):
    return np.sum(gout * x * inv, axis=tuple(range(x.ndim - 1)))


def ce_fwd(logits, targets):
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=-1, keepdims=True)
    probs = e / z
    lse = (np.log(z) + m)[:, 0]
    nll = lse - logits[np.arange(logits.shape[0]), targets]
    return nll, probs


def ce_bwd(probs, targets, scale):
    g = probs * scale
    g[np.arange(probs.shape[0]), targets] -= scale
    return g


def adamw_update(p, g, m, v, lr, b1, b2, eps, wd, bc1, bc2):
    """In-place AdamW on same-shape float32 arrays: moments m, v and the weights p."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    p -= lr * update + lr * wd * p
