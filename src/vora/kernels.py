"""Hot numeric kernels, vectorized numpy.

The tape ops in ``tensor`` call these for the row reductions and
elementwise transcendentals of the model (masked softmax, RMS-norm,
GELU, the fused SwiGLU gate, cross-entropy); ``trainer.adamw_step``
calls ``adamw_update`` once per decay class, on slices of the trainable
set's flat arenas. Kernels take float32 arrays of any shape and layout,
as the tape holds them, and return float32; every reduction runs over
the last axis with ``keepdims``. A kernel writes its temporaries in
place where it can, so a pass allocates little beyond its outputs.
Matmuls go straight to numpy/BLAS.
"""

import numpy as np

# numpy is the only kernel path; run directories record this flag
USE_NUMBA = False

# GELU tanh approximation constants
_GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_K1 = 0.044715


def softmax_fwd(x, mask):
    """Row softmax of x + mask. exp underflows to exactly 0 at NEG_MASK, the
    one masked value, so masked entries need no zeroing pass. mask None
    masks nothing, with the bits of a zero mask: x + 0 only turns -0.0
    into +0.0, and exp takes either zero to 1. Only a cached decode's
    one-row step, whose query sees every key, passes None."""
    if mask is None:
        z = x - x.max(axis=-1, keepdims=True)
    else:
        z = x + mask
        z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_bwd(probs, gout):
    g = probs * gout
    dot = g.sum(axis=-1, keepdims=True)
    np.subtract(gout, dot, out=g)
    g *= probs
    return g


def gelu_fwd(x):
    inner = _GELU_K0 * (x + _GELU_K1 * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_bwd(x, gout):
    inner = _GELU_K0 * (x + _GELU_K1 * x * x * x)
    t = np.tanh(inner)
    dinner = _GELU_K0 * (1.0 + 3.0 * _GELU_K1 * x * x)
    dydx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return gout * dydx


# no tape op calls silu_fwd/silu_bwd (``swiglu_*`` computes SiLU inside the
# gate); they stay because perfbench's tracer patches them by name
def silu_fwd(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def silu_bwd(x, gout):
    s = 1.0 / (1.0 + np.exp(-x))
    return gout * (s * (1.0 + x * (1.0 - s)))


def swiglu_fwd(gate, up):
    """(silu(gate) * up, sigmoid(gate)); the sigmoid is kept for ``swiglu_bwd``."""
    sig = np.negative(gate)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    out = gate * sig
    out *= up
    return out, sig


def swiglu_bwd(gate, up, sig, gout, d_gate=True, d_up=True):
    """(gradient of gate, gradient of up) of silu(gate) * up from its
    forward's sigmoid; None for a gradient not asked for."""
    dg = du = t = None
    if d_gate:
        dg = gout * up
        t = 1.0 - sig
        t *= gate
        t += 1.0
        t *= sig  # silu'(gate) = sig * (1 + gate * (1 - sig))
        dg *= t
    if d_up:
        du = np.multiply(gate, sig, out=t)
        du *= gout
    return dg, du


def rmsnorm_fwd(x, gain, eps):
    y = np.multiply(x, x)
    ms = y.sum(axis=-1, keepdims=True)
    ms /= x.shape[-1]
    ms += eps
    np.sqrt(ms, out=ms)
    inv = np.divide(1.0, ms, out=ms)
    np.multiply(x, inv, out=y)
    y *= gain
    return y, inv


def rmsnorm_bwd(x, gain, inv, gout):
    gx = gout * gain
    t = gx * x
    dot = t.sum(axis=-1, keepdims=True)
    np.multiply(x, dot * inv**3 / x.shape[-1], out=t)
    gx *= inv
    gx -= t
    return gx


def rmsnorm_gain_bwd(x, inv, gout):
    t = gout * x
    t *= inv
    return t.sum(axis=tuple(range(x.ndim - 1)))


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


def adamw_update(p, g, m, v, lr, b1, b2, eps, wd, bc1, bc2, scratch):
    """In-place AdamW on same-shape float32 arrays (moments m, v, weights p)
    that allocates nothing: it overwrites g and keeps its temporaries in
    ``scratch``. Its float32 operations, in order, are those of ``m = b1 m +
    (1-b1) g; v = b2 v + (1-b2) g g; p -= lr (m/bc1)/(sqrt(v/bc2)+eps) + lr wd p``."""
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=scratch)
    v *= b2
    v += np.multiply(np.multiply(g, 1.0 - b2, out=scratch), g, out=scratch)
    np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
    scratch += eps
    np.divide(np.divide(m, bc1, out=g), scratch, out=g)
    g *= lr
    g += np.multiply(p, lr * wd, out=scratch)
    p -= g
