"""Finite-difference verification of every autodiff op (tolerance 1e-3)."""

import inspect

import numpy as np

import vora.tensor as T
from vora.gradcheck import max_rel_error, op_suite

ALL_OPS = {
    "add", "mul", "scale", "matmul", "linear", "adapted_linear", "transpose", "reshape", "concat",
    "gather_rows", "scatter_rows", "embedding", "gelu", "swiglu", "rms_norm", "rope", "softmax_rows",
    "cross_entropy", "tsum", "power",
}


def test_op_suite_passes():
    results = op_suite(seed=0, trials=50)
    assert {name for name, _, _ in results} == ALL_OPS
    failures = [(name, err) for name, err, ok in results if not ok]
    assert not failures, f"finite-difference failures: {failures}"


def test_composite_chain():
    # a random composite of several ops, dims <= 8
    rng = np.random.default_rng(42)
    x = T.param(rng.standard_normal((4, 6)).astype(np.float32))
    w = T.param(rng.standard_normal((6, 6)).astype(np.float32))
    gain = T.param(np.ones(6, dtype=np.float32))
    mask = np.zeros((4, 6), dtype=np.float32)
    mask[:, 5] = T.NEG_MASK

    def fn():
        h = T.rms_norm(T.matmul(x, w), gain, eps=1e-5)
        p = T.softmax_rows(h, mask)
        return T.tsum(T.swiglu(h, T.gelu(p)))  # silu(h) * gelu(p)

    assert max_rel_error(fn, [x, w, gain]) <= 1e-3


def test_op_suite_covers_exactly_the_tape_ops():
    # a tape op is a function of vora.tensor that records a node through
    # _make; linear with an adapter pair is its own case, adapted_linear
    records = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__ and "_make" in fn.__code__.co_names}
    ops = {name for name in records if not name.startswith("_")}
    # a private recorder (_matmul_2d) is a form of the public op that calls it
    for helper in records - ops:
        assert any(helper in getattr(T, op).__code__.co_names for op in ops), helper
    names = [name for name, _, _ in op_suite(seed=0, trials=1)]
    assert len(names) == len(set(names))
    assert set(names) == ops | {"adapted_linear"}
