import itertools
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vora.tensor as T
from vora import kernels
from vora.gradcheck import project
from vora.model import attention_mask, attention_plan, rope_qk_tables

import attention_oracle as oracle


def tensor(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float32), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = tensor([[1, 2], [3, 4]])
        eye = tensor(np.eye(2))
        npt.assert_array_equal(T.matmul(a, eye).data, a.data)

    def test_hand_arithmetic(self):
        # [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        a = tensor([[1, 2], [3, 4]])
        b = tensor([[5, 6], [7, 8]])
        npt.assert_array_equal(T.matmul(a, b).data, [[19, 22], [43, 50]])

    def test_zero_annihilates(self):
        z = tensor(np.zeros((2, 3)))
        b = tensor(np.random.default_rng(0).standard_normal((3, 4)))
        npt.assert_array_equal(T.matmul(z, b).data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        a = tensor(np.zeros((2, 3)))
        b = tensor(np.zeros((4, 2)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)


@pytest.mark.parametrize("op, a, b", [
    (T.add, (3, 4), (4,)), (T.add, (3, 4), (1, 4)), (T.add, (2, 3, 4), (1, 3, 4)), (T.add, (4,), (3, 4)),
    (T.matmul, (2, 3, 4), (1, 4, 5)), (T.matmul, (3, 4), (2, 4, 5)), (T.matmul, (2, 2, 3, 4), (2, 4, 5)),
    (T.matmul, (2, 3, 4), (4, 5)),
])
def test_mismatched_shapes_raise_naming_both(op, a, b):
    # no op broadcasts: unequal operand shapes, or unequal batch dims of a
    # matmul, are an error that names both shapes; a 2-D b multiplies a
    # higher-rank a only as a weight, with transpose_b
    with pytest.raises(T.ShapeError, match=re.escape(str(a)) + ".*" + re.escape(str(b))):
        op(tensor(np.ones(a)), tensor(np.ones(b)))


class TestSoftmaxRows:
    """``kernels.softmax_fwd``, the row softmax of every attention, and the
    fully-masked check that ``model.attention_plan`` runs once per forward."""

    def test_uniform_row(self):
        x = np.zeros((1, 3), dtype=np.float32)
        m = np.zeros((1, 3), dtype=np.float32)
        npt.assert_allclose(kernels.softmax_fwd(x, m), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)

    def test_masked_symmetry(self):
        x = np.zeros((1, 3), dtype=np.float32)
        m = np.array([[0.0, T.NEG_MASK, 0.0]], dtype=np.float32)
        out = kernels.softmax_fwd(x, m)
        npt.assert_allclose(out, [[0.5, 0.0, 0.5]], atol=1e-7)
        assert out[0, 1] == 0.0  # exact zero at masked entry

    def test_direct_formula_oracle(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        expected = np.exp(x) / np.exp(x).sum()  # independent exp/sum oracle
        out = kernels.softmax_fwd(x, np.zeros_like(x))
        npt.assert_allclose(out, expected, atol=1e-6)

    def test_rows_sum_to_one_and_masked_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows, cols = rng.integers(1, 8, size=2)
            x = rng.standard_normal((rows, cols)).astype(np.float32)
            mask = np.zeros((rows, cols), dtype=np.float32)
            drop = rng.random((rows, cols)) < 0.4
            drop[:, 0] = False
            mask[drop] = T.NEG_MASK
            out = kernels.softmax_fwd(x, mask)
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
            assert (out[drop] == 0.0).all()
            # masked entries rely on exp underflowing to exactly 0: also at
            # extreme scores, and under a mask broadcast over a leading dim
            for scores in (1e4 * x, rng.standard_normal((2, rows, cols)).astype(np.float32)):
                out = kernels.softmax_fwd(scores, mask)
                npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
                assert (out[..., drop] == 0.0).all()

    def test_no_mask_is_an_all_zero_mask_bit_for_bit(self):
        # the kernel without a mask, as a cached decode's one-row step runs
        # it: x + 0 turns -0.0 into +0.0 and the unmasked kernel skips the
        # add; every zero still leaves exp as 1, so the bits agree
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        x[0, 0] = [-0.0, -0.0, -0.0, -1.0, -2.0, -0.5]  # row max -0.0
        x[0, 1] = [0.0, -0.0, -3.0, 0.0, -0.0, -1.0]  # row max +-0
        x[1, 2, ::2] = -0.0
        unmasked = kernels.softmax_fwd(x, None)
        assert unmasked.tobytes() == kernels.softmax_fwd(x, np.zeros(x.shape[-2:], dtype=np.float32)).tobytes()
        npt.assert_allclose(unmasked.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row_errors(self):
        mask = np.zeros((1, 2, 2), dtype=np.float32)
        mask[0, 1, :] = T.NEG_MASK
        with pytest.raises(ValueError, match="fully masked"):
            attention_plan(np.arange(2)[None], mask)


class TestRmsNorm:
    def test_unit_rms_input(self):
        x = tensor([1.0, 1.0, 1.0, 1.0])
        gain = tensor(np.ones(4))
        npt.assert_allclose(T.rms_norm(x, gain, eps=0.0).data, np.ones(4), atol=1e-7)

    def test_scale_invariance(self):
        x = tensor([2.0, 2.0])
        gain = tensor(np.ones(2))
        npt.assert_allclose(T.rms_norm(x, gain, eps=0.0).data, np.ones(2), atol=1e-7)

    def test_direct_formula_oracle(self):
        x = np.array([3.0, 4.0], dtype=np.float32)
        eps = 1e-6
        expected = x / np.sqrt((x**2).mean() + eps)
        out = T.rms_norm(tensor(x), tensor(np.ones(2)), eps=eps).data
        npt.assert_allclose(out, expected, atol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = tensor(np.zeros((3, 8)))
        loss = T.cross_entropy(logits, [0, 5, 7])
        npt.assert_allclose(float(loss.data), math.log(8), atol=1e-6)

    def test_saturated_correct(self):
        logits = np.zeros((2, 5), dtype=np.float32)
        logits[0, 2] = 1e4
        logits[1, 4] = 1e4
        loss = T.cross_entropy(tensor(logits), [2, 4])
        assert float(loss.data) < 1e-5

    def test_logsumexp_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 5)).astype(np.float32)
        targets = np.array([1, 0, 4])
        m = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
        expected = (lse - logits[np.arange(3), targets]).mean()
        loss = T.cross_entropy(tensor(logits), targets)
        npt.assert_allclose(float(loss.data), expected, atol=1e-5)

    def test_zero_rows_errors(self):
        # a mean over no rows is undefined
        logits = tensor(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="zero rows"):
            T.cross_entropy(logits, np.zeros(0, dtype=np.int64))


class TestBackward:
    def test_sum_gives_ones(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(T.tsum(x))
        npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_non_scalar_errors(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = T.scale(x, 2.0)
        with pytest.raises(T.ShapeError):
            T.backward(y)

    def test_accumulation_sums_branches(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = T.add(T.scale(x, 3.0), T.scale(x, 4.0))
        T.backward(T.tsum(y))
        npt.assert_allclose(x.grad, [7.0, 7.0])

        # each branch alone contributes its own share
        x.grad = None
        T.backward(T.tsum(T.scale(x, 3.0)))
        npt.assert_allclose(x.grad, [3.0, 3.0])

    def test_unreachable_grad_absent(self):
        x = tensor([1.0], requires_grad=True)
        z = tensor([1.0], requires_grad=True)
        T.backward(T.tsum(T.scale(x, 2.0)))
        assert z.grad is None

    def test_no_grad_blocks_recording(self):
        x = tensor([2.0], requires_grad=True)
        with T.no_grad():
            y = T.scale(x, 3.0)
        assert not y.requires_grad


def test_determinism_bit_identical():
    def build(seed):
        rng = np.random.default_rng(seed)
        a = tensor(rng.standard_normal((4, 4)))
        b = tensor(rng.standard_normal((4, 4)))
        plan = attention_plan(np.arange(4)[None], np.zeros((4, 4), dtype=np.float32))
        out = T.attention(T.matmul(T.gelu(a), b), a, b, plan, 2)
        return out.data.tobytes()

    assert build(123) == build(123)


def test_embedding_lookup_and_grad():
    table = tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    out = T.embedding(table, [1, 1, 3])
    npt.assert_array_equal(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    T.backward(T.tsum(out))
    expected = np.zeros((4, 3), dtype=np.float32)
    expected[1] = 2.0
    expected[3] = 1.0
    npt.assert_array_equal(table.grad, expected)


def test_concat_and_slice_roundtrip():
    a = tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = tensor(np.arange(6, 12, dtype=np.float32).reshape(2, 3))
    cat = T.concat([a, b])
    npt.assert_array_equal(cat.data, np.concatenate([a.data, b.data]))
    # a run of rows is sliced out by gather_rows
    npt.assert_array_equal(T.gather_rows(cat, np.arange(2)).data, a.data)
    npt.assert_array_equal(T.gather_rows(cat, np.arange(2, 4)).data, b.data)


def test_gather_and_scatter_rows_zero_holes_and_own_their_memory():
    a = tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    rows = np.array([[2, -1], [0, 3]])
    out = T.gather_rows(a, rows)
    npt.assert_array_equal(out.data, [[a.data[2], np.zeros(3)], [a.data[0], a.data[3]]])
    assert not np.shares_memory(out.data, a.data)
    T.backward(T.tsum(T.scale(out, 5.0)))
    npt.assert_array_equal(a.grad, [[5] * 3, [0] * 3, [5] * 3, [5] * 3])  # row 1 is picked by no entry

    # the backward is the scatter: a zero row where no entry points, and
    # the -1 entry drops its gradient
    a.grad = None
    g = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
    out = T.gather_rows(a, rows)
    T.backward(project(out, g))
    npt.assert_array_equal(a.grad, [g[1, 0], np.zeros(3), g[0, 0], g[1, 1]])
    assert not np.shares_memory(a.grad, g)

    # attention gathers rows and reads heads as views of them: on an index
    # with no hole and on one with holes, its output and every gradient are
    # C-ordered float32 arrays of their own, and with one full-width group
    # over the batch, the oracle's bits; also at [1, 1], one row, whose
    # head view is already contiguous
    rng = np.random.default_rng(3)
    h, hd = 2, 2
    indexes = [np.arange(b * s).reshape(b, s) for b, s in ((1, 1), (2, 1), (1, 5), (3, 4))]
    indexes += [np.array([[0, 1, 2, -1], [3, 4, 5, 6], [7, -1, -1, -1]]), np.array([[0, -1, 1], [2, 3, 4]])]
    for rows in indexes:
        b, s = rows.shape
        n = int((rows >= 0).sum())
        pos = np.zeros(n, dtype=np.intp)
        pos[rows[rows >= 0]] = np.nonzero(rows >= 0)[1]
        mask = attention_mask(np.arange(b) % 3, s)
        (idx, _), = plan = attention_plan(rows, mask)
        assert idx.shape == rows.shape
        qkv = [tensor(rng.standard_normal((n, h * hd)), requires_grad=True) for _ in range(3)]
        rope = rope_qk_tables(pos, h, hd)
        r = rng.standard_normal((n, h * hd)).astype(np.float32)
        got, got_grads = _grads(lambda: T.attention(*qkv, plan, h, rope), qkv, r)
        want, want_grads = _grads(lambda: oracle.attention(*qkv, mask, h, rows, rope), qkv, r)
        arrays = [got] + got_grads
        for a, w in zip(arrays, [want] + want_grads):
            assert a.tobytes() == w.tobytes() and a.dtype == np.float32 and a.flags.c_contiguous
            assert not any(np.shares_memory(a, t.data) for t in qkv)
        assert not any(np.shares_memory(a, o) for a, o in itertools.combinations(arrays, 2))


def _grads(make_out, inputs, r):
    """Forward output and each input's gradient of sum(out * r)."""
    for t in inputs:
        t.grad = None
    out = make_out()
    T.backward(project(out, r))
    return out.data, [t.grad for t in inputs]


def _assert_same_op(fused, composed, inputs, r, atol=1e-6):
    out_f, grads_f = _grads(fused, inputs, r)
    out_c, grads_c = _grads(composed, inputs, r)
    npt.assert_allclose(out_f, out_c, rtol=0, atol=atol)
    for t, gf, gc in zip(inputs, grads_f, grads_c):
        assert gf.shape == t.shape
        npt.assert_allclose(gf, gc, rtol=0, atol=atol)


class TestFusedOps:
    """linear (plain and with an adapter pair), rope, swiglu and the test
    oracle's head-major gather and scatter against the compositions they
    replace, at model shapes."""

    def test_linear_matches_matmul_of_transpose(self):
        rng = np.random.default_rng(11)
        for shape in ((16, 34, 64), (34, 64)):
            x = tensor(rng.standard_normal(shape), requires_grad=True)
            w = tensor(0.02 * rng.standard_normal((64, 64)), requires_grad=True)
            r = rng.standard_normal(shape[:-1] + (64,)).astype(np.float32)
            if len(shape) == 2:  # matmul's batched body: a path independent of linear's node
                _assert_same_op(lambda: T.linear(x, w), lambda: T.matmul(x, T.transpose(w)), [x, w], r)
            # and against float64 numpy: y = x·wᵀ, dx = r·w, dw = Σ rᵀ·x
            out, (gx, gw) = _grads(lambda: T.linear(x, w), [x, w], r)
            x64, w64, r64 = (v.astype(np.float64).reshape(-1, 64) for v in (x.data, w.data, r))
            npt.assert_allclose(out.reshape(-1, 64), x64 @ w64.T, rtol=1e-5, atol=1e-6)
            npt.assert_allclose(gx.reshape(-1, 64), r64 @ w64, rtol=1e-5, atol=1e-6)
            npt.assert_allclose(gw, r64.T @ x64, rtol=1e-5, atol=1e-4)

    def test_linear_is_one_node_for_any_leading_dims(self):
        x = tensor(np.ones((2, 3, 4)), requires_grad=True)
        w = tensor(np.ones((5, 4)), requires_grad=True)
        T.active_tape().reset()
        assert T.linear(x, w).shape == (2, 3, 5)
        assert len(T.active_tape().nodes) == 1
        T.active_tape().reset()

    def test_adapted_linear_matches_base_plus_low_rank_composition(self):
        # the oracle is the composition the fused op replaced:
        # x·wᵀ + (x·aᵀ)·bᵀ, four nodes
        rng = np.random.default_rng(15)
        for shape in ((16, 34, 64), (380, 64)):
            for d_out in (64, 256):
                x = tensor(rng.standard_normal(shape), requires_grad=True)
                w, a, b = (tensor(0.02 * rng.standard_normal(s), requires_grad=True)
                           for s in ((d_out, 64), (8, 64), (d_out, 8)))
                r = rng.standard_normal(shape[:-1] + (d_out,)).astype(np.float32)
                T.active_tape().reset()
                T.linear(x, w, (a, b))
                assert len(T.active_tape().nodes) == 1
                T.active_tape().reset()
                out, grads = _grads(lambda: T.linear(x, w, (a, b)), [x, w, a, b], r)
                want, want_grads = _grads(lambda: T.linear(x, w) + T.linear(T.linear(x, a), b), [x, w, a, b], r)
                # dx = g·w' sums the products in another order than g·w + (g·b)·a
                for got, oracle in zip([out] + grads, [want] + want_grads):
                    assert got.shape == oracle.shape
                    npt.assert_allclose(got, oracle, rtol=1e-6, atol=1e-6)

    def test_adapted_linear_forward_only_matches_composition_at_any_row_count(self):
        # without a tape node too, every row count runs one GEMM on the
        # merged weight: x·(w + b·a)ᵀ, bit for bit, and within float32
        # rounding of the low-rank composition x·wᵀ + (x·aᵀ)·bᵀ
        rng = np.random.default_rng(17)
        w, a, b = (tensor(0.02 * rng.standard_normal(s)) for s in ((256, 64), (8, 64), (256, 8)))
        merged = T.merged_weight(w.data, a.data, b.data)
        for n in (1, 8, 51, 52, 380):
            x = tensor(rng.standard_normal((n, 64)), requires_grad=True)
            with T.no_grad():
                got = T.linear(x, w, (a, b))
                want = T.linear(x, w) + T.linear(T.linear(x, a), b)
            assert got.data.tobytes() == (x.data @ merged.T).tobytes(), n
            npt.assert_allclose(got.data, want.data, rtol=1e-6, atol=1e-6)
            assert not got.requires_grad

    def test_adapted_linear_with_zero_b_is_the_plain_linear_bitwise(self):
        rng = np.random.default_rng(16)
        x = tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        w = tensor(rng.standard_normal((6, 8)), requires_grad=True)
        a, b = tensor(rng.standard_normal((2, 8))), tensor(np.zeros((6, 2)))
        r = rng.standard_normal((2, 5, 6)).astype(np.float32)
        out, grads = _grads(lambda: T.linear(x, w, (a, b)), [x, w], r)
        want, want_grads = _grads(lambda: T.linear(x, w), [x, w], r)
        assert out.tobytes() == want.tobytes()
        for g, wg in zip(grads, want_grads):
            assert g.tobytes() == wg.tobytes()

    def test_adapted_linear_rejects_mismatched_shapes(self):
        x, w = tensor(np.zeros((3, 8))), tensor(np.zeros((6, 8)))
        a, b = tensor(np.zeros((2, 8))), tensor(np.zeros((6, 2)))
        T.linear(x, w, (a, b))  # the shapes that fit
        for bad in ((tensor(np.zeros((3, 5))), w, a, b), (x, w, tensor(np.zeros((2, 7))), b),
                    (x, w, a, tensor(np.zeros((5, 2)))), (x, w, a, tensor(np.zeros((6, 3))))):
            with pytest.raises(T.ShapeError):
                T.linear(bad[0], bad[1], bad[2:])

    def test_rope_matches_slice_mul_concat(self):
        # attention's rotation of q and k (T._turn) and its adjoint, and the
        # test oracle's rope node, against slices, products and a concat
        from vora.model import rope_tables

        rng = np.random.default_rng(12)
        n, s, h, hd = 16 * 34, 34, 4, 16
        pos = rng.integers(0, s, n)  # each row's position
        x = tensor(rng.standard_normal((n, h * hd)), requires_grad=True)
        r = rng.standard_normal((n, h * hd)).astype(np.float32)
        # each head's halves, [n, h, hd/2]
        x1, x2 = np.split(x.data.reshape(n, h, hd), 2, axis=-1)
        r1, r2 = np.split(r.reshape(n, h, hd), 2, axis=-1)
        for scale in (1.0, 1.0 / math.sqrt(hd), 1.0 / math.sqrt(6.0)):
            cos, sin = (t * np.float32(scale) for t in rope_qk_tables(pos, h, hd)[1])
            # [n, 1, hd/2]: each row's table, the same for every head
            c, sn = ((t * np.float32(scale))[:, None] for t in rope_tables(pos, hd))
            # numpy oracle in float32, with the same products and sums as
            # the rotation (a - b is a + -b, and + commutes): equal to the bit
            want = np.concatenate([x1 * c - x2 * sn, x2 * c + x1 * sn], axis=-1).reshape(n, h * hd)
            want_grad = np.concatenate([r1 * c + r2 * sn, r2 * c - r1 * sn], axis=-1).reshape(n, h * hd)
            assert T._turn(x.data, cos, sin, h, False).tobytes() == want.tobytes()
            assert T._turn(r, cos, sin, h, True).tobytes() == want_grad.tobytes()
            out, grads = _grads(lambda: oracle.rope(x, cos, sin, h), [x], r)
            assert out.tobytes() == want.tobytes() and grads[0].tobytes() == want_grad.tobytes()

    def test_rope_rejects_mismatched_tables(self):
        x = tensor(np.zeros((5, 8)))
        ok = np.ones((5, 8), dtype=np.float32)
        plan = attention_plan(np.arange(5)[None], np.zeros((5, 5), dtype=np.float32))
        for cos, sin, heads in ((np.ones((4, 8), np.float32), ok, 2), (ok, ok[:, :4], 2), (ok, ok, 3), (ok, ok, 8)):
            with pytest.raises(T.ShapeError):
                T.attention(x, x, x, plan, heads, ((ok, ok), (cos, sin)))
        with pytest.raises(T.ShapeError):  # a [B, S, d] projection is no longer rows
            y = tensor(np.zeros((1, 5, 8)))
            T.attention(y, y, y, plan, 2, ((ok, ok), (ok, ok)))
        with pytest.raises(T.ShapeError):  # q, k and v of one shape
            T.attention(x, x, tensor(np.zeros((5, 6))), plan, 2)

    def test_swiglu_matches_mul_of_silu(self):
        rng = np.random.default_rng(13)
        shape = (380, 256)
        gate = tensor(3.0 * rng.standard_normal(shape), requires_grad=True)
        up = tensor(rng.standard_normal(shape), requires_grad=True)
        r = rng.standard_normal(shape).astype(np.float32)
        out, grads = _grads(lambda: T.swiglu(gate, up), [gate, up], r)
        # numpy oracle in float32: silu(x) = x·s, silu'(x) = s·(1 + x·(1 - s)), s = sigmoid(x)
        x = gate.data
        s = 1.0 / (1.0 + np.exp(-x))
        want = x * s * up.data
        want_grads = [r * up.data * (s * (1.0 + x * (1.0 - s))), r * (x * s)]
        assert out.tobytes() == want.tobytes()
        for g, w in zip(grads, want_grads):
            npt.assert_allclose(g, w, rtol=1e-6, atol=1e-6)
        # a frozen up takes no gradient and leaves gate's unchanged
        up.requires_grad = False
        _, (g_gate, g_up) = _grads(lambda: T.swiglu(gate, up), [gate, up], r)
        assert g_up is None and g_gate.tobytes() == grads[0].tobytes()
        with pytest.raises(T.ShapeError):
            T.swiglu(gate, tensor(np.zeros((380, 255))))

    @pytest.mark.parametrize("n", [12, 15])  # 3 holes, none
    def test_head_major_gather_and_scatter_match_reshape_and_transpose(self, n):
        # the test oracle's head-major gather and scatter against
        # gather_rows, reshape and transpose, and against each other's
        # backward: the scatter is the gather's adjoint, bit for bit
        rng = np.random.default_rng(14)
        b, s, h, hd = 3, 5, 2, 4
        rows = np.full((b, s), -1)
        rows.reshape(-1)[rng.permutation(b * s)[:n]] = np.arange(n)
        a = tensor(rng.standard_normal((n, h * hd)), requires_grad=True)
        r = rng.standard_normal((b, h, s, hd)).astype(np.float32)
        composed = lambda x: T.transpose(T.reshape(T.gather_rows(x, rows), (b, s, h, hd)), (0, 2, 1, 3))  # noqa: E731
        out, grads = _grads(lambda: oracle.gather_heads(a, rows, h), [a], r)
        want, want_grads = _grads(lambda: composed(a), [a], r)
        assert out.tobytes() == np.ascontiguousarray(want).tobytes() and out.flags.c_contiguous
        assert grads[0].tobytes() == want_grads[0].tobytes()

        ctx = tensor(rng.standard_normal((b, h, s, hd)), requires_grad=True)
        r = rng.standard_normal((n + 1, h * hd)).astype(np.float32)  # row n is picked by no entry
        out, grads = _grads(lambda: oracle.scatter_heads(ctx, rows, n + 1), [ctx], r)
        sink = tensor(np.zeros((n + 1, h * hd)), requires_grad=True)
        _, (want,) = _grads(lambda: composed(sink), [sink], ctx.data)
        assert out.tobytes() == want.tobytes() and not out[n].any()
        assert grads[0].tobytes() == np.ascontiguousarray(composed(tensor(r)).data).tobytes()
        out, _ = _grads(lambda: oracle.scatter_heads(ctx, rows, n), [ctx], r[:n])
        assert out.tobytes() == want[:n].tobytes()
        for bad in (lambda: oracle.gather_heads(a, rows, 3), lambda: oracle.scatter_heads(ctx, rows.T, n)):
            with pytest.raises(T.ShapeError):
                bad()


def cosine_chain(x, v, w):
    """Σ w·(1 − cos) of the rows of x against v and its gradient in x, in
    float32 numpy: the elementwise tape chain the fused op replaced,
    transcribed node by node, forward then backward (seed gradient 1)."""
    dots = (x * v).sum(axis=-1, dtype=np.float32)
    pn = (x * x).sum(axis=-1, dtype=np.float32)
    vn = (v * v).sum(axis=-1, dtype=np.float32)
    pw = (pn * vn) ** np.float32(-0.5)
    cos = dots * pw
    loss = ((np.ones_like(cos) + cos * np.float32(-1.0)) * w).sum(dtype=np.float32)
    g_cos = (np.ones_like(w) * w) * np.float32(-1.0)
    g_dots, g_pw = g_cos * pw, g_cos * dots
    g_pn = g_pw * np.float32(-0.5) * (pn * vn) ** np.float32(-1.5) * vn
    grad = g_pn[..., None] * x  # x·x: the same gradient once per operand
    grad = grad + g_pn[..., None] * x
    return loss, grad + g_dots[..., None] * v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 300), width=st.integers(1, 64), scale_p=st.floats(0.01, 10), scale_v=st.floats(0.01, 10),
       seed=st.integers(0, 2**16))
def test_cosine_loss_matches_the_elementwise_chain_bitwise(rows, width, scale_p, scale_v, seed):
    rng = np.random.default_rng(seed)
    x = (scale_p * rng.standard_normal((rows, width))).astype(np.float32)
    v = (scale_v * rng.standard_normal((rows, width))).astype(np.float32)
    w = rng.uniform(0.01, 1.0, rows).astype(np.float32)
    p = tensor(x, requires_grad=True)
    T.active_tape().reset()
    loss = T.cosine_loss(p, v, w)
    assert len(T.active_tape().nodes) == 1
    T.backward(loss)
    want, want_grad = cosine_chain(x, v, w)
    assert loss.data.tobytes() == np.asarray(want).tobytes()
    assert p.grad.tobytes() == want_grad.tobytes()


def test_cosine_loss_rejects_zero_rows_and_mismatched_shapes():
    x, v, w = np.ones((3, 4), np.float32), np.ones((3, 4), np.float32), np.ones(3, np.float32)
    zero = x.copy()
    zero[1] = 0.0
    for p, t in ((zero, v), (x, zero)):
        with pytest.raises(ValueError, match="zero-norm"):
            T.cosine_loss(tensor(p), t, w)
    for p, t, ws in ((x, v[:, :3], w), (x, v[:2], w), (x, v, w[:2]), (x, v, w[:, None])):
        with pytest.raises(T.ShapeError):
            T.cosine_loss(tensor(p), t, ws)


_GATED = {
    "add": (lambda a, b: T.add(a, b), (3, 4), (3, 4)),
    "matmul": (lambda a, b: T.matmul(a, b), (3, 4), (4, 5)),
    "batched_matmul": (lambda a, b: T.matmul(a, b, transpose_b=True), (2, 3, 4), (2, 5, 4)),
    "linear": (lambda a, b: T.linear(a, b), (2, 3, 4), (5, 4)),
    "adapted_linear": (lambda x, w, a, b: T.linear(x, w, (a, b)), (2, 3, 4), (5, 4), (2, 4), (5, 2)),
    "rms_norm": (lambda a, b: T.rms_norm(a, b), (2, 3, 4), (4,)),
    "swiglu": (lambda a, b: T.swiglu(a, b), (2, 3, 4), (2, 3, 4)),
    "concat": (lambda a, b: T.concat([a, b]), (2, 4), (3, 4)),
}


@pytest.mark.parametrize("frozen, op", [(i, op) for op, (_, *shapes) in sorted(_GATED.items())
                                         for i in range(len(shapes))])
def test_frozen_operand_gets_no_gradient_and_changes_nothing(op, frozen):
    fn, *shapes = _GATED[op]
    rng = np.random.default_rng(5)
    data = [rng.standard_normal(s) for s in shapes]
    with T.no_grad():
        r = rng.standard_normal(fn(*(tensor(d) for d in data)).shape).astype(np.float32)

    def run(trainable):
        ts = [tensor(d, requires_grad=i in trainable) for i, d in enumerate(data)]
        T.backward(project(fn(*ts), r))
        return ts

    every = set(range(len(shapes)))
    full = run(every)
    one = run(every - {frozen})
    assert one[frozen].grad is None
    for i in every - {frozen}:
        assert one[i].grad.tobytes() == full[i].grad.tobytes()


def test_accumulated_gradients_own_their_memory():
    # a + a, add(a, b), reshape, transpose, tsum and concat chains: every
    # branch lands in a gradient that no other gradient aliases
    rng = np.random.default_rng(9)
    a, b, c, d, e = (tensor(rng.standard_normal(s), requires_grad=True)
                     for s in ((3, 4), (3, 4), (3, 4), (2, 4), (1, 4)))
    r1, r2, r3 = (rng.standard_normal(s) for s in ((3, 4), (3, 4), (3, 4)))
    ops = [T.add(a, a), T.add(a, b)]
    ops.append(T.transpose(T.reshape(ops[1], (4, 3))))
    ops.append(T.tsum(T.tsum(c, axis=1)))
    ops.append(T.concat([d, e]))
    parts = [project(ops[0], r1), project(ops[2], r2), T.reshape(ops[3], (1, 1)), project(ops[4], r3)]
    T.backward(T.add(T.add(parts[0], parts[1]), T.add(parts[2], parts[3])))

    back = r2.T.reshape(3, 4)  # r2 carried back through the transpose and the reshape
    npt.assert_allclose(a.grad, 2 * r1 + back, rtol=1e-6)
    npt.assert_allclose(b.grad, back, rtol=1e-6)
    npt.assert_array_equal(c.grad, np.ones((3, 4)))
    npt.assert_allclose(np.concatenate([d.grad, e.grad]), r3, rtol=1e-6)
    assert all(t.grad is None for t in ops + parts)  # op outputs hand theirs on
    leaves = [t.grad for t in (a, b, c, d, e)]
    for i, g in enumerate(leaves):
        assert g.flags.c_contiguous and g.flags.writeable and g.dtype == np.float32
        for h in leaves[i + 1:]:
            assert not np.shares_memory(g, h)
