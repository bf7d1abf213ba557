import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T


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

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = tensor(rng.standard_normal((2, 3, 4)))
        w = tensor(rng.standard_normal((4, 5)))
        out = T.matmul(a, w)
        assert out.shape == (2, 3, 5)
        npt.assert_allclose(out.data, a.data @ w.data, rtol=1e-6)


@pytest.mark.parametrize("op, a, b", [
    (T.add, (3, 4), (4,)), (T.add, (3, 4), (1, 4)), (T.mul, (2, 3, 4), (1, 3, 4)), (T.mul, (4,), (3, 4)),
    (T.matmul, (2, 3, 4), (1, 4, 5)), (T.matmul, (3, 4), (2, 4, 5)), (T.matmul, (2, 2, 3, 4), (2, 4, 5)),
])
def test_mismatched_shapes_raise_naming_both(op, a, b):
    # no op broadcasts: unequal operand shapes, or unequal batch dims of a
    # matmul, are an error that names both shapes
    with pytest.raises(T.ShapeError, match=re.escape(str(a)) + ".*" + re.escape(str(b))):
        op(tensor(np.ones(a)), tensor(np.ones(b)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        x = tensor([[0.0, 0.0, 0.0]])
        m = np.zeros((1, 3), dtype=np.float32)
        npt.assert_allclose(T.softmax_rows(x, m).data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)

    def test_masked_symmetry(self):
        x = tensor([[0.0, 0.0, 0.0]])
        m = np.array([[0.0, T.NEG_MASK, 0.0]], dtype=np.float32)
        out = T.softmax_rows(x, m).data
        npt.assert_allclose(out, [[0.5, 0.0, 0.5]], atol=1e-7)
        assert out[0, 1] == 0.0  # exact zero at masked entry

    def test_direct_formula_oracle(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        expected = np.exp(x) / np.exp(x).sum()  # independent exp/sum oracle
        out = T.softmax_rows(tensor(x), np.zeros_like(x)).data
        npt.assert_allclose(out, expected, atol=1e-6)

    def test_rows_sum_to_one_and_masked_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows, cols = rng.integers(1, 8, size=2)
            x = tensor(rng.standard_normal((rows, cols)))
            mask = np.zeros((rows, cols), dtype=np.float32)
            drop = rng.random((rows, cols)) < 0.4
            drop[:, 0] = False
            mask[drop] = T.NEG_MASK
            out = T.softmax_rows(x, mask).data
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
            assert (out[drop] == 0.0).all()
            # masked entries rely on exp underflowing to exactly 0: also at
            # extreme scores, and under a mask broadcast over a leading dim
            for scores in (1e4 * x.data, rng.standard_normal((2, rows, cols))):
                out = T.softmax_rows(tensor(scores), mask).data
                npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
                assert (out[..., drop] == 0.0).all()

    def test_fully_masked_row_errors(self):
        x = tensor(np.zeros((2, 3)))
        mask = np.zeros((2, 3), dtype=np.float32)
        mask[1, :] = T.NEG_MASK
        with pytest.raises(ValueError, match="fully masked"):
            T.softmax_rows(x, mask)


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
        npt.assert_allclose(loss.item(), math.log(8), atol=1e-6)

    def test_saturated_correct(self):
        logits = np.zeros((2, 5), dtype=np.float32)
        logits[0, 2] = 1e4
        logits[1, 4] = 1e4
        loss = T.cross_entropy(tensor(logits), [2, 4])
        assert loss.item() < 1e-5

    def test_logsumexp_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 5)).astype(np.float32)
        targets = np.array([1, 0, 4])
        m = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
        expected = (lse - logits[np.arange(3), targets]).mean()
        loss = T.cross_entropy(tensor(logits), targets)
        npt.assert_allclose(loss.item(), expected, atol=1e-5)

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

    def test_square_at_three(self):
        x = tensor([3.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        npt.assert_allclose(x.grad, [6.0])

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
        out = T.softmax_rows(T.matmul(T.gelu(a), b), np.zeros((4, 4), dtype=np.float32))
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
    cat = T.concat([a, b], axis=0)
    npt.assert_array_equal(T.slice_axis(cat, 0, 2, 4).data, b.data)


def test_gather_and_scatter_rows_zero_holes_and_own_their_memory():
    a = tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    rows = np.array([[2, -1], [0, 3]])
    out = T.gather_rows(a, rows)
    npt.assert_array_equal(out.data, [[a.data[2], np.zeros(3)], [a.data[0], a.data[3]]])
    assert not np.shares_memory(out.data, a.data)
    T.backward(T.tsum(T.mul(out, T.constant(np.full((2, 2, 3), 5.0, dtype=np.float32)))))
    npt.assert_array_equal(a.grad, [[5] * 3, [0] * 3, [5] * 3, [5] * 3])  # row 1 is picked by no entry

    ctx = tensor(np.arange(12, dtype=np.float32).reshape(2, 2, 3), requires_grad=True)
    back = T.scatter_rows(ctx, rows, 4)
    npt.assert_array_equal(back.data, [ctx.data[1, 0], np.zeros(3), ctx.data[0, 0], ctx.data[1, 1]])
    assert not np.shares_memory(back.data, ctx.data)
    T.backward(T.tsum(back))
    npt.assert_array_equal(ctx.grad, [[[1] * 3, [0] * 3], [[1] * 3, [1] * 3]])  # the -1 entry gets none


def _grads(make_out, inputs, r):
    """Forward output and each input's gradient of sum(out * r)."""
    for t in inputs:
        t.grad = None
    out = make_out()
    T.backward(T.tsum(T.mul(out, T.constant(r))))
    return out.data, [t.grad for t in inputs]


def _assert_same_op(fused, composed, inputs, r, atol=1e-6):
    out_f, grads_f = _grads(fused, inputs, r)
    out_c, grads_c = _grads(composed, inputs, r)
    npt.assert_allclose(out_f, out_c, rtol=0, atol=atol)
    for t, gf, gc in zip(inputs, grads_f, grads_c):
        assert gf.shape == t.shape
        npt.assert_allclose(gf, gc, rtol=0, atol=atol)


class TestFusedOps:
    """linear (plain and with an adapter pair), rope, swiglu and the
    head-major gather and scatter against the compositions they replace,
    at model shapes."""

    def test_linear_matches_matmul_of_transpose(self):
        rng = np.random.default_rng(11)
        for shape in ((16, 34, 64), (34, 64)):
            x = tensor(rng.standard_normal(shape), requires_grad=True)
            w = tensor(0.02 * rng.standard_normal((64, 64)), requires_grad=True)
            r = rng.standard_normal(shape[:-1] + (64,)).astype(np.float32)
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
        # without a tape node, few rows run the low-rank form and many the
        # merged weight: 1, 8 and 51 rows fall below 64·256 / (64 + 256) = 51.2
        rng = np.random.default_rng(17)
        w, a, b = (tensor(0.02 * rng.standard_normal(s)) for s in ((256, 64), (8, 64), (256, 8)))
        for n in (1, 8, 51, 52, 380):
            x = tensor(rng.standard_normal((n, 64)), requires_grad=True)
            with T.no_grad():
                got = T.linear(x, w, (a, b))
                want = T.linear(x, w) + T.linear(T.linear(x, a), b)
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
        from vora.model import rope_row_tables, rope_tables

        rng = np.random.default_rng(12)
        n, s, h, hd = 16 * 34, 34, 4, 16
        pos = rng.integers(0, s, n)  # each row's position
        x = tensor(rng.standard_normal((n, h * hd)), requires_grad=True)
        r = rng.standard_normal((n, h * hd)).astype(np.float32)
        for scale in (1.0, 1.0 / math.sqrt(hd), 1.0 / math.sqrt(6.0)):
            cos, sin = (t * np.float32(scale) for t in rope_row_tables(pos, h, hd))
            # [n, h, hd/2]: each row's table repeated for every head
            c, sn = (T.constant(np.repeat((t * np.float32(scale))[:, None], h, axis=1))
                     for t in rope_tables(pos, hd))

            def composed():
                heads = T.reshape(x, (n, h, hd))
                x1, x2 = T.slice_axis(heads, -1, 0, hd // 2), T.slice_axis(heads, -1, hd // 2, hd)
                out = T.concat([T.mul(x1, c) - T.mul(x2, sn), T.mul(x2, c) + T.mul(x1, sn)], axis=-1)
                return T.reshape(out, (n, h * hd))

            # the same products and sums in the same order: equal to the bit
            out, grads = _grads(lambda: T.rope(x, cos, sin, h), [x], r)
            want, want_grads = _grads(composed, [x], r)
            assert out.tobytes() == want.tobytes() and grads[0].tobytes() == want_grads[0].tobytes()

    def test_rope_rejects_mismatched_tables(self):
        x = tensor(np.zeros((5, 8)))
        ok = np.ones((5, 8), dtype=np.float32)
        for cos, sin, heads in ((np.ones((4, 8), np.float32), ok, 2), (ok, ok[:, :4], 2), (ok, ok, 3)):
            with pytest.raises(T.ShapeError):
                T.rope(x, cos, sin, heads)
        with pytest.raises(T.ShapeError):  # a [B, S, d] projection is no longer rows
            T.rope(tensor(np.zeros((1, 5, 8))), ok, ok, 2)

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
        rng = np.random.default_rng(14)
        b, s, h, hd = 3, 5, 2, 4
        rows = np.full((b, s), -1)
        rows.reshape(-1)[rng.permutation(b * s)[:n]] = np.arange(n)
        a = tensor(rng.standard_normal((n, h * hd)), requires_grad=True)
        r = rng.standard_normal((b, h, s, hd)).astype(np.float32)
        composed = lambda: T.transpose(T.reshape(T.gather_rows(a, rows), (b, s, h, hd)), (0, 2, 1, 3))  # noqa: E731
        out, grads = _grads(lambda: T.gather_rows(a, rows, heads=h), [a], r)
        want, want_grads = _grads(composed, [a], r)
        assert out.tobytes() == np.ascontiguousarray(want).tobytes() and out.flags.c_contiguous
        assert grads[0].tobytes() == want_grads[0].tobytes()

        ctx = tensor(rng.standard_normal((b, h, s, hd)), requires_grad=True)
        r = rng.standard_normal((n + 1, h * hd)).astype(np.float32)  # row n is picked by no entry
        composed = lambda: T.reshape(T.scatter_rows(T.transpose(ctx, (0, 2, 1, 3)), rows, n + 1), (n + 1, h * hd))  # noqa: E731
        out, grads = _grads(lambda: T.scatter_rows(ctx, rows, n + 1, heads=h), [ctx], r)
        want, want_grads = _grads(composed, [ctx], r)
        assert out.tobytes() == want.tobytes() and not out[n].any()
        assert grads[0].tobytes() == want_grads[0].tobytes()
        out, _ = _grads(lambda: T.scatter_rows(ctx, rows, n, heads=h), [ctx], r[:n])
        assert out.tobytes() == want[:n].tobytes()
        for bad in (lambda: T.gather_rows(a, rows, heads=3), lambda: T.gather_rows(a, rows[0], heads=2),
                    lambda: T.scatter_rows(ctx, rows, n, heads=4), lambda: T.scatter_rows(ctx, rows.T, n, heads=2)):
            with pytest.raises(T.ShapeError):
                bad()


_GATED = {
    "add": (lambda a, b: T.add(a, b), (3, 4), (3, 4)),
    "mul": (lambda a, b: T.mul(a, b), (2, 3, 4), (2, 3, 4)),
    "matmul": (lambda a, b: T.matmul(a, b), (2, 3, 4), (4, 5)),
    "batched_matmul": (lambda a, b: T.matmul(a, b, transpose_b=True), (2, 3, 4), (2, 5, 4)),
    "linear": (lambda a, b: T.linear(a, b), (2, 3, 4), (5, 4)),
    "adapted_linear": (lambda x, w, a, b: T.linear(x, w, (a, b)), (2, 3, 4), (5, 4), (2, 4), (5, 2)),
    "rms_norm": (lambda a, b: T.rms_norm(a, b), (2, 3, 4), (4,)),
    "swiglu": (lambda a, b: T.swiglu(a, b), (2, 3, 4), (2, 3, 4)),
    "concat": (lambda a, b: T.concat([a, b], axis=0), (2, 4), (3, 4)),
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
        T.backward(T.tsum(T.mul(fn(*ts), T.constant(r))))
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
    ops.append(T.concat([d, e], axis=0))
    parts = [T.tsum(T.mul(ops[0], tensor(r1))), T.tsum(T.mul(ops[2], tensor(r2))), ops[3],
             T.tsum(T.mul(ops[4], tensor(r3)))]
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
