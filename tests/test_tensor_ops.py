import math

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

    def test_all_ignored_errors(self):
        logits = tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="ignored"):
            T.cross_entropy(logits, [0, 1], ignore_mask=[True, True])

    def test_ignored_positions_excluded(self):
        logits = np.zeros((2, 4), dtype=np.float32)
        logits[1, :] = [100.0, 0.0, 0.0, 0.0]  # would dominate if counted
        loss = T.cross_entropy(tensor(logits), [0, 3], ignore_mask=[False, True])
        npt.assert_allclose(loss.item(), math.log(4), atol=1e-6)


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
