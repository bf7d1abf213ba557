import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import lora
from vora.model import LAYER_NAMES, ConfigError, Model, ModelConfig, SequenceLayout
from vora.tensor import Tensor

from test_mask import build_attention_mask


class TestAttach:
    def test_counts_seven_layers_per_block(self):
        cfg = ModelConfig(n_vit=4)
        assert len(lora.attach(cfg).adapters) == 28

    def test_targets_enumerate_blocks_x_layers(self):
        cfg = ModelConfig(n_llm=2, n_vit=2)
        adapters = lora.attach(cfg)
        want = {(b, layer) for b in range(2) for layer in LAYER_NAMES}
        assert set(adapters.adapters) == want

    def test_rank_too_large_rejected(self):
        with pytest.raises(ConfigError):
            lora.attach(ModelConfig(rank=64))  # rank == min(d_in, d_out)

    def test_b_zero_a_random_at_creation(self):
        adapters = lora.attach(ModelConfig(), seed=9)
        for ad in adapters:
            assert not ad.b.data.any()
            assert ad.a.data.any()


def adapted_linear(x, base_w, ad):
    """The model's adapted linear layer: ``Model._linear`` on the pair
    AdapterSet.delta hands it, x (base_w + b a)^T (an n_vit=1 set whose
    block-0 layers all hold ``ad``)."""
    model = Model(ModelConfig(), {"llm.blocks.0.q": base_w})
    params = {f"lora.0.{layer}.{f}": t for layer in LAYER_NAMES for f, t in zip("ab", ad)}
    return model._linear(x, 0, "q", lora.AdapterSet(ModelConfig(n_vit=1), params))


class TestLoraForward:
    def test_zero_b_is_plain_linear_bitwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
        ad = lora.LoraAdapter(
            Tensor(rng.standard_normal((2, 8)).astype(np.float32)),
            Tensor(np.zeros((6, 2), dtype=np.float32)))
        out = adapted_linear(x, w, ad)
        plain = T.matmul(x, T.transpose(w))
        npt.assert_array_equal(out.data, plain.data)

    def test_hand_arithmetic_all_sixes(self):
        # x=[1,2,3], a = ones row, b = ones column, base 0
        x = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        base = Tensor(np.zeros((4, 3), dtype=np.float32))
        ad = lora.LoraAdapter(Tensor(np.ones((1, 3), dtype=np.float32)),
                              Tensor(np.ones((4, 1), dtype=np.float32)))
        out = adapted_linear(x, base, ad)
        npt.assert_array_equal(out.data, np.full((1, 4), 6.0, dtype=np.float32))

    def test_gradient_reaches_adapter_not_base(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 8)).astype(np.float32))  # frozen base
        ad = lora.LoraAdapter(
            Tensor(rng.standard_normal((2, 8)).astype(np.float32), requires_grad=True),
            Tensor(rng.standard_normal((6, 2)).astype(np.float32), requires_grad=True))
        T.backward(T.tsum(adapted_linear(x, w, ad)))
        assert ad.a.grad is not None and ad.a.grad.any()
        assert ad.b.grad is not None and ad.b.grad.any()
        assert w.grad is None

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((3, 5), dtype=np.float32))
        w = Tensor(np.zeros((6, 8), dtype=np.float32))
        ad = lora.LoraAdapter(Tensor(np.zeros((2, 8), dtype=np.float32)),
                              Tensor(np.zeros((6, 2), dtype=np.float32)))
        with pytest.raises(T.ShapeError):
            adapted_linear(x, w, ad)


class TestMerge:
    def test_zero_b_merge_is_byte_identical(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
        ad = lora.LoraAdapter(Tensor(rng.standard_normal((2, 8)).astype(np.float32)),
                              Tensor(np.zeros((6, 2), dtype=np.float32)))
        merged = T.merged_weight(w.data, ad.a.data, ad.b.data)
        assert merged.tobytes() == w.data.tobytes()

    def test_forward_equivalence_20_trials(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d_in, d_out, r = (int(rng.integers(4, 17)) for _ in range(3))
            r = max(1, min(r, d_in - 1, d_out - 1))
            x = Tensor((0.5 * rng.standard_normal((4, d_in))).astype(np.float32))
            w = Tensor((0.1 * rng.standard_normal((d_out, d_in))).astype(np.float32))
            ad = lora.LoraAdapter(
                Tensor((0.1 * rng.standard_normal((r, d_in))).astype(np.float32)),
                Tensor((0.1 * rng.standard_normal((d_out, r))).astype(np.float32)))
            split = adapted_linear(x, w, ad).data
            merged = (T.matmul(x, T.transpose(Tensor(T.merged_weight(w.data, ad.a.data, ad.b.data))))).data
            assert np.abs(split - merged).max() <= 1e-5

    def test_double_merge_guarded(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        adapters = lora.attach(cfg, seed=1)
        lora.merge_all(model, adapters)
        with pytest.raises(lora.MergeStateError):
            lora.merge_all(model, adapters)

    def test_merged_model_forward_parity(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=4)
        adapters = lora.attach(cfg, seed=5)
        rng = np.random.default_rng(6)
        for ad in adapters:  # give the deltas real mass
            ad.b.data = (0.02 * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
        ids = rng.integers(0, cfg.vocab, size=7)
        lay = SequenceLayout(0, 7, 1)
        mask = build_attention_mask(lay, 7, "hybrid")
        before, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        lora.merge_all(model, adapters)
        after, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        assert np.abs(before.data - after.data).max() <= 1e-5


class TestParamCount:
    def test_single_adapter_tensor_sizes(self):
        # rank * (d_in + d_out): 4 * (16 + 16) = 128
        ad = lora.LoraAdapter(Tensor(np.zeros((4, 16), dtype=np.float32)),
                              Tensor(np.zeros((16, 4), dtype=np.float32)))
        assert ad.a.data.size + ad.b.data.size == 128
        # rank=1, d_in=2, d_out=3 -> 5
        ad = lora.LoraAdapter(Tensor(np.zeros((1, 2), dtype=np.float32)),
                              Tensor(np.zeros((3, 1), dtype=np.float32)))
        assert ad.a.data.size + ad.b.data.size == 5

    def test_rank_zero_disallowed(self):
        with pytest.raises(ConfigError):
            ModelConfig(rank=0)

    def test_rank_monotonicity(self):
        counts = [sum(t.data.size for t in lora.attach(ModelConfig(rank=r)).params.values())
                  for r in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(counts, counts[1:]))


def test_zero_init_identity_invariant():
    # freshly attached adapters leave logits equal to the base model's
    cfg = ModelConfig()
    model = Model.init(cfg, seed=8)
    adapters = lora.attach(cfg, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(1, 10))
        ids = rng.integers(0, cfg.vocab, size=n)
        lay = SequenceLayout(0, n, min(1, n))
        mask = build_attention_mask(lay, n, "hybrid")
        base, _ = model.forward(model.embed_tokens(ids), mask)
        with_ad, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        npt.assert_array_equal(base.data, with_ad.data)
