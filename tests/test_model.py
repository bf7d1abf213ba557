import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import lora
from vora.model import (Model, ModelConfig, SequenceLayout, SequenceTooLong,
                        build_attention_mask, decode_greedy)

MICRO = dict(n_llm=2, n_vit=1, d_model=8, d_vit=8, n_heads=2, d_ff=8,
             patch=4, rank=2, vembed_hidden=4, vit_heads=2, vit_ff=8)


def straightline_forward(cfg, params, emb, mask):
    """Independent plain-numpy re-implementation of the stack (no tape)."""

    def rms(x, g, eps=1e-6):
        inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
        return x * inv * g

    def softmax_masked(x, m):
        z = x + m
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        e[np.broadcast_to(m, e.shape) < 0] = 0.0
        return e / e.sum(axis=-1, keepdims=True)

    def silu(x):
        return x / (1.0 + np.exp(-x))

    s, d = emb.shape
    heads, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
    half = hd // 2
    freqs = 1.0 / 10000.0 ** (np.arange(half) / half)
    ang = np.arange(s)[:, None] * freqs[None, :]
    cos, sin = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)

    def rope(x):  # x [heads, s, hd]
        x1, x2 = x[..., :half], x[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)

    x = emb.astype(np.float32)
    taps = []
    for i in range(cfg.n_llm):
        g = lambda name: params[f"llm.blocks.{i}.{name}"].data
        h = rms(x, g("attn_norm"))
        q = rope((h @ g("q").T).reshape(s, heads, hd).transpose(1, 0, 2))
        k = rope((h @ g("k").T).reshape(s, heads, hd).transpose(1, 0, 2))
        v = (h @ g("v").T).reshape(s, heads, hd).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
        probs = softmax_masked(scores, mask[None])
        ctx = (probs @ v).transpose(1, 0, 2).reshape(s, d)
        x = x + ctx @ g("o").T
        h = rms(x, g("ffn_norm"))
        x = x + (silu(h @ g("ffn_gate").T) * (h @ g("ffn_up").T)) @ g("ffn_down").T
        if i < cfg.n_vit:
            taps.append(x.copy())
    xn = rms(x, params["llm.final_norm"].data)
    return xn @ params["llm.head"].data.T, taps


class TestForward:
    def test_zero_b_adapters_bit_identical(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        adapters = lora.attach(cfg, seed=1)  # b = 0 at creation
        rng = np.random.default_rng(2)
        ids = rng.integers(0, cfg.vocab, size=6)
        lay = SequenceLayout((0, 0), (0, 6), 1)
        mask = build_attention_mask(lay, 6, "hybrid")
        base_logits, _ = model.forward(model.embed_tokens(ids), mask, adapters=None)
        lora_logits, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        npt.assert_array_equal(base_logits.data, lora_logits.data)

    def test_single_token_shape(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        lay = SequenceLayout((0, 0), (0, 1), 1)
        logits, _ = model.forward(model.embed_tokens([7]), build_attention_mask(lay, 1, "hybrid"))
        assert logits.shape == (1, cfg.vocab)
        assert np.isfinite(logits.data).all()

    def test_straightline_oracle_micro(self):
        cfg = ModelConfig(**MICRO)
        model = Model.init(cfg, seed=7)
        rng = np.random.default_rng(7)
        emb = (0.1 * rng.standard_normal((4, cfg.d_model))).astype(np.float32)
        lay = SequenceLayout((0, 2), (2, 4), 3)
        mask = build_attention_mask(lay, 4, "hybrid")
        logits, taps = model.forward(T.constant(emb), mask)
        ref_logits, ref_taps = straightline_forward(cfg, model.params, emb, mask)
        npt.assert_allclose(logits.data, ref_logits, atol=1e-6)
        assert len(taps) == len(ref_taps)
        for tap, ref in zip(taps, ref_taps):
            npt.assert_allclose(tap.hidden.data, ref, atol=1e-6)

    def test_sequence_too_long(self):
        cfg = ModelConfig(max_seq=8)
        model = Model.init(cfg, seed=0)
        lay = SequenceLayout((0, 0), (0, 9), 1)
        with pytest.raises(SequenceTooLong):
            model.forward(model.embed_tokens(np.zeros(9, dtype=int)),
                          np.zeros((9, 9), dtype=np.float32))

    def test_batched_matches_single(self):
        cfg = ModelConfig(**MICRO)
        model = Model.init(cfg, seed=3)
        rng = np.random.default_rng(3)
        emb = (0.1 * rng.standard_normal((2, 5, cfg.d_model))).astype(np.float32)
        lay = SequenceLayout((0, 0), (0, 5), 1)
        mask = build_attention_mask(lay, 5, "hybrid")
        batch_logits, _ = model.forward(T.constant(emb), np.stack([mask, mask]))
        for i in range(2):
            single, _ = model.forward(T.constant(emb[i]), mask)
            npt.assert_allclose(batch_logits.data[i], single.data, atol=1e-6)


class TestDecodeGreedy:
    def _setup(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        prefix = model.embed_tokens([1, 10, 20])  # arbitrary prompt
        lay = SequenceLayout((0, 0), (0, 3), 3)
        return cfg, model, prefix, lay

    def test_max_new_appends_exactly_one(self):
        _, model, prefix, lay = self._setup()
        out = decode_greedy(model, prefix, lay, eos_id=2, max_new=1)
        assert len(out) == 1

    def test_deterministic(self):
        _, model, prefix, lay = self._setup()
        out1 = decode_greedy(model, prefix, lay, eos_id=2, max_new=6)
        out2 = decode_greedy(model, prefix, lay, eos_id=2, max_new=6)
        assert out1 == out2

    def test_max_new_zero_rejected(self):
        _, model, prefix, lay = self._setup()
        with pytest.raises(ValueError):
            decode_greedy(model, prefix, lay, eos_id=2, max_new=0)

    def test_stops_at_max_seq(self):
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        lay = SequenceLayout((0, 0), (0, 5), 5)
        prefix = model.embed_tokens(np.arange(5) + 4)
        # forwards over lengths 5..12 give 8 tokens; a 13-token forward is never run
        assert len(decode_greedy(model, prefix, lay, eos_id=-1, max_new=50)) == 8


def test_config_validation():
    with pytest.raises(Exception):
        ModelConfig(n_vit=9, n_llm=6)
    with pytest.raises(Exception):
        ModelConfig(d_model=65, n_heads=4)
    with pytest.raises(Exception):
        ModelConfig(d_model=0)
