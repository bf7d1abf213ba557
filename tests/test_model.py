import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import data as D
from vora import lora, trainer
from vora import model as vora_model
from vora.model import (Model, ModelConfig, SequenceLayout, SequenceTooLong, attention_mask, decode_greedy,
                        rope_qk_tables)

from test_mask import build_attention_mask, oracle_mask

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
        lay = SequenceLayout(0, 6, 1)
        mask = build_attention_mask(lay, 6, "hybrid")
        base_logits, _ = model.forward(model.embed_tokens(ids), mask, adapters=None)
        lora_logits, _ = model.forward(model.embed_tokens(ids), mask, adapters=adapters)
        npt.assert_array_equal(base_logits.data, lora_logits.data)

    def test_single_token_shape(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        lay = SequenceLayout(0, 1, 1)
        logits, _ = model.forward(model.embed_tokens([7]), build_attention_mask(lay, 1, "hybrid"))
        assert logits.shape == (1, cfg.vocab)
        assert np.isfinite(logits.data).all()

    def test_straightline_oracle_micro(self):
        cfg = ModelConfig(**MICRO)
        model = Model.init(cfg, seed=7)
        rng = np.random.default_rng(7)
        emb = (0.1 * rng.standard_normal((4, cfg.d_model))).astype(np.float32)
        lay = SequenceLayout(2, 4, 3)
        mask = build_attention_mask(lay, 4, "hybrid")
        logits, taps = model.forward(T.constant(emb), mask)
        ref_logits, ref_taps = straightline_forward(cfg, model.params, emb, mask)
        npt.assert_allclose(logits.data, ref_logits, atol=1e-6)
        assert len(taps) == len(ref_taps)
        for tap, ref in zip(taps, ref_taps):
            npt.assert_allclose(tap.data, ref, atol=1e-6)

    def test_sequence_too_long(self):
        cfg = ModelConfig(max_seq=8)
        model = Model.init(cfg, seed=0)
        lay = SequenceLayout(0, 9, 1)
        with pytest.raises(SequenceTooLong):
            model.forward(model.embed_tokens(np.zeros(9, dtype=int)),
                          np.zeros((9, 9), dtype=np.float32))

    def test_rows_that_miss_or_repeat_an_embedded_row_are_a_shape_error(self):
        # token-major rows must index each of the N embedded rows exactly
        # once: rows that cover 8 of 10 would leave two rows with no
        # attention context, and rows past N would be a raw IndexError
        cfg = ModelConfig(**MICRO)
        model = Model.init(cfg, seed=0)
        mask = np.zeros((5, 5), np.float32)
        ten = T.constant(np.zeros((10, cfg.d_model), np.float32))
        covers = np.arange(10).reshape(2, 5)
        short = np.where(covers < 8, covers, -1)
        repeats = np.where(covers == 9, 0, covers)
        for emb, rows in ((ten, short), (ten, repeats), (T.constant(ten.data[:8]), covers)):
            with pytest.raises(T.ShapeError, match=rf"rows \[2, 5\] must index each embedded row \[{emb.shape[0]}, 8\]"):
                model.forward(emb, mask, rows=rows)
        assert model.forward(ten, mask, rows=covers[:, ::-1])[0].shape == (10, cfg.vocab)

    def test_batched_matches_single(self):
        cfg = ModelConfig(**MICRO)
        model = Model.init(cfg, seed=3)
        rng = np.random.default_rng(3)
        emb = (0.1 * rng.standard_normal((2, 5, cfg.d_model))).astype(np.float32)
        lay = SequenceLayout(0, 5, 1)
        mask = build_attention_mask(lay, 5, "hybrid")
        batch_logits, _ = model.forward(T.constant(emb), np.stack([mask, mask]))
        for i in range(2):
            single, _ = model.forward(T.constant(emb[i]), mask)
            npt.assert_allclose(batch_logits.data[i], single.data, atol=1e-6)
        # an [S, d] input is a batch of one sequence, bit for bit, taps included
        one, one_taps = model.forward(T.constant(emb[0]), mask)
        padded, padded_taps = model.forward(T.constant(emb[:1]), mask)
        assert one.shape == (5, cfg.vocab) and [t.shape for t in one_taps] == [(5, cfg.d_model)] * cfg.n_vit
        npt.assert_array_equal(one.data, padded.data[0])
        for got, want in zip(one_taps, padded_taps, strict=True):
            npt.assert_array_equal(got.data, want.data[0])


class TestDecodeGreedy:
    def _setup(self):
        cfg = ModelConfig()
        model = Model.init(cfg, seed=0)
        prefix = model.embed_tokens([1, 10, 20])  # arbitrary prompt
        lay = SequenceLayout(0, 3, 3)
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
        lay = SequenceLayout(0, 5, 5)
        prefix = model.embed_tokens(np.arange(5) + 4)
        # forwards over lengths 5..12 give 8 tokens; a 13-token forward is never run
        assert len(decode_greedy(model, prefix, lay, eos_id=-1, max_new=50)) == 8


def full_recompute_decode(model, prefix, layout, eos_id, max_new, adapters=None, mask_mode="hybrid"):
    """The oracle for the cached decode: every step re-runs the whole forward
    over the sequence so far, under the mask of the tests' own rule
    (``oracle_mask``). Returns the ids and each step's last logits."""
    emb, ids, steps = prefix, [], []
    with T.no_grad():
        for _ in range(max_new):
            length = emb.data.shape[0]
            mask = oracle_mask(layout.n_vision, range(length), length, mask_mode)
            logits, _ = model.forward(emb, mask, adapters, collect_taps=False)
            steps.append(logits.data[-1].copy())
            ids.append(int(np.argmax(steps[-1])))
            if ids[-1] == eos_id or length >= model.cfg.max_seq:
                break
            emb = T.concat([emb, model.embed_tokens([ids[-1]])])
    return ids, steps


def spied_decode(model, prefix, layout, eos_id, max_new, adapters=None, mask_mode="hybrid", capacities=None):
    """decode_greedy, plus every forward's last-position logits ([B, vocab])
    and number of input positions (over all rows of the batch); a list
    passed as capacities takes the K/V cache's capacity after each forward.
    The spy sits on the class, as perfbench's tracer does: a decode of
    unmerged adapters runs a merged copy of the model."""
    steps, positions = [], []
    forward = Model.forward

    def spy(self, embedded, *args, **kwargs):
        logits, taps = forward(self, embedded, *args, **kwargs)
        steps.append(logits.data[..., -1, :].reshape(-1, logits.shape[-1]).copy())
        positions.append(math.prod(embedded.data.shape[:-1]))
        if capacities is not None:
            capacities.append(kwargs["cache"][0][0].shape[1])
        return logits, taps

    Model.forward = spy
    try:
        ids = decode_greedy(model, prefix, layout, eos_id, max_new, adapters=adapters, mask_mode=mask_mode)
    finally:
        Model.forward = forward
    return ids, steps, positions


def heldout_prefixes(pipe, n=8, seed=0):
    """The embedded [vision span][prompt] prefixes and layouts of the n
    held-out captions `trainer.eval_metrics` decodes for this seed."""
    rng = np.random.default_rng([seed, 11])
    out = []
    for _ in range(n):
        sample = D.gen_image_caption(D.HELDOUT_BASE + int(rng.integers(0, D.HELDOUT_BASE)))
        batch = D.pack_samples([sample], pipe.cfg.patch, pipe.cfg.max_seq)
        lay = batch.layouts[0]
        with T.no_grad():
            out.append((T.constant(trainer.pack_embedded(pipe, batch).data[0, : lay.supervise_from]), lay))
    return out


def adapted_pipe():
    """Default-config pipeline whose adapters are non-zero; large enough
    that its greedy decodes are not one repeated token. Its vision embed
    is scaled up 20x, so that the held-out captions' images steer their
    decodes apart."""
    pipe = trainer.build_pipeline(ModelConfig(), seed=0)
    rng = np.random.default_rng(5)
    for ad in pipe.adapters:
        ad.b.data = (0.5 * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
    for t in pipe.vembed.params.values():
        t.data = 20 * t.data
    return pipe


class TestKVCache:
    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    def test_step_logits_match_full_recompute(self, mask_mode, monkeypatch):
        pipe = adapted_pipe()
        (prefix, lay), = heldout_prefixes(pipe, n=1)
        assert lay.n_vision > 0
        masks = []
        build = vora_model.attention_mask
        monkeypatch.setattr(vora_model, "attention_mask", lambda *args: masks.append(args) or build(*args))
        for merged in (False, True):
            if merged:
                lora.merge_all(pipe.model, pipe.adapters)
            want_ids, want = full_recompute_decode(pipe.model, prefix, lay, -1, 24, pipe.adapters, mask_mode)
            masks.clear()
            ids, got, positions = spied_decode(pipe.model, prefix, lay, -1, 24, pipe.adapters, mask_mode)
            assert positions == [prefix.data.shape[0]] + [1] * 23  # prefill once, then one token a step
            # one mask, the prefill's: a one-row step sees every earlier key
            assert masks == [(lay.n_vision, prefix.data.shape[0], mask_mode)]
            assert ids == want_ids
            assert len(got) == len(want) == 24
            for g, w in zip(got, want):
                npt.assert_allclose(g[0], w, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    def test_heldout_ids_match_full_recompute(self, mask_mode):
        pipe = adapted_pipe()
        for prefix, lay in heldout_prefixes(pipe):
            got = decode_greedy(pipe.model, prefix, lay, D.EOS, 24, pipe.adapters, mask_mode)
            want, _ = full_recompute_decode(pipe.model, prefix, lay, D.EOS, 24, pipe.adapters, mask_mode)
            assert got == want

    def test_cached_forward_past_max_seq_raises(self):
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        cache = []
        with T.no_grad():
            model.forward(model.embed_tokens(np.arange(10)[None]), np.zeros((10, 10), np.float32), cache=cache)
            with pytest.raises(SequenceTooLong):
                model.forward(model.embed_tokens([[3, 4, 5]]), np.zeros((3, 13), np.float32), cache=cache)
            logits, _ = model.forward(model.embed_tokens([[3, 4]]), np.zeros((2, 12), np.float32), cache=cache)
        assert logits.shape == (1, 2, model.cfg.vocab)

    def test_a_cached_mask_that_does_not_fit_is_a_shape_error(self):
        # a one-row [1, 5] prefill mask is not broadcast over five queries,
        # and a step's mask spans the cached keys too: [s, L+s] or [1 or B, s, L+s]
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        emb = model.embed_tokens(np.arange(10).reshape(2, 5))
        step = model.embed_tokens([[3, 4], [5, 6]])
        with T.no_grad():
            for mask in (np.zeros((1, 5), np.float32), np.zeros((3, 5, 5), np.float32)):
                with pytest.raises(T.ShapeError, match=re.escape(f"mask {list(mask.shape)} for 5 queries after 0 "
                                                                 "cached positions of [2, 5, 64]")):
                    model.forward(emb, mask, cache=[])
            for mask in (np.zeros((5, 5), np.float32), attention_mask(2, 5), attention_mask([1, 2], 5)):
                cache = []
                model.forward(emb, mask, cache=cache)
                with pytest.raises(T.ShapeError, match=r"mask \[2, 2\] for 2 queries after 5 cached positions"):
                    model.forward(step, np.zeros((2, 2), np.float32), cache=cache)
                logits, _ = model.forward(step, attention_mask(0, 7)[:, 5:], cache=cache)
                assert logits.shape == (2, 2, model.cfg.vocab)

    def test_rope_tables_built_once_give_the_bits_of_tables_built_per_forward(self):
        # decode_greedy builds rope's tables once per call and each cached
        # forward takes its positions' rows of them
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        emb, mask = model.embed_tokens(np.arange(10).reshape(2, 5)), attention_mask([2, 0], 5)
        rope = rope_qk_tables(np.arange(12), model.cfg.n_heads, model.cfg.head_dim)
        runs = []
        with T.no_grad():
            for given in (None, rope):
                cache = []
                logits = [model.forward(emb, mask, cache=cache, rope=given)[0]]
                for token in (3, 4, 5):
                    step = model.embed_tokens([[token], [token + 1]])
                    logits.append(model.forward(step, None, cache=cache, rope=given)[0])
                runs.append([t.data.tobytes() for t in logits])
            with pytest.raises(ValueError, match="only a cached forward takes rope tables"):
                model.forward(emb, mask, rope=rope)
        assert runs[0] == runs[1]

    def test_cache_is_forward_only_and_sized_to_its_batch(self):
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        emb, mask = model.embed_tokens(np.arange(4)[None]), np.zeros((4, 4), np.float32)
        cache = []
        with pytest.raises(ValueError, match="forward-only"):
            model.forward(emb, mask, cache=cache)
        assert cache == []
        with T.no_grad():
            model.forward(model.embed_tokens(np.arange(8).reshape(2, 4)), mask, cache=cache)
            with pytest.raises(ValueError, match="batch of 1 sequences on a cache for 2"):
                model.forward(model.embed_tokens([[5]]), np.zeros((1, 5), np.float32), cache=cache)
            # adapters are merged by decode_greedy, once per call, never by a cached forward
            adapters = lora.attach(model.cfg)
            for kwargs in ({"adapters": adapters}, {"rows": np.arange(4)[None]}, {"logit_rows": np.arange(2)}):
                with pytest.raises(ValueError, match=r"takes no adapters \(decode_greedy merges them\), rows or"):
                    model.forward(emb, mask, cache=[], **kwargs)
            blocked = np.zeros((4, 4), np.float32)
            blocked[2] = T.NEG_MASK
            with pytest.raises(ValueError, match="row fully masked"):
                model.forward(emb, blocked, cache=[])


def heldout_batch(pipe, n=8, seed=0):
    """The n prefixes of ``heldout_prefixes`` packed as one [n, S, d]
    batch, as `trainer.eval_metrics` decodes them, with their layouts."""
    rng = np.random.default_rng([seed, 11])
    samples = [D.gen_image_caption(D.HELDOUT_BASE + int(rng.integers(0, D.HELDOUT_BASE))) for _ in range(n)]
    batch = D.pack_samples(samples, pipe.cfg.patch, pipe.cfg.max_seq)
    with T.no_grad():
        emb = trainer.pack_embedded(pipe, batch).data[:, : batch.layouts[0].supervise_from]
    return T.constant(emb), batch.layouts


def truncated(ids, eos_id):
    """ids up to and including the first eos_id."""
    return ids[: ids.index(eos_id) + 1] if eos_id in ids else ids


class TestBatchedDecode:
    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    def test_rows_match_batch_of_one(self, mask_mode):
        pipe = adapted_pipe()
        for merged in (False, True):
            if merged:
                trainer.merge(pipe)
            prefix, layouts = heldout_batch(pipe)
            got = decode_greedy(pipe.model, prefix, layouts, D.EOS, 24, pipe.adapters, mask_mode)
            want = [decode_greedy(pipe.model, p, lay, D.EOS, 24, pipe.adapters, mask_mode)
                    for p, lay in heldout_prefixes(pipe)]
            assert got == want
            assert len(set(map(tuple, got))) > 1  # the rows decode differently

    @pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
    def test_step_logits_match_full_recompute(self, mask_mode):
        pipe = adapted_pipe()
        prefix, layouts = heldout_batch(pipe)
        b, s, _ = prefix.shape
        for merged in (False, True):
            if merged:
                trainer.merge(pipe)
            ids, got, positions = spied_decode(pipe.model, prefix, layouts, -1, 24, pipe.adapters, mask_mode)
            assert positions == [b * s] + [b] * 23
            for row in range(b):
                want_ids, want = full_recompute_decode(pipe.model, T.constant(prefix.data[row]), layouts[row], -1,
                                                       24, pipe.adapters, mask_mode)
                assert ids[row] == want_ids
                for g, w in zip(got, want, strict=True):
                    npt.assert_allclose(g[row], w, rtol=0, atol=1e-5)

    def test_row_ends_at_its_eos_while_others_run_on(self):
        pipe = adapted_pipe()
        prefix, layouts = heldout_batch(pipe)
        free = decode_greedy(pipe.model, prefix, layouts, -1, 24, pipe.adapters)
        # an id row 0 emits early that some other row never emits
        eos = next(t for t in free[0][:12] if any(t not in row for row in free[1:]))
        got = decode_greedy(pipe.model, prefix, layouts, eos, 24, pipe.adapters)
        assert got == [truncated(row, eos) for row in free]
        assert got[0][-1] == eos and len(got[0]) <= 12
        assert max(map(len, got)) == 24

    def test_max_seq_stops_every_row_at_once(self):
        model = Model.init(ModelConfig(max_seq=12), seed=0)
        lay = SequenceLayout(0, 5, 5)
        prefix = model.embed_tokens(np.arange(15).reshape(3, 5) + 4)
        # forwards over lengths 5..12 give 8 tokens per row
        assert [len(ids) for ids in decode_greedy(model, prefix, [lay] * 3, eos_id=-1, max_new=50)] == [8] * 3

    def test_prefixes_with_different_layouts_rejected(self):
        model = Model.init(ModelConfig(), seed=0)
        prefix = model.embed_tokens(np.arange(10).reshape(2, 5) + 4)
        text, vision = SequenceLayout(0, 5, 5), SequenceLayout(2, 5, 5)
        with pytest.raises(ValueError, match=r"share one layout.*n_vision=2"):
            decode_greedy(model, prefix, [text, vision], eos_id=2, max_new=4)
        with pytest.raises(ValueError, match="share one layout"):
            decode_greedy(model, prefix, [text], eos_id=2, max_new=4)


def test_merged_decode_costs_what_the_base_model_does(monkeypatch):
    """The paper's "no extra inference cost": after the merge, decoding runs
    exactly the weight products of a never-adapted model of the same config,
    n_llm * 7 + 1 per forward, each through ``model._gemm``. So does an
    unmerged decode, which merges its adapters once per call. No decode
    calls the tape's ``T.matmul`` or ``T.linear``."""
    pipe = adapted_pipe()
    prefix, layouts = heldout_batch(pipe)
    gemm = vora_model._gemm
    tape_calls = []
    for name in ("matmul", "linear"):
        monkeypatch.setattr(T, name, lambda *args, name=name, **kwargs: tape_calls.append(name))

    def shapes_of(model, adapters):
        calls = []
        monkeypatch.setattr(vora_model, "_gemm", lambda x, w: calls.append((x.shape, w.shape)) or gemm(x, w))
        try:
            assert len(decode_greedy(model, prefix, layouts, -1, 24, adapters)[0]) == 24
        finally:
            monkeypatch.setattr(vora_model, "_gemm", gemm)
        return calls

    unmerged = shapes_of(pipe.model, pipe.adapters)
    trainer.merge(pipe)
    merged = shapes_of(pipe.model, pipe.adapters)
    base = shapes_of(Model.init(pipe.cfg, seed=1), None)
    assert len(unmerged) == 24 * (pipe.cfg.n_llm * len(vora_model.LAYER_NAMES) + 1)
    assert unmerged == merged == base
    assert tape_calls == []


@pytest.mark.parametrize("mask_mode", ["hybrid", "causal"])
@pytest.mark.parametrize("b, s", [(1, 30), (3, 17), (1, 1)])
def test_cached_prefill_equals_tape_forward_bit_for_bit(b, s, mask_mode):
    # the cached forward runs the tape path's kernels in its order on
    # arrays: a prefill's logits and taps, on a [B, S, d] batch sharing one
    # layout, are the bits of the tape forward with the adapters unmerged,
    # when the cached model's adapted weights are AdapterSet.merged_weights,
    # the weights decode_greedy merges for its cached forward
    pipe = adapted_pipe()
    rng = np.random.default_rng(b * s)
    emb = T.constant(rng.standard_normal((b, s, pipe.cfg.d_model)).astype(np.float32))
    mask = vora_model.attention_mask([s // 3] * b, s, mask_mode)
    merged = Model(pipe.cfg, pipe.model.params | {name: T.constant(w)
                                                  for name, w in pipe.adapters.merged_weights(pipe.model.params)})
    with T.no_grad():
        tape, tape_taps = pipe.model.forward(emb, mask, pipe.adapters)
        cached, cached_taps = merged.forward(emb, mask, cache=[])
    assert cached.shape == tape.shape == (b, s, pipe.cfg.vocab)
    assert cached.data.tobytes() == tape.data.tobytes()
    assert [t.data.tobytes() for t in cached_taps] == [t.data.tobytes() for t in tape_taps]
    assert len(tape_taps) == pipe.cfg.n_vit


def test_decode_cache_grows_with_the_positions_decoded():
    # a zeroed head makes every logit 0, so the first token is id 0 = EOS:
    # the decode holds what one prefill of 3 positions needs, whatever
    # max_seq and max_new allow
    model = Model.init(ModelConfig(max_seq=10**12), seed=0)
    model.params["llm.head"].data[:] = 0.0
    prefix = model.embed_tokens([1, 10, 20])
    tracemalloc.start()
    try:
        assert decode_greedy(model, prefix, SequenceLayout(0, 3, 3), eos_id=0, max_new=10**9) == [0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cache_doubles_when_full_and_matches_full_recompute():
    # a 3-position prefill fills its cache; 100 new tokens double it six
    # times, each growth moving the cached keys and values into new buffers
    pipe = adapted_pipe()
    prefix, lay = pipe.model.embed_tokens([D.BOS, 10, 20]), SequenceLayout(0, 3, 3)
    capacities = []
    ids, got, _ = spied_decode(pipe.model, prefix, lay, -1, 100, pipe.adapters, capacities=capacities)
    want_ids, want = full_recompute_decode(pipe.model, prefix, lay, -1, 100, pipe.adapters)
    assert ids == want_ids and len(ids) == 100
    for g, w in zip(got, want, strict=True):
        npt.assert_allclose(g[0], w, rtol=0, atol=1e-5)
    assert capacities == sorted(capacities) and sorted(set(capacities)) == [3, 6, 12, 24, 48, 96, 192]


def test_long_decode_matches_full_recompute():
    # 100 new tokens: the cache grows one position a step well past the
    # 24-token eval decode
    pipe = adapted_pipe()
    (prefix, lay), = heldout_prefixes(pipe, n=1)
    max_new = 100
    assert prefix.data.shape[0] + max_new < pipe.cfg.max_seq
    ids, got, _ = spied_decode(pipe.model, prefix, lay, -1, max_new, pipe.adapters)
    want_ids, want = full_recompute_decode(pipe.model, prefix, lay, -1, max_new, pipe.adapters)
    assert ids == want_ids and len(ids) == max_new
    for g, w in zip(got, want, strict=True):
        npt.assert_allclose(g[0], w, rtol=0, atol=1e-5)


def test_merged_logits_equal_unmerged_bit_for_bit():
    """The merge writes the float32 weight an unmerged adapted layer runs on
    (``T.merged_weight``), so on rows enough that every adapted layer builds
    that weight, merged and unmerged logits are the same bits."""
    pipe = adapted_pipe()
    prefix, layouts = heldout_batch(pipe, n=4)
    b, s, _ = prefix.shape
    cfg = pipe.cfg
    assert b * s * (cfg.d_model + cfg.d_ff) >= cfg.d_model * cfg.d_ff  # too many rows for the few-row path
    mask = build_attention_mask(SequenceLayout(layouts[0].n_vision, s, s), s)
    with T.no_grad():
        unmerged, _ = pipe.model.forward(prefix, mask, pipe.adapters, collect_taps=False)
        trainer.merge(pipe)
        merged, _ = pipe.model.forward(prefix, mask, pipe.adapters, collect_taps=False)
    assert merged.data.tobytes() == unmerged.data.tobytes()


def test_unmerged_decode_equals_merged_bit_for_bit():
    # an unmerged decode merges its adapters once per call, so each step's
    # logits on the 8 held-out prefixes are the merged model's bits
    pipe = adapted_pipe()
    prefixes = heldout_prefixes(pipe)
    unmerged = [spied_decode(pipe.model, p, lay, -1, 24, pipe.adapters)[:2] for p, lay in prefixes]
    trainer.merge(pipe)
    merged = [spied_decode(pipe.model, p, lay, -1, 24, pipe.adapters)[:2] for p, lay in prefixes]
    for (ids, steps), (want_ids, want) in zip(unmerged, merged, strict=True):
        assert ids == want_ids and len(ids) == 24
        assert [g.tobytes() for g in steps] == [w.tobytes() for w in want]


def test_forward_only_adapted_rows_equal_merged_bit_for_bit():
    # a gradient-free adapted forward of a few rows runs each adapted layer
    # on its merged weight too, as a step of a cached decode once did not
    pipe = adapted_pipe()
    rng = np.random.default_rng(3)
    inputs = [(pipe.model.embed_tokens(rng.integers(0, pipe.cfg.vocab, n)),
               build_attention_mask(SequenceLayout(0, n, n), n)) for n in (1, 8)]
    with T.no_grad():
        unmerged = [pipe.model.forward(emb, mask, pipe.adapters, collect_taps=False)[0] for emb, mask in inputs]
        trainer.merge(pipe)
        merged = [pipe.model.forward(emb, mask, collect_taps=False)[0] for emb, mask in inputs]
    for got, want in zip(unmerged, merged, strict=True):
        assert got.data.tobytes() == want.data.tobytes()


def test_rope_tables_at_positions_equal_the_full_tables_rows():
    # the forward builds its RoPE tables for its rows' positions only; they
    # are the rows of the tables of every position, to the bit
    pos = np.array([5, 0, 159, 3, 3, 77])
    for got, full in zip(rope_qk_tables(pos, 4, 16)[1], rope_qk_tables(np.arange(160), 4, 16)[1]):
        assert got.tobytes() == full[pos].tobytes()


def test_config_validation():
    with pytest.raises(vora_model.ConfigError, match=r"n_vit \(9\) must be <= n_llm"):
        ModelConfig(n_vit=9, n_llm=6)
    with pytest.raises(vora_model.ConfigError, match="n_vit must be >= 1"):
        ModelConfig(n_vit=0)
    with pytest.raises(vora_model.ConfigError, match=r"d_model \(65\) not divisible by n_heads"):
        ModelConfig(d_model=65, n_heads=4)
    with pytest.raises(vora_model.ConfigError, match="d_model must be >= 1"):
        ModelConfig(d_model=0)
