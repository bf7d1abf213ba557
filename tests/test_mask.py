import itertools

import numpy as np
import numpy.testing as npt
import pytest

import vora.tensor as T
from vora import kernels
from vora.model import MASK_MODES, LayoutError, Model, ModelConfig, SequenceLayout, attention_mask, attention_plan

NEG = T.NEG_MASK


def allowed_set(mask):
    return {(q, k) for q in range(mask.shape[0]) for k in range(mask.shape[1]) if mask[q, k] == 0.0}


def oracle_allowed(v0, v1, q, k, mode):
    """Independent statement of the visibility rule."""
    if mode == "causal":
        return k <= q
    if v0 <= q < v1:
        return v0 <= k < v1
    return k <= q


def build_attention_mask(layout, total_len, mode="hybrid"):
    """[total_len, total_len] mask of one layout by vora's rule
    (``attention_mask``), which the tests below check against
    ``oracle_allowed``; padding rows are causal, and no in-layout query
    sees them (they come last)."""
    if layout.length > total_len:
        raise LayoutError(f"layout length {layout.length} exceeds total_len {total_len}")
    return attention_mask(layout.n_vision, total_len, mode)[0]


def oracle_mask(n_vision, q_pos, length, mode):
    """Additive [len(q_pos), length] mask of one sequence by ``oracle_allowed``:
    queries at positions q_pos over keys 0..length-1."""
    return np.array([[0.0 if oracle_allowed(0, n_vision, q, k, mode) else NEG for k in range(length)]
                     for q in q_pos], dtype=np.float32)


class TestHybridMask:
    def test_hand_enumerated_5x5(self):
        lay = SequenceLayout(3, 5, 4)
        mask = build_attention_mask(lay, 5, "hybrid")
        expect = {
            0: {0, 1, 2},
            1: {0, 1, 2},
            2: {0, 1, 2},
            3: {0, 1, 2, 3},
            4: {0, 1, 2, 3, 4},
        }
        for q in range(5):
            assert {k for k in range(5) if mask[q, k] == 0.0} == expect[q]

    def test_empty_vision_is_causal(self):
        lay = SequenceLayout(0, 4, 1)
        mask = build_attention_mask(lay, 4, "hybrid")
        tri = np.where(np.tril(np.ones((4, 4), dtype=bool)), 0.0, NEG).astype(np.float32)
        npt.assert_array_equal(mask, tri)

    def test_causal_mode_row_zero(self):
        lay = SequenceLayout(3, 5, 4)
        mask = build_attention_mask(lay, 5, mode="causal")
        assert {k for k in range(5) if mask[0, k] == 0.0} == {0}

    def test_exhaustive_small_layouts(self):
        # every layout of length <= 8 against the rule oracle
        for total in range(1, 9):
            for v1 in range(0, total + 1):
                sup = min(v1 + 1, total)
                if sup >= total and v1 >= total:
                    continue
                lay = SequenceLayout(v1, total, min(max(v1, 1), total))
                for mode in ("hybrid", "causal"):
                    mask = build_attention_mask(lay, total, mode)
                    for q in range(total):
                        for k in range(total):
                            want = oracle_allowed(0, v1, q, k, mode)
                            assert (mask[q, k] == 0.0) == want, (lay, mode, q, k)

    @pytest.mark.parametrize("n_vision, length, supervise_from", [
        (-1, 4, 2), (0, 4, -1), (3, 6, 2), (4, 3, 3), (0, 4, 5), (2, 1, 1), (5, 4, 5), (-2, -1, -1)])
    def test_inconsistent_layout_error(self, n_vision, length, supervise_from):
        # the one rule: 0 <= n_vision <= supervise_from <= length
        with pytest.raises(LayoutError):
            SequenceLayout(n_vision, length, supervise_from)

    @pytest.mark.parametrize("n_vision, length, supervise_from", [(0, 0, 0), (0, 5, 0), (3, 3, 3), (3, 6, 6),
                                                                  (4, 9, 4)])
    def test_consistent_layouts_build(self, n_vision, length, supervise_from):
        # (n_vision, length, length) is decode's layout of a prefix
        lay = SequenceLayout(n_vision, length, supervise_from)
        assert (lay.n_vision, lay.length, lay.supervise_from) == (n_vision, length, supervise_from)

    def test_hybrid_vs_causal_differ_only_in_vision_block(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            total = int(rng.integers(2, 13))
            v1 = int(rng.integers(0, total))
            lay = SequenceLayout(v1, total, min(v1 + 1, total))
            hybrid = allowed_set(build_attention_mask(lay, total, "hybrid"))
            causal = allowed_set(build_attention_mask(lay, total, "causal"))
            diff = hybrid ^ causal
            above_diag_vision = {(q, k) for q in range(v1) for k in range(v1) if k > q}
            assert diff == above_diag_vision


class TestMaskRule:
    """``attention_mask``, the one rule, in its batch and cache forms."""

    def test_batches_after_a_cache_enumerated(self):
        # B <= 3 sequences of s <= 6 queries after past <= 4 cached
        # positions, the last s rows of the mask at past + s: query i sits
        # at position past + i
        for mode in MASK_MODES:
            for s in range(1, 7):
                for past in range(5):
                    length = past + s
                    want = {nv: oracle_mask(nv, range(past, length), length, mode) for nv in range(length + 1)}
                    for b in (1, 2, 3):
                        for spans in itertools.product(range(length + 1), repeat=b):
                            got = attention_mask(spans, length, mode)[:, past:]
                            assert got.dtype == np.float32 and got.shape == (b, s, length)
                            assert np.array_equal(got, np.stack([want[nv] for nv in spans])), (mode, past, spans)
                    assert np.array_equal(attention_mask(length, length, mode)[:, past:], want[length][None])

    def test_all_vision_sequences(self):
        # the teacher's images: each an all-vision sequence padded to the
        # largest; a patch sees exactly its own image's patches
        for b in (1, 2, 3):
            for sizes in itertools.product(range(1, 7), repeat=b):
                s = max(sizes)
                for mask, n in zip(attention_mask(sizes, s), sizes, strict=True):
                    npt.assert_array_equal(mask, oracle_mask(n, range(s), s, "hybrid"))
                    assert (mask[:n, :n] == 0.0).all() and (mask[:n, n:] == NEG).all()

    @pytest.mark.parametrize("mode", MASK_MODES)
    def test_one_row_extension_steps(self, mode):
        # decode: a prefix of length S, then one-row steps at past = S, S+1, ...
        # (the last row of the mask at past + 1). Each step's row is the
        # full recompute's row at that position, and a text token sees
        # every earlier position, so a decode step runs with no mask
        for prefix in range(1, 7):
            for nv in range(prefix + 1):
                full = attention_mask(nv, prefix + 4, mode)[0]
                npt.assert_array_equal(attention_mask(nv, prefix, mode)[0], full[:prefix, :prefix])
                for past in range(prefix, prefix + 4):
                    step = attention_mask(nv, past + 1, mode)[:, past:]
                    assert step.shape == (1, 1, past + 1) and (step == 0.0).all()
                    npt.assert_array_equal(step[0], oracle_mask(nv, [past], past + 1, mode))
                    npt.assert_array_equal(step[0], full[past:past + 1, :past + 1])


class TestMaskSoundness:
    def test_disallowed_probabilities_exactly_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            total = int(rng.integers(2, 13))
            v1 = int(rng.integers(0, total))
            lay = SequenceLayout(v1, total, min(v1 + 1, total))
            mask = build_attention_mask(lay, total, "hybrid")
            scores = rng.standard_normal((total, total)).astype(np.float32)
            probs = kernels.softmax_fwd(scores, mask)
            assert (probs[mask < 0] == 0.0).all()
            npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_attention_probs_zero_through_model(self, monkeypatch):
        # every attention softmax the model computes, in every block and
        # length group: one sequence, then a token-major batch of two
        # sequences far apart in length, which the plan runs as two groups
        cfg = ModelConfig(n_llm=2, n_vit=1, d_model=8, d_vit=8, n_heads=2, d_ff=8,
                          patch=4, rank=2, vembed_hidden=4, vit_heads=2, vit_ff=8)
        model = Model.init(cfg, seed=0)
        rng = np.random.default_rng(0)
        seen = []
        orig = kernels.softmax_fwd

        def spy(x, m):
            out = orig(x, m)
            seen.append((out, np.broadcast_to(m, x.shape)))
            return out

        monkeypatch.setattr(kernels, "softmax_fwd", spy)
        lengths, spans = np.array([6, 60]), [3, 20]
        rows = np.full((2, 60), -1)
        live = np.arange(60) < lengths[:, None]
        rows[live] = rng.permutation(live.sum())
        for emb, mask, forward_rows in (
                (rng.standard_normal((6, cfg.d_model)), build_attention_mask(SequenceLayout(3, 6, 4), 6), None),
                (rng.standard_normal((66, cfg.d_model)), attention_mask(spans, 60), rows)):
            seen.clear()
            model.forward(T.constant(0.1 * emb.astype(np.float32)), mask, collect_taps=False, rows=forward_rows)
            groups = len(attention_plan(np.arange(6)[None] if forward_rows is None else rows, mask))
            assert groups == (1 if forward_rows is None else 2)
            assert len(seen) == cfg.n_llm * groups
            for probs, m in seen:
                assert (probs[m < 0] == 0.0).all()
                npt.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        # a fully masked row is an error, raised before any block runs
        mask = attention_mask(spans, 60)
        mask[1, 30] = NEG
        seen.clear()
        with pytest.raises(ValueError, match="fully masked"):
            model.forward(T.constant(np.zeros((66, cfg.d_model), np.float32)), mask, rows=rows)
        assert seen == []

    def test_a_mask_that_does_not_fit_the_rows_is_a_shape_error(self):
        # a larger mask is not sliced, and a batch's masks are not paired
        # with fewer sequences: each names the mask's shape and the rows'
        cfg = ModelConfig(n_llm=2, n_vit=1, d_model=8, d_vit=8, n_heads=2, d_ff=8,
                          patch=4, rank=2, vembed_hidden=4, vit_heads=2, vit_ff=8)
        model = Model.init(cfg, seed=0)
        one, two = (T.constant(np.zeros(shape + (cfg.d_model,), np.float32)) for shape in ((5,), (2, 5)))
        for emb, mask, shapes in ((one, np.zeros((7, 7), np.float32), r"mask \[7, 7\] for rows \[1, 5\]"),
                                  (two, attention_mask([0, 1, 2], 5), r"mask \[3, 5, 5\] for rows \[2, 5\]"),
                                  (two, np.zeros((5, 6), np.float32), r"mask \[5, 6\] for rows \[2, 5\]")):
            with pytest.raises(T.ShapeError, match=shapes):
                model.forward(emb, mask)
            with pytest.raises(T.ShapeError, match=shapes):
                attention_plan(np.arange(emb.data.size // cfg.d_model).reshape(-1, 5), mask)
        for mask in (np.zeros((5, 5), np.float32), attention_mask(0, 5), attention_mask([0, 2], 5)):
            assert model.forward(two, mask)[0].shape == (2, 5, cfg.vocab)


def test_empty_vision_no_adapters_equals_plain_causal_lm():
    cfg = ModelConfig()
    model = Model.init(cfg, seed=3)
    ids = np.array([5, 9, 17, 30, 8])
    lay = SequenceLayout(0, 5, 1)
    emb = model.embed_tokens(ids)
    hybrid_logits, _ = model.forward(emb, build_attention_mask(lay, 5, "hybrid"), collect_taps=False)
    causal_logits, _ = model.forward(model.embed_tokens(ids),
                                     build_attention_mask(lay, 5, "causal"), collect_taps=False)
    npt.assert_array_equal(hybrid_logits.data, causal_logits.data)


def test_tap_count_and_shapes():
    cfg = ModelConfig()
    model = Model.init(cfg, seed=1)
    rng = np.random.default_rng(2)
    emb = T.constant(rng.standard_normal((7, cfg.d_model)).astype(np.float32) * 0.1)
    lay = SequenceLayout(4, 7, 5)
    _, taps = model.forward(emb, build_attention_mask(lay, 7, "hybrid"))
    assert len(taps) == cfg.n_vit
    for tap in taps:
        assert tap.shape == (7, cfg.d_model)
