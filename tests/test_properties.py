"""Property checks over small random model configs (hypothesis,
derandomized): the token-major training forward, the teacher on a
mixed-grid stack and the cached greedy decode, each against a plain
oracle of the tests, and a two-shard training step, in one process and
in two, against the whole batch's step. Every oracle mask comes from
the tests' own rule (``test_mask.oracle_mask``), never from vora."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vora.tensor as T
from vora import data, lora
from vora.model import MASK_MODES, Model, ModelConfig, SequenceLayout, decode_greedy, is_norm_gain
from vora.vision import Teacher, patchify

from test_mask import oracle_mask
from test_trainer import assert_steps_equal, assert_steps_match, one_step, whole_step
from test_model import full_recompute_decode, spied_decode, straightline_forward
from test_vision import straightline_teacher

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw):
    """A small ModelConfig: 1-4 heads of an even dim 2-8, 1-3 blocks of
    which 1..n_llm are distilled, rank 1 to d_model - 1, 2x2 patches and
    a teacher of 1, 2 or 4 heads whose width is any multiple of its head
    count from 2 up to 12 (odd widths too, whose positional encoding pads
    a zero column)."""
    heads, head_dim = draw(st.integers(1, 4)), draw(st.sampled_from([2, 4, 6, 8]))
    d = heads * head_dim
    n_llm = draw(st.integers(1, 3))
    vit_heads = draw(st.sampled_from([1, 2, 4]))
    return ModelConfig(n_llm=n_llm, n_vit=draw(st.integers(1, n_llm)), d_model=d, n_heads=heads,
                       d_ff=draw(st.integers(d, 2 * d)), rank=draw(st.integers(1, d - 1)), vocab=16, patch=2,
                       max_seq=32, vembed_hidden=4,
                       d_vit=vit_heads * draw(st.integers(max(1, 2 // vit_heads), 12 // vit_heads)),
                       vit_heads=vit_heads, vit_ff=draw(st.integers(2, 12)))


def assert_within(got, want, rel):
    """Worst |got - want| at most rel times the largest |want|."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def adapted_model(cfg, rng):
    """A model with fan-in scaled N(0, 1) weights (so attention mixes rows
    visibly), an adapter pair with b nonzero on every layer of the
    distilled blocks, and the oracle's weights: each adapted one merged
    explicitly, w + b·a in float64, rounded once to float32."""
    model = Model.init(cfg)
    adapters = lora.attach(cfg)
    for name, t in [*model.params.items(), *adapters.params.items()]:
        if not is_norm_gain(name):
            t.data = (rng.standard_normal(t.data.shape) / np.sqrt(t.data.shape[-1])).astype(np.float32)
    params = dict(model.params)
    for (block, layer), (a, b) in adapters.adapters.items():
        name = f"llm.blocks.{block}.{layer}"
        params[name] = T.constant(params[name].data + b.data.astype(np.float64) @ a.data.astype(np.float64))
    return model, adapters, params


@PROPERTY
@given(cfg=configs(), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3), data=st.data())
def test_token_major_forward_matches_straightline_per_sequence(cfg, lengths, data):
    spans = [data.draw(st.integers(0, n)) for n in lengths]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    model, adapters, params = adapted_model(cfg, rng)
    b, s = len(lengths), max(lengths)
    live = np.arange(s)[None, :] < np.array(lengths)[:, None]
    rows = np.full((b, s), -1)
    rows[live] = rng.permutation(live.sum())  # the live tokens in any flat order
    emb = rng.standard_normal((live.sum(), cfg.d_model)).astype(np.float32)
    for mode in MASK_MODES:
        mask = np.stack([oracle_mask(nv, range(s), s, mode) for nv in spans])
        logits, taps = model.forward(T.constant(emb), mask, adapters, rows=rows)
        T.active_tape().reset()  # the adapters record nodes; nothing runs backward
        assert len(taps) == cfg.n_vit
        for seq, (n, nv) in enumerate(zip(lengths, spans)):
            pick = rows[seq, :n]
            want_logits, want_taps = straightline_forward(cfg, params, emb[pick], oracle_mask(nv, range(n), n, mode))
            assert_within(logits.data[pick], want_logits, 1e-5)
            for tap, want in zip(taps, want_taps, strict=True):
                assert_within(tap.data[pick], want, 1e-5)


@PROPERTY
@given(cfg=configs(), runs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
                                    min_size=2, max_size=3, unique_by=lambda run: run[:2]),
       seed=st.integers(0, 2**16))
def test_teacher_on_a_mixed_grid_stack_matches_straightline(cfg, runs, seed):
    # runs of (grid rows, grid cols, images) on distinct grids, stacked flat
    rng = np.random.default_rng(seed)
    teacher = Teacher.init(cfg)
    for t in teacher.params.values():  # larger than init, so attention mixes rows visibly
        t.data = (0.3 * rng.standard_normal(t.data.shape)).astype(np.float32)
    p = cfg.patch
    images = [np.stack([patchify(rng.random((r * p, c * p, 3), dtype=np.float32), p) for _ in range(n)])
              for r, c, n in runs]
    got = teacher.forward_batch(np.concatenate([x.reshape(-1, x.shape[-1]) for x in images]),
                                [((r, c), n) for r, c, n in runs])
    # the oracle runs each grid's images on their own, with no mask
    per_run = [straightline_teacher(cfg, teacher.params, x, (r, c)) for x, (r, c, _) in zip(images, runs)]
    assert len(got) == cfg.n_vit
    for blk, state in enumerate(got):
        want = np.concatenate([states[blk].reshape(-1, cfg.d_vit) for states in per_run])
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-6)


@PROPERTY
@given(cfg=configs(), prefix=st.integers(1, 5), batch=st.integers(1, 2), data=st.data())
def test_cached_decode_ids_match_full_recompute(cfg, prefix, batch, data):
    lay = SequenceLayout(data.draw(st.integers(0, prefix)), prefix, prefix)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    model, adapters, _ = adapted_model(cfg, rng)
    emb = rng.standard_normal((batch, prefix, cfg.d_model)).astype(np.float32)
    for mode in MASK_MODES:
        ids = decode_greedy(model, T.constant(emb), [lay] * batch, eos_id=-1, max_new=6, adapters=adapters,
                            mask_mode=mode)
        for row, got in zip(emb, ids, strict=True):
            want, _ = full_recompute_decode(model, T.constant(row), lay, -1, 6, adapters, mode)
            assert got == want


@PROPERTY
@given(cfg=configs(), prefix=st.integers(1, 5), batch=st.integers(1, 2), data=st.data())
def test_unmerged_decode_equals_merged_bit_for_bit(cfg, prefix, batch, data):
    # the decode merges unmerged adapters once per call: ids and every
    # step's logits are the merged model's bits, under both mask modes
    lay = SequenceLayout(data.draw(st.integers(0, prefix)), prefix, prefix)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    model, adapters, _ = adapted_model(cfg, rng)
    emb = T.constant(rng.standard_normal((batch, prefix, cfg.d_model)).astype(np.float32))
    unmerged = [spied_decode(model, emb, [lay] * batch, -1, 6, adapters, mode)[:2] for mode in MASK_MODES]
    lora.merge_all(model, adapters)
    merged = [spied_decode(model, emb, [lay] * batch, -1, 6, adapters, mode)[:2] for mode in MASK_MODES]
    for (ids, steps), (want_ids, want) in zip(unmerged, merged, strict=True):
        assert ids == want_ids
        assert [g.tobytes() for g in steps] == [w.tobytes() for w in want]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(cfg=configs(), batch_size=st.integers(2, 6), anyres=st.booleans(), mask_mode=st.sampled_from(MASK_MODES))
# a gradient entry of lora.0.k.b (3.5e-9) lies below AdamW's 1e-8 epsilon,
# so the two steps' weights differ by more than their gradients' rounding
@example(cfg=ModelConfig(n_llm=1, n_vit=1, d_model=32, d_vit=2, n_heads=4, d_ff=32, rank=2, patch=2, vembed_hidden=4,
                         vit_heads=1, vit_ff=2, vocab=200, max_seq=80),
         batch_size=2, anyres=False, mask_mode="hybrid")
def test_two_shard_step_equals_one_shard_step(cfg, batch_size, anyres, mask_mode):
    cfg = replace(cfg, vocab=data.VOCAB_SIZE, max_seq=80)
    dcfg = data.DataConfig(resolution=(8, 8), patch=2, anyres=anyres, anyres_min=8, anyres_max=12)
    serial, forked = (one_step(cfg, dcfg, fork, batch_size=batch_size, mask_mode=mask_mode) for fork in (False, True))
    assert_steps_equal(serial, forked)
    assert_steps_match(forked, whole_step(cfg, dcfg, batch_size=batch_size, mask_mode=mask_mode))
