import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vora.tensor as T
from vora import data, distill
from vora.vision import patchify
from vora.data import (BOS, EOS, IMG, PAD, VOCAB, caption_tokens, encode, gen_image_caption, gen_text_sample,
                       make_batch, pack_samples)


def decode(ids):
    """The words of ``ids``, space-joined: ``encode``'s inverse, for reading."""
    return " ".join(VOCAB[i] for i in ids)


class TestVocab:
    def test_bijective_and_stable(self):
        assert len(VOCAB) == 200
        assert len(set(VOCAB)) == 200
        assert (PAD, BOS, EOS, IMG) == (0, 1, 2, 3)
        assert decode(encode(["a", "red", "circle"])) == "a red circle"

    def test_roundtrip_every_word(self):
        for i, w in enumerate(VOCAB):
            assert encode([w]) == [i]


def oracle_caption(shapes):
    """Independent scene-graph-to-text oracle (separate code path)."""
    def describe(s):
        return f"a {data.COLOR_NAMES[s.color]} {data.SHAPE_NAMES[s.kind]}"

    if len(shapes) == 1:
        return describe(shapes[0])
    a, b = shapes[0], shapes[1]
    dx, dy = b.cx - a.cx, b.cy - a.cy
    if abs(dx) >= abs(dy):
        rel = "left of" if dx > 0 else "right of"
    else:
        rel = "above" if dy > 0 else "below"
    text = f"{describe(a)} {rel} {describe(b)}"
    for s in shapes[2:]:
        text += f" and {describe(s)}"
    return text


class TestImageCaption:
    def test_same_seed_identical(self):
        a = gen_image_caption(1234)
        b = gen_image_caption(1234)
        npt.assert_array_equal(a.image, b.image)
        assert a.answer_tokens == b.answer_tokens

    def test_one_shape_scene_one_color_one_shape_word(self):
        rng = np.random.default_rng(0)
        shapes = data.make_scene(rng, 32, 32, n_shapes=1)
        words = caption_tokens(shapes)
        assert sum(w in data.COLOR_NAMES for w in words) == 1
        assert sum(w in data.SHAPE_NAMES for w in words) == 1

    def test_caption_matches_independent_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            shapes = data.make_scene(rng, 32, 32)
            assert " ".join(caption_tokens(shapes)) == oracle_caption(shapes)

    def test_rendered_colors_present(self):
        sample = gen_image_caption(77)
        px = sample.image
        # background plus at least one painted shape color
        assert (px == data.BACKGROUND).any()
        assert (px != data.BACKGROUND).any()

    def test_resolution_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            gen_image_caption(0, resolution=(104, 104))
        with pytest.raises(ValueError, match="multiple"):
            gen_image_caption(0, resolution=(30, 32))

    def test_vocab_closure_fuzz(self):
        # every generated token is a known word (10k samples)
        for seed in range(5000):
            s = gen_text_sample(seed)
            for t in s.prompt_tokens + s.answer_tokens:
                assert 0 <= t < len(VOCAB)
        for seed in range(5000):
            shapes = data.make_scene(np.random.default_rng([seed, 1]), 32, 32)
            for w in caption_tokens(shapes):
                assert w in data.TOKEN_TO_ID


WORD_TO_NUM = {w: i for i, w in enumerate(data.NUMBER_WORDS)}


def eval_template(prompt_words, answer_words):
    """Direct evaluator of each template; independent of the generator."""
    if prompt_words[0] == "what":
        a, op, b = prompt_words[2], prompt_words[3], prompt_words[4]
        x, y = WORD_TO_NUM[a], WORD_TO_NUM[b]
        val = {"plus": x + y, "minus": x - y, "times": x * y}[op]
        return answer_words == [data.NUMBER_WORDS[val]]
    if prompt_words[0] == "repeat":
        return answer_words == prompt_words[2:]
    if prompt_words[0] == "reverse":
        return answer_words == list(reversed(prompt_words[2:]))
    return False


class TestTextSamples:
    def test_arithmetic_trivials(self):
        # direct checks of the stated template examples
        assert eval_template(["what", "is", "two", "plus", "three"], ["five"])
        assert eval_template(["repeat", ":", "red", "square"], ["red", "square"])

    def test_thousand_seeds_against_evaluator(self):
        for seed in range(1000):
            s = gen_text_sample(seed)
            prompt = [VOCAB[t] for t in s.prompt_tokens[1:]]  # drop <bos>
            answer = [VOCAB[t] for t in s.answer_tokens]
            assert eval_template(prompt, answer), (prompt, answer)

    def test_deterministic(self):
        a, b = gen_text_sample(42), gen_text_sample(42)
        assert a.prompt_tokens == b.prompt_tokens and a.answer_tokens == b.answer_tokens


class TestMakeBatch:
    def test_fraction_zero_all_text(self):
        batch = make_batch(np.random.default_rng(0), 6, image_fraction=0.0)
        assert batch.n_image == 0
        for lay in batch.layouts:
            assert lay.n_vision == 0

    def test_fraction_one_all_images(self):
        batch = make_batch(np.random.default_rng(1), 6, image_fraction=1.0)
        assert batch.n_image == 6
        assert None not in batch.grids

    def test_counts_match_fraction_within_rounding(self):
        batch = make_batch(np.random.default_rng(2), 10, image_fraction=0.82)
        assert batch.n_image == round(10 * 0.82)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            make_batch(np.random.default_rng(0), 0)

    def test_pack_samples_puts_image_rows_first_sorted_by_grid(self):
        text = gen_text_sample(1)
        wide = gen_image_caption(2, resolution=(16, 24))
        small = gen_image_caption(3, resolution=(16, 16))
        small2 = gen_image_caption(4, resolution=(16, 16))
        batch = pack_samples([text, wide, small, small2], 8, 160)
        assert batch.n_image == 3
        assert batch.grids == [(2, 2), (2, 2), (2, 3), None]
        # one flat patch stack, built from the images in row order, and one run per grid
        assert batch.runs == [((2, 2), 2), ((2, 3), 1)]
        npt.assert_array_equal(batch.patches,
                               np.concatenate([patchify(im, 8) for im in (small.image, small2.image, wide.image)]))
        assert batch.layouts[3].n_vision == 0
        assert batch.tokens[3, 0] == BOS

    def test_layout_structure(self):
        batch = make_batch(np.random.default_rng(3), 4, image_fraction=0.5)
        for i, lay in enumerate(batch.layouts):
            v1, t1 = lay.n_vision, lay.length
            assert (batch.tokens[i, :v1] == IMG).all()
            assert batch.tokens[i, t1 - 1] == EOS
            assert (batch.tokens[i, t1:] == PAD).all()
            assert batch.tokens[i, v1] == BOS

    def test_pad_extension_leaves_lm_loss_unchanged(self):
        # identical loss for the same packed sample with and without a PAD tail
        from vora import trainer
        from vora.model import ModelConfig
        cfg = ModelConfig()
        pipe = trainer.build_pipeline(cfg, seed=0)
        sample = gen_image_caption(5)
        short = pack_samples([sample], cfg.patch, cfg.max_seq)
        padded = pack_samples([sample], cfg.patch, cfg.max_seq)
        extra = np.full((1, 4), PAD, dtype=np.int64)
        padded.tokens = np.concatenate([padded.tokens, extra], axis=1)
        with T.no_grad():
            out_a = trainer.compute_losses(pipe, short, "hybrid", "none")
            out_b = trainer.compute_losses(pipe, padded, "hybrid", "none")
        npt.assert_array_equal(out_a.lm.data, out_b.lm.data)

    def test_global_determinism_bytes(self):
        def run(seed):
            batch = make_batch(np.random.default_rng(seed), 5, image_fraction=0.6)
            return batch.tokens.tobytes() + batch.patches.tobytes() + repr(batch.runs).encode()

        assert run(9) == run(9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 16),
           image_fraction=st.floats(0.0, 1.0))
    def test_runs_follow_grids_and_cover_patches(self, seed, batch_size, image_fraction):
        batch = make_batch(np.random.default_rng(seed), batch_size, image_fraction=image_fraction,
                           dcfg=data.DataConfig(anyres=True))
        runs = batch.runs
        assert sum(n * r * c for (r, c), n in runs) == batch.n_vision == batch.patches.shape[0]
        image_grids = [g for g in batch.grids if g is not None]
        assert batch.n_image == len(image_grids)
        assert [grid for grid, n in runs for _ in range(n)] == image_grids
        assert all(n >= 1 for _, n in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))

    def test_anyres_resolution_diversity(self):
        dcfg = data.DataConfig(anyres=True)
        batch = make_batch(np.random.default_rng(4), 100, image_fraction=1.0, dcfg=dcfg, max_seq=300)
        grids = {g for g in batch.grids if g is not None}
        assert len(grids) >= 3

    def test_too_long_sample_rejected(self):
        sample = gen_image_caption(0, resolution=(96, 96))
        with pytest.raises(ValueError, match="max_seq"):
            pack_samples([sample], 8, max_seq=32)

    @pytest.mark.parametrize("dcfg", [data.DataConfig(), data.DataConfig(anyres=True, anyres_max=40)])
    def test_max_packed_len_is_the_longest_row(self, dcfg):
        # 400 image rows reach the largest grid with a longest caption; none is longer
        batch = make_batch(np.random.default_rng(5), 400, image_fraction=1.0, dcfg=dcfg, max_seq=300)
        assert batch.tokens.shape[1] == data.max_packed_len(dcfg)


def _patch_blocks(batch):
    """Each sequence's patch rows, in sequence order."""
    starts = np.cumsum([0] + [lay.n_vision for lay in batch.layouts])
    return [batch.patches[a:b] for a, b in zip(starts, starts[1:])]


class TestShards:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 16),
           kind=st.sampled_from(["fixed", "anyres", "text"]), image_fraction=st.floats(0.0, 1.0))
    def test_two_shards_recompose_the_batch(self, seed, batch_size, kind, image_fraction):
        batch = make_batch(np.random.default_rng(seed), batch_size,
                           image_fraction=0.0 if kind == "text" else image_fraction,
                           dcfg=data.DataConfig(anyres=kind == "anyres"))
        shards = batch.shards()
        if batch_size == 1:
            assert len(shards) == 1 and shards[0] is batch
            return
        assert len(shards) == 2
        supervised = sum(lay.length - lay.supervise_from for lay in batch.layouts)
        blocks = [_patch_blocks(s) for s in shards]
        for i, lay in enumerate(batch.layouts):
            shard, row = shards[i % 2], i // 2
            assert shard.layouts[row] == lay and shard.grids[row] == batch.grids[i]
            npt.assert_array_equal(shard.tokens[row, :lay.length], batch.tokens[i, :lay.length])
            assert (shard.tokens[row, lay.length:] == PAD).all()
            npt.assert_array_equal(blocks[i % 2][row], _patch_blocks(batch)[i])
        for shard in shards:
            assert shard.whole == (supervised, batch.n_image)
            assert shard.tokens.shape[1] == max(lay.length for lay in shard.layouts)
            assert shard.tokens.flags.c_contiguous and shard.tokens.dtype == batch.tokens.dtype
        counts = {}
        for shard in shards:
            for grid, n in shard.runs:
                counts[grid] = counts.get(grid, 0) + n
        assert counts == dict(batch.runs)
        assert shards[0].n_image + shards[1].n_image == batch.n_image
