"""The one attention op, ``T.attention``, over the length groups of
``model.attention_plan``: against the tests' nine-node oracle
(``attention_oracle``) on drawn ragged layouts, and the plan's own
properties (hypothesis, derandomized and bounded)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vora.tensor as T
from vora.gradcheck import project
from vora.model import GROUP_CELLS, MASK_MODES, attention_mask, attention_plan, rope_qk_tables

import attention_oracle as oracle

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def layouts(draw, max_b=5, max_len=40):
    """[B, S] rows of a ragged batch, each sequence's live length and vision
    span: lengths 0..max_len (at least one live row), interior holes before
    a sequence's last live position, the live rows in any flat order."""
    lengths = np.array(draw(st.lists(st.integers(0, max_len), min_size=1, max_size=max_b)))
    if not lengths.any():
        lengths[0] = 1
    s = int(lengths.max())
    col = np.arange(s)
    live = col < lengths[:, None]
    if draw(st.booleans()):  # interior holes: never at a sequence's last live position
        holes = np.array(draw(st.lists(st.booleans(), min_size=live.size, max_size=live.size))).reshape(live.shape)
        live &= ~(holes & (col < lengths[:, None] - 1))
    rows = np.full(live.shape, -1)
    order = draw(st.permutations(range(int(live.sum()))))
    rows[live] = order
    spans = [draw(st.integers(0, int(n))) for n in lengths]
    return rows, lengths, spans


def positions(rows):
    live = rows >= 0
    pos = np.zeros(int(live.sum()), dtype=np.intp)
    pos[rows[live]] = np.nonzero(live)[1]
    return pos


def grads(make_out, inputs, r):
    """Output and each input's gradient (None without one) of sum(out * r)."""
    for t in inputs:
        t.grad = None
    out = make_out()
    T.backward(project(out, r))
    return [out.data] + [t.grad for t in inputs]


def per_sequence_plan(rows, mask):
    """One group per sequence with a live row, padded to its own length."""
    plan = []
    for b in range(rows.shape[0]):
        live = np.flatnonzero(rows[b] >= 0)
        if live.size:
            s = live[-1] + 1
            plan.append((T.RowIndex(rows[[b], :s]), mask[[b], :s, :s]))
    return plan


@PROPERTY
@given(layout=layouts(), heads=st.integers(1, 3), head_dim=st.sampled_from([2, 4, 6]),
       mode=st.sampled_from(MASK_MODES), use_rope=st.booleans(),
       requires=st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any), seed=st.integers(0, 2**16))
def test_attention_matches_the_nine_node_oracle(layout, heads, head_dim, mode, use_rope, requires, seed):
    # the op's output and the gradients of q, k and v against the oracle's
    # on the padded grid: within 1e-6 of the largest magnitude over the
    # plan's groups and over one group per sequence, and bit for bit when
    # one full-width group covers the batch (with rope: without it the op
    # scales q, the oracle its scores); an input that requires no gradient
    # gets none
    rows, lengths, spans = layout
    rng = np.random.default_rng(seed)
    n, d = int((rows >= 0).sum()), heads * head_dim
    mask = attention_mask(spans, rows.shape[1], mode)
    rope = rope_qk_tables(positions(rows), heads, head_dim) if use_rope else None
    qkv = [T.Tensor(rng.standard_normal((n, d)).astype(np.float32), requires_grad=req) for req in requires]
    r = rng.standard_normal((n, d)).astype(np.float32)
    want = grads(lambda: oracle.attention(*qkv, mask, heads, rows, rope), qkv, r)
    for plan in (attention_plan(rows, mask), per_sequence_plan(rows, mask)):
        got = grads(lambda: T.attention(*qkv, plan, heads, rope), qkv, r)
        for g, w, req in zip(got, want, (True, *requires)):
            assert (g is None) == (not req)
            if req:
                assert g.shape == w.shape and g.dtype == np.float32
                assert np.abs(g - w).max() <= 1e-6 * np.abs(w).max()
        if use_rope and len(plan) == 1 and plan[0][0].shape == rows.shape:
            assert all(g is None or g.tobytes() == w.tobytes() for g, w in zip(got, want))


@PROPERTY
@given(layout=layouts(max_b=16, max_len=160), mode=st.sampled_from(MASK_MODES))
def test_plan_holds_every_live_row_once_padded_to_its_longest_member(layout, mode):
    rows, lengths, spans = layout
    mask = attention_mask(spans, rows.shape[1], mode)
    plan = attention_plan(rows, mask)
    seq_of, pos_of = np.empty(rows.max() + 1, dtype=np.intp), np.empty(rows.max() + 1, dtype=np.intp)
    seq_of[rows[rows >= 0]], pos_of[rows[rows >= 0]] = np.nonzero(rows >= 0)
    seen, members = [], []
    for idx, m in plan:
        g, s = idx.shape
        assert g >= 1 and m.shape == (g, s, s)
        group_rows = idx.rows
        seen += group_rows.tolist()
        assert np.array_equal(pos_of[group_rows], np.divmod(idx.at, s)[1])  # each row at its own position
        seqs = seq_of[group_rows]
        assert np.array_equal(seqs, np.sort(seqs))  # the members keep their order
        member = np.unique(seqs)
        assert member.size == g  # no empty group row: a sequence with no live row is in no group
        assert s == lengths[member].max()  # padded only to its longest member
        assert np.array_equal(m, mask[member, :s, :s])
        members.append(member)
    assert sorted(seen) == list(range(int((rows >= 0).sum())))  # every live row exactly once
    # the groups cut the sequences sorted by length
    assert all(lengths[a].max() <= lengths[b].min() for a, b in zip(members, members[1:]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.integers(1, 160), min_size=1, max_size=8))
def test_plan_cuts_minimise_the_cost(lengths):
    # Σ(|g|·S_g² + GROUP_CELLS) of the plan's groups is the least over
    # every cut of the sorted lengths into runs
    rows = np.full((len(lengths), max(lengths)), -1)
    live = np.arange(rows.shape[1]) < np.array(lengths)[:, None]
    rows[live] = np.arange(live.sum())
    plan = attention_plan(rows, attention_mask(0, rows.shape[1]))
    cost = sum(idx.shape[0] * idx.shape[1] ** 2 + GROUP_CELLS for idx, _ in plan)
    srt = sorted(lengths)
    best = min(sum((j - i) * srt[j - 1] ** 2 + GROUP_CELLS for i, j in zip((0, *cut), (*cut, len(srt))))
               for k in range(len(srt)) for cut in itertools.combinations(range(1, len(srt)), k))
    assert cost == best


def test_a_padded_input_is_one_dense_group():
    # eval's padded forward, the merge probe and the teacher at one
    # resolution: every position live, one group over the batch in its
    # order, under a view of the caller's mask
    for b, s in ((1, 1), (3, 7), (16, 160)):
        mask = attention_mask(list(range(b)), s)
        (idx, m), = attention_plan(np.arange(b * s).reshape(b, s), mask)
        assert idx.shape == (b, s) and np.array_equal(idx.at, np.arange(b * s))  # no hole
        assert np.array_equal(idx.rows, np.arange(b * s))  # flat entry j is row j
        assert np.shares_memory(m, mask) and np.array_equal(m, mask)


def test_rows_outside_every_group_get_zero_context():
    # rows no group holds (here: the plan of only the first sequence)
    rows = np.array([[0, 1, 2], [3, 4, -1]])
    q = T.param(np.ones((5, 4), dtype=np.float32))
    plan = attention_plan(rows[:1], attention_mask(0, 3))
    out = T.attention(q, q, q, plan, 2)
    assert out.data[:3].any() and not out.data[3:].any()
    with pytest.raises(ValueError, match="fully masked"):
        attention_plan(rows, np.full((2, 3, 3), T.NEG_MASK, dtype=np.float32))
