"""Decoder-only student model: pre-norm blocks, RMS-norm, SwiGLU FFN,
rotary positions, hybrid vision/text attention masks, per-block taps. The
stack runs token-major on flat rows: a batch's live tokens, or padded
sequences flattened. ``attention_plan`` cuts a forward's sequences into
length groups once, and ``T.attention`` runs every block's multi-head
attention over them, one node per block, for the student and the
teacher. ``decode_greedy`` decodes over a K/V cache of the
positions decoded so far (per block, token-major key and value rows with
spare capacity that each step writes its new row into, in place), on a
cached forward that runs the blocks on plain arrays, with no tape, and
``init_tensors`` draws every tensor owner's init from its ``shapes`` table.

A packed sequence is three integers (``SequenceLayout``): vision tokens
[0, n_vision), then text up to its length, supervised from
supervise_from. The hybrid mask (``attention_mask``, which builds every
mask) gives vision-vision pairs bi-directional visibility, the rest causal.
Every tape attention takes a mask; a decode builds one, for its prefill only.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from . import tensor as T
from .tensor import Tensor

# a length group's fixed cost in ``attention_plan``, in score cells: about
# what a group's dispatch costs against its [S_g, S_g] scores per sequence
GROUP_CELLS = 1024
LAYER_NAMES = ("q", "k", "v", "o", "ffn_gate", "ffn_up", "ffn_down")
MASK_MODES = ("hybrid", "causal")


class ConfigError(ValueError):
    pass


class LayoutError(ValueError):
    pass


class SequenceTooLong(ValueError):
    pass


@dataclass
class ModelConfig:
    n_llm: int = 6  # student block count
    n_vit: int = 4  # teacher block count (= distilled student blocks)
    d_model: int = 64  # student width
    d_vit: int = 48  # teacher width
    n_heads: int = 4  # student attention heads
    d_ff: int = 256  # student FFN inner width
    vocab: int = 200  # vocabulary size (builtin vocabulary has 200)
    patch: int = 8  # patch edge length, pixels
    rank: int = 8  # adapter rank
    max_seq: int = 160  # packing limit
    vembed_hidden: int = 0  # vision-embed hidden width; 0 resolves to d_model // 2
    vit_heads: int = 4  # teacher attention heads
    vit_ff: int = 0  # teacher FFN inner width; 0 resolves to 4 * d_vit

    def __post_init__(self):
        if self.vembed_hidden <= 0:
            self.vembed_hidden = self.d_model // 2
        if self.vit_ff <= 0:
            self.vit_ff = 4 * self.d_vit
        if self.n_vit > self.n_llm:
            raise ConfigError(f"n_vit ({self.n_vit}) must be <= n_llm ({self.n_llm})")
        for name in ("n_llm", "n_vit", "d_model", "n_heads", "d_ff", "vocab", "patch", "rank", "max_seq", "vit_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_vit < 2:
            raise ConfigError(f"d_vit ({self.d_vit}) must be >= 2: at width 1 every distillation cosine is +-1")
        # an adapter's rank must stay below both sides of every adapted layer
        if self.rank >= min(self.d_model, self.d_ff):
            raise ConfigError(f"rank ({self.rank}) must be < min(d_model, d_ff) = {min(self.d_model, self.d_ff)}")
        if self.d_model % self.n_heads:
            raise ConfigError(f"d_model ({self.d_model}) not divisible by n_heads ({self.n_heads})")
        if (self.d_model // self.n_heads) % 2:
            raise ConfigError("head dim must be even for rotary positions")
        if self.d_vit % self.vit_heads:
            raise ConfigError(f"d_vit ({self.d_vit}) not divisible by vit_heads ({self.vit_heads})")

    @property
    def head_dim(self):
        return self.d_model // self.n_heads


def is_norm_gain(name):
    """A norm gain's name ends in norm or gain: it starts at ones, never decays."""
    return name.endswith(("norm", "gain"))


def init_tensors(shapes, rng, requires_grad=False, scale=lambda name: 0.02):
    """One Tensor per entry of a name -> shape table, drawn in table order.

    A norm gain (``is_norm_gain``) is ones, a tensor whose ``scale(name)``
    is 0 is zeros; neither draws from ``rng``. Every other tensor is
    scale(name) * N(0, 1).
    """
    out = {}
    for name, shape in shapes.items():
        s = scale(name)
        if is_norm_gain(name):
            data = np.ones(shape, dtype=np.float32)
        elif s == 0:
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = (s * rng.standard_normal(shape)).astype(np.float32)
        out[name] = Tensor(data, requires_grad=requires_grad)
    return out


@dataclass
class SequenceLayout:
    """One packed sequence: vision [0, n_vision), text [n_vision, length),
    supervision from ``supervise_from``."""

    n_vision: int
    length: int
    supervise_from: int

    def __post_init__(self):
        if not (0 <= self.n_vision <= self.supervise_from <= self.length):
            raise LayoutError(f"need 0 <= n_vision <= supervise_from <= length, got {self}")


def attention_mask(n_vision, s, mode="hybrid"):
    """The visibility rule as an additive mask [B, s, s], 0 where allowed,
    NEG_MASK where blocked, over positions 0..s-1 of B sequences with vision
    spans [0, n_vision[b]) (an int: B = 1): query q sees every key k <= q;
    under hybrid, a query in its vision span sees exactly that span. A
    cached forward of rows L..L+s-1 takes the last s rows of the mask at L+s."""
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    nv = np.asarray(n_vision).reshape(-1, 1, 1)
    q, k = np.ogrid[:s, :s]
    allowed = (k <= q) | ((q < nv) & (k < nv) & (mode == "hybrid"))
    return np.where(allowed, np.float32(0.0), np.float32(T.NEG_MASK))


def rope_tables(pos, head_dim):
    """cos/sin [len(pos), head_dim/2] at integer positions ``pos`` for
    half-split rotary application."""
    half = head_dim // 2
    inv_freq = 1.0 / 10000.0 ** (np.arange(half) / half)
    ang = pos[:, None] * inv_freq[None, :]
    return np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)


def rope_qk_tables(pos, n_heads, head_dim):
    """Full-width cos/sin [len(pos), n_heads * head_dim] of q and of k for
    ``T.attention``'s rotary positions at ``pos``: ``rope_tables``' cos over
    both halves of every head, its sin negated over the first half; q's
    tables times the 1/√hd score scale."""
    cos, sin = rope_tables(pos, head_dim)
    k = np.tile(np.concatenate([cos, cos], axis=1), n_heads), np.tile(np.concatenate([-sin, sin], axis=1), n_heads)
    return tuple(t * np.float32(1.0 / np.sqrt(head_dim)) for t in k), k


def _gemm(x, w):
    """x·wᵀ of [N, d_in] rows and a weight [d_out, d_in]: every weight
    product of a cached forward, the GEMM that ``T.linear`` runs."""
    return x @ w.T


def _cache_write(cache, k, v):
    """Write one block's new key and value rows [B, s, d] into its cache
    [keys, values, L] after the L cached positions; returns views [B, L+s, d]
    of all L+s. A prefill (empty cache) keeps its own arrays, full; a write
    past the capacity first moves the L cached positions into buffers of
    twice the capacity (or L+s, if more)."""
    if not cache:
        cache[:] = k, v, k.shape[1]
        return k, v
    keys, values, past = cache
    end = past + k.shape[1]
    if end > keys.shape[1]:
        cap = max(2 * keys.shape[1], end)
        grown = [np.empty((t.shape[0], cap) + t.shape[2:], dtype=np.float32) for t in (keys, values)]
        for new, old in zip(grown, (keys, values)):
            new[:, :past] = old[:, :past]
        keys, values = grown
    keys[:, past:end] = k
    values[:, past:end] = v
    cache[:] = keys, values, end
    return keys[:, :end], values[:, :end]


def attention_plan(rows, mask):
    """The length groups ``T.attention`` runs over: a list of (``T.RowIndex``
    over rows[g, :S_g], mask[g, :S_g, :S_g]) per group g of sequences, in
    order of length. rows: [B, S] index of each position into the flat
    rows, -1 at padding; mask: the [B, S, S] (or one [S, S]) additive mask
    of the forward. A sequence's live length is its last live position + 1
    (a sequence with none is in no group), and no query is taken to see a
    key past it. The sorted lengths are cut into groups by an exact DP that
    minimises Σ(|g|·S_g² + GROUP_CELLS), S_g the group's longest member;
    within a group the sequences keep their order, so a padded input is one
    group over the batch, under a view of the mask. ShapeError if the mask
    is not [S, S], [1, S, S] or [B, S, S]; ValueError if a row of a group's
    mask is fully masked."""
    rows = np.asarray(rows)
    b, s = rows.shape
    if mask.shape not in ((s, s), (1, s, s), (b, s, s)):
        raise T.ShapeError(f"mask {list(mask.shape)} for rows {list(rows.shape)}: need [S, S], [1, S, S] or [B, S, S]")
    live = rows >= 0
    length = np.where(live.any(axis=1), rows.shape[1] - live[:, ::-1].argmax(axis=1), 0)
    order = np.argsort(length, kind="stable")
    order = order[length[order] > 0]
    cells = length[order].astype(np.int64) ** 2
    best, cut = [0], [0]  # least cost of the first j sorted sequences, and where its last group starts
    for j in range(1, order.size + 1):
        cost, i = min((best[i] + (j - i) * cells[j - 1] + GROUP_CELLS, i) for i in range(j))
        best.append(cost)
        cut.append(i)
    masks = mask.reshape((-1,) + mask.shape[-2:])
    plan, j = [], order.size
    while j:
        g = np.sort(order[cut[j]:j])
        s = int(length[order[j - 1]])
        whole = masks.shape[0] == 1 or g.size == masks.shape[0]  # a view: no copy of the mask
        m = masks[:, :s, :s] if whole else masks[g, :s, :s]
        if np.any((m < 0.0).all(axis=-1)):
            raise ValueError("row fully masked")
        plan.append((T.RowIndex(rows[g, :s]), m))
        j = cut[j]
    return plan[::-1]


class Model:
    """Parameter container plus the forward pass."""

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.params = params

    @staticmethod
    def shapes(cfg):
        """Every student tensor, name -> shape in init order: [d_out, d_in]
        for a weight, [d_model] for a norm gain."""
        d, ff = cfg.d_model, cfg.d_ff
        block = {"attn_norm": (d,), "q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
                 "ffn_norm": (d,), "ffn_gate": (ff, d), "ffn_up": (ff, d), "ffn_down": (d, ff)}
        out = {"llm.embed": (cfg.vocab, d)}
        for i in range(cfg.n_llm):
            out.update({f"llm.blocks.{i}.{leaf}": shape for leaf, shape in block.items()})
        out.update({"llm.final_norm": (d,), "llm.head": (cfg.vocab, d)})
        return out

    @classmethod
    def init(cls, cfg, seed=0):
        # wider readout than the hidden layers: a 0.02-scale frozen head
        # caps attainable logit range (hiddens are RMS-normed) and floors
        # the LM loss far above what adapter training can reach
        head_scale = 0.25 / np.sqrt(cfg.d_model)
        return cls(cfg, init_tensors(cls.shapes(cfg), np.random.default_rng(seed),
                                     scale=lambda name: head_scale if name == "llm.head" else 0.02))

    def embed_tokens(self, ids):
        return T.embedding(self.params["llm.embed"], ids)

    def _linear(self, x, block, layer, adapters):
        ab = None if adapters is None else adapters.delta(block, layer)
        return T.linear(x, self.params[f"llm.blocks.{block}.{layer}"], ab)

    def forward(self, embedded, mask, adapters=None, collect_taps=True, cache=None, rows=None,
                logit_rows=None, rope=None):
        """Run the stack on already-embedded inputs.

        embedded: Tensor [B, S, d] with vision embeddings spliced in at the
        vision span, mask ``attention_mask``'s [B, S, S], or one [S, S].
        Returns (logits, taps); taps are the post-residual output Tensors
        of blocks 0..n_vit-1, in block order. A [B, S, d] input runs as
        its B * S rows flattened; its logits and taps come back [B, S, ...].
        rows (token-major batch): embedded is [N, d], the batch's live
        tokens in the flat order rows [B, S] indexes (-1 at padding, see
        ``data.PackedBatch.rows``). Norms, linear layers (an adapted one
        with its pair, see ``T.linear``), the FFN and the residuals run on
        the N rows; only the attention core sees sequences, each length
        group of ``attention_plan`` padded to its longest member.
        Taps are [N, d], logits [N, vocab], or only the logit_rows rows of
        them. An [S, d] input without rows is one sequence, rows =
        arange(S)[None]: [S, d] taps, [S, vocab] logits.
        cache (forward-only, on [B, S, d], with no adapters, rows or
        logit_rows): a list, empty before the prefill, which the forward
        fills with one [keys, values, L] entry per block (``_cache_write``);
        a later call on the same B sequences takes positions L..L+S-1, with
        the last S rows of the mask at L+S (None for a one-row step: its
        query sees every key). It runs the tape path's kernels in order on
        arrays, with no Tensor per op: the same bits. Adapters are merged
        before, once per decode, by ``decode_greedy``. rope (cached only):
        ``rope_qk_tables`` of positions 0..P-1, P >= L+S, whose rows at
        L..L+S-1 the forward takes, so a decode builds its tables once;
        without it the forward builds them. Rows or a mask that do not fit
        the input are a ShapeError.
        """
        if cache is not None:
            if adapters is not None or rows is not None or logit_rows is not None:
                raise ValueError("a cached forward takes no adapters (decode_greedy merges them), rows or logit_rows")
            return self._cached_forward(embedded.data, mask, collect_taps, cache, rope)
        if rope is not None:
            raise ValueError("only a cached forward takes rope tables")
        cfg = self.cfg
        x = embedded
        padded = rows is None and x.data.ndim == 3
        if rows is None:
            rows = np.arange(x.data.size // cfg.d_model).reshape(-1, x.data.shape[-2])
            if padded:
                x = T.reshape(x, (rows.size, cfg.d_model))
        b, s = rows.shape
        if s > cfg.max_seq:
            raise SequenceTooLong(f"sequence length {s} exceeds max_seq {cfg.max_seq}")
        live = rows >= 0
        if not np.array_equal(np.sort(rows[live]), np.arange(x.data.shape[0])):
            raise T.ShapeError(f"rows {list(rows.shape)} must index each embedded row {list(embedded.shape)} once")
        plan = attention_plan(rows, mask)  # found once, used by every block's attention
        pos = np.zeros(x.data.shape[0], dtype=np.intp)  # each row's position in its sequence
        pos[rows[live]] = np.nonzero(live)[1]
        rope = rope_qk_tables(pos, cfg.n_heads, cfg.head_dim)

        taps = []
        for i in range(cfg.n_llm):
            h = T.rms_norm(x, self.params[f"llm.blocks.{i}.attn_norm"])
            q, k, v = (self._linear(h, i, name, adapters) for name in ("q", "k", "v"))
            x = x + self._linear(T.attention(q, k, v, plan, cfg.n_heads, rope), i, "o", adapters)

            h = T.rms_norm(x, self.params[f"llm.blocks.{i}.ffn_norm"])
            gate = self._linear(h, i, "ffn_gate", adapters)
            up = self._linear(h, i, "ffn_up", adapters)
            x = x + self._linear(T.swiglu(gate, up), i, "ffn_down", adapters)

            if collect_taps and i < cfg.n_vit:
                taps.append(x)

        if logit_rows is not None:
            x = T.gather_rows(x, logit_rows)
        xn = T.rms_norm(x, self.params["llm.final_norm"])
        logits = T.linear(xn, self.params["llm.head"])
        if padded:
            taps = [T.reshape(t, (b, s, cfg.d_model)) for t in taps]
            if logit_rows is None:
                logits = T.reshape(logits, (b, s, cfg.vocab))
        return logits, taps

    def _cached_forward(self, x, mask, collect_taps, cache, rope):
        """``forward`` with a cache, on x [B, S, d] as an array."""
        cfg, shape = self.cfg, x.shape
        b, s, _ = shape
        past = cache[0][2] if cache else 0
        if past + s > cfg.max_seq:
            raise SequenceTooLong(f"sequence length {past + s} exceeds max_seq {cfg.max_seq}")
        if T.grad_enabled():
            raise ValueError("the K/V cache is forward-only: run a cached forward under T.no_grad()")
        if not cache:
            cache.extend([] for _ in range(cfg.n_llm))
        elif cache[0][0].shape[0] != b:
            raise ValueError(f"batch of {b} sequences on a cache for {cache[0][0].shape[0]}")
        if mask is not None and mask.shape not in ((s, past + s), (1, s, past + s), (b, s, past + s)):
            raise T.ShapeError(f"mask {list(mask.shape)} for {s} queries after {past} cached positions of "
                               f"{list(shape)}: need [s, L+s] or [1 or B, s, L+s]")
        if mask is not None and np.any((mask < 0.0).all(axis=-1)):  # attention_plan's check, once
            raise ValueError("row fully masked")
        w = {name: t.data for name, t in self.params.items()}
        heads, hd = cfg.n_heads, cfg.head_dim
        rope = rope or rope_qk_tables(np.arange(past + s), heads, hd)
        # the rows of positions L..L+S-1, once per sequence; one row (a step) broadcasts over the B rows as it is
        q_rope, k_rope = ([t[past:past + s] if min(b, s) == 1 else np.tile(t[past:past + s], (b, 1)) for t in tables]
                          for tables in rope)
        norm = lambda t, name: kernels.rmsnorm_fwd(t, w[name], T.RMS_EPS)[0]
        split = lambda t: t.reshape(b, -1, heads, hd).swapaxes(1, 2)  # heads [B, heads, S, hd], a view
        x, taps = x.reshape(b * s, cfg.d_model), []
        for i in range(cfg.n_llm):
            p = f"llm.blocks.{i}."
            h = norm(x, p + "attn_norm")
            q, k, v = (_gemm(h, w[p + name]) for name in ("q", "k", "v"))
            q, k = T._turn(q, *q_rope, heads, False), T._turn(k, *k_rope, heads, False)
            k, v = _cache_write(cache[i], k.reshape(b, s, -1), v.reshape(b, s, -1))
            probs = kernels.softmax_fwd(split(q) @ split(k).swapaxes(-1, -2),
                                        None if mask is None else mask[..., None, :, :])
            x = x + _gemm((probs @ split(v)).swapaxes(1, 2).reshape(b * s, cfg.d_model), w[p + "o"])
            h = norm(x, p + "ffn_norm")
            gated, _ = kernels.swiglu_fwd(_gemm(h, w[p + "ffn_gate"]), _gemm(h, w[p + "ffn_up"]))
            x = x + _gemm(gated, w[p + "ffn_down"])
            if collect_taps and i < cfg.n_vit:
                taps.append(T.constant(x.reshape(shape)))
        logits = _gemm(norm(x, "llm.final_norm"), w["llm.head"])
        return T.constant(logits.reshape(shape[:-1] + (cfg.vocab,))), taps


def decode_greedy(model, prefix_embedded, layout, eos_id, max_new, adapters=None, mask_mode="hybrid"):
    """Argmax decoding from embedded prompts, all rows of a batch at once.

    prefix_embedded: [B, S, d], B prompts ([vision span][text]) with a
    list of B layouts, which must share one vision span and supervision
    start; or [S, d] with one layout, a batch of one.
    The prompts are encoded once under the mask mode, whose
    ``attention_mask`` is the only mask a decode builds; each later step
    feeds only the new tokens, one per row, reads the earlier positions'
    keys and values from the K/V cache and writes its own in place after
    them, so the cache grows (doubling) with the positions decoded so far,
    however large max_new and max_seq are; so do rope's tables, which a
    step takes its rows of, built once per growth rather than per step. A
    one-row step's query sees every earlier key under both mask modes, so
    it runs with mask None.
    Unmerged adapters are merged into a model copy once per call, the one
    merge of a decode: the cached forward takes no adapters. A row stops
    at EOS, after max_new tokens, or at max_seq; the loop ends when every row has.
    Returns each row's generated ids (EOS included when it ended the row),
    or, for an [S, d] prompt, the one row's ids.
    """
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    squeeze = prefix_embedded.data.ndim == 2
    emb = T.constant(prefix_embedded.data[None]) if squeeze else prefix_embedded
    batch, s = emb.data.shape[:2]
    layouts = [layout] if squeeze else list(layout)
    if len(layouts) != batch or len({(lay.n_vision, lay.supervise_from) for lay in layouts}) > 1:
        raise ValueError(f"the {batch} prefixes of one decode must share one layout, got {layouts}")
    if adapters is not None:  # into one buffer: 28 arrays freed after each call slowed later work 5-10%
        flat = np.empty(sum(model.params[f"llm.blocks.{b}.{l}"].data.size for b, l in adapters.adapters), np.float32)
        at, merged = 0, {}
        for name, w in adapters.merged_weights(model.params):
            merged[name] = Tensor(flat[at:at + w.size].reshape(w.shape))
            merged[name].data[...], at = w, at + w.size
        model = Model(model.cfg, {**model.params, **merged})
    cache, past = [], 0
    mask = attention_mask(layouts[0].n_vision, s, mask_mode)
    rope, limit = None, min(model.cfg.max_seq, s + max_new)  # limit: the most positions a call feeds
    out = [[] for _ in range(batch)]
    live = [True] * batch
    with T.no_grad():
        for _ in range(max_new):
            if rope is None or rope[0][0].shape[0] < past + s:  # grown by doubling, as the cache is
                rope = rope_qk_tables(np.arange(min(limit, 2 * (past + s))), model.cfg.n_heads, model.cfg.head_dim)
            logits, _ = model.forward(emb, mask, collect_taps=False, cache=cache, rope=rope)
            nxt = logits.data[:, -1].argmax(axis=-1)
            for row, token in enumerate(nxt.tolist()):
                if live[row]:
                    out[row].append(token)
                    live[row] = token != eos_id
            if not any(live) or past + s >= model.cfg.max_seq:
                break
            emb = model.embed_tokens(nxt[:, None])
            past, s, mask = past + s, 1, None
    return out[0] if squeeze else out
