"""Two-stage training: pre-training (frozen base; adapters + vision embed
+ aux heads trainable; distill + LM objective) and fine-tuning (adapters
merged; distillation removed; full model + vision embed trainable). Plus
AdamW, the ablation runner, held-out metrics, and the full-unfreeze
instability probe.
"""

import csv
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import checkpoint, distill, kernels, lora, vision
from . import tensor as T
from .model import Model, build_attention_mask, decode_greedy
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8

TRAIN_MODES = ("pretrain", "finetune", "full_llm_unstable")


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries the step diagnostics."""

    def __init__(self, step, lm, dist):
        super().__init__(f"non-finite loss at step {step}: lm={lm} distill={dist}")
        self.step = step
        self.lm = lm
        self.distill = dist


@dataclass
class TrainConfig:
    lr: float = 2e-4
    warmup_steps: int = 100
    batch_size: int = 16
    total_steps: int = 500
    mode: str = "pretrain"
    distill_mode: str = "block_wise"
    mask_mode: str = "hybrid"
    seed: int = 0
    weight_decay: float = 0.01
    log_window: int = 100
    teacher_warm: bool = False
    teacher_warm_steps: int = 200

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        for name in ("seed", "warmup_steps", "weight_decay", "teacher_warm_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.log_window < 1:
            raise ValueError("log_window must be >= 1")
        # total_steps == 0 is the explicit no-op run (init checkpoint only)
        if self.total_steps != 0 and self.total_steps <= self.warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.distill_mode not in distill.DISTILL_MODES:
            raise ValueError(f"unknown distill_mode {self.distill_mode!r}")
        if self.mask_mode not in ("hybrid", "causal"):
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")


@dataclass
class Pipeline:
    cfg: object
    model: Model
    adapters: object  # AdapterSet | None
    vembed: vision.VisionEmbed
    teacher: vision.Teacher
    heads: list


def build_pipeline(cfg, seed=0, teacher_warm=False, teacher_warm_steps=200):
    model = Model.init(cfg, seed=seed)
    adapters = lora.attach(cfg, seed=seed + 1)
    vembed = vision.VisionEmbed.init(cfg, seed=seed + 2)
    teacher = vision.Teacher.init(cfg, seed=seed + 3)
    if teacher_warm:
        warm_teacher(teacher, cfg, steps=teacher_warm_steps, seed=seed + 5)
    heads = distill.init_heads(cfg, seed=seed + 4)
    return Pipeline(cfg, model, adapters, vembed, teacher, heads)


def collect_state(pipe):
    """Every named tensor of the pipeline, for checkpointing."""
    tensors = {}
    tensors.update(pipe.model.params)
    if pipe.adapters is not None and not pipe.adapters.merged:
        tensors.update(pipe.adapters.tensors())
    tensors.update(pipe.vembed.params)
    tensors.update(pipe.teacher.params)
    for head in pipe.heads:
        tensors.update(head.tensors())
    return tensors


def pipeline_from_state(cfg, tensors, meta=None):
    """Rebuild a pipeline from checkpoint arrays (names as in collect_state).

    The expected tensors are the owners' ``shapes`` tables: the student,
    vision embed and teacher always, the adapters and the aux heads when
    the file holds any of theirs. A missing tensor, one whose shape is
    not the one the config implies, or one outside those tables raises
    CheckpointError naming the tensor.
    """
    meta = meta or {}
    expected = set()

    def wrap(table, trainable):
        out = {}
        for name, want in table.items():
            if name not in tensors:
                raise checkpoint.CheckpointError(f"checkpoint lacks tensor {name!r}")
            shape = np.shape(tensors[name])
            if shape != want:
                raise checkpoint.CheckpointError(f"checkpoint tensor {name!r} has shape {list(shape)}; "
                                                 f"the config implies {list(want)}")
            out[name] = Tensor(np.array(tensors[name], dtype=np.float32), requires_grad=trainable, name=name)
        expected.update(table)
        return out

    def present(*tables):
        return any(name in table for table in tables for name in tensors)

    model = Model(cfg, wrap(Model.shapes(cfg), False))
    adapters = None
    adapter_shapes = lora.shapes(cfg)
    if present(adapter_shapes):
        adapters = lora.adapter_set(cfg, wrap(adapter_shapes, True))
        adapters.merged = meta.get("merged", "false") == "true"
    vembed = vision.VisionEmbed(cfg, wrap(vision.VisionEmbed.shapes(cfg), True))
    teacher = vision.Teacher(cfg, wrap(vision.Teacher.shapes(cfg), False))
    head_shapes = [distill.AuxHead.shapes(cfg, i) for i in range(cfg.n_vit)]
    heads = []
    if present(*head_shapes):
        heads = [distill.AuxHead(i, *wrap(table, True).values()) for i, table in enumerate(head_shapes)]
    extra = next((name for name in tensors if name not in expected), None)
    if extra is not None:
        raise checkpoint.CheckpointError(f"checkpoint tensor {extra!r} is not one its config implies")
    return Pipeline(cfg, model, adapters, vembed, teacher, heads)


# ---------------------------------------------------------------------------
# batch forward

def _grid_runs(batch):
    """[start, end, grid] per run of consecutive image rows sharing a grid.

    Image rows sit first, sorted by grid (see data.pack_samples), so each
    grid forms one run and a fixed-resolution batch is a single run.
    """
    runs = []
    for i in range(batch.n_image):
        if runs and runs[-1][2] == batch.grids[i]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, batch.grids[i]])
    return runs


def pack_embedded(pipe, batch):
    """Differentiable splice: vision embeddings at the vision span, token
    embeddings elsewhere; one vision-embed call per grid run."""
    cfg = pipe.cfg
    b, s = batch.tokens.shape
    runs = _grid_runs(batch)
    vis = [pipe.vembed.forward(np.stack([vision.patchify(batch.images[i], cfg.patch)
                                         for i in range(start, end)]), grid)
           for start, end, grid in runs]
    tok = pipe.model.embed_tokens(batch.tokens)
    if not runs:
        return tok
    parts = [T.concat([v, T.slice_axis(T.slice_axis(tok, 0, start, end), 1, grid[0] * grid[1], s)], axis=1)
             for v, (start, end, grid) in zip(vis, runs)]
    if batch.n_image < b:
        parts.append(T.slice_axis(tok, 0, batch.n_image, b))
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=0)


def batch_masks(batch, mask_mode):
    b, s = batch.tokens.shape
    return np.stack([build_attention_mask(lay, s, mask_mode) for lay in batch.layouts])


@dataclass
class LossOut:
    total: Tensor
    lm: Tensor
    dist: Tensor
    per_block: list = field(default_factory=list)


def _sum_terms(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def compute_losses(pipe, batch, mask_mode, distill_mode):
    """LM loss plus the distillation term of ``distill_mode``.

    block_wise averages the per-block terms over blocks 0..n_vit-1,
    last_block keeps the final distilled block only, none adds an exact
    0 with no graph edges. Each block's term is
    sum over grid runs g of (n_g / n_image) * block_distill_loss(run g),
    i.e. the mean over images of their per-image cosine loss.
    """
    if distill_mode not in distill.DISTILL_MODES:
        raise ValueError(f"unknown distill_mode {distill_mode!r}")
    cfg = pipe.cfg
    need_distill = distill_mode != "none" and batch.n_image > 0 and cfg.n_vit > 0
    embedded = pack_embedded(pipe, batch)
    masks = batch_masks(batch, mask_mode)
    logits, taps = pipe.model.forward(embedded, masks, pipe.adapters, collect_taps=need_distill)
    lm = distill.lm_loss(logits, batch.layouts, batch.tokens)

    if not need_distill:
        dist = T.constant(np.zeros((), dtype=np.float32))
        return LossOut(distill.total_loss(dist, lm), lm, dist, []), logits

    if len(pipe.heads) < cfg.n_vit:
        raise T.ShapeError(f"{len(pipe.heads)} aux heads for {cfg.n_vit} distilled blocks")
    runs = _grid_runs(batch)
    # one gradient-free teacher forward per run: per block [n_run, S_run, d_vit]
    tstates = [pipe.teacher.forward_batch(batch.images[start:end]) for start, end, _ in runs]
    blocks = distill.distilled_blocks(distill_mode, cfg.n_vit)
    # vision-span rows of each distilled tap, one slice per grid run
    vis = [[T.slice_axis(T.slice_axis(taps[blk].hidden, 0, start, end), 1, 0, grid[0] * grid[1])
            for start, end, grid in runs] for blk in blocks]
    per_block_t = []
    for blk, spans in zip(blocks, vis):
        terms = [distill.block_distill_loss(h, states[blk], pipe.heads[blk]) for h, states in zip(spans, tstates)]
        if len(terms) > 1:
            terms = [T.scale(t, (end - start) / batch.n_image) for t, (start, end, _) in zip(terms, runs)]
        per_block_t.append(_sum_terms(terms))

    per_block = [float(t.data) for t in per_block_t]
    dist = per_block_t[0] if len(per_block_t) == 1 else T.scale(_sum_terms(per_block_t), 1.0 / len(per_block_t))
    return LossOut(distill.total_loss(dist, lm), lm, dist, per_block), logits


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class TrainState:
    step: int
    trainable: dict
    m: dict
    v: dict

    @classmethod
    def create(cls, trainable, frozen):
        overlap = set(trainable) & set(frozen)
        if overlap:
            raise ValueError(f"tensors both frozen and trainable: {sorted(overlap)}")
        return cls(
            step=0,
            trainable=dict(trainable),
            m={n: np.zeros_like(t.data) for n, t in trainable.items()},
            v={n: np.zeros_like(t.data) for n, t in trainable.items()},
        )


def decay_for(name, weight_decay):
    """Decoupled decay: zero on norm gains and the token embedding."""
    if "norm" in name or name.endswith(".gain") or name == "llm.embed":
        return 0.0
    return weight_decay


def adamw_step(state, lr, cfg):
    """One AdamW update over the trainable set; frozen tensors untouched."""
    t = state.step + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in state.trainable.items():
        if p.grad is None:
            raise ValueError(f"missing gradient for trainable tensor {name}")
        kernels.adamw_update(p.data, p.grad, state.m[name], state.v[name],
                             lr, BETA1, BETA2, ADAM_EPS, decay_for(name, cfg.weight_decay), bc1, bc2)
    state.step = t


def lr_at(cfg, step):
    """Linear warmup 0 -> lr over warmup_steps (0-indexed), then constant."""
    if cfg.warmup_steps and step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    return cfg.lr


def _set_requires_grad(tensors, flag):
    for t in tensors.values():
        t.requires_grad = flag
        t.grad = None


def _partition(pipe, tcfg):
    """(trainable, frozen) name->Tensor maps for the configured mode.

    Only the aux heads of the blocks the distill mode aligns train; the
    others get no gradient and stay frozen."""
    base = dict(pipe.model.params)
    extras = dict(pipe.vembed.params)
    adapter_tensors = pipe.adapters.tensors() if (pipe.adapters and not pipe.adapters.merged) else {}

    if tcfg.mode == "pretrain":
        trainable, frozen = {**adapter_tensors, **extras}, {**base, **pipe.teacher.params}
    else:  # finetune, full_llm_unstable: everything in the student unfrozen, no adapters
        trainable, frozen = {**base, **extras}, {**pipe.teacher.params, **adapter_tensors}
    distilled = [] if tcfg.mode == "finetune" else distill.distilled_blocks(tcfg.distill_mode, pipe.cfg.n_vit)
    for head in pipe.heads:
        (trainable if head.block_index in distilled else frozen).update(head.tensors())
    _set_requires_grad(trainable, True)
    _set_requires_grad(frozen, False)
    return trainable, frozen


# ---------------------------------------------------------------------------
# training loops

def train_step(state, tcfg, step, loss_fn):
    """The one step body every loop shares: zero the grads, start a fresh
    tape, run ``loss_fn() -> LossOut``, abort on a non-finite loss,
    backprop its total, then AdamW at lr_at(tcfg, step).
    Returns (LossOut, lr)."""
    for p in state.trainable.values():
        p.grad = None
    T.active_tape().reset()
    out = loss_fn()
    lm_val = float(out.lm.data)
    dist_val = float(out.dist.data)
    if not (np.isfinite(lm_val) and np.isfinite(dist_val)):
        raise TrainAbort(step, lm_val, dist_val)
    T.backward(out.total)
    lr = lr_at(tcfg, step)
    adamw_step(state, lr, tcfg)
    return out, lr


def train_loop(pipe, tcfg, dcfg, adapters_active=True, metrics_sink=None):
    """Shared step loop; returns the per-step metrics list."""
    trainable, frozen = _partition(pipe, tcfg)
    state = TrainState.create(trainable, frozen)
    rng_data = np.random.default_rng([tcfg.seed, 10])
    if not adapters_active:
        pipe = replace(pipe, adapters=None)
    use_distill = tcfg.mode != "finetune" and tcfg.distill_mode != "none"
    distill_mode = tcfg.distill_mode if use_distill else "none"

    metrics = []
    for step in range(tcfg.total_steps):
        batch = D.make_batch(rng_data, tcfg.batch_size, dcfg=dcfg, max_seq=pipe.cfg.max_seq)
        out, lr = train_step(state, tcfg, step,
                             lambda: compute_losses(pipe, batch, tcfg.mask_mode, distill_mode)[0])
        rec = {"step": step, "lr": lr, "total_loss": float(out.total.data), "lm_loss": float(out.lm.data)}
        if use_distill:
            rec["distill_loss"] = float(out.dist.data)
            rec["per_block"] = out.per_block
        metrics.append(rec)
        if metrics_sink is not None:
            metrics_sink(rec)
    return metrics


def pretrain(pipe, tcfg, dcfg, metrics_sink=None):
    """Frozen base; adapters, vision embed and aux heads learn Eq-style
    combined objective. Returns (checkpoint tensors, metrics)."""
    if tcfg.mode != "pretrain":
        raise ValueError("pretrain requires mode == 'pretrain'")
    if pipe.adapters is None or pipe.adapters.merged:
        raise lora.MergeStateError("pretrain needs unmerged adapters")
    metrics = train_loop(pipe, tcfg, dcfg, metrics_sink=metrics_sink)
    return collect_state(pipe), metrics


def finetune(pipe, tcfg, dcfg, metrics_sink=None):
    """Merge adapters, drop distillation heads, train the full student +
    vision embed on the LM loss only."""
    if tcfg.mode != "finetune":
        raise ValueError("finetune requires mode == 'finetune'")
    if pipe.adapters is None or pipe.adapters.merged:
        raise lora.MergeStateError("finetune needs a checkpoint with unmerged adapters")
    lora.merge_all(pipe.model, pipe.adapters)
    pipe.adapters = None
    pipe.heads = []
    metrics = train_loop(pipe, tcfg, dcfg, metrics_sink=metrics_sink)
    return collect_state(pipe), metrics


def full_llm_probe(pipe, tcfg, dcfg, metrics_sink=None, spike_window=50, spike_factor=2.0):
    """Unfreeze everything (no adapters) and report whether the loss spikes
    above spike_factor x the trailing median. Reporting only."""
    if tcfg.mode != "full_llm_unstable":
        raise ValueError("full_llm_probe requires mode == 'full_llm_unstable'")
    metrics = train_loop(pipe, tcfg, dcfg, adapters_active=False, metrics_sink=metrics_sink)
    losses = [m["total_loss"] for m in metrics]
    spike_at = None
    for s in range(5, len(losses)):
        med = statistics.median(losses[max(0, s - spike_window):s])
        if losses[s] > spike_factor * med:
            spike_at = s
            break
    return collect_state(pipe), metrics, {"spike_detected": spike_at is not None, "spike_step": spike_at}


# ---------------------------------------------------------------------------
# evaluation

def smoothed(values, window):
    """Trailing-window moving average (window truncated at the start)."""
    out = []
    acc = 0.0
    for i, x in enumerate(values):
        acc += x
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def steps_to_threshold(losses, threshold, window):
    """Completed-step count when the smoothed loss first reaches the
    threshold; -1 when it never does."""
    for i, v in enumerate(smoothed(losses, window)):
        if v <= threshold:
            return i + 1
    return -1


def _decode_caption(pipe, batch, max_new, mask_mode):
    """Greedy ids after the packed prefix ([vision span][prompt]) of row 0."""
    lay = batch.layouts[0]
    with T.no_grad():
        prefix = T.constant(pack_embedded(pipe, batch).data[0, : lay.supervise_from])
    return decode_greedy(pipe.model, prefix, lay, D.EOS, max_new, adapters=pipe.adapters, mask_mode=mask_mode)


def eval_metrics(pipe, dcfg, tcfg, n_caption=8, n_text=8, max_new=24):
    """Held-out metrics: greedy caption token accuracy, text perplexity,
    and (when heads exist) mean per-block cosine alignment."""
    if n_caption < 1 or n_text < 1:
        raise ValueError("empty heldout")
    cfg = pipe.cfg
    rng = np.random.default_rng([tcfg.seed, 11])
    # caption accuracy
    correct = total = 0
    for _ in range(n_caption):
        idx = D.HELDOUT_BASE + int(rng.integers(0, D.HELDOUT_BASE))
        sample = D.gen_image_caption(idx, dcfg.resolution, patch=dcfg.patch)
        decoded = _decode_caption(pipe, D.pack_samples([sample], dcfg.patch, cfg.max_seq), max_new, tcfg.mask_mode)
        target = list(sample.answer_tokens) + [D.EOS]
        total += len(target)
        correct += sum(1 for a, b in zip(decoded, target) if a == b)
    caption_acc = correct / total

    # text perplexity over the supervised positions of n_text texts
    batch = D.make_batch(rng, n_text, image_fraction=0.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
    with T.no_grad():
        out, _ = compute_losses(pipe, batch, tcfg.mask_mode, "none")
    ppl = float(np.exp(float(out.lm.data)))

    result = {"caption_token_accuracy": caption_acc, "text_perplexity": ppl}

    if pipe.heads and pipe.cfg.n_vit > 0:
        batch = D.make_batch(rng, 4, image_fraction=1.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
        with T.no_grad():
            out, _ = compute_losses(pipe, batch, tcfg.mask_mode, "block_wise")
        result["distill_alignment"] = 1.0 - float(out.dist.data)  # mean cosine
    return result


# ---------------------------------------------------------------------------
# ablation

ABLATION_CSV_HEADER = ("mask_mode", "distill_mode", "rank", "threshold", "steps_to_threshold", "final_loss")


def ablation_cells(cfg, tcfg, grid, budget_steps):
    """(cell key, model config, train config) per (mask_mode, distill_mode,
    rank) cell of the grid; building them validates every cell. Every cell
    is a pretrain run, whatever the config's mode."""
    return [((mask_mode, distill_mode, rank), replace(cfg, rank=rank),
             replace(tcfg, mode="pretrain", mask_mode=mask_mode, distill_mode=distill_mode,
                     total_steps=budget_steps))
            for mask_mode, distill_mode, rank in grid]


def run_ablation(cfg, tcfg, dcfg, grid, thresholds, budget_steps, csv_path=None):
    """Train one cell per (mask_mode, distill_mode, rank) with a fixed data
    order and scan the smoothed LM loss for each threshold.

    grid: iterable of (mask_mode, distill_mode, rank). Returns the CSV
    rows (list of dicts). steps_to_threshold is -1 when unreached.
    """
    rows = []
    curves = {}
    for (mask_mode, distill_mode, rank), cell_cfg, cell_t in ablation_cells(cfg, tcfg, grid, budget_steps):
        pipe = build_pipeline(cell_cfg, seed=cell_t.seed, teacher_warm=cell_t.teacher_warm,
                              teacher_warm_steps=cell_t.teacher_warm_steps)
        _, metrics = pretrain(pipe, cell_t, dcfg)
        lm_curve = [m["lm_loss"] for m in metrics]
        curves[(mask_mode, distill_mode, rank)] = metrics
        final = smoothed(lm_curve, tcfg.log_window)[-1]
        for thr in thresholds:
            rows.append({
                "mask_mode": mask_mode,
                "distill_mode": distill_mode,
                "rank": rank,
                "threshold": thr,
                "steps_to_threshold": steps_to_threshold(lm_curve, thr, tcfg.log_window),
                "final_loss": final,
            })
    if csv_path:
        with open(csv_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=ABLATION_CSV_HEADER)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    return rows, curves


def overfit_pair(pipe, sample, steps=300, lr=3e-3, mask_mode="hybrid", distill_mode="none"):
    """Repeat one sample until memorized; returns (metrics, decoded ids).

    The decode starts from the packed prefix ([vision span][prompt]) and
    should reproduce the answer exactly once the pair is learned.
    """
    tcfg = TrainConfig(lr=lr, warmup_steps=10, batch_size=1, total_steps=steps,
                       mask_mode=mask_mode, distill_mode=distill_mode, seed=0)
    batch = D.pack_samples([sample], pipe.cfg.patch, pipe.cfg.max_seq)
    state = TrainState.create(*_partition(pipe, tcfg))

    metrics = []
    for step in range(steps):
        out, _ = train_step(state, tcfg, step, lambda: compute_losses(pipe, batch, mask_mode, distill_mode)[0])
        metrics.append({"step": step, "lm_loss": float(out.lm.data)})
    return metrics, _decode_caption(pipe, batch, len(sample.answer_tokens) + 4, mask_mode)


# ---------------------------------------------------------------------------
# teacher warming

def warm_teacher(teacher, cfg, steps=200, seed=7, lr=1e-3, batch_size=16):
    """Briefly train the toy ViT on single-shape (kind, color) classification
    so its features carry the attributes captions talk about, then freeze it."""
    rng = np.random.default_rng([seed, 20])
    d_vit = cfg.d_vit
    n_classes = len(D.SHAPE_NAMES) * len(D.COLOR_NAMES)
    head = Tensor((0.02 * rng.standard_normal((n_classes, d_vit))).astype(np.float32),
                  requires_grad=True, name="warm.head")
    _set_requires_grad(teacher.params, True)
    trainable = dict(teacher.params)
    trainable["warm.head"] = head
    state = TrainState.create(trainable, {})
    warm_cfg = TrainConfig(lr=lr, warmup_steps=0, total_steps=max(steps, 1), seed=seed)
    h, w = cfg.patch * 4, cfg.patch * 4
    grid = (h // cfg.patch, w // cfg.patch)
    zero = T.constant(np.zeros((), dtype=np.float32))
    for step in range(steps):
        patches = []
        labels = []
        for _ in range(batch_size):
            shapes = D.make_scene(rng, h, w, n_shapes=1)
            labels.append(shapes[0].kind * len(D.COLOR_NAMES) + shapes[0].color)
            patches.append(vision.patchify(D.render_scene(shapes, h, w), cfg.patch))

        def loss_fn():
            states = teacher.blocks_forward(teacher.embed_patches(np.stack(patches), grid))
            pooled = T.tmean(states[-1], axis=1)  # [B, d_vit]
            loss = T.cross_entropy(T.linear(pooled, head), np.asarray(labels))
            return LossOut(loss, loss, zero)

        train_step(state, warm_cfg, step, loss_fn)
    _set_requires_grad(teacher.params, False)
