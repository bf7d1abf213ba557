"""Two-stage training: pre-training (frozen base; adapters + vision embed
+ aux heads trainable; distill + LM objective) and fine-tuning (adapters
merged; distillation removed; full model + vision embed trainable). Plus
AdamW, the ablation runner, held-out metrics, and the full-unfreeze
instability probe.

A training step on a batch of two or more sequences deals its sequences
alternately into two shards that use the whole batch's loss normalisers,
so their gradients sum to the batch's. Shard 0 runs here; shard 1 runs
alongside it in a worker forked for the run where ``_two_shards`` holds,
else here after it. Each writes its gradients into its own flat arena of
the run's ``TrainState``; ``combine`` adds them, and AdamW updates the
weight arena where shard 1 runs: here, or in the worker while this
process records the step and draws the next batch. Where shard 1 and
AdamW ran changes no bit of a run's results.
"""

import csv
import mmap
import os
import statistics
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import data as D
from . import checkpoint, distill, kernels, lora, vision
from . import tensor as T
from .model import MASK_MODES, Model, attention_mask, decode_greedy, is_norm_gain
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
SPIKE_WINDOW, SPIKE_FACTOR = 50, 2.0  # full_llm_probe: a spike exceeds FACTOR x the trailing WINDOW's median
WARM_LR, WARM_BATCH = 1e-3, 16  # warm_teacher's lr and images per step
WORKER_TIMEOUT_S = 600.0  # longest wait for the shard worker's answer

TRAIN_MODES = ("pretrain", "finetune", "full_llm_unstable")


class ShardWorkerError(RuntimeError):
    """The shard worker died, or gave no answer within WORKER_TIMEOUT_S."""


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries the step diagnostics."""

    def __init__(self, step, lm, dist):
        super().__init__(f"non-finite loss at step {step}: lm={lm} distill={dist}")
        self.step = step
        self.lm = lm
        self.distill = dist


@dataclass
class TrainConfig:
    lr: float = 2e-4  # learning rate (constant after warmup)
    warmup_steps: int = 100  # linear warmup length
    batch_size: int = 16  # sequences per step
    total_steps: int = 500  # optimizer steps; 0 writes the init checkpoint only
    mode: str = "pretrain"  # pretrain | finetune | full_llm_unstable
    distill_mode: str = "block_wise"  # none | last_block | block_wise
    mask_mode: str = "hybrid"  # hybrid | causal
    seed: int = 0  # root seed (a run config must set it)
    weight_decay: float = 0.01  # decoupled decay (0 on norms/embedding)
    log_window: int = 100  # smoothing window for loss curves
    teacher_warm: bool = False  # briefly train the teacher before freezing
    teacher_warm_steps: int = 200  # teacher warm-up steps

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # nan fails too
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        for name in ("seed", "warmup_steps", "teacher_warm_steps"):
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
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")


@dataclass
class Pipeline:
    cfg: object
    model: Model
    adapters: object  # AdapterSet | None
    vembed: vision.VisionEmbed
    teacher: vision.Teacher
    heads: list

    def groups(self):
        """Every tensor of the pipeline by owner, owner -> {name: Tensor}:
        llm, lora (while the adapters are unmerged), vembed, teacher, and
        one aux.<i> per head, i its list position (its block)."""
        groups = {"llm": self.model.params}
        if self.adapters is not None and not self.adapters.merged:
            groups["lora"] = self.adapters.params
        groups["vembed"] = self.vembed.params
        groups["teacher"] = self.teacher.params
        groups.update((f"aux.{i}", head.params) for i, head in enumerate(self.heads))
        return groups


def build_pipeline(cfg, seed=0, teacher_warm=False, teacher_warm_steps=TrainConfig.teacher_warm_steps):
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
    return {name: t for group in pipe.groups().values() for name, t in group.items()}


def merge(pipe):
    """Fold the adapters into the student and drop the aux heads: the one
    merge of a pipeline. MergeStateError when no unmerged adapters exist."""
    if pipe.adapters is None or pipe.adapters.merged:
        raise lora.MergeStateError("no unmerged adapters to merge (already merged or fine-tuned)")
    lora.merge_all(pipe.model, pipe.adapters)
    pipe.adapters = None
    pipe.heads = []


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
            out[name] = Tensor(np.array(tensors[name], dtype=np.float32), requires_grad=trainable)
        expected.update(table)
        return out

    def present(*tables):
        return any(name in table for table in tables for name in tensors)

    model = Model(cfg, wrap(Model.shapes(cfg), False))
    adapters = None
    adapter_shapes = lora.shapes(cfg)
    if present(adapter_shapes):
        adapters = lora.AdapterSet(cfg, wrap(adapter_shapes, True))
        adapters.merged = meta.get("merged", "false") == "true"
    vembed = vision.VisionEmbed(cfg, wrap(vision.VisionEmbed.shapes(cfg), True))
    teacher = vision.Teacher(cfg, wrap(vision.Teacher.shapes(cfg), False))
    head_shapes = [distill.AuxHead.shapes(cfg, i) for i in range(cfg.n_vit)]
    heads = []
    if present(*head_shapes):
        heads = [distill.AuxHead(wrap(table, True)) for table in head_shapes]
    extra = next((name for name in tensors if name not in expected), None)
    if extra is not None:
        raise checkpoint.CheckpointError(f"checkpoint tensor {extra!r} is not one its config implies")
    return Pipeline(cfg, model, adapters, vembed, teacher, heads)


# ---------------------------------------------------------------------------
# batch forward

def embed_batch(pipe, batch):
    """[N, d] embeddings of the batch's live tokens in its flat order
    (``PackedBatch.rows``): one vision-embed call over every patch, then
    the token embeddings of the text spans."""
    rows = batch.rows
    tok = pipe.model.embed_tokens(batch.tokens[rows >= batch.n_vision])
    if not batch.n_image:
        return tok
    return T.concat([pipe.vembed.forward(batch.patches, batch.runs), tok])


def pack_embedded(pipe, batch):
    """[B, S, d] padded embeddings: ``embed_batch`` placed at each
    sequence's positions, zero at padding. The padded input of
    ``Model.forward`` (merge probe, decode prefix, tests)."""
    return T.gather_rows(embed_batch(pipe, batch), batch.rows)


def batch_masks(batch, mask_mode):
    """The batch's [B, S, S] ``attention_mask``, from its layouts' vision spans."""
    return attention_mask([lay.n_vision for lay in batch.layouts], batch.tokens.shape[1], mask_mode)


@dataclass
class LossOut:
    total: Tensor
    lm: Tensor
    dist: Tensor
    per_block: list = field(default_factory=list)


def compute_losses(pipe, batch, mask_mode, distill_mode):
    """LM loss plus the distillation term of ``distill_mode``, token-major.

    The student runs on the batch's N live tokens (``embed_batch``, then
    ``Model.forward`` with the batch's rows), and its head only on the
    rows that predict a supervised token. block_wise averages the
    per-block terms over blocks 0..n_vit-1, last_block keeps the final
    distilled block only, none adds an exact 0 with no graph edges. A
    block's term is one weighted cosine over all vision rows of its tap
    against one teacher pass over every patch, row weight
    1/(n_image * S_image): the mean over images of their per-image
    cosine loss. A shard of a batch (``PackedBatch.shards``) takes both
    normalisers, the supervised positions and n_image, from the whole
    batch, so the shards' losses and gradients sum to the batch's.
    """
    if distill_mode not in distill.DISTILL_MODES:
        raise ValueError(f"unknown distill_mode {distill_mode!r}")
    cfg = pipe.cfg
    need_distill = distill_mode != "none" and batch.n_image > 0
    rows = batch.rows
    head_rows = rows[:, :-1][distill.supervised(batch.layouts, rows.shape[1])]
    n_lm, n_image = batch.whole or (None, batch.n_image)
    logits, taps = pipe.model.forward(embed_batch(pipe, batch), batch_masks(batch, mask_mode), pipe.adapters,
                                      collect_taps=need_distill, rows=rows, logit_rows=head_rows)
    lm = distill.lm_loss(logits, batch.layouts, batch.tokens, n_lm)

    if not need_distill:
        dist = T.constant(np.zeros((), dtype=np.float32))
        return LossOut(distill.total_loss(dist, lm), lm, dist, [])

    if len(pipe.heads) < cfg.n_vit:
        raise T.ShapeError(f"{len(pipe.heads)} aux heads for {cfg.n_vit} distilled blocks")
    runs = batch.runs
    states = pipe.teacher.forward_batch(batch.patches, runs)  # per block [n_vision, d_vit]
    weights = np.concatenate([np.full(n * r * c, 1.0 / (n_image * r * c), dtype=np.float32)
                              for (r, c), n in runs])
    vision = T.RowIndex(np.arange(batch.n_vision))  # the taps' vision rows lead the flat order
    per_block_t = [distill.block_distill_loss(T.gather_rows(taps[blk], vision), states[blk],
                                              pipe.heads[blk], weights)
                   for blk in distill.distilled_blocks(distill_mode, cfg.n_vit)]
    per_block = [float(t.data) for t in per_block_t]
    dist = T.scale(sum(per_block_t[1:], per_block_t[0]), 1.0 / len(per_block_t))
    return LossOut(distill.total_loss(dist, lm), lm, dist, per_block)


# ---------------------------------------------------------------------------
# optimizer and the step

def _arena(n):
    """n float32 zeros in one new anonymous shared mapping: a process
    forked afterwards shares their memory."""
    return np.frombuffer(mmap.mmap(-1, 4 * max(n, 1)), dtype=np.float32)[:n]


def decays(name):
    """Whether decoupled decay applies: not to norm gains or the token embedding."""
    return not (is_norm_gain(name) or name == "llm.embed")


@dataclass
class TrainState:
    """AdamW over a trainable set, in one flat float32 arena per role:
    ``weights``, ``grads`` (shard 0's, shard 1's), moments ``m`` and ``v``.
    Their layout: the first ``n_decay`` entries hold the tensors that
    ``decays``, the rest the others, each class in its map's order. Every
    trainable tensor's ``.data`` is a view into ``weights`` until ``release``.
    ``start_update``: None, or, while a worker runs, what starts the AdamW
    update in it."""
    step: int
    trainable: dict  # name -> Tensor, in arena order
    n_decay: int
    weights: np.ndarray
    grads: tuple
    m: np.ndarray
    v: np.ndarray
    start_update: object = None  # callable (t, lr, weight_decay)

    @classmethod
    def create(cls, trainable):
        trainable = dict(sorted(trainable.items(), key=lambda item: not decays(item[0])))
        n = sum(t.data.size for t in trainable.values())
        weights, g0, g1, m, v = (_arena(n) for _ in range(5))
        state = cls(0, trainable, sum(t.data.size for k, t in trainable.items() if decays(k)), weights, (g0, g1), m, v)
        for t, view in zip(trainable.values(), state.views(weights)):
            view[...] = t.data
            t.data = view
        return state

    def views(self, arena):
        """The arena's per-tensor views, shaped as the trainable tensors, in arena order."""
        offsets = np.cumsum([0] + [t.data.size for t in self.trainable.values()])
        return [arena[o:o + t.data.size].reshape(t.data.shape) for o, t in zip(offsets, self.trainable.values())]

    def release(self):
        """Give every trainable tensor a private copy of its weights, and no
        gradient: a shard's gradient is not the step's."""
        for t in self.trainable.values():
            t.data, t.grad = t.data.copy(), None


def adamw_step(state, lr, cfg):
    """One AdamW update (``_adamw``) of the weight arena by the gradient in
    ``state.grads[0]``: here, or, with a ``start_update``, in the worker.
    Step t travels to the worker, whose state is a forked copy;
    ``_ShardWorker.settle`` waits for its update."""
    t = state.step + 1
    (state.start_update or partial(_adamw, state))(t, lr, cfg.weight_decay)
    state.step = t


def _adamw(state, t, lr, weight_decay):
    """AdamW step t at lr, one kernel call per decay class. It overwrites
    ``grads[0]``; shard 1's arena, added in by then, is its scratch."""
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    g, scratch = state.grads
    for part, wd in ((slice(0, state.n_decay), weight_decay), (slice(state.n_decay, None), 0.0)):
        kernels.adamw_update(state.weights[part], g[part], state.m[part], state.v[part], lr, BETA1, BETA2,
                             ADAM_EPS, wd, bc1, bc2, scratch[part])


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
    """The trainable name->Tensor map for the configured mode; sets
    requires_grad on every owner of ``pipe.groups()``.

    Pretraining trains the adapters and the vision embed, the other modes
    the student and the vision embed; outside finetune the aux heads of
    the blocks the distill mode aligns train too. Every other owner stays
    frozen."""
    owners = {"lora", "vembed"} if tcfg.mode == "pretrain" else {"llm", "vembed"}
    if tcfg.mode != "finetune":
        owners.update(f"aux.{b}" for b in distill.distilled_blocks(tcfg.distill_mode, pipe.cfg.n_vit))
    trainable = {}
    for owner, tensors in pipe.groups().items():
        _set_requires_grad(tensors, owner in owners)
        if owner in owners:
            trainable.update(tensors)
    return trainable


def run_shard(state, i, loss_fn):
    """The one shard body, for shard i in whichever process runs it: zero
    the grads, run ``loss_fn() -> LossOut`` and its backward on a fresh
    tape, and copy the gradients into ``state.grads[i]``, -0.0 where a
    tensor got none (x + -0.0 is x, bit for bit). Returns the answer
    ``combine`` takes: (lm, dist, per_block, which tensors got a gradient)."""
    tensors = state.trainable.values()
    for p in tensors:
        p.grad = None
    T.active_tape().reset()
    out = loss_fn()
    T.backward(out.total)
    got = [p.grad is not None for p in tensors]
    for p, view in zip(tensors, state.views(state.grads[i])):
        view[...] = -0.0 if p.grad is None else p.grad
    return float(out.lm.data), float(out.dist.data), out.per_block, got


def combine(state, a, b):
    """Shard 1's answer b added to shard 0's a: one add over the gradient
    arenas (into shard 0's) and the sums of the losses, float32 as a
    shard's are. Returns the whole batch's answer."""
    g0, g1 = state.grads
    g0 += g1
    lm, dist = (float(np.float32(x) + np.float32(y)) for x, y in zip(a[:2], b[:2]))
    per_block = [x + y for x, y in zip(a[2], b[2])] if a[2] and b[2] else a[2] or b[2]  # an imageless shard has none
    return lm, dist, per_block, [x or y for x, y in zip(a[3], b[3])]


def train_step(state, tcfg, step, loss_fn, shard1=None):
    """The one step body every loop shares: ``run_shard`` on ``loss_fn``
    as shard 0, ``combine`` with shard 1's answer, which ``shard1()``
    returns, if given; abort on a non-finite loss, ValueError on a tensor
    neither shard gave a gradient, then AdamW at lr_at(tcfg, step).
    Returns the whole batch's (lm, dist, per_block, lr)."""
    answer = run_shard(state, 0, loss_fn)
    if shard1 is not None:
        answer = combine(state, answer, shard1())
    lm, dist, per_block, got = answer
    if not (np.isfinite(lm) and np.isfinite(dist)):
        raise TrainAbort(step, lm, dist)
    missing = [name for name, has in zip(state.trainable, got) if not has]
    if missing:
        raise ValueError(f"missing gradient for trainable tensor {missing[0]}")
    lr = lr_at(tcfg, step)
    adamw_step(state, lr, tcfg)
    return lm, dist, per_block, lr


# ---------------------------------------------------------------------------
# the shard worker

def _set_blas_threads(n):
    """Set the loaded OpenBLAS's thread count to n and return the count it
    had; None, and nothing set, where no OpenBLAS is found. Two shards run
    one BLAS thread each: with two each on a 2-CPU host, the spinning BLAS
    threads of both processes took turns and a step took three times as
    long as with one shard."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas{}64_", "openblas{}64_", "scipy_openblas{}", "openblas{}"):
            get, put = (getattr(lib, name.format(f"_{verb}_num_threads"), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(n)
                return before
    return None


def _serve(conn, parent_end, jobs):
    """The worker's loop: one answer, ``jobs[j](*args)``, per message
    (j, args) received. A failure is sent as its exception. Returns when
    the main process closes its end, or on Ctrl-C, which the main process
    handles."""
    from multiprocessing.pool import ExceptionWithTraceback

    parent_end.close()
    try:
        while True:
            j, args = conn.recv()
            try:
                conn.send(jobs[j](*args))
            except Exception as exc:  # raised again in the main process, this traceback its cause
                conn.send(ExceptionWithTraceback(exc, exc.__traceback__))
    except (EOFError, OSError, KeyboardInterrupt):
        return


def _two_shards(tcfg):
    """Whether shard 1 of each step runs in a forked worker rather than in
    this process: batches of two or more sequences, at least one step, two
    CPUs this process may run on, and fork. It decides where shard 1 runs,
    never what a step computes. On one CPU two processes only take turns."""
    if tcfg.batch_size < 2 or tcfg.total_steps < 1:
        return False
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    import multiprocessing  # here, not at import: only a run that forks pays for it

    return "fork" in multiprocessing.get_all_start_methods()


class _ShardWorker:
    """One forked process that runs ``jobs[0](shard)``, shard 1 of every
    step, while this process runs shard 0, and ``jobs[1](t, lr,
    weight_decay)``, the step's AdamW update, while this process records
    the step and draws the next batch. It shares the state's arenas: it
    reads the weights and writes ``grads[1]``, and its AdamW job writes
    all of them. Answers come back in order; ``settle`` reads the AdamW
    one before this process reads the weights again."""

    def __init__(self, *jobs):
        import multiprocessing

        # fork, not spawn: the worker takes the pipeline and the arenas as they are, unpickled
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.pending = None  # the step whose AdamW update is not yet known to be written
        self.proc = ctx.Process(target=_serve, daemon=True, args=(child_end, self.conn, jobs))
        self.blas_threads = _set_blas_threads(1)  # the worker inherits the count
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            self._restore_blas()
            raise
        finally:
            child_end.close()

    def _post(self, step, job, args):
        try:
            self.conn.send((job, args))
        except OSError:
            raise self._dead(step) from None

    def send(self, step, shard):
        """Send the worker shard 1 of the step; returns what waits for its answer."""
        self._post(step, 0, (shard,))
        return partial(self.answer, step)

    def start_update(self, t, lr, weight_decay):
        """Start AdamW step t in the worker (``_adamw``)."""
        self._post(t - 1, 1, (t, lr, weight_decay))
        self.pending = t - 1

    def settle(self):
        """Wait until the worker has written the AdamW update it was last sent."""
        if self.pending is not None:
            step, self.pending = self.pending, None
            self.answer(step)

    def _dead(self, step):
        self.proc.join(1.0)
        return ShardWorkerError(f"step {step}: the shard worker died (exit code {self.proc.exitcode})")

    def answer(self, step):
        if not self.conn.poll(WORKER_TIMEOUT_S):
            raise ShardWorkerError(f"step {step}: the shard worker gave no answer in {WORKER_TIMEOUT_S:g} s")
        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise self._dead(step) from None
        if isinstance(msg, Exception):
            raise msg
        return msg

    def _restore_blas(self):
        if self.blas_threads is not None:
            _set_blas_threads(self.blas_threads)

    def close(self):
        """End the worker and give BLAS its thread count back."""
        self.conn.close()
        self.proc.join(1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self._restore_blas()


# ---------------------------------------------------------------------------
# training loops

def batch_draws(pipe, tcfg, dcfg):
    """The training batches: endless ``D.make_batch`` draws of
    tcfg.batch_size sequences from one generator seeded [tcfg.seed, 10]."""
    rng = np.random.default_rng([tcfg.seed, 10])
    while True:
        yield D.make_batch(rng, tcfg.batch_size, dcfg=dcfg, max_seq=pipe.cfg.max_seq)


def train_loop(pipe, tcfg, batches, metrics_sink=None):
    """The one step loop: tcfg.total_steps steps, step i on the i-th batch
    of the iterable ``batches``; returns the per-step metrics list.

    A batch of two or more sequences trains as its two shards
    (``PackedBatch.shards``), shard 1 in this process after shard 0 or
    alongside it in a worker forked for the run (``_two_shards``), to the
    same bits either way. A worker also runs each AdamW update while the
    step's record goes to ``metrics_sink`` and the next batch is drawn,
    so the sink must not read the trainable weights.
    However the loop ends, the worker ends with it and the trainable
    tensors get private arrays back (``TrainState.release``)."""
    state = TrainState.create(_partition(pipe, tcfg))
    use_distill = tcfg.mode != "finetune" and tcfg.distill_mode != "none"
    distill_mode = tcfg.distill_mode if use_distill else "none"

    def run1(shard):
        return run_shard(state, 1, lambda: compute_losses(pipe, shard, tcfg.mask_mode, distill_mode))

    metrics = []
    worker = None
    try:
        if _two_shards(tcfg):
            worker = _ShardWorker(run1, partial(_adamw, state))
            state.start_update = worker.start_update
        for step, batch in zip(range(tcfg.total_steps), batches):
            first, *rest = batch.shards()
            if worker:
                worker.settle()  # the last step's update, before shard 0's forward reads the weights
            shard1 = None
            if rest:
                shard1 = worker.send(step, *rest) if worker else partial(run1, *rest)
            lm, dist, per_block, lr = train_step(
                state, tcfg, step, lambda: compute_losses(pipe, first, tcfg.mask_mode, distill_mode), shard1)
            # total_loss is distill.total_loss's float32 sum, to the bit
            rec = {"step": step, "lr": lr, "total_loss": float(np.float32(dist) + np.float32(lm)), "lm_loss": lm}
            if use_distill:
                rec.update(distill_loss=dist, per_block=per_block)
            metrics.append(rec)
            if metrics_sink is not None:
                metrics_sink(rec)
        if worker:
            worker.settle()
    finally:
        if worker is not None:
            worker.close()
        state.release()
    return metrics


def pretrain(pipe, tcfg, dcfg, metrics_sink=None):
    """Frozen base; adapters, vision embed and aux heads learn Eq-style
    combined objective. Returns (checkpoint tensors, metrics)."""
    if tcfg.mode != "pretrain":
        raise ValueError("pretrain requires mode == 'pretrain'")
    if pipe.adapters is None or pipe.adapters.merged:
        raise lora.MergeStateError("pretrain needs unmerged adapters")
    metrics = train_loop(pipe, tcfg, batch_draws(pipe, tcfg, dcfg), metrics_sink=metrics_sink)
    return collect_state(pipe), metrics


def finetune(pipe, tcfg, dcfg, metrics_sink=None):
    """Merge adapters, drop distillation heads, train the full student +
    vision embed on the LM loss only."""
    if tcfg.mode != "finetune":
        raise ValueError("finetune requires mode == 'finetune'")
    merge(pipe)
    metrics = train_loop(pipe, tcfg, batch_draws(pipe, tcfg, dcfg), metrics_sink=metrics_sink)
    return collect_state(pipe), metrics


def full_llm_probe(pipe, tcfg, dcfg, metrics_sink=None):
    """Unfreeze everything (no adapters) and report whether the loss spikes
    above SPIKE_FACTOR x the trailing median. Reporting only."""
    if tcfg.mode != "full_llm_unstable":
        raise ValueError("full_llm_probe requires mode == 'full_llm_unstable'")
    metrics = train_loop(replace(pipe, adapters=None), tcfg, batch_draws(pipe, tcfg, dcfg), metrics_sink=metrics_sink)
    losses = [m["total_loss"] for m in metrics]
    spike_at = None
    for s in range(5, len(losses)):
        med = statistics.median(losses[max(0, s - SPIKE_WINDOW):s])
        if losses[s] > SPIKE_FACTOR * med:
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
    """Greedy ids of every row after its packed prefix ([vision span][prompt]),
    one decode for the whole batch; its rows must share one layout."""
    lay = batch.layouts[0]
    with T.no_grad():
        prefix = T.constant(pack_embedded(pipe, batch).data[:, : lay.supervise_from])
    return decode_greedy(pipe.model, prefix, batch.layouts, D.EOS, max_new, adapters=pipe.adapters,
                         mask_mode=mask_mode)


def eval_metrics(pipe, dcfg, tcfg, n_caption=8, n_text=8, max_new=24):
    """Held-out metrics: greedy caption token accuracy, text perplexity,
    and, when heads exist and tcfg's distill mode aligns any block, the
    mean cosine alignment over the blocks that mode aligns.

    The n_caption captions are rendered at ``dcfg.resolution`` (also under
    anyres), so they share one layout and decode as one batch."""
    if n_caption < 1 or n_text < 1:
        raise ValueError("empty heldout")
    cfg = pipe.cfg
    rng = np.random.default_rng([tcfg.seed, 11])
    # caption accuracy
    samples = [D.gen_image_caption(D.HELDOUT_BASE + int(rng.integers(0, D.HELDOUT_BASE)), dcfg.resolution,
                                   patch=dcfg.patch) for _ in range(n_caption)]
    # pack_samples keeps the order of same-grid samples
    decoded = _decode_caption(pipe, D.pack_samples(samples, dcfg.patch, cfg.max_seq), max_new, tcfg.mask_mode)
    correct = total = 0
    for sample, ids in zip(samples, decoded):
        target = list(sample.answer_tokens) + [D.EOS]
        total += len(target)
        correct += sum(1 for a, b in zip(ids, target) if a == b)
    caption_acc = correct / total

    # text perplexity over the supervised positions of n_text texts
    batch = D.make_batch(rng, n_text, image_fraction=0.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
    with T.no_grad():
        out = compute_losses(pipe, batch, tcfg.mask_mode, "none")
    ppl = float(np.exp(float(out.lm.data)))

    result = {"caption_token_accuracy": caption_acc, "text_perplexity": ppl}

    if pipe.heads and tcfg.distill_mode != "none":
        batch = D.make_batch(rng, 4, image_fraction=1.0, dcfg=dcfg, max_seq=cfg.max_seq, heldout=True)
        with T.no_grad():
            out = compute_losses(pipe, batch, tcfg.mask_mode, tcfg.distill_mode)
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
        rows += [dict(zip(ABLATION_CSV_HEADER, (mask_mode, distill_mode, rank, thr,
                                                steps_to_threshold(lm_curve, thr, tcfg.log_window), final)))
                 for thr in thresholds]
    if csv_path:
        with open(csv_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=ABLATION_CSV_HEADER)
            writer.writeheader()
            writer.writerows(rows)
    return rows, curves


# ---------------------------------------------------------------------------
# teacher warming

def warm_teacher(teacher, cfg, steps, seed):
    """Briefly train the toy ViT on single-shape (kind, color) classification
    so its features carry the attributes captions talk about, then freeze it."""
    rng = np.random.default_rng([seed, 20])
    n_classes = len(D.SHAPE_NAMES) * len(D.COLOR_NAMES)
    head = T.param((0.02 * rng.standard_normal((n_classes, cfg.d_vit))).astype(np.float32))
    _set_requires_grad(teacher.params, True)
    state = TrainState.create({**teacher.params, "warm.head": head})
    warm_cfg = TrainConfig(lr=WARM_LR, warmup_steps=0)
    h, w = cfg.patch * 4, cfg.patch * 4
    runs = [((h // cfg.patch, w // cfg.patch), WARM_BATCH)]
    zero = T.constant(np.zeros((), dtype=np.float32))
    for step in range(steps):
        patches, labels = [], []
        for _ in range(WARM_BATCH):
            shapes = D.make_scene(rng, h, w, n_shapes=1)
            labels.append(shapes[0].kind * len(D.COLOR_NAMES) + shapes[0].color)
            patches.append(vision.patchify(D.render_scene(shapes, h, w), cfg.patch))

        def loss_fn():
            states = teacher.forward(np.concatenate(patches), runs)
            rows = T.reshape(states[-1], (WARM_BATCH, -1, cfg.d_vit))
            pooled = T.scale(T.tsum(rows, axis=1), 1.0 / rows.shape[1])  # [B, d_vit], the mean over rows
            loss = T.cross_entropy(T.linear(pooled, head), np.asarray(labels))
            return LossOut(loss, loss, zero)

        train_step(state, warm_cfg, step, loss_fn)
    state.release()
    _set_requires_grad(teacher.params, False)
