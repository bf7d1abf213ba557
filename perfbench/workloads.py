"""The four user paths the benchmark runs, each through the public API of `vora`.

Every input is made from the workload seed by `make_inputs`; the program
only receives the generated configs, batches and checkpoint tensors.

Training workloads (`pretrain-fixedres`, `pretrain-anyres`,
`finetune-merged`) run `trainer.pretrain` or `trainer.finetune` until the run
time is spent, with a deploy cycle between steps every DEPLOY_EVERY steps
and an extra `eval_metrics` call halfway between cycles. `eval-decode`
repeats deploy cycles.
A deploy cycle is the merge-and-serve path on the seeded unmerged
checkpoint: load it, greedy-decode the held-out prefixes, merge, save,
reload, decode the same prefixes merged, and run `trainer.eval_metrics`.

Every operation (training step, decode call, save, load, merge, eval) is
counted in `Run.attempted`; an output check that fails counts the operation
in `Run.failed`. Every timing is bracketed by the speed probe (speed.py).
"""

import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import speed

WORKLOADS = ("pretrain-fixedres", "pretrain-anyres", "finetune-merged", "eval-decode")

WARMUP_STEPS = 3  # first steps of a training loop, left out of step timings
WINDOW_STEPS = 8  # fixed window: replayed for determinism, gives the work counters
MIN_MEASURED = 100  # measured steps, so that step_ms_p90 has 10 samples beyond it
# lm_loss_final is the mean LM loss of the last WINDOW_STEPS steps that every
# run reaches (95-102), at the end of the 100-step LR warm-up, so that a
# fault in backward or the optimiser moves it
LOSS_FROM = WARMUP_STEPS + MIN_MEASURED - WINDOW_STEPS
MIN_PROGRESS = 0.2  # nats the LM loss must fall from the first window to that one
N_PREFIXES = 8  # held-out caption prefixes decoded per deploy cycle, as `vora eval`
MAX_NEW = 24  # decode budget per prefix, the `vora eval` default
FIRST_TOKEN_REPEATS = 3  # prefill-only decodes per prefix and cycle; each is ~3 ms
NO_EOS = -1  # benchmark decodes spend the whole budget, so their work is fixed
REPEATS = 10  # saves, loads and merges per deploy cycle
DEPLOY_EVERY = 40  # training steps between deploy cycles; spreads their samples over the run
EVAL_EVERY = 10  # eval is one long call, so training runs sample it more often
MERGE_TOL = 1e-5  # acceptance bound on merged vs unmerged logits
ADAPTER_SCALE = 0.02  # std of the seeded non-zero adapter b matrices
REPLAY_OP = 1_000_000  # op ids of the replayed window start here
NEVER_ENDS = 10**9  # total_steps of a benchmark training run; time stops it


class _Stop(Exception):
    """Raised from the metrics sink to end a training run."""


@dataclass
class Inputs:
    workload: str
    seed: int
    mcfg: object
    tcfg: object
    dcfg: object
    heldout: list  # one packed single-caption batch per prefix
    probe: object  # packed batch for the merge check
    ckpt: dict  # unmerged checkpoint tensors with non-zero adapters
    ckpt_meta: dict


def make_inputs(vora, workload, seed):
    """Configs, held-out prefixes, probe batch and the unmerged checkpoint
    with non-zero adapters, all from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    D, trainer = vora.data, vora.trainer
    mcfg = vora.model.ModelConfig()
    mode = "finetune" if workload == "finetune-merged" else "pretrain"
    tcfg = trainer.TrainConfig(seed=seed, total_steps=NEVER_ENDS, mode=mode)
    dcfg = D.DataConfig(anyres=workload == "pretrain-anyres")
    rng = np.random.default_rng([seed, 77])
    heldout = []
    for _ in range(N_PREFIXES):
        idx = D.HELDOUT_BASE + int(rng.integers(0, D.HELDOUT_BASE))
        sample = D.gen_image_caption(idx, dcfg.resolution, patch=dcfg.patch)
        heldout.append(D.pack_samples([sample], dcfg.patch, mcfg.max_seq))
    probe = D.make_batch(rng, 4, dcfg=D.DataConfig(), max_seq=mcfg.max_seq, heldout=True)
    pipe = trainer.build_pipeline(mcfg, seed=seed)
    for ad in pipe.adapters:
        ad.b.data = (ADAPTER_SCALE * rng.standard_normal(ad.b.data.shape)).astype(np.float32)
    ckpt = {n: t.data.copy() for n, t in trainer.collect_state(pipe).items()}
    meta = {"stage": "pretrain", "merged": "false",
            "mask_mode": tcfg.mask_mode, "distill_mode": tcfg.distill_mode}
    return Inputs(workload, seed, mcfg, tcfg, dcfg, heldout, probe, ckpt, meta)


class Run:
    """Samples, operation counts and failures of one benchmark run.

    `intervals[key]` holds the (start, end) times of each timed operation;
    `calibrated(key)` and `raw(key)` turn them into seconds.
    """

    def __init__(self, vora, inputs, seconds, workdir, tracer=None):
        self.vora = vora
        self.inputs = inputs
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.speed = speed.Calibrator()
        self.intervals = defaultdict(list)
        self.tokens = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.values = {}
        self.units = {}  # traced op id -> raw duration, s

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def flag(self, what):
        """A failed check that belongs to no single operation."""
        self.failed += 1
        self.failures.append(what)

    def timed(self, key, fn, *args, **kwargs):
        self.speed.probe()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.intervals[key].append((t0, time.perf_counter()))
        self.speed.probe()
        return out

    def raw(self, key):
        return [t1 - t0 for t0, t1 in self.intervals[key]]

    def calibrated(self, key):
        kind = "memory" if key in ("save", "load") else "compute"
        return [self.speed.calibrate(t0, t1, kind) for t0, t1 in self.intervals[key]]

    def trace_op(self, op, traced):
        if self.tracer is not None:
            self.tracer.current_op = op
            if traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()


# ---------------------------------------------------------------------------
# training workloads

def _train(run, pipe, stop, op_base=0, traced=lambda k: False, between=lambda k: None):
    """Run the workload's trainer entry point until `stop(steps, elapsed)`,
    calling `between(k)` untraced after step k.

    Returns ((start, end) of every step, metric records). Step k runs from
    the end of the work after step k-1 to the sink callback of step k.
    """
    trainer = run.vora.trainer
    inp = run.inputs
    entry = trainer.finetune if inp.tcfg.mode == "finetune" else trainer.pretrain
    records, steps = [], []
    run.speed.probe()
    run.trace_op(op_base, traced(0))
    t_first = t_start = time.perf_counter()

    def sink(rec):
        nonlocal t_start
        t_end = time.perf_counter()
        steps.append((t_start, t_end))
        records.append(rec)
        run.speed.probe()
        k = len(records)
        if stop(k, t_end - t_first):
            raise _Stop
        run.trace_op(op_base + k, False)
        between(k)
        run.trace_op(op_base + k, traced(k))
        t_start = time.perf_counter()

    try:
        entry(pipe, inp.tcfg, inp.dcfg, metrics_sink=sink)
    except _Stop:
        pass
    finally:
        run.trace_op(op_base, False)
    return steps, records


def run_training(run):
    inp, trainer = run.inputs, run.vora.trainer
    trace = run.tracer is not None

    def fresh_pipeline():
        if inp.tcfg.mode == "finetune":
            tensors = {n: a.copy() for n, a in inp.ckpt.items()}
            return trainer.pipeline_from_state(inp.mcfg, tensors, dict(inp.ckpt_meta))
        return trainer.build_pipeline(inp.mcfg, seed=inp.seed)

    # the same seed twice: a replay of the fixed window on a second pipeline
    _, replay = _train(run, fresh_pipeline(), lambda k, _: k >= WINDOW_STEPS,
                          op_base=REPLAY_OP, traced=lambda k: trace)
    for _ in replay:
        run.op(True, "replayed step")

    cap = max(4 * run.seconds, 60)

    def stop(k, elapsed):
        return (k - WARMUP_STEPS >= MIN_MEASURED and elapsed >= run.seconds) or elapsed >= cap

    def traced(k):
        return trace and (k < WINDOW_STEPS or k % 2 == 0)

    src = _write_input(run)

    served = []

    def between(k):
        if k % DEPLOY_EVERY == 0:
            served[:] = [deploy_cycle(run, src)]
        elif k % EVAL_EVERY == 0 and served:
            _evaluate(run, served[0])

    steps, records = _train(run, fresh_pipeline(), stop, traced=traced, between=between)
    for rec in records:
        ok = math.isfinite(rec["lm_loss"]) and math.isfinite(rec["total_loss"])
        run.op(ok, f"non-finite loss at step {rec['step']}")
    lm = [r["lm_loss"] for r in records]
    if lm[:WINDOW_STEPS] != [r["lm_loss"] for r in replay]:
        run.flag("lm loss of the fixed window differs between two runs of the seed")
    final = lm[LOSS_FROM:LOSS_FROM + WINDOW_STEPS]
    if len(final) < WINDOW_STEPS:
        run.flag(f"the time cap stopped training after {len(lm)} steps, before steps "
                 f"{LOSS_FROM}-{LOSS_FROM + WINDOW_STEPS - 1} that give lm_loss_final")
        final = lm[-WINDOW_STEPS:]
    elif not np.mean(final) <= np.mean(lm[:WINDOW_STEPS]) - MIN_PROGRESS:
        run.flag(f"lm loss fell from {np.mean(lm[:WINDOW_STEPS]):.4f} to {np.mean(final):.4f}, "
                 f"less than {MIN_PROGRESS} nats: training did not learn")
    run.values["lm_loss_final"] = float(np.mean(final))

    if trace:
        for k in range(WINDOW_STEPS, len(steps)):
            run.intervals["traced" if traced(k) else "untraced"].append(steps[k])
            if traced(k):
                run.units[k] = steps[k][1] - steps[k][0]
        check_counters(run, range(WINDOW_STEPS), range(REPLAY_OP, REPLAY_OP + WINDOW_STEPS),
                       WINDOW_STEPS)
    else:
        run.intervals["step"] = steps[WARMUP_STEPS:]
        run.values["samples_per_s"] = inp.tcfg.batch_size * len(run.intervals["step"]) / sum(run.calibrated("step"))
    if "eval" not in run.intervals:
        deploy_cycle(run, src)  # stopped by the time cap before the first cycle


def check_counters(run, ops_a, ops_b, units):
    """Work counters of two runs of the same window must match exactly."""
    a = run.tracer.counters(ops_a)
    b = run.tracer.counters(ops_b)
    if a != b:
        diff = sorted(k for k in a if a[k] != b[k])
        run.flag(f"work counters differ between two runs of the seed: {diff}")
    run.values["counters"] = {k: v / units for k, v in a.items()}


# ---------------------------------------------------------------------------
# deploy cycle and the eval-decode workload

def _decode_all(run, pipe, key, max_new=MAX_NEW):
    vora, inp = run.vora, run.inputs
    decoded = []
    for batch in inp.heldout:
        lay = batch.layouts[0]
        with vora.tensor.no_grad():
            emb = vora.trainer.pack_embedded(pipe, batch)
            prefix = vora.tensor.constant(emb.data[0, : lay.supervise_from])
        ids = run.timed(key, vora.model.decode_greedy, pipe.model, prefix, lay, NO_EOS, max_new,
                        adapters=pipe.adapters, mask_mode=inp.tcfg.mask_mode)
        run.op(len(ids) == max_new, f"{key} returned {len(ids)} tokens for a budget of {max_new}")
        run.tokens[key].append(len(ids))
        decoded.append(ids)
    return decoded


def _probe_logits(run, pipe, adapters):
    vora, inp = run.vora, run.inputs
    with vora.tensor.no_grad():
        emb = vora.trainer.pack_embedded(pipe, inp.probe)
        masks = vora.trainer.batch_masks(inp.probe, inp.tcfg.mask_mode)
        logits, _ = pipe.model.forward(emb, masks, adapters, collect_taps=False)
    return logits.data.copy()


def _same_checkpoint(loaded, tensors, meta):
    """Bit-exact round-trip: same names, shapes, float32 bytes and metadata."""
    _, got, got_meta = loaded
    return (got_meta == {k: str(v) for k, v in meta.items()} and got.keys() == tensors.keys()
            and all(got[n].dtype == np.float32 and got[n].shape == tensors[n].shape
                    and got[n].tobytes() == tensors[n].tobytes() for n in tensors))


def _write_input(run):
    """The seeded unmerged checkpoint as a file; an input, so not timed."""
    inp = run.inputs
    src = os.path.join(run.workdir, "start.vora")
    run.vora.checkpoint.save(src, inp.mcfg, inp.ckpt, inp.ckpt_meta)
    return src


def _evaluate(run, served):
    """`trainer.eval_metrics` with the `vora eval` defaults; every call in a
    run must give the same metrics."""
    inp = run.inputs
    result = run.timed("eval", run.vora.trainer.eval_metrics, served, inp.dcfg, inp.tcfg)
    ok = all(math.isfinite(v) for v in result.values())
    run.op(ok and run.values.setdefault("eval", result) == result,
           f"eval metrics {result} are not finite or differ between two calls of the seed")


def deploy_cycle(run, src):
    """Load `src` (the seeded unmerged checkpoint), decode, merge, save,
    reload, decode merged, eval. Every cycle of a run must decode the same
    ids. Returns the served (merged, reloaded) pipeline."""
    vora, inp = run.vora, run.inputs
    ckpt, lora, trainer = vora.checkpoint, vora.lora, vora.trainer

    for r in range(REPEATS):
        loaded = run.timed("load", ckpt.load, src)
        run.op(_same_checkpoint(loaded, inp.ckpt, inp.ckpt_meta), "checkpoint round-trip is not bit-exact")
        pipe = trainer.pipeline_from_state(*loaded)
        if r == 0:
            unmerged_ids = _decode_all(run, pipe, "decode_unmerged")
        split = _probe_logits(run, pipe, pipe.adapters)
        run.timed("merge", lora.merge_all, pipe.model, pipe.adapters)
        worst = float(np.abs(_probe_logits(run, pipe, None) - split).max())
        run.op(worst <= MERGE_TOL, f"merged logits differ by {worst:.2e} > {MERGE_TOL:g}")

    merged = {}
    for params in (pipe.model.params, pipe.vembed.params, pipe.teacher.params):
        merged.update({n: t.data.copy() for n, t in params.items()})
    merged_meta = dict(inp.ckpt_meta, stage="merged", merged="true")
    # each save writes a new file, as a run directory or `vora merge` does
    paths = [os.path.join(run.workdir, f"merged-{i}.vora") for i in range(REPEATS)]
    for path in paths:
        run.timed("save", ckpt.save, path, inp.mcfg, merged, merged_meta)
        run.op(True, "save")
    for path in paths:
        loaded = run.timed("load", ckpt.load, path)
        run.op(_same_checkpoint(loaded, merged, merged_meta), "checkpoint round-trip is not bit-exact")
        os.remove(path)

    served = trainer.pipeline_from_state(*loaded)
    merged_ids = _decode_all(run, served, "decode_merged")
    for _ in range(FIRST_TOKEN_REPEATS):
        _decode_all(run, served, "first_token", max_new=1)
    if run.values.setdefault("decoded", (unmerged_ids, merged_ids)) != (unmerged_ids, merged_ids):
        run.flag("decoded ids differ between two deploy cycles of the seed")
    _evaluate(run, served)
    return served


def run_eval_decode(run):
    trace = run.tracer is not None
    src = _write_input(run)
    min_cycles = 3 if trace else 2
    t_start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 0
        run.trace_op(cycle, traced)
        t0 = time.perf_counter()
        deploy_cycle(run, src)
        t1 = time.perf_counter()
        run.trace_op(cycle, False)
        run.intervals["traced" if traced else "untraced"].append((t0, t1))
        if traced:
            run.units[cycle] = t1 - t0
        cycle += 1
        if cycle >= min_cycles and time.perf_counter() - t_start >= run.seconds:
            break
    run.values["lm_loss_final"] = math.log(run.values["eval"]["text_perplexity"])
    if trace:
        check_counters(run, [0], [2], 1)
    else:
        run.intervals["step"] = run.intervals["decode_unmerged"] + run.intervals["decode_merged"]
        run.values["samples_per_s"] = len(run.intervals["step"]) / sum(run.calibrated("step"))


def run_workload(run):
    if run.inputs.workload == "eval-decode":
        run_eval_decode(run)
    else:
        run_training(run)
