#!/usr/bin/env python3
"""Paired A/B of training steps or greedy decodes: git revision REV against
the working tree, both in one process.

    tools/ab_steps.py REV [fixed|anyres] [pretrain|finetune] [--steps N] [--seed S]
    tools/ab_steps.py REV decode [--merged] [--steps N] [--seed S]

REV's src/vora (taken with `git archive`, as tools/compare_artifacts.sh
does) is imported as the package `vora_rev`, the working tree's src/vora as
`vora`. Each side builds the default pipeline from the same seed (finetune
merges it first) and draws its batches from its own generator with the
same seed, so both train on the same batches. The steps alternate: step i
runs REV then the tree when i is even, the tree then REV when it is odd.
A step is the body a training run takes on a batch (`trainer.train_loop`):
`trainer.run_shard` on both shards of the batch (`PackedBatch.shards`),
one after the other, then `combine` and `adamw_step`, which are not timed,
nor is batch making. The shards are timed in process CPU time, which a
second process on the host inflates less than wall time. After --warmup
untimed steps the script prints each side's median ms per step, its minor
page faults per step (`ru_minflt` deltas over the timed body; both sides
share the process, so each delta is its own side's) and the paired ratio
tree/REV per step with its quartiles: a ratio below 1 means the tree is
faster.

BLAS runs on one thread. The script uses `trainer._partition`,
`TrainState`, `run_shard`, `combine`, `adamw_step`, `lr_at`,
`compute_losses` and `data.PackedBatch.shards`, so REV must have them. It
compares the step bodies of two revisions in one process, not their runs:
a run's second shard may run in a forked worker. A claim about run steps
rests on `perfbench/run.py` pairs, which time them in wall time.

`decode` times `model.decode_greedy` instead, on the inputs of perfbench's
eval-decode workload for the seed (`workloads.make_inputs`): each side
loads its unmerged checkpoint with non-zero adapters (--merged: then
merges them) and embeds its 8 held-out caption prefixes. The calls cycle
over the prefixes and alternate as the steps do; each decodes 24 new
tokens with no EOS, so its work is fixed. A step is one decode call,
timed in process CPU time. The script exits 1 if the two sides decode
different ids. Besides what perfbench uses, it calls `trainer.merge`, so
REV must have it.
"""

import argparse
import importlib
import importlib.util
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  perfbench's, for the decode inputs


def import_package(name, path):
    """Import the package directory ``path`` under the name ``name``."""
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.trainer")  # and, through it, model and data
    return pkg


class Side:
    """One package's pipeline, optimizer state and batch generator."""

    def __init__(self, vora, grid, mode, seed):
        self.vora = vora
        trainer = vora.trainer
        self.tcfg = trainer.TrainConfig(seed=seed, mode=mode)
        self.dcfg = vora.data.DataConfig(anyres=grid == "anyres")
        self.pipe = trainer.build_pipeline(vora.model.ModelConfig(), seed=seed)
        if mode == "finetune":
            trainer.merge(self.pipe)
        self.distill_mode = "none" if mode == "finetune" else self.tcfg.distill_mode
        self.state = trainer.TrainState.create(trainer._partition(self.pipe, self.tcfg))
        self.rng = np.random.default_rng([seed, 10])
        self.ms, self.faults = [], []

    def step(self, i, timed):
        vora, tcfg, trainer = self.vora, self.tcfg, self.vora.trainer
        batch = vora.data.make_batch(self.rng, tcfg.batch_size, dcfg=self.dcfg, max_seq=self.pipe.cfg.max_seq)
        loss_fns = [lambda part=part: trainer.compute_losses(self.pipe, part, tcfg.mask_mode, self.distill_mode)
                    for part in batch.shards()]
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
        answers = [trainer.run_shard(self.state, k, fn) for k, fn in enumerate(loss_fns)]
        dt, faults = time.process_time() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        lm = (trainer.combine(self.state, *answers) if len(answers) == 2 else answers[0])[0]
        trainer.adamw_step(self.state, trainer.lr_at(tcfg, i), tcfg)
        if timed:
            self.ms.append(1e3 * dt)
            self.faults.append(faults)
        return lm


class DecodeSide:
    """One package's adapted pipeline, merged or not, and the held-out
    prefixes it decodes: perfbench's eval-decode inputs for the seed."""

    def __init__(self, vora, merged, seed):
        inp = workloads.make_inputs(vora, "eval-decode", seed)
        self.vora = vora
        self.pipe = vora.trainer.pipeline_from_state(inp.mcfg, inp.ckpt, inp.ckpt_meta)
        if merged:
            vora.trainer.merge(self.pipe)
        self.prefixes = []
        with vora.tensor.no_grad():
            for batch in inp.heldout:
                lay = batch.layouts[0]
                emb = vora.trainer.pack_embedded(self.pipe, batch).data[0, : lay.supervise_from]
                self.prefixes.append((vora.tensor.constant(emb), lay))
        self.ms, self.faults = [], []

    def step(self, i, timed):
        prefix, lay = self.prefixes[i % len(self.prefixes)]
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
        ids = self.vora.model.decode_greedy(self.pipe.model, prefix, lay, workloads.NO_EOS, workloads.MAX_NEW,
                                            adapters=self.pipe.adapters)
        dt, faults = time.process_time() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        if timed:
            self.ms.append(1e3 * dt)
            self.faults.append(faults)
        return ids


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("grid", nargs="?", choices=("fixed", "anyres", "decode"), default="fixed")
    ap.add_argument("mode", nargs="?", choices=("pretrain", "finetune"), default="pretrain")
    ap.add_argument("--merged", action="store_true", help="decode: merge the adapters first")
    ap.add_argument("--steps", type=int, default=140, help="timed steps (decode calls) per side")
    ap.add_argument("--warmup", type=int, default=5, help="untimed steps per side first")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.grid == "decode":
        title = f"decode {'merged' if args.merged else 'unmerged'}"
        make = lambda vora: DecodeSide(vora, args.merged, args.seed)  # noqa: E731
    else:
        title = f"{args.grid} {args.mode}, two shards"
        make = lambda vora: Side(vora, args.grid, args.mode, args.seed)  # noqa: E731

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src/vora"],
                                 check=True, capture_output=True).stdout
        archive_path = Path(tmp) / "rev.tar"
        archive_path.write_bytes(archive)
        with tarfile.open(archive_path) as tar:
            tar.extractall(tmp, filter="data")
        rev = make(import_package("vora_rev", Path(tmp) / "src" / "vora"))
        tree = make(import_package("vora", ROOT / "src" / "vora"))
        worst_loss_gap, id_mismatches = 0.0, 0
        for i in range(args.warmup + args.steps):
            timed = i >= args.warmup
            first, second = (rev, tree) if i % 2 == 0 else (tree, rev)
            out = {id(first): first.step(i, timed), id(second): second.step(i, timed)}
            if args.grid == "decode":
                id_mismatches += out[id(rev)] != out[id(tree)]
            else:
                worst_loss_gap = max(worst_loss_gap, abs(out[id(rev)] - out[id(tree)]))

    ratio = np.array(tree.ms) / np.array(rev.ms)
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"{title}, seed {args.seed}, {args.steps} timed steps per side (process CPU time)")
    for name, side in ((args.rev, rev), ("tree", tree)):
        lo, mid, hi = np.percentile(side.ms, [25, 50, 75])
        print(f"  {name:>12}: median {mid:.2f} ms/step (quartiles {lo:.2f}-{hi:.2f}),"
              f" {np.median(side.faults):.0f} minor faults/step (mean {np.mean(side.faults):.0f})")
    print(f"  tree/{args.rev}: median ratio {med:.3f} (quartiles {q1:.3f}-{q3:.3f}),"
          f" tree faster on {int((ratio < 1).sum())}/{ratio.size} steps")
    if args.grid == "decode":
        print(f"  decode calls whose ids differ: {id_mismatches} of {args.warmup + args.steps}")
        return 1 if id_mismatches else 0
    print(f"  worst |lm loss difference| over all steps: {worst_loss_gap:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
