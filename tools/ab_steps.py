#!/usr/bin/env python3
"""Paired A/B of training steps: git revision REV against the working tree,
both in one process.

    tools/ab_steps.py REV [fixed|anyres] [pretrain|finetune] [--steps N] [--seed S]

REV's src/vora (taken with `git archive`, as tools/compare_artifacts.sh
does) is imported as the package `vora_rev`, the working tree's src/vora as
`vora`. Each side builds the default pipeline from the same seed (finetune
merges it first) and draws its batches from its own generator with the
same seed, so both train on the same batches. The steps alternate: step i
runs REV then the tree when i is even, the tree then REV when it is odd.
Each step (`trainer.train_step` on one batch, batch making left out) is
timed in process CPU time, which a second process on the host inflates
less than wall time. After --warmup untimed steps the script prints each
side's median ms per step and the paired ratio tree/REV per step with its
quartiles: a ratio below 1 means the tree is faster.

BLAS runs on one thread. The script uses `trainer._partition`,
`TrainState`, `train_step` and `compute_losses`, so REV must have them.

It measures the one-shard step body only: `train_step` without a shard
worker, on the whole batch, in this process's CPU time, which cannot see
a worker's half of a step. A claim about two-shard steps rests on `perfbench/run.py` pairs, which time steps in wall time.
"""

import argparse
import importlib
import importlib.util
import os
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
        self.ms = []

    def step(self, i, timed):
        vora, tcfg = self.vora, self.tcfg
        batch = vora.data.make_batch(self.rng, tcfg.batch_size, dcfg=self.dcfg, max_seq=self.pipe.cfg.max_seq)
        loss_fn = lambda: vora.trainer.compute_losses(self.pipe, batch, tcfg.mask_mode, self.distill_mode)  # noqa: E731
        t0 = time.process_time()
        out, _ = vora.trainer.train_step(self.state, tcfg, i, loss_fn)
        dt = time.process_time() - t0
        if timed:
            self.ms.append(1e3 * dt)
        return float(out.lm.data)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("grid", nargs="?", choices=("fixed", "anyres"), default="fixed")
    ap.add_argument("mode", nargs="?", choices=("pretrain", "finetune"), default="pretrain")
    ap.add_argument("--steps", type=int, default=140, help="timed steps per side")
    ap.add_argument("--warmup", type=int, default=5, help="untimed steps per side first")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src/vora"],
                                 check=True, capture_output=True).stdout
        archive_path = Path(tmp) / "rev.tar"
        archive_path.write_bytes(archive)
        with tarfile.open(archive_path) as tar:
            tar.extractall(tmp, filter="data")
        rev = Side(import_package("vora_rev", Path(tmp) / "src" / "vora"), args.grid, args.mode, args.seed)
        tree = Side(import_package("vora", ROOT / "src" / "vora"), args.grid, args.mode, args.seed)
        worst_loss_gap = 0.0
        for i in range(args.warmup + args.steps):
            timed = i >= args.warmup
            first, second = (rev, tree) if i % 2 == 0 else (tree, rev)
            losses = {id(first): first.step(i, timed), id(second): second.step(i, timed)}
            worst_loss_gap = max(worst_loss_gap, abs(losses[id(rev)] - losses[id(tree)]))

    ratio = np.array(tree.ms) / np.array(rev.ms)
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"{args.grid} {args.mode}, seed {args.seed}, {args.steps} timed steps per side (process CPU time)")
    for name, side in ((args.rev, rev), ("tree", tree)):
        lo, mid, hi = np.percentile(side.ms, [25, 50, 75])
        print(f"  {name:>12}: median {mid:.2f} ms/step (quartiles {lo:.2f}-{hi:.2f})")
    print(f"  tree/{args.rev}: median ratio {med:.3f} (quartiles {q1:.3f}-{q3:.3f}),"
          f" tree faster on {int((ratio < 1).sum())}/{ratio.size} steps")
    print(f"  worst |lm loss difference| over all steps: {worst_loss_gap:.2e}")


if __name__ == "__main__":
    main()
