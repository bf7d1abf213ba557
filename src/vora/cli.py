"""Command-line entry point.

Commands: pretrain, finetune, merge, eval, gradcheck, ablate.
Exit codes: 0 ok, 2 config error (a malformed file, an out-of-range
value, data keys that do not fit the model that runs, or training
batches that hold no image), 3 numeric abort, 4 merging or fine-tuning a
checkpoint without unmerged adapters, or a corrupt or incomplete
checkpoint, 5 the shard worker of a two-shard training run died or gave
no answer in time (the message names the step).
Set VORA_LOG=debug for per-step logging (default: info).
"""

import argparse
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import replace

from . import checkpoint, config, distill, gradcheck, lora, trainer
from .model import MASK_MODES

log = logging.getLogger("vora")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_STATE = 4
EXIT_WORKER = 5


def _setup_logging():
    level = logging.DEBUG if os.environ.get("VORA_LOG", "info").lower() == "debug" else logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)


def _write_config(out_dir, run_cfg):
    # the timestamp is the only run-to-run difference, confined to this line
    with open(os.path.join(out_dir, "config.resolved"), "w") as f:
        f.write(f"# written: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        f.write(config.normalize(run_cfg))


def _write_run_dir(out_dir, run_cfg, metrics, pipe, meta):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w") as f:
        for rec in metrics:
            f.write(json.dumps(rec) + "\n")
    _write_config(out_dir, run_cfg)
    checkpoint.save(os.path.join(out_dir, "checkpoint.vora"),
                    pipe.cfg, trainer.collect_state(pipe), meta)


def _metrics_logger():
    def sink(rec):
        log.debug("step %d lr %.6f total %.4f lm %.4f", rec["step"], rec["lr"],
                  rec["total_loss"], rec["lm_loss"])
    return sink


def _training_run(path):
    """(run config, model config, data config, train config) for pretrain
    and ablate, whose model is the run config's, checked before any work."""
    run_cfg = config.parse_file(path)
    mcfg, dcfg, tcfg = run_cfg.model_config(), run_cfg.data_config(), run_cfg.train_config()
    config.check_data_fits(dcfg, mcfg, path)
    config.check_batch_images(dcfg, tcfg.batch_size, path)
    return run_cfg, mcfg, dcfg, tcfg


def cmd_pretrain(args):
    run_cfg, mcfg, dcfg, tcfg = _training_run(args.config)
    if tcfg.mode == "finetune":
        raise config.ConfigFileError("mode=finetune: use the finetune command")
    pipe = trainer.build_pipeline(mcfg, seed=tcfg.seed, teacher_warm=tcfg.teacher_warm,
                                  teacher_warm_steps=tcfg.teacher_warm_steps)
    meta = {"stage": "pretrain", "merged": "false",
            "mask_mode": tcfg.mask_mode, "distill_mode": tcfg.distill_mode}
    if tcfg.mode == "full_llm_unstable":
        _, metrics, summary = trainer.full_llm_probe(pipe, tcfg, dcfg, metrics_sink=_metrics_logger())
        meta["stage"] = "full_llm_unstable"
        _write_run_dir(args.out_dir, run_cfg, metrics, pipe, meta)
        with open(os.path.join(args.out_dir, "summary.json"), "w") as f:
            json.dump(summary, f)
        log.info("full-model probe done: %s", summary)
    else:
        _, metrics = trainer.pretrain(pipe, tcfg, dcfg, metrics_sink=_metrics_logger())
        _write_run_dir(args.out_dir, run_cfg, metrics, pipe, meta)
        log.info("pretrain done: %d steps -> %s", tcfg.total_steps, args.out_dir)
    return EXIT_OK


def _checkpoint_run(args):
    """(run config, data config, pipeline, checkpoint meta) for eval and
    finetune. The model is the checkpoint's; the run config's data keys
    must fit it."""
    run_cfg = config.parse_file(args.config)
    cfg, tensors, meta = checkpoint.load(args.checkpoint)
    dcfg = run_cfg.data_config()
    config.check_data_fits(dcfg, cfg, f"{args.config} on checkpoint {args.checkpoint}")
    return run_cfg, dcfg, trainer.pipeline_from_state(cfg, tensors, meta), meta


def cmd_finetune(args):
    run_cfg, dcfg, pipe, _ = _checkpoint_run(args)
    tcfg = run_cfg.train_config(mode="finetune")
    config.check_batch_images(dcfg, tcfg.batch_size, args.config)
    _, metrics = trainer.finetune(pipe, tcfg, dcfg, metrics_sink=_metrics_logger())
    out_meta = {"stage": "finetune", "merged": "true",
                "mask_mode": tcfg.mask_mode, "distill_mode": "none"}
    _write_run_dir(args.out_dir, run_cfg, metrics, pipe, out_meta)
    log.info("finetune done: %d steps -> %s", tcfg.total_steps, args.out_dir)
    return EXIT_OK


def cmd_merge(args):
    cfg, tensors, meta = checkpoint.load(args.checkpoint_in)
    pipe = trainer.pipeline_from_state(cfg, tensors, meta)
    trainer.merge(pipe)
    checkpoint.save(args.checkpoint_out, cfg, trainer.collect_state(pipe), dict(meta, stage="merged", merged="true"))
    log.info("merged adapters -> %s", args.checkpoint_out)
    return EXIT_OK


def cmd_eval(args):
    run_cfg, dcfg, pipe, meta = _checkpoint_run(args)
    # a checkpoint is scored under the mask and in the distill mode that
    # trained it; a file without an entry counts as trained at the default
    modes = {}
    for key, known in (("mask_mode", MASK_MODES), ("distill_mode", distill.DISTILL_MODES)):
        modes[key] = meta.get(key, getattr(trainer.TrainConfig, key))
        if modes[key] not in known:
            raise checkpoint.CheckpointError(f"{args.checkpoint}: unknown {key} {modes[key]!r}")
    metrics = trainer.eval_metrics(pipe, dcfg, replace(run_cfg.train_config(), **modes),
                                   n_caption=run_cfg["eval_captions"],
                                   n_text=run_cfg["eval_texts"],
                                   max_new=run_cfg["eval_max_new"])
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args):
    run_cfg = config.parse_file(args.config)
    ok = True
    for name, err, passed in gradcheck.op_suite(seed=run_cfg["seed"]):
        print(f"{'PASS' if passed else 'FAIL'} op {name}: max rel err {err:.2e}")
        ok &= passed
    results, e2e_ok = gradcheck.end_to_end_check(seed=run_cfg["seed"])
    worst = max(err for _, err, _ in results)
    print(f"{'PASS' if e2e_ok else 'FAIL'} end-to-end objective: worst rel err {worst:.2e}")
    ok &= e2e_ok
    return EXIT_OK if ok else 1


def cmd_ablate(args):
    run_cfg, mcfg, dcfg, tcfg = _training_run(args.config)
    grid = list(itertools.product(run_cfg["ablate_masks"], run_cfg["ablate_distills"],
                                  run_cfg["ablate_ranks"]))
    try:
        trainer.ablation_cells(mcfg, tcfg, grid, run_cfg["ablate_steps"])
    except ValueError as exc:
        raise config.ConfigFileError(f"{args.config}: ablation grid: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    rows, curves = trainer.run_ablation(mcfg, tcfg, dcfg, grid, run_cfg["thresholds"],
                                        run_cfg["ablate_steps"],
                                        csv_path=os.path.join(args.out_dir, "report.csv"))
    _write_config(args.out_dir, run_cfg)
    for (mask, dist, rank), metrics in curves.items():
        tag = f"{mask}_{dist}_r{rank}"
        with open(os.path.join(args.out_dir, f"metrics_{tag}.jsonl"), "w") as f:
            for rec in metrics:
                f.write(json.dumps(rec) + "\n")
    log.info("ablation done: %d cells, %d rows -> %s", len(grid), len(rows), args.out_dir)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="vora", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="stage-1 training: frozen base, adapters learn vision")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="stage-2 training: merge adapters, train the full model")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("merge", help="fold adapters into the base weights")
    p.add_argument("checkpoint_in")
    p.add_argument("checkpoint_out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="held-out metrics for a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("config")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="mask/distill/rank grid with fixed data order")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except config.ConfigFileError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except trainer.TrainAbort as exc:
        log.error("numeric abort: %s", exc)
        return EXIT_NUMERIC
    except (lora.MergeStateError, checkpoint.CheckpointError) as exc:
        log.error("state error: %s", exc)
        return EXIT_STATE
    except trainer.ShardWorkerError as exc:
        log.error("shard worker error: %s", exc)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
