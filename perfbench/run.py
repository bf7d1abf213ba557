"""Benchmark of the vora harness: four user paths, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in this process with BLAS
and OpenMP pinned to one thread. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it wraps the public functions of `vora` and
reports per-layer self times, call counts and work counters instead. The
last line of standard output is the JSON result; a detailed record with the
environment is written to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

import benchenv

benchenv.pin_threads()

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s", "samples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
    "lm_loss_final": "nats", "decode_tokens_per_s": "tokens/s",
    "decode_tokens_per_s_unmerged": "tokens/s", "first_token_ms_p50": "ms", "eval_s": "s",
    "merge_ms": "ms", "checkpoint_save_ms": "ms", "checkpoint_load_ms": "ms", "peak_rss_mb": "MB",
}


def measure_setup(run):
    """Calibrated spawn-to-exit seconds of SETUP_REPEATS fresh processes that
    import vora and build (or load) the workload's pipeline."""
    inp = run.inputs
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), "--seed", str(inp.seed)]
    if inp.tcfg.mode == "finetune" or inp.workload == "eval-decode":
        path = os.path.join(run.workdir, "setup.vora")
        run.vora.checkpoint.save(path, inp.mcfg, inp.ckpt, inp.ckpt_meta)
        cmd += ["--checkpoint", path]
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, subprocess polls for the exit in 50 ms steps
        run.timed("setup", subprocess.run, cmd, check=True)


def _rate(tokens, seconds):
    return sum(tokens) / sum(seconds)


def e2e_metrics(run):
    import stats

    s = {key: run.calibrated(key) for key in run.intervals}
    return {
        "setup_s": statistics.median(s["setup"]),
        "samples_per_s": run.values["samples_per_s"],
        "step_ms_p50": statistics.median(s["step"]) * 1e3,
        "step_ms_p90": stats.percentile(s["step"], 90) * 1e3,
        "lm_loss_final": run.values["lm_loss_final"],
        "decode_tokens_per_s": _rate(run.tokens["decode_merged"], s["decode_merged"]),
        "decode_tokens_per_s_unmerged": _rate(run.tokens["decode_unmerged"], s["decode_unmerged"]),
        "first_token_ms_p50": statistics.median(s["first_token"]) * 1e3,
        "eval_s": statistics.median(s["eval"]),
        "merge_ms": statistics.median(s["merge"]) * 1e3,
        "checkpoint_save_ms": statistics.median(s["save"]) * 1e3,
        "checkpoint_load_ms": statistics.median(s["load"]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(run, spans):
    """Per-layer self ms per traced unit (step or cycle), counts per unit of
    the fixed window, and the tracing overhead."""
    import tracing

    n = len(run.units)
    table, unit_s, remainder_s = tracing.unit_summary(spans, run.units)
    m = {f"{layer}.ms": table[layer][0] / n * 1e3 for layer in tracing.LAYERS}
    counters = run.values["counters"]
    m.update({f"{layer}.calls": counters[f"{layer}.calls"] for layer in tracing.COUNTED})
    m.update({name: counters[name] for name in tracing.WORK_COUNTERS})
    m["tensor.matmul.gflop"] /= 1e9
    m["trace.unit.ms"] = unit_s * 1e3
    m["trace.remainder.ms"] = remainder_s * 1e3
    m["trace.overhead.pct"] = 100.0 * (statistics.median(run.calibrated("traced"))
                                       / statistics.median(run.calibrated("untraced")) - 1.0)
    return m


def layer_units(name):
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".pct"):
        return "%"
    if name == "checkpoint.bytes":
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        vora = benchenv.import_vora()
    except benchenv.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import report
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = benchenv.environment(vora)
    print("env " + json.dumps(env, sort_keys=True))
    inputs = workloads.make_inputs(vora, args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        tracer = tracing.Tracer(vora) if args.trace else None
        run = workloads.Run(vora, inputs, args.seconds, workdir, tracer)
        if not args.trace:
            measure_setup(run)
        workloads.run_workload(run)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = tracer.spans()
        metrics = layer_metrics(run, spans)
        units = {name: layer_units(name) for name in metrics}
        doc = {"header": {"workload": args.workload, "seed": args.seed, "env": env,
                          "unit": "cycle" if args.workload == "eval-decode" else "step",
                          "overhead_pct": metrics["trace.overhead.pct"]},
               "units": run.units, "spans": spans}
        tracing.write_trace(os.path.join(OUT, f"{args.workload}.trace.json"), doc)
        print(report.format_table(doc))
    else:
        metrics = e2e_metrics(run)
        units = E2E_UNITS
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": metrics,
        "timings_s": {k: stats.summarize(run.calibrated(k)) for k in sorted(run.intervals)},
        "raw_timings_s": {k: stats.summarize(run.raw(k)) for k in sorted(run.intervals)},
        "counters": run.values.get("counters"), "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    for name, summary in detail["timings_s"].items():
        raw = detail["raw_timings_s"][name]
        tail = f", p{summary['tail_pct']:g} {summary['tail'] * 1e3:.3f}" if summary["tail_pct"] else ""
        print(f"timing {name}: p50 {summary['p50'] * 1e3:.3f} ms{tail} over {summary['n']} samples "
              f"(raw p50 {raw['p50'] * 1e3:.3f} ms)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"ops {run.attempted} attempted, {run.failed} failed "
          f"(ops_failed_ratio {run.failed / max(run.attempted, 1):.4f})")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
