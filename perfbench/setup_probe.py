"""Time-to-ready probe: start, import `vora`, build or load the pipeline, exit.

    python3 perfbench/setup_probe.py --seed N [--checkpoint PATH]

`run.py` times this process from spawn to exit several times and reports
the median as `setup_s`. Without a checkpoint it runs
`trainer.build_pipeline`; with one, `checkpoint.load` and
`trainer.pipeline_from_state`.
"""

import argparse

import benchenv

benchenv.pin_threads()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint")
    args = parser.parse_args()
    vora = benchenv.import_vora()
    if args.checkpoint:
        vora.trainer.pipeline_from_state(*vora.checkpoint.load(args.checkpoint))
    else:
        vora.trainer.build_pipeline(vora.model.ModelConfig(), seed=args.seed)


if __name__ == "__main__":
    main()
