"""Child-process entry point for one benchmark process.

    launch.py run --report R.json [--spans S.json] -- <distctl CLI arguments>
    launch.py setup <config.json>

`run` executes `distctl.cli.main` in this process. It times every trainer
call the CLI makes (`dpg.train` and `baselines.train_baseline`, as bound in
`cli`) and writes the samples each drew, its seconds and its proposal-swap
count to R.json. With --spans it also installs the tracer and writes every
span to S.json at exit, with the import of distctl as one more span.

`setup` does only the set-up part of a run: import, config load, base model
and constraint set. Its process lifetime is the benchmark's `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _timed_trainers(cli, calls: list) -> None:
    def timed(fn):
        def wrapper(base, target, config, *args, **kwargs):
            start = time.perf_counter()
            result = fn(base, target, config, *args, **kwargs)
            seconds = time.perf_counter() - start
            state = getattr(result, "state", None)
            calls.append(
                {
                    "seconds": seconds,
                    "samples": config.iterations * config.samples_per_iteration,
                    "swaps": state.proposal_updates if state is not None else None,
                }
            )
            return result

        return wrapper

    cli.train = timed(cli.train)
    cli.train_baseline = timed(cli.train_baseline)


def _run(args) -> int:
    started = time.perf_counter()
    from distctl import cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.spans.append(["import.distctl", started, time.perf_counter(), -1, None])
        tracer.install()
    calls: list = []
    _timed_trainers(cli, calls)
    try:
        code = cli.main(args.cli_args)
    finally:
        Path(args.report).write_text(json.dumps({"trainers": calls}))
        if tracer is not None:
            tracer.dump(Path(args.spans))
    return code


def _setup(args) -> int:
    from distctl.config import ExperimentConfig

    cfg = ExperimentConfig.load(args.config)
    base = cfg.build_base()
    cfg.build_constraints(base.space)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--report", required=True)
    run.add_argument("--spans")
    run.add_argument("cli_args", nargs=argparse.REMAINDER)
    setup = sub.add_parser("setup")
    setup.add_argument("config")
    args = parser.parse_args(argv)
    if args.mode == "run":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        return _run(args)
    return _setup(args)


if __name__ == "__main__":
    sys.exit(main())
