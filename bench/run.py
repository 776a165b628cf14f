"""distctl benchmark: drives the `distctl` CLI through one named workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. Each workload run is one or more fresh Python
processes (see workloads.py), started one at a time: closed loop, one client.
Runs repeat until --seconds have passed (at least one run). Before them, the
set-up part alone (import, config load, base model, constraints) runs
SETUP_REPEATS times in fresh processes; its median is `setup_s`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
tracing. --trace 1 alternates untraced and traced runs (at least one of each)
and reports the per-layer metrics from the traced ones, plus the tracing
overhead. Every run's outputs are checked; a failed check or a non-zero exit
makes the run failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Outputs go to bench/out/<workload>/seed-<N>/: the generated inputs, the CLI
outputs of failed runs, and result.json with every run's figures and digest.
The fixed-seed digest of each run is compared with bench/digests.json; a
difference is reported, not failed. --record-digest stores this run's digest
there instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0
# numpy's OpenBLAS busy-waits its threads: on a shared 2-core VM, a run whose
# second core was busy elsewhere took twice as long with 2 threads.
# The workloads' matrices are tiny, so one thread costs them nothing.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REQUIRED_FILES = ("BENCHMARK.json", "src/distctl/cli.py", "demo/corpus.txt",
                  "demo/distributional.json", "demo/ablation.json", "demo/pointwise.json")


@dataclass
class RunResult:
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    trainer_s: float = 0.0
    trainer_samples: int = 0
    errors: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "traced": self.traced,
            "wall_s": self.wall_s,
            "peak_rss_mb": self.rss_mb,
            "trainer_s": self.trainer_s,
            "trainer_samples": self.trainer_samples,
            "errors": self.errors,
            "digest": self.digest,
        }


def _spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    with log.open("w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _setup_seconds(plan: workloads.Plan, work: Path) -> tuple[list[float], int]:
    times, failed = [], 0
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), "setup", str(plan.setup_config)]
    for i in range(SETUP_REPEATS):
        code, wall, _ = _spawn(argv, work, work / f"setup-{i}.log")
        times.append(wall)
        failed += code != 0
    return times, failed


def _run_once(plan: workloads.Plan, run_dir: Path, traced: bool) -> RunResult:
    result = RunResult(traced=traced)
    out_dirs, reports = {}, {}
    for step in plan.steps:
        out = run_dir / step.label.replace("/", "-")
        out.mkdir(parents=True)
        argv = [sys.executable, str(BENCH_DIR / "launch.py"), "run", "--report",
                str(out / "launch-report.json")]
        if traced:
            argv += ["--spans", str(out / "spans.json")]
        argv += ["--"] + step.argv(out)
        code, wall, rss = _spawn(argv, run_dir, out / "process.log")
        result.wall_s += wall
        result.rss_mb = max(result.rss_mb, rss)
        out_dirs[step.label] = out
        if code != 0:
            result.errors.append(f"{step.label}: exit code {code}")
            continue
        reports[step.label] = json.loads((out / "launch-report.json").read_text())
        for call in reports[step.label]["trainers"]:
            result.trainer_s += call["seconds"]
            result.trainer_samples += call["samples"]
        if traced:
            result.spans.append(json.loads((out / "spans.json").read_text()))
    if not result.errors:
        errors, result.digest = workloads.check_run(plan, out_dirs, reports)
        result.errors += errors
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(untraced: list[RunResult], setup_times: list[float]) -> dict[str, float]:
    ok = [r for r in untraced if not r.errors] or untraced
    return {
        "wall_s": _median([r.wall_s for r in ok]),
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median([r.rss_mb for r in ok]),
        "train_samples_per_s": _median(
            [r.trainer_samples / r.trainer_s for r in ok if r.trainer_s > 0]
        ),
        "final_kl_p_pi_exact": _median(
            [workloads.final_kl_mean(r.digest) for r in ok if r.digest.get("final_kl")]
        ),
    }


def _per_layer(runs: list[RunResult]) -> dict[str, float]:
    traced = [r for r in runs if r.traced and not r.errors]
    per_run = [layers.compute(r.spans, r.wall_s) for r in traced]
    out = {name: _median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
    traced_wall = _median([r.wall_s for r in traced])
    untraced_wall = _median([r.wall_s for r in runs if not r.traced and not r.errors])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def _machine() -> dict:
    import platform

    facts = {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
        facts["blas_threads_default"] = _blas_threads(Path(numpy.__file__).parent)
        facts["blas_threads_children"] = int(CHILD_ENV["OPENBLAS_NUM_THREADS"])
    except ImportError:
        facts["numpy"] = None
    return facts


def _blas_threads(numpy_dir: Path):
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    for lib in sorted((numpy_dir.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return None


def _digest_status(workload: str, seed: int, digest: dict, record: bool) -> str:
    path = BENCH_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/seed-{seed}"
    if record:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        return "recorded"
    if key not in known:
        return "no reference"
    changed = sorted(k for k in digest if digest[k] != known[key].get(k))
    return f"CHANGED ({', '.join(changed)}); explain why in the change" if changed else "unchanged"


def run_workload(args, name: str, declared: dict) -> dict:
    suffix = "-small" if args.small else ""
    work = BENCH_DIR / "out" / name / f"seed-{args.seed}{suffix}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.PLANNERS[name](ROOT, work, args.seed, args.small)

    setup_times, setup_failed = _setup_seconds(plan, work)
    runs: list[RunResult] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        kinds = {r.traced for r in runs}
        need_both = args.trace and len(kinds) < 2
        if runs and not need_both:
            last = runs[-1].wall_s
            if elapsed >= args.seconds or elapsed + last > RUN_BUDGET_S:
                break
        traced = bool(args.trace) and len(runs) % 2 == 1
        run_dir = work / f"run-{len(runs)}"
        runs.append(_run_once(plan, run_dir, traced))
        if not runs[-1].errors:
            # A ladder run leaves 165 MB behind; keep only failed runs' outputs.
            shutil.rmtree(run_dir)

    untraced = [r for r in runs if not r.traced]
    if args.trace:
        # The tracer must not perturb any result: every run's digest must agree.
        digests = {json.dumps(r.digest, sort_keys=True) for r in runs if not r.errors}
        if len(digests) > 1:
            runs[-1].errors.append("traced and untraced runs wrote different results")
    metrics = _per_layer(runs) if args.trace else _end_to_end(untraced, setup_times)
    failed = sum(bool(r.errors) for r in runs) + setup_failed
    attempted = len(runs) + len(setup_times)
    missing = [m for m in declared if m not in metrics]
    if missing and not failed:
        raise SystemExit(f"benchmark bug: metrics not computed: {missing}")
    metrics.update({m: 0.0 for m in missing})  # only when failed runs left nothing to measure

    print(f"workload {name} seed {args.seed}{suffix}: {len(runs)} runs, "
          f"{SETUP_REPEATS} set-up processes, {failed} of {attempted} failed")
    for r in runs:
        for e in r.errors:
            print(f"  check failed: {e}")
    for metric in declared:
        unit, better = declared[metric]
        print(f"  {metric} = {metrics[metric]:.6g} {unit} ({better} is better)")
    print(f"  fail_rate = {failed / attempted:.6g} ratio (lower is better)")
    ok_digests = [r.digest for r in untraced if not r.errors]
    digest = ok_digests[-1] if ok_digests else {}
    status = _digest_status(name, args.seed, digest, args.record_digest) if digest and not args.small else "not compared"
    print(f"  digest: {status}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": declared[m][0]} for m in declared},
    }
    (work / "result.json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "small": args.small, "trace": args.trace,
        "machine": _machine(), "setup_s": setup_times, "runs": [r.summary() for r in runs],
        "all_metrics": metrics, "result": result, "digest_status": status,
    }, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=[*workloads.PLANNERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's self-test")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's digest as the reference for its seed")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a distctl checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: (m["unit"], m["better"]) for m in section}

    names = list(workloads.PLANNERS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(args, name, declared)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
