#!/usr/bin/env python3
"""seqcf benchmark: paired Monte-Carlo sweep throughput of seqcf.run_experiment.

    python3 bench/run.py --workload fig2-wsinm --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root; seqcf is imported from ./src. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The line before it records the environment. README.md in this
directory defines every metric.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: with more threads
# than idle cores the small matrices here measure the scheduler, not seqcf.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REF_S, ScaledClock, kernel_seconds  # noqa: E402
from gate import check_rows, load_reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_pool, drops, evaluations  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# setup_s is the median of this many set-ups, each in a fresh interpreter
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 60


def set_up(workload_name: str, seed: int):
    """Import seqcf, build the workload's specs and finish one warm-up call.

    This is what a user pays before the first result; setup_s times it.
    Returns (seconds, pool, warm-up rows).
    """
    t0 = time.perf_counter()
    import seqcf
    pool = build_pool(WORKLOADS[workload_name], seed)
    rows = seqcf.run_experiment(pool[0])
    return time.perf_counter() - t0, pool, rows


def setup_samples(workload_name: str, seed: int):
    """Set-ups in fresh interpreters; returns their wall and reference seconds.

    Each probe times the calibration kernel in its own process right after
    its set-up, since another process may run on a core of another speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--probe-setup"]
    wall, ref = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
        setup_s, kernel_s = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(setup_s)
        ref.append(setup_s * REF_S / kernel_s)
    return wall, ref


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("openblas configuration")

    digest = hashlib.sha256()
    for path in sorted((SRC / "seqcf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None   # the checkout need not be a git repository
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "seqcf_source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Run:
    """Timed run_experiment calls of one workload, each checked by the gate."""

    def __init__(self, pool, reference):
        self.pool = pool
        self.reference = reference
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def call(self, i: int):
        """Run batch i of the cycle; returns (seconds, evaluations done, rows)."""
        import seqcf   # run_experiment is looked up per call, so a tracer's wrapper is used

        b = i % len(self.pool)
        spec = self.pool[b]
        t0 = time.perf_counter()
        try:
            rows = seqcf.run_experiment(spec)
        except seqcf.experiment.ExperimentError as exc:
            # the call returns no rows, so none of its evaluations is verified
            dt = time.perf_counter() - t0
            self.problems.append(f"batch {b}: {exc}")
            self.attempted += evaluations(spec)
            self.failed += evaluations(spec)
            return dt, 0, None
        dt = time.perf_counter() - t0
        failed = sum(spec.trials - r.trials for r in rows)
        self.attempted += evaluations(spec)
        self.failed += failed
        self.check(b, rows)
        return dt, evaluations(spec) - failed, rows

    def check(self, b: int, rows):
        ref = None if self.reference is None else self.reference[b]
        self.problems += check_rows(self.pool[b], rows, ref)


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(args, run: Run):
    setup_wall_s, setup_s = setup_samples(args.workload, args.seed)
    clock, done, rates = ScaledClock(), 0, []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        dt, n, _ = run.call(i)
        done += n
        rates.append(n / clock.add(dt))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "calls": len(rates),
        "call_rate_quartiles": quartiles(rates),
        "wall_strategy_trials_per_s": done / clock.wall_s,
        "slowdown_quartiles": quartiles(clock.slowdowns),
        "setup_wall_s": setup_wall_s,
        "setup_ref_s": setup_s,
    }
    metrics = {
        "strategy_trials_per_s": (done / clock.ref_s, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, detail


def per_layer(args, pool, run: Run):
    import numpy as np

    tracer = Tracer()
    clock = ScaledClock()
    ratios = []            # untraced / traced seconds of the same batch
    traced_wall_s = traced_ref_s = 0.0
    traced_drops = 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        # alternate which side of a pair runs first
        plain_first = i % 2 == 0
        if plain_first:
            dt_plain, _, plain = run.call(i)
            clock.add(dt_plain)
        with tracer:
            dt_traced, _, traced = run.call(i)
        traced_wall_s += dt_traced
        traced_ref_s += clock.add(dt_traced)
        if not plain_first:
            dt_plain, _, plain = run.call(i)
            clock.add(dt_plain)
        traced_drops += drops(pool[i % len(pool)])
        ratios.append(dt_plain / dt_traced)
        if plain is not None and traced is not None and not all(
                np.array_equal(a.per_trial, b.per_trial, equal_nan=True)
                for a, b in zip(plain, traced)):
            run.problems.append(f"batch {i % len(pool)}: tracing changed the results")
        i += 1
    labels = sorted({s for w in WORKLOADS.values() for s in w.strategies})
    metrics = tracer.metrics(traced_drops, labels, traced_ref_s / traced_wall_s)
    metrics["trace.overhead_frac"] = (1.0 - statistics.median(ratios), "1")
    metrics["failed_trial_frac"] = (run.failed / run.attempted, "1")
    if tracer.rate_violations:
        run.problems.append(f"{tracer.rate_violations} compression outcomes "
                            f"break their fronthaul budget")
    return metrics, {"pairs": len(ratios), "traced_drops": traced_drops,
                     "slowdown_quartiles": quartiles(clock.slowdowns)}


def run_one(args) -> int:
    _, pool, warm_rows = set_up(args.workload, args.seed)

    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    run = Run(pool, reference)
    run.check(0, warm_rows)

    if args.trace:
        metrics, detail = per_layer(args, pool, run)
    else:
        metrics, detail = end_to_end(args, run)
    for p in run.problems[:20]:
        print(f"correctness: {p}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "checked_against_reference": reference is not None,
                      **detail}))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=3 * 180)
        sys.stderr.write(proc.stderr)
        print(f"# {name}")
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; references are checked only at the default")
    parser.add_argument("--seconds", type=int, default=30, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "seqcf" / "__init__.py").is_file():
        print(f"error: no seqcf sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        print(json.dumps([set_up(args.workload, args.seed)[0], kernel_seconds()]))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
