"""Benchmark of trajsense: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py                       # every workload, each in its own process
    python3 benchmark/run.py --workload pd_gp_fit --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src. A run
sets up the workload, repeats whole rounds of it until --seconds have passed,
checks the artifacts, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, taken from spans that
are also written to .bench_out/traces/. It exits 1 when a check fails and 2
when ./src holds no trajsense package.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("pd_gp_fit", "sine_noisy_io", "plan_queries")
IMPORT_REPEATS = 3

# Timed in a fresh interpreter: importing the package and loading the config.
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trajsense
import trajsense.pipeline
from trajsense.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--workers", type=int, default=1)
    return p.parse_args(argv)


def _import_seconds(config_path):
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, config_path],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_all(args):
    """Each workload in its own process; exit status 1 if any of them failed."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workers", str(args.workers)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: " + (lines[-1] if lines else f"no result (exit {proc.returncode})"))
        status = status or proc.returncode
    return status


def run_one(args):
    import tracing
    from workloads import WORKLOADS

    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.seed, work, args.workers)
    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        setup_s = _import_seconds(workload.config_path)
        setup_times = []
        for _ in range(workload.setups):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if setup_times:
            setup_s += statistics.median(setup_times)
        workload.tidy()
        if tracer:
            tracer.phase = "inputs"
        workload.prepare()
        if tracer:
            tracer.phase = "round"

        round_s, attempted, failed = [], 0, 0
        begin = time.perf_counter()
        while not round_s or time.perf_counter() - begin < args.seconds:
            start = time.perf_counter()
            a, f = workload.round(len(round_s))
            round_s.append(time.perf_counter() - start)
            attempted += a
            failed += f
            workload.tidy()

    found = {k: v for k, v in workload.check().items() if v}
    for check_name, problems in found.items():
        for problem in problems[:5]:
            print(f"CHECK FAILED {check_name}: {problem}")
    run_s = statistics.median(round_s)
    score_avg, cos_avg = workload.quality()
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(round_s),
            "round_s": round_s, "run_s": run_s, "score_avg": score_avg,
            "trace": args.trace,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    if hasattr(workload, "plan_improvements"):
        info["plan_improvement_min"] = min(workload.plan_improvements())
    print("info " + json.dumps(info))

    if tracer:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"),
                     workload=args.workload, seed=args.seed, rounds=len(round_s))
        metrics = tracing.per_layer_metrics(tracer.spans, max(1, workload.setups),
                                            len(round_s))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "artifact_mb": {"value": _dir_bytes(workload.out) / 1e6,
                            "unit": "MB"},
            "cos_avg": {"value": cos_avg, "unit": "1"},
        }
    result = {"correct": not found, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print(json.dumps(result))
    return 0 if not found else 1


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "trajsense", "__init__.py")):
        print(f"no trajsense package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
