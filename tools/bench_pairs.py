"""Paired benchmark runs of two checkouts, collected into one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . \
        --seeds 21-30 --out BENCH_6.json

For each workload and seed, runs `benchmark/run.py --trace 0` in both
checkouts, alternating which side runs first, then one `--trace 1` run per
side on the first seed. Each run's result JSON (from the checkout's
.bench_out/results/) goes into the output file unchanged, next to the
machine: nproc, BLAS vendor and threads, numpy and scipy versions. Per
workload and end-to-end metric it also stores and prints each side's median
and quartiles, the number of pairs the change won (ties count for neither
side) and one verdict, read with the metric's `better` and `bound` from
BENCHMARK.json:

    gain          the change won at least 9 of 10 pairs, and the medians differ
                  by more than the parent's interquartile range
    worse         the change's median is worse than the parent's by more than
                  bound x the parent's median
    unresolved    the parent's interquartile range exceeds bound x its median
    within bound  anything else

A run whose checks fail is kept and counted per side under "incorrect_runs".
Runs are sequential, so the two sides never share the CPU.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

WORKLOADS = ("pd_gp_fit", "sine_noisy_io", "plan_queries")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # OpenBLAS starts one thread per core unless told otherwise
        "blas_threads": int(threads) if threads else os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run(checkout, workload, seed, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    path = os.path.join(checkout, ".bench_out", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    # exit 1 with a result file is a run whose checks failed: it is kept, and
    # its "correct": false is counted; anything else stops the comparison
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("CHECK FAILED"):
            print(f"{checkout}: {workload} seed {seed}: {line}", file=sys.stderr, flush=True)
    with open(path) as fh:
        return json.load(fh)


def _quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def verdict(summary, better, bound):
    """gain, worse, unresolved or within bound: see the module docstring."""
    parent, change = summary["parent"], summary["change"]
    sign = -1.0 if better == "lower" else 1.0
    spread = parent["q3"] - parent["q1"]
    if (10 * summary["change_wins"] >= 9 * summary["pairs"]
            and abs(change["median"] - parent["median"]) > spread):
        return "gain"
    if sign * (parent["median"] - change["median"]) > bound * abs(parent["median"]):
        return "worse"
    if spread > bound * abs(parent["median"]):
        return "unresolved"
    return "within bound"


def summarize(parent_runs, change_runs, spec):
    """Per metric: quartiles, pair wins and verdict; spec maps each metric's
    name to its BENCHMARK.json entry."""
    out = {}
    for name in parent_runs[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        sign = -1.0 if spec[name]["better"] == "lower" else 1.0
        out[name] = {"parent": _quartiles(a), "change": _quartiles(b),
                     "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                     "parent_wins": sum(sign * (x - y) > 0 for x, y in zip(a, b)),
                     "pairs": len(a)}
        out[name]["verdict"] = verdict(out[name], spec[name]["better"],
                                       spec[name]["bound"])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", default="21-30", help="inclusive range, e.g. 21-30")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    result = {"machine": machine(), "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(result["seeds"]):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(getattr(args, side), workload, seed, 0))
        seed = result["seeds"][0]
        traced = {side: run(getattr(args, side), workload, seed, 1)
                  for side in ("parent", "change")}
        summary = summarize(runs["parent"], runs["change"], spec)
        incorrect = {side: sum(not r["correct"] for r in runs[side]) for side in runs}
        result["workloads"][workload] = {"runs": runs, "traced": traced,
                                         "summary": summary, "incorrect_runs": incorrect}
        print(f"{workload:14s} runs whose checks failed: parent {incorrect['parent']}, "
              f"change {incorrect['change']}", flush=True)
        for name, s in summary.items():
            print(f"{workload:14s} {name:12s} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
                  f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}]  change won {s['change_wins']}/{s['pairs']}"
                  f"  {s['verdict']}", flush=True)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
