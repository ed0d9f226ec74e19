"""Check that two checkouts write the same benchmark artifacts, byte for byte.

    python3 tools/same_artifacts.py --parent ../parent-checkout --change . --seeds 41-42

For every workload and seed, runs `benchmark/run.py --workload <w> --seed <s>
--seconds 0` (one round) in the parent checkout and then in the change, and
compares the two .bench_out/<w> trees file by file. Prints one line per file
that differs or exists on one side only, and exits 1 if there is any; prints
nothing and exits 0 when every tree is identical. A run that exits with
neither 0 nor 1 (1 is a failed artifact check, whose tree is still compared)
stops the comparison.
"""

import argparse
import filecmp
import os
import subprocess
import sys

from bench_pairs import WORKLOADS, _seeds


def run(checkout, workload, seed):
    """Run one round of the workload in checkout; returns its artifact tree."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return os.path.join(checkout, ".bench_out", workload)


def files(root):
    """Paths of every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def differences(a, b):
    """(relative path, what differs) for each file not the same in trees a and b."""
    fa, fb = files(a), files(b)
    out = [(p, "only in parent") for p in sorted(fa - fb)]
    out += [(p, "only in change") for p in sorted(fb - fa)]
    out += [(p, "differs") for p in sorted(fa & fb)
            if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p), shallow=False)]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", default="41-42", help="a seed or an inclusive range lo-hi")
    args = p.parse_args(argv)
    found = False
    for workload in WORKLOADS:
        for seed in _seeds(args.seeds):
            parent = run(args.parent, workload, seed)
            change = run(args.change, workload, seed)
            for path, what in differences(parent, change):
                print(f"{workload} seed {seed}: {path} {what}", flush=True)
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
