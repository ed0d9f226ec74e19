"""Check that two checkouts write the same benchmark artifacts, byte for byte.

    python3 tools/same_artifacts.py --parent ../parent-checkout --change . --seeds 41-42

For every workload and seed, runs `benchmark/run.py --workload <w> --seed <s>
--seconds 0` (one round) in the parent checkout and then in the change, and
compares the two .bench_out/<w> trees file by file. Prints one line per file
that differs or exists on one side only, then one summary line per workload
and seed with the number of files compared; two empty trees count as a
difference, so they cannot pass unnoticed. A run that exits with neither 0 nor
1 (1 is a failed artifact check, whose tree is still compared) stops the
comparison.

Two differences are explained rather than counted, so that a change of the
model file layout can still show that it changes nothing else:
- a `models/model_g*.npz` whose bytes differ is loaded on each side by that
  checkout's own `SensitivityModel.load`, in a subprocess, and both predict
  at every model timestep on the inputs of the parent tree's
  `samples/train_g*.csv` and `test_g*.csv`. Equal means and stds, bit for
  bit, print "layout differs, predictions identical"; anything else prints
  "predictions differ" and counts;
- a `manifest.ini` whose `[stages]` fingerprints are equal and whose
  `[files]` hashes differ only for such model files.

Exits 1 if any other difference was found, else 0.
"""

import argparse
import configparser
import filecmp
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import WORKLOADS, _seeds

# run inside one checkout: argv is the model, the output .npz, then sample CSVs
PREDICT = """
import sys
import numpy as np
from trajsense import io
from trajsense.sensitivity import SensitivityModel

model_path, out_path, *sample_paths = sys.argv[1:]
model = SensitivityModel.load(model_path)
arrays = {}
for k, path in enumerate(sample_paths):
    X = io.read_samples(path).delta_theta
    for t in model.timesteps:
        arrays[f"{k}_{t}_mean"], arrays[f"{k}_{t}_std"] = model.model_at(t).predict(X)
np.savez(out_path, **arrays)
"""

MODEL = re.compile(r"(?:.*/)?models/model_(g[^/]*)\.npz$")


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


def predictions(checkout, model, samples, out):
    """Means and stds of `model` at its timesteps on the rows of the sample
    CSVs, as loaded and predicted by the code of `checkout` (written to the
    .npz file `out` on the way), or None if that fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    proc = subprocess.run([sys.executable, "-c", PREDICT, model, out, *samples],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def same_predictions(checkouts, trees, path):
    """Whether the model file at `path` predicts the same on both sides."""
    tag = MODEL.match(path).group(1)
    round_dir = os.path.dirname(os.path.dirname(os.path.join(trees[0], path)))
    samples = [os.path.join(round_dir, "samples", f"{split}_{tag}.csv")
               for split in ("train", "test")]
    if not all(os.path.isfile(s) for s in samples):
        return False
    with tempfile.TemporaryDirectory() as scratch:
        a, b = (predictions(c, os.path.abspath(os.path.join(t, path)), samples,
                            os.path.join(scratch, f"{k}.npz"))
                for k, (c, t) in enumerate(zip(checkouts, trees)))
    return (a is not None and b is not None and a.keys() == b.keys()
            and all(np.array_equal(a[k], b[k]) for k in a))


def manifest_explained(trees, path, explained):
    """Whether two manifest.ini files differ only in the [files] hashes of
    model files whose predictions were found identical."""
    a, b = configparser.ConfigParser(), configparser.ConfigParser()
    a.read(os.path.join(trees[0], path))
    b.read(os.path.join(trees[1], path))
    if not (a.has_section("stages") and dict(a["stages"]) == dict(b["stages"])):
        return False
    prefix = os.path.dirname(path)
    fa, fb = dict(a["files"]), dict(b["files"])
    return fa.keys() == fb.keys() and all(
        os.path.join(prefix, k) in explained for k in fa if fa[k] != fb[k])


def compare(checkouts, workload, seed):
    """Print each difference of one workload and seed, then the number of
    files compared; return whether any difference is not explained or no
    file was compared."""
    trees = [os.path.join(c, ".bench_out", workload) for c in checkouts]
    compared = len(files(trees[0]) | files(trees[1]))
    found, explained, manifests = compared == 0, set(), []
    for path, what in differences(*trees):
        if what == "differs" and MODEL.match(path):
            if same_predictions(checkouts, trees, path):
                explained.add(path)
                what = "layout differs, predictions identical"
            else:
                what, found = "predictions differ", True
        elif what == "differs" and os.path.basename(path) == "manifest.ini":
            manifests.append(path)
            continue
        else:
            found = True
        print(f"{workload} seed {seed}: {path} {what}", flush=True)
    for path in manifests:
        if manifest_explained(trees, path, explained):
            what = "differs in model hashes only"
        else:
            what, found = "differs", True
        print(f"{workload} seed {seed}: {path} {what}", flush=True)
    print(f"{workload} seed {seed}: {compared} files compared, "
          f"{'not the same' if found else 'the same'}", flush=True)
    return found


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", default="41-42", help="a seed or an inclusive range lo-hi")
    args = p.parse_args(argv)
    found = False
    for workload in WORKLOADS:
        for seed in _seeds(args.seeds):
            run(args.parent, workload, seed)
            run(args.change, workload, seed)
            found |= compare((args.parent, args.change), workload, seed)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
