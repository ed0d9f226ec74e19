"""Command-line entry points.

Subcommands cover the full workflow: `run` executes the whole pipeline from a
config file; `simulate`, `perturb`, `build`, `fit`, `evaluate`, `plan` run
single stages; `align` and `voxelize` operate directly on trajectory CSVs;
`emit-plots` exports plain-data bundles for external plotting.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

import argparse
import os
import sys

import numpy as np

from . import io as tio
from . import pipeline
from .align import DEFAULT_MAX_LAG, METHODS, classify_noise, delay
from .config import load_config, parse_dims
from .errors import ConfigError, TrajsenseError
from .sensitivity import SensitivityModel
from .voxel import voxelize_trajectory

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def _resolve_config(path):
    if os.path.exists(path):
        return path
    preset = os.path.join(PRESET_DIR, path if path.endswith(".ini") else path + ".ini")
    if os.path.exists(preset):
        return preset
    raise ConfigError(f"config not found: {path} (and no preset of that name)")


def _load(args):
    return load_config(_resolve_config(args.config), seed=args.seed)


def cmd_run(args):
    cfg = _load(args)
    manifest = pipeline.run_pipeline(cfg, args.out, workers=args.workers)
    print(f"pipeline complete: {manifest}")
    return 0


def cmd_stage(args):
    """One pipeline stage by itself (simulate, perturb, build, fit or
    evaluate); it reads the earlier stages' outputs from --out."""
    cfg = _load(args)
    stage = getattr(pipeline, f"stage_{args.command}")
    extra = {"workers": args.workers} if args.command == "fit" else {}
    for path in stage(cfg, args.out, **extra):
        print(path)
    return 0


def cmd_align(args):
    ref = tio.read_trajectory(args.reference)
    other = tio.read_trajectory(args.other)
    est = delay(ref, other, args.method, args.max_lag)
    cls = classify_noise(ref, other, epsilon=args.epsilon, max_lag=args.max_lag)
    lines = [f"tau_star = {est.tau_star}",
             f"method = {est.method}",
             f"residual_l1 = {cls.residual_l1:.9g}",
             f"kind = {cls.kind}"]
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


def _three_floats(raw, flag):
    """The 3 finite numbers of a comma-separated flag value, else a ConfigError."""
    try:
        values = np.array([float(v) for v in raw.split(",")])
    except ValueError:
        values = np.array([])
    if values.shape != (3,) or not np.isfinite(values).all():
        raise ConfigError(f"{flag} {raw!r}: need 3 comma-separated finite numbers")
    return values


def cmd_voxelize(args):
    if not 0 < args.gamma < np.inf:  # NaN fails too
        raise ConfigError(f"--gamma {args.gamma:g}: need a positive finite half-width")
    traj = tio.read_trajectory(args.input)
    tio.write_trajectory(voxelize_trajectory(traj, args.gamma), args.output)
    print(args.output)
    return 0


def cmd_plan(args):
    cfg = _load(args)
    target = _three_floats(args.target, "--target")
    dims = parse_dims(args.dims, "--dims")
    path = args.model
    if os.path.isdir(path):  # a run's models/: the gamma its evaluate stage selected
        run = os.path.dirname(os.path.abspath(path))
        path = os.path.join(path, os.path.basename(pipeline.selected_model(run)))
    model = SensitivityModel.load(path)
    report, planned = pipeline.plan_target(cfg, model, args.t, target, dims)
    for key in pipeline.REPORT_KEYS:
        print(f"{key} = {getattr(report, key):.10g}")
    os.makedirs(args.out, exist_ok=True)  # --out is required
    tio.write_trajectory(planned, os.path.join(args.out, "planned.csv"))
    return 0


def cmd_emit_plots(args):
    for kind in args.kind:
        print(pipeline.emit_plot_data(args.out, kind))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="trajsense",
                                     description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, fn):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--out", required=True, help="artifact directory")
        p.set_defaults(fn=fn)
        return p

    # only the stages that fit GP maps have workers to run
    workers = dict(type=int, default=1, help="worker processes for GP fits, one gamma "
                   "each, on one BLAS thread each")
    stage("run", cmd_run).add_argument("--workers", **workers)
    stage("simulate", cmd_stage)
    stage("perturb", cmd_stage)
    stage("build", cmd_stage)
    stage("fit", cmd_stage).add_argument("--workers", **workers)
    stage("evaluate", cmd_stage)

    p = sub.add_parser("align")
    p.add_argument("reference")
    p.add_argument("other")
    p.add_argument("--max-lag", type=int, default=DEFAULT_MAX_LAG)
    p.add_argument("--method", choices=METHODS[1:], default="correlation")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("voxelize")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(fn=cmd_voxelize)

    p = stage("plan", cmd_plan)
    p.add_argument("--model", required=True, help="model .npz file or models dir")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--target", required=True, help="x1,x2,x3 at the constraint time")
    p.add_argument("--dims", default="all")

    p = sub.add_parser("emit-plots")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", nargs="+", choices=pipeline.PLOT_KINDS, required=True)
    p.set_defaults(fn=cmd_emit_plots)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrajsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
