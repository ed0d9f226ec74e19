"""The three workloads: inputs made from the seed, set-up, rounds and checks.

A workload writes one INI config from its seed, so the program receives only
generated inputs. Every round of a run repeats the same operations on the same
inputs, so the rounds do identical work and the per-round wall time is the
measured figure. Sizes are class attributes; the self-test shrinks them.
"""

import os
import shutil

import numpy as np

from trajsense import pipeline, planner
from trajsense.config import load_config
from trajsense.errors import TargetUnreachableError
from trajsense.sensitivity import SensitivityModel
from trajsense.sim import rollout

import checks

X0 = "1.5707963267948966, 1.5707963267948966, 3.141592653589793"
X_STAR = "0.3141592653589793, 2.356194490192345, 1.8325957145940461"


def _gammas(gammas):
    return ", ".join(f"{g:g}" for g in gammas)


class Workload:
    """Config from the seed; `setup` is timed as set-up, `round` as the run."""

    setups = 0

    def __init__(self, seed, work, workers=1):
        self.seed = seed
        self.work = work
        self.workers = workers
        self.config_path = os.path.join(work, "config.ini")
        with open(self.config_path, "w") as fh:
            fh.write(self.config_text())
        self.cfg = load_config(self.config_path)
        self.out = None

    def setup(self):
        pass

    def prepare(self):
        pass

    def tidy(self):
        """Untimed: remove every artifact directory but the current one."""
        for entry in os.scandir(self.work):
            if entry.is_dir() and entry.path != self.out:
                shutil.rmtree(entry.path)

    def quality(self):
        row = checks.selected_row(self.out)
        return row["score_avg"], row["cos_avg"]


class PipelineWorkload(Workload):
    """One round is one `run_pipeline` call into a fresh artifact directory."""

    def round(self, k):
        """Run the pipeline; returns (attempted, failed)."""
        self.out = os.path.join(self.work, f"round_{k}")
        pipeline.run_pipeline(self.cfg, self.out, workers=self.workers)
        return 1, 0


class PdGpFit(PipelineWorkload):
    """Acceptance criterion 3's data: PD servo, uniform kp, clean recordings."""

    name = "pd_gp_fit"
    n_steps = 1500
    count = 130
    holdout = 0.2308
    stride = 20
    gammas = (0,)

    def config_text(self):
        return f"""[experiment]
label = pd_gp_fit
seed = {self.seed}

[sim]
mode = pendulum3
dt = 0.01
damping = 0.8
gravity_gain = 0.3
n_steps = {self.n_steps}
x0_angles = {X0}

[policy]
family = pd_feedback
theta = 1.0, 0.01
x_star = {X_STAR}

[perturbation]
scheme = uniform
count = {self.count}
ranges = -0.5:1.5, ~

[preprocess]
align = none
gamma_sweep = {_gammas(self.gammas)}

[gp]
stride = {self.stride}
optimize = true
n_restarts = 2

[eval]
holdout_fraction = {self.holdout}
split_seed = {self.seed}
"""

    def check(self):
        out, gammas = self.out, self.cfg.gamma_sweep
        theta, n = self.cfg.policy.theta, self.cfg.n_steps
        return {
            "sample_rows": checks.check_sample_rows(out, gammas, theta, n),
            "split": checks.check_split(out, gammas, theta, n),
            "t0_rows": checks.check_t0(out, gammas, n),
            "per_timestep": checks.check_per_timestep(out, gammas, SensitivityModel.load),
            "quality_floor": checks.check_quality_floor(out),
        }


class SineNoisyIo(PipelineWorkload):
    """Long sinusoidal rollouts with temporal and spatial noise, sparse GP grid."""

    name = "sine_noisy_io"
    n_steps = 5000
    count = 16
    stride = 500
    max_lag = 50
    temporal_shift = 20
    gammas = (0, 0.01, 0.04)

    def config_text(self):
        return f"""[experiment]
label = sine_noisy_io
seed = {self.seed}

[sim]
mode = pendulum3
dt = 0.01
damping = 0.8
gravity_gain = 0.3
n_steps = {self.n_steps}
x0_angles = {X0}
temporal_shift = {self.temporal_shift}
spatial_std = 0.005, 0.005, 0.005

[policy]
family = sinusoidal
theta = 0.5, 0.01
joints = 3

[perturbation]
scheme = uniform
count = {self.count}
ranges = 0.3:0.7, ~

[preprocess]
align = correlation
max_lag = {self.max_lag}
gamma_sweep = {_gammas(self.gammas)}

[gp]
stride = {self.stride}
optimize = true
n_restarts = 2

[eval]
holdout_fraction = 0.25
split_seed = {self.seed}
"""

    def check(self):
        out, gammas = self.out, self.cfg.gamma_sweep
        theta, n = self.cfg.policy.theta, self.cfg.n_steps
        return {
            "lag_rows": checks.check_sample_rows(out, gammas, theta, n, self.cfg.max_lag),
            "voxel_grid": checks.check_voxel_grid(out, gammas, n),
            "score_is_one_minus_mse": checks.check_score_is_one_minus_mse(out),
        }


class PlanQueries(Workload):
    """Reads one trained PD model: load, evaluate, gp_evolution and planning.

    A round loads the model, re-runs the evaluate stage, writes the
    gp_evolution plot data, then solves every planning problem: one per
    (target, dims setting), each target at its own constraint time. The
    dims = all problem of every other target is verified by rollout; the rest
    call solve_kp alone. Rounds are short so that a run's median spans many.
    """

    name = "plan_queries"
    setups = 2
    n_steps = 1500
    count = 30
    stride = 100
    t_plan = 600
    t_constraints = (300, 600, 900, 1200)
    dims_settings = ("all", 0, 1, 2)
    n_targets = 4

    def __init__(self, seed, work, workers=1):
        super().__init__(seed, work, workers)
        self.problems = []
        self.plans = []
        self.solutions = []
        self.model = None

    def config_text(self):
        return f"""[experiment]
label = plan_queries
seed = {self.seed}

[sim]
mode = pendulum3
dt = 0.01
damping = 0.8
gravity_gain = 0.3
n_steps = {self.n_steps}
x0_angles = {X0}

[policy]
family = pd_feedback
theta = 0.4, 0.01
x_star = {X_STAR}

[perturbation]
scheme = uniform
count = {self.count}
ranges = 0.2:0.6, ~

[preprocess]
align = none
gamma_sweep = 0

[gp]
stride = {self.stride}
optimize = true
n_restarts = 2

[eval]
holdout_fraction = 0.2
split_seed = {self.seed}

[planner]
t_constraint = {self.t_plan}
target_kps = 0.3, 0.5, 0.56
dims = all
"""

    def setup(self):
        """Train the model that the queries read, into a fresh directory."""
        k = 0 if self.out is None else int(self.out.rsplit("_", 1)[1]) + 1
        self.out = os.path.join(self.work, f"model_{k}")
        pipeline.run_pipeline(self.cfg, self.out, workers=self.workers)

    def _model_path(self):
        gamma = pipeline.best_gamma_of(self.out)
        return os.path.join(self.out, "models", f"model_g{gamma:g}.npz")

    def _monotone(self):
        """(constraint time, dimension) pairs whose recorded angle moves
        monotonically with the gain across all recordings."""
        thetas = np.loadtxt(os.path.join(self.out, "samples", "perturbations.csv"),
                            delimiter=",", skiprows=1, ndmin=2)[:, 1]
        at = np.stack([np.loadtxt(os.path.join(self.out, "trajectories",
                                               f"sample_{i:04d}.csv"),
                                  delimiter=",", skiprows=1, usecols=(1, 2, 3))
                       [list(self.t_constraints)] for i in np.argsort(thetas)])
        steps = np.diff(at, axis=0)
        return np.all(steps > 0, axis=0) | np.all(steps < 0, axis=0)

    def prepare(self):
        """Targets: states of rollouts at seed-drawn gains inside the gain range
        the model was trained on, away from its edges and from the nominal gain."""
        cfg = self.cfg
        model = SensitivityModel.load(self._model_path())
        kp, kd = float(cfg.policy.theta[0]), float(cfg.policy.theta[1])
        lo, hi = kp + model.delta_low[0], kp + model.delta_high[0]
        margin = 0.1 * (hi - lo)
        rng = np.random.default_rng((self.seed, 31))
        half = self.n_targets // 2
        kps = np.concatenate([rng.uniform(lo + margin, kp - 0.06, half),
                              rng.uniform(kp + 0.06, hi - margin, self.n_targets - half)])
        monotone = self._monotone()
        self.problems = []
        for j, target_kp in enumerate(kps):
            i = j % len(self.t_constraints)
            t = self.t_constraints[i]
            angles = rollout(cfg.policy.with_theta(np.array([target_kp, kd])), cfg.x0,
                             cfg.n_steps, cfg.dt, cfg.mode).angles
            for dims in self.dims_settings:
                verify = dims == "all" and j % 2 == 0
                # a single-dimension target near an extremum of a non-monotone
                # response can lie just outside what the model attains; such
                # pairs are planned on all dimensions
                if dims != "all" and not monotone[i, dims]:
                    dims = "all"
                problem = planner.PlanningProblem(
                    source_kp=kp, fixed_kd=kd, t_constraint=t, x_target_t=angles[t],
                    final_target=cfg.policy.fixed["x_star"], constraint_dim=dims)
                self.problems.append((problem, verify))

    def round(self, k):
        cfg = self.cfg
        model = SensitivityModel.load(self._model_path())
        pipeline.stage_evaluate(cfg, self.out)
        pipeline.emit_plot_data(self.out, "gp_evolution")
        attempted, failed = 3, 0
        plans, solutions = [], []
        for problem, verify in self.problems:
            attempted += 1
            try:
                if verify:
                    plans.append((problem, planner.plan_and_verify(
                        problem, model, cfg.policy, cfg.x0, cfg.dt, cfg.mode,
                        cfg.n_steps)))
                else:
                    solutions.append((problem, planner.solve_kp(model, problem)))
            except TargetUnreachableError:
                failed += 1
        self.plans, self.solutions, self.model = plans, solutions, model
        return attempted, failed

    def plan_improvements(self):
        return [report.improvement for _, report in self.plans]

    def check(self):
        source = np.loadtxt(os.path.join(self.out, "trajectories", "source.csv"),
                            delimiter=",", skiprows=1, usecols=(1, 2, 3))
        kp = float(self.cfg.policy.theta[0])
        lo, hi = kp + self.model.delta_low[0], kp + self.model.delta_high[0]
        return {
            "per_timestep": checks.check_per_timestep(self.out, self.cfg.gamma_sweep,
                                                      SensitivityModel.load),
            "plans": checks.check_plans([(p, r, source[p.t_constraint])
                                         for p, r in self.plans]),
            "solutions": checks.check_solutions(self.solutions, lo, hi),
            "gp_evolution": checks.check_gp_evolution(
                os.path.join(self.out, "plots", "gp_evolution.csv"), self.model.timesteps),
        }


WORKLOADS = {w.name: w for w in (PdGpFit, SineNoisyIo, PlanQueries)}
