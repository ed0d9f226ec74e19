"""Self-test of the benchmark's correctness checks, at reduced sizes.

    python3 benchmark/selftest.py

Runs each workload on small inputs, requires every check to pass on the clean
artifacts, then corrupts one artifact at a time (a sample value changed, a
value moved off the voxel grid, a model file swapped, ...) and requires the
check that guards it to fail. Exits 1 if any expectation is not met. Takes
well under a minute.
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_out", "selftest")


class SmallPd(workloads.PdGpFit):
    n_steps, count, holdout, stride = 200, 16, 0.25, 50


class SmallSine(workloads.SineNoisyIo):
    n_steps, count, stride, max_lag, temporal_shift = 600, 8, 100, 20, 10
    gammas = (0, 0.04)


class SmallPlan(workloads.PlanQueries):
    setups, n_steps, count, stride, t_plan = 1, 400, 12, 50, 200
    t_constraints, n_targets = (100, 200), 2


def _run(cls, seed, name):
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = cls(seed, work)
    for _ in range(w.setups):
        w.setup()
    w.prepare()
    w.round(0)
    return w


def _edit_cell(path, row, col, fn):
    """Rewrite one CSV cell (row counted after the header) as fn(old value)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _drop_rows(path, start, stop):
    with open(path) as fh:
        lines = fh.read().splitlines()
    del lines[start + 1:stop + 1]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class SelfTest:
    def __init__(self):
        self.misses = 0

    def clean(self, label, w):
        found = {k: v for k, v in w.check().items() if v}
        self._report(not found, f"{label}: every check passes on clean artifacts",
                     found)

    def corrupt(self, label, w, check_name, corruption):
        """Apply corruption(w) to a copy of w's artifacts; check_name must fail."""
        clean_out = w.out
        w.out = clean_out + "_corrupt"
        shutil.rmtree(w.out, ignore_errors=True)
        shutil.copytree(clean_out, w.out)
        saved = copy.copy(w.__dict__)
        try:
            corruption(w)
            found = w.check()
        finally:
            shutil.rmtree(w.out)
            w.__dict__.update(saved)
            w.out = clean_out
        self._report(bool(found.get(check_name)),
                     f"{label}: {check_name} fails", found.get(check_name))

    def _report(self, ok, what, detail):
        print(f"{'ok    ' if ok else 'MISSED'} {what}"
              + ("" if ok else f" ({str(detail)[:300]})"))
        self.misses += not ok


def main():
    st = SelfTest()
    n_rows = SmallPd.n_steps + 1

    pd = _run(SmallPd, 1, "pd")
    other_pd = _run(SmallPd, 2, "pd_other")
    st.clean("pd_gp_fit", pd)
    train = lambda w, g="0": os.path.join(w.out, "samples", f"train_g{g}.csv")  # noqa: E731
    test = lambda w, g="0": os.path.join(w.out, "samples", f"test_g{g}.csv")  # noqa: E731
    st.corrupt("pd_gp_fit, one sample value changed", pd, "sample_rows",
               lambda w: _edit_cell(train(w), 50, 4, lambda v: v + 1e-6))
    st.corrupt("pd_gp_fit, one recording dropped from the test set", pd, "split",
               lambda w: _drop_rows(test(w), 0, n_rows))
    st.corrupt("pd_gp_fit, a t=0 row made nonzero", pd, "t0_rows",
               lambda w: _edit_cell(test(w), 0, 3, lambda v: 1e-3))
    st.corrupt("pd_gp_fit, model file swapped", pd, "per_timestep",
               lambda w: shutil.copy(os.path.join(other_pd.out, "models", "model_g0.npz"),
                                     os.path.join(w.out, "models", "model_g0.npz")))
    st.corrupt("pd_gp_fit, selected cosine below the floor", pd, "quality_floor",
               lambda w: _edit_cell(os.path.join(w.out, "metrics", "metrics.csv"),
                                    0, 4, lambda v: 0.5))

    sine = _run(SmallSine, 1, "sine")
    st.clean("sine_noisy_io", sine)
    st.corrupt("sine_noisy_io, one sample value changed", sine, "lag_rows",
               lambda w: _edit_cell(train(w), 70, 3, lambda v: v + 1e-6))
    st.corrupt("sine_noisy_io, one value moved off the voxel grid", sine, "voxel_grid",
               lambda w: _edit_cell(train(w, "0.04"), 70, 4, lambda v: v + 0.3 * 0.08))
    st.corrupt("sine_noisy_io, score_avg edited", sine, "score_is_one_minus_mse",
               lambda w: _edit_cell(os.path.join(w.out, "metrics", "metrics.csv"),
                                    0, 3, lambda v: v - 1e-3))

    plan = _run(SmallPlan, 1, "plan")
    other_plan = _run(SmallPlan, 2, "plan_other")
    st.clean("plan_queries", plan)
    st.corrupt("plan_queries, model file swapped", plan, "per_timestep",
               lambda w: shutil.copy(os.path.join(other_plan.out, "models", "model_g0.npz"),
                                     os.path.join(w.out, "models", "model_g0.npz")))

    def miss_target(w):
        problem, report = w.plans[0]
        report = copy.deepcopy(report)
        report.achieved = w.model.source_angles_at(problem.t_constraint).copy()
        w.plans = [(problem, report)] + w.plans[1:]
    st.corrupt("plan_queries, verified plan does not move the state", plan, "plans",
               miss_target)

    def outside_range(w):
        problem, result = w.solutions[0]
        result = copy.deepcopy(result)
        result.kp_star = 5.0
        w.solutions = [(problem, result)] + w.solutions[1:]
    st.corrupt("plan_queries, solution outside the trained gains", plan, "solutions",
               outside_range)

    gp_evolution = lambda w: os.path.join(w.out, "plots", "gp_evolution.csv")  # noqa: E731
    st.corrupt("plan_queries, gp_evolution row dropped", plan, "gp_evolution",
               lambda w: _drop_rows(gp_evolution(w), 5, 6))
    st.corrupt("plan_queries, gp_evolution std set to 0", plan, "gp_evolution",
               lambda w: _edit_cell(gp_evolution(w), 5, 6, lambda v: 0.0))

    # An unreachable target is a failed operation, not a crash.
    problem, _ = plan.problems[1]
    unreachable = copy.deepcopy(problem)
    unreachable.constraint_dim = 0
    unreachable.x_target_t = unreachable.x_target_t + np.array([3.0, 0.0, 0.0])
    plan.problems = [(unreachable, False)]
    attempted, failed = plan.round(1)
    st._report(failed == 1 and attempted == 4,
               "plan_queries: TargetUnreachableError counts as one failed operation",
               (attempted, failed))

    shutil.rmtree(WORK)
    print("self-test", "passed" if not st.misses else f"failed ({st.misses} missed)")
    return 1 if st.misses else 0


if __name__ == "__main__":
    sys.exit(main())
