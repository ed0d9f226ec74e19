"""The names that benchmark/ calls and patches in the package still exist.

benchmark/tracing.py replaces each traced entry point through
`owner.__dict__[attr]`, and benchmark/workloads.py calls a few pipeline
functions directly. A refactor that drops or renames one of them fails here,
instead of ending a benchmark run with exit code 1.
"""

import inspect
import os

from trajsense import pipeline, planner
from trajsense.config import load_config
from trajsense.sensitivity import SensitivityModel

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmark")


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    import tracing

    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets
            if attr not in vars(owner)] == []
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(targets, before))


def test_the_benchmark_workload_calls_bind():
    # the calls benchmark/workloads.py makes, argument for argument
    inspect.signature(pipeline.run_pipeline).bind("cfg", "out", workers=1)
    inspect.signature(pipeline.stage_evaluate).bind("cfg", "out")
    inspect.signature(pipeline.best_gamma_of).bind("out")
    inspect.signature(pipeline.emit_plot_data).bind("out", "gp_evolution")


def test_a_traced_run_fires_every_span_but_the_known_dead_ones(tmp_path, monkeypatch):
    # what the three workloads do, on a small config: a pipeline run with
    # correlation alignment and a voxel sweep, the gp_evolution export, and
    # one verified plan on the model read back from its file
    monkeypatch.syspath_prepend(BENCHMARK)
    import tracing
    from test_cli import SMALL_CFG

    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("align = none", "align = correlation"))
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    with tracing.Tracer() as tracer:
        pipeline.run_pipeline(cfg, out)
        pipeline.emit_plot_data(out, "gp_evolution")
        model = SensitivityModel.load(os.path.join(out, pipeline.selected_model(out)))
        x_target = pipeline.rollout(planner.with_kp(cfg.policy, 0.5), cfg.x0, cfg.plan_t,
                                    cfg.dt, cfg.mode).angles[cfg.plan_t]
        problem = planner.PlanningProblem(
            source_kp=0.4, fixed_kd=0.01, t_constraint=cfg.plan_t, x_target_t=x_target,
            final_target=cfg.policy.fixed["x_star"], constraint_dim="all")
        planner.plan_and_verify(problem, model, cfg.policy, cfg.x0, cfg.dt, cfg.mode,
                                cfg.n_steps)
    fired = {span["name"] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.TARGETS} - fired == {
        # FOUND in CHANGES.md: the build stage calls
        # sensitivity.build_sample_sets, so run_pipeline calls no build_samples
        "sensitivity.build_samples",
        # FOUND in CHANGES.md: under the in-memory hand-off, fit and evaluate
        # take the SampleSets the build stage made and read no sample CSV
        "io.sample_read",
    }
    layers = tracing.per_layer_metrics(tracer.spans, 1, 1)
    # block queries go through ExactGP.predict, one row per query
    assert layers["gp.predict.calls"]["value"] > 0
    assert layers["gp.predict.rows"]["value"] >= layers["gp.predict.calls"]["value"]
    # one ExactGP per timestep: one gp.fit per fit_gp
    assert layers["gp.fit.calls"]["value"] == layers["sensitivity.fit_gp.calls"]["value"] > 0
