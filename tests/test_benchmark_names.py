"""The names that benchmark/ calls and patches in the package still exist.

benchmark/tracing.py replaces each traced entry point through
`owner.__dict__[attr]`, and benchmark/workloads.py calls a few pipeline
functions directly. A refactor that drops or renames one of them fails here,
instead of ending a benchmark run with exit code 1.
"""

import inspect
import os

from trajsense import pipeline

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
