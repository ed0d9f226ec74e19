"""In-memory span tracing around calls into trajsense's public functions.

Spans are recorded from the benchmark's side only. Each traced entry point is
replaced, in the namespace where its caller looks it up, by a wrapper that
records the span's name, start, end, parent span and run id, plus a few
per-call attributes (rows predicted, samples built, lag matched). Private
functions are not wrapped, and nothing inside the package changes. Spans stay
in memory until the run ends; `per_layer_metrics` derives counts, totals and
self times from them.
"""

import functools
import json
import os
import time
import uuid

import numpy as np

from trajsense import align, gp, io, pipeline, planner, sensitivity, voxel


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(np.asarray(args[1])).shape[0])}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _steps(args, kwargs, result):
    return {"steps": int(result.n_steps)}


def _written_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _model_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _lag_matches(args, kwargs, result):
    injected = int(args[1].meta.get("temporal_shift", 0))
    return {"lag": int(result.tau_star), "injected": injected,
            "matched": int(result.tau_star == -injected)}


# (owner, attribute, span name, attribute extractor). A name imported into
# another module is wrapped there too, because that is where its caller
# looks it up.
TARGETS = (
    (gp.ExactGP, "fit", "gp.fit", None),
    (gp.ExactGP, "predict", "gp.predict", _rows),
    (sensitivity, "fit_gp", "sensitivity.fit_gp", None),
    (pipeline, "fit_gp", "sensitivity.fit_gp", None),
    (pipeline, "build_samples", "sensitivity.build_samples", _samples),
    (pipeline, "evaluate", "sensitivity.evaluate", None),
    (sensitivity.SensitivityModel, "save", "sensitivity.model_save", _model_bytes),
    (sensitivity.SensitivityModel, "load", "sensitivity.model_load", None),
    (pipeline, "rollout", "sim.rollout", _steps),
    (planner, "rollout", "sim.rollout", _steps),
    (io, "write_trajectory", "io.trajectory_write", None),
    (io, "read_trajectory", "io.trajectory_read", None),
    (io, "write_samples", "io.sample_write", _written_rows),
    (io, "read_samples", "io.sample_read", None),
    (align, "estimate_delay", "align.estimate_delay", _lag_matches),
    (voxel, "voxelize_trajectory", "voxel.voxelize_trajectory", None),
    (pipeline, "voxelize_trajectory", "voxel.voxelize_trajectory", None),
    (planner, "solve_kp", "planner.solve_kp", None),
    (planner, "plan_and_verify", "planner.plan_and_verify", None),
    (pipeline, "plan_and_verify", "planner.plan_and_verify", None),
    (pipeline, "stage_simulate", "pipeline.simulate", None),
    (pipeline, "stage_build", "pipeline.build", None),
    (pipeline, "stage_fit", "pipeline.fit", None),
    (pipeline, "stage_evaluate", "pipeline.evaluate", None),
    (pipeline, "stage_plan", "pipeline.plan", None),
    (pipeline.Manifest, "record", "pipeline.manifest", None),
    (pipeline.Manifest, "stage_is_current", "pipeline.manifest", None),
)

# The per-layer metrics, in the order BENCHMARK.json lists them: name, unit,
# span name and the span field summed ("calls", "s" for the total time,
# "self_s" for the time outside child spans, or a per-call attribute).
METRICS = (
    ("gp.fit.calls", "count", "gp.fit", "calls"),
    ("gp.fit_s", "s", "gp.fit", "s"),
    ("gp.predict.calls", "count", "gp.predict", "calls"),
    ("gp.predict.rows", "count", "gp.predict", "rows"),
    ("gp.predict_s", "s", "gp.predict", "s"),
    ("sensitivity.fit_gp.calls", "count", "sensitivity.fit_gp", "calls"),
    ("sensitivity.fit_gp_s", "s", "sensitivity.fit_gp", "self_s"),
    ("sensitivity.build_samples_s", "s", "sensitivity.build_samples", "s"),
    ("sensitivity.samples", "count", "sensitivity.build_samples", "samples"),
    ("sensitivity.evaluate_s", "s", "sensitivity.evaluate", "s"),
    ("sensitivity.model_save_s", "s", "sensitivity.model_save", "s"),
    ("sensitivity.model_load_s", "s", "sensitivity.model_load", "s"),
    ("sensitivity.model_bytes", "bytes", "sensitivity.model_save", "bytes"),
    ("sim.rollout.calls", "count", "sim.rollout", "calls"),
    ("sim.rollout_s", "s", "sim.rollout", "s"),
    ("sim.steps_per_s", "1/s", "sim.rollout", "steps"),  # divided by sim.rollout_s
    ("io.trajectory_write_s", "s", "io.trajectory_write", "s"),
    ("io.trajectory_read_s", "s", "io.trajectory_read", "s"),
    ("io.sample_write_s", "s", "io.sample_write", "s"),
    ("io.sample_read_s", "s", "io.sample_read", "s"),
    ("io.sample_rows", "count", "io.sample_write", "rows"),
    ("align.estimate_delay.calls", "count", "align.estimate_delay", "calls"),
    ("align.estimate_delay_s", "s", "align.estimate_delay", "s"),
    ("align.lags_matching_injected", "count", "align.estimate_delay", "matched"),
    ("voxel.voxelize_trajectory.calls", "count", "voxel.voxelize_trajectory", "calls"),
    ("voxel.voxelize_s", "s", "voxel.voxelize_trajectory", "s"),
    ("planner.solve_kp.calls", "count", "planner.solve_kp", "calls"),
    ("planner.solve_kp_s", "s", "planner.solve_kp", "self_s"),
    ("planner.plan_and_verify_s", "s", "planner.plan_and_verify", "s"),
    ("pipeline.simulate_s", "s", "pipeline.simulate", "s"),
    ("pipeline.build_s", "s", "pipeline.build", "s"),
    ("pipeline.fit_s", "s", "pipeline.fit", "s"),
    ("pipeline.evaluate_s", "s", "pipeline.evaluate", "s"),
    ("pipeline.plan_s", "s", "pipeline.plan", "s"),
    ("pipeline.manifest_s", "s", "pipeline.manifest", "s"),
)


class Tracer:
    """Records spans while installed.

    `phase` tags each span: "setup" and "round" spans make the per-layer
    figures; the benchmark's own input generation runs as "inputs".
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "run": tracer.run_id, "phase": tracer.phase}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span.update(extract(args, kwargs, result))
                return result
            finally:
                tracer._stack.pop()
                span["end"] = time.perf_counter()

        return traced

    def install(self):
        for owner, attr, name, extract in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__, extract))
            else:
                replacement = self._wrap(name, original, extract)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, run_id=self.run_id, spans=self.spans), fh)


def _phase_totals(spans, phase):
    """Per-name call counts, total and self seconds, and summed attributes."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for i, span in enumerate(spans):
        if span["phase"] != phase:
            continue
        entry = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[i]
        for key in ("rows", "samples", "steps", "bytes", "matched"):
            if key in span:
                entry[key] = entry.get(key, 0) + span[key]
    return totals


def per_layer_metrics(spans, n_setups, n_rounds):
    """Per-layer figures for one set-up plus one round.

    Set-up spans are divided by the number of set-ups and round spans by the
    number of rounds; every round repeats the same operations on the same
    inputs, so the counts stay whole numbers.
    """
    setup, rounds = _phase_totals(spans, "setup"), _phase_totals(spans, "round")

    def value(span, field):
        return (setup.get(span, {}).get(field, 0) / n_setups
                + rounds.get(span, {}).get(field, 0) / n_rounds)

    out = {}
    for name, unit, span, field in METRICS:
        v = value(span, field)
        if name == "sim.steps_per_s":
            rollout_s = value(span, "s")
            v = v / rollout_s if rollout_s > 0 else 0.0
        elif unit in ("count", "bytes"):
            v = int(round(v))
        out[name] = {"value": v, "unit": unit}
    return out
