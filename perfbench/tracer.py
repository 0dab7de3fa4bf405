"""In-memory spans around the calls into each ensemble_oc module.

The wrappers are installed from the benchmark and never from library code.
Every public module-level function of a traced module is replaced, in every
module that binds it (including the package namespace), by a wrapper that
records a span: id, parent id, name, start and end. The name is
`<defining module>.<function>`, and the defining module is the layer. The
solver's value-only merit evaluations are wrapped on their classes so that
line-search trials can be counted. Model methods run far too often for a
span each: their calls and time are summed per name instead.

Self time is a span's duration minus the time of its child spans, so the
self times of all layers, plus the benchmark's own ("bench") self time, add
up to the wall time of the root spans by construction; the bench self time
is reported as `trace.untraced_s`. `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("sampling", "models", "integrators", "gradients", "transcription",
          "solver", "pontryagin", "reporting")
TRACED_MODULES = ("sampling", "integrators", "gradients", "transcription",
                  "solver", "pontryagin", "reporting")
MODEL_METHODS = ("rhs", "jac_x", "jac_u")
FORWARD_PASSES = ("transcription.forward_pass", "transcription.continuous_forward")
SWEEPS = ("transcription.sweep_gradient", "transcription.continuous_gradient")

_MISSING = object()


class Tracer:
    """Records spans while installed; `round_metrics` summarises one round."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, round)
        self.stack = []  # open spans: [id, name, start, child time]
        self.next_id = 1
        self.round = 0
        self.patches = []
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = Counter()
        self.in_solve = Counter()
        self.sample_steps = 0
        self.round_spans = 0
        # (scheme, dt, states shape) -> [propagate s, propagate calls, sweep s, sweep calls]
        self.segments = defaultdict(lambda: [0.0, 0, 0.0, 0])

    # -- recording -----------------------------------------------------------

    def start_round(self, index: int):
        self.round = index
        for table in (self.calls, self.inclusive, self.self_time, self.errors,
                      self.in_solve, self.segments):
            table.clear()
        self.sample_steps = 0
        self.round_spans = 0

    def _enter(self, name):
        frame = [self.next_id, name, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame, failed):
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        layer = name.partition(".")[0]
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[layer] += duration - child
        if failed:
            self.errors[layer] += 1
        parent = 0
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, self.round))
        self.round_spans += 1
        return duration

    def inside(self, name) -> bool:
        return any(frame[1] == name for frame in self.stack)

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(frame, failed)

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = self._exit(frame, failed)
            if hook is not None:
                hook(self, duration, args, result)
            return result

        return traced

    def _wrap_model(self, name, method):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.calls[name] += 1
                self.self_time["models"] += duration
                if self.stack:
                    self.stack[-1][3] += duration

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, models):
        """Wrap the traced modules' functions and the given model instances."""
        import importlib

        import ensemble_oc

        modules = [ensemble_oc] + [importlib.import_module(f"ensemble_oc.{m}")
                                   for m in TRACED_MODULES]
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in TRACED_MODULES or value.__module__ != f"ensemble_oc.{layer}":
                    continue
                name = f"{layer}.{value.__name__}"
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(name, value, _HOOKS.get(name))
                self._patch(module, attr, wrapped[id(value)])
        solver = importlib.import_module("ensemble_oc.solver")
        for cls in (solver._MeritEvaluator, solver._ReducedEvaluator):
            self._patch(cls, "value", self._wrap("solver.merit_value", cls.value))
        for model in {id(m): m for m in models}.values():
            for method in MODEL_METHODS:
                self._patch(model, method,
                            self._wrap_model(f"models.{method}", getattr(model, method)))

    def uninstall(self):
        for owner, attr, old in reversed(self.patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self.patches.clear()

    # -- summaries -----------------------------------------------------------

    def round_metrics(self, wall: float, inner: int, outer: int) -> dict:
        """Per-layer metrics of the current round.

        wall is the round's wall time; inner and outer are the iteration
        counts the round's solves reported.
        """
        c, t, own = self.calls, self.inclusive, self.self_time
        # forward integration enters through propagate_segment or, one step at
        # a time, through step (the batched finite differences)
        propagate_s = t["integrators.propagate_segment"] + t["integrators.step"]
        forward_time = 0.0  # the sweeps' segments, each at its mean forward time
        sweep_time = 0.0
        for prop_s, prop_n, sw_s, sw_n in self.segments.values():
            if prop_n and sw_n:
                forward_time += sw_n * prop_s / prop_n
                sweep_time += sw_s
        layer_self = sum(own[layer] for layer in LAYERS)

        def per_iter(count):
            return count / inner if inner else 0.0

        return {
            "sampling.calls": c["sampling.sample_initial_ensemble"],
            "sampling.s": own["sampling"],
            "models.rhs_calls": c["models.rhs"],
            "models.jac_x_calls": c["models.jac_x"],
            "models.jac_u_calls": c["models.jac_u"],
            "models.s": own["models"],
            "integrators.propagate_calls": (
                c["integrators.propagate_segment"] + c["integrators.step"]),
            "integrators.propagate_s": propagate_s,
            "integrators.sample_steps_per_s": (
                self.sample_steps / propagate_s if propagate_s else 0.0),
            "integrators.step_jacobians_calls": c["integrators.step_jacobians"],
            "integrators.step_jacobians_s": t["integrators.step_jacobians"],
            "integrators.errors": self.errors["integrators"],
            "integrators.self_s": own["integrators"],
            "gradients.sweep_calls": c["gradients.backward_gradient"],
            "gradients.sweep_s": t["gradients.backward_gradient"],
            "gradients.sweep_over_forward": sweep_time / forward_time if forward_time else 0.0,
            "gradients.self_s": own["gradients"],
            "transcription.forward_passes": sum(c[n] for n in FORWARD_PASSES),
            "transcription.sweeps": sum(c[n] for n in SWEEPS),
            "transcription.self_s": own["transcription"],
            "solver.inner_iterations": inner,
            "solver.outer_iterations": outer,
            "solver.forward_per_iter": per_iter(self.in_solve["forward"]),
            "solver.sweeps_per_iter": per_iter(self.in_solve["sweep"]),
            "solver.trials_per_iter": per_iter(c["solver.merit_value"]),
            "solver.self_s": own["solver"],
            "pontryagin.adjoint_s": t["pontryagin.adjoint_sweep"],
            "pontryagin.argmin_s": t["pontryagin.ensemble_argmin_control"],
            "pontryagin.self_s": own["pontryagin"],
            "reporting.write_s": own["reporting"],
            "trace.wall_s": wall,
            "trace.untraced_s": wall - layer_self,
            "trace.spans": self.round_spans,
        }

    def write(self, path):
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span_id, parent, name, start, end, rnd in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "round": rnd}) + "\n")


# -- hooks: counters measured where the work happens ---------------------------


def _segment_key(scheme, states_shape):
    return (scheme.kind, scheme.dt, tuple(states_shape))


def _on_propagate(tr, duration, args, result):
    tr.sample_steps += (result.shape[0] - 1) * result.shape[1]
    entry = tr.segments[_segment_key(args[0], result.shape)]
    entry[0] += duration
    entry[1] += 1


def _on_step(tr, duration, args, result):
    tr.sample_steps += result.shape[0] if result.ndim > 1 else 1


def _on_sweep(tr, duration, args, result):
    entry = tr.segments[_segment_key(args[0], args[2].shape)]
    entry[2] += duration
    entry[3] += 1


def _count_in_solve(kind):
    def hook(tr, duration, args, result):
        if tr.inside("solver.solve"):
            tr.in_solve[kind] += 1

    return hook


_HOOKS = {
    "integrators.propagate_segment": _on_propagate,
    "integrators.step": _on_step,
    "gradients.backward_gradient": _on_sweep,
    **{name: _count_in_solve("forward") for name in FORWARD_PASSES},
    **{name: _count_in_solve("sweep") for name in SWEEPS},
}
