"""Per-layer tracing from outside the program.

The traced run replaces public functions at the module attributes through
which the layers of ``mrac`` call each other (``WRAP_POINTS``), records a
span around each call, and restores every attribute when it ends. A span's
self time is its duration minus the durations of the spans it caused;
calls are synchronous, so child spans never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """Self time and call count per span name, plus free counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []

    def span(self, fn, name, after=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``after(tracer, name, result, args)`` may add
        counts once the call returns."""
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                child = self._child_s.pop()
                self.self_s[label] += duration - child
                self.calls[label] += 1
                if self._child_s:
                    self._child_s[-1] += duration
            if after is not None:
                after(self, label, result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name):
        """Count calls to ``fn`` without a span, for calls too frequent or
        too nested in a runner's own work to time separately."""
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def _runner_name(layer):
    def name(plant, *args, **kwargs):
        return f"{layer}.{'discrete' if plant.time_domain == 'discrete' else 'ct'}"
    return name


def _lyapunov_name(plant, ref, signal, mode, *args, **kwargs):
    return f"lyapunov.{mode}"


def _count_steps(tracer, name, trace, args):
    tracer.counts[name.split(".")[0] + ".steps"] += trace.steps
    tracer.counts[name + ".steps"] += trace.steps


def _count_trace_file(tracer, name, result, args):
    trace, path = args[0], args[1]
    tracer.counts["cli.trace_rows"] += trace.steps
    tracer.counts["cli.trace_bytes"] += os.path.getsize(path)


class _JsonProxy:
    """Stands in for ``mrac.cli.json`` so the summary dumps are timed."""

    def __init__(self, json_module, tracer):
        self._json = json_module
        self.dump = tracer.span(json_module.dump, "cli.summary_json")
        self.dumps = tracer.span(json_module.dumps, "cli.summary_json")

    def __getattr__(self, attr):
        return getattr(self._json, attr)


# (module, attribute, how to replace it); every layer boundary a workload
# crosses. filters and _fastpath are not listed: no workload reaches them.
WRAP_POINTS = (
    ("mrac.cli", "load_config", "scenario.load_config"),
    ("mrac.cli", "config_from_dict", "scenario.load_config"),
    ("mrac.cli", "run_scenario", "scenario.run_scenario"),
    ("mrac.cli", "summary_dict", "cli.summary_json"),
    ("mrac.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("mrac.cli", "json", "json-proxy"),
    ("mrac.scenario", "config_from_dict", "scenario.load_config"),
    ("mrac.scenario", "run_direct_scenario", "runner:direct"),
    ("mrac.scenario", "run_indirect_scenario", "runner:indirect"),
    ("mrac.scenario", "run_lyapunov_scenario", "runner:lyapunov"),
    ("mrac.scenario", "solve_matching", "systems.solve_matching"),
    ("mrac.scenario", "direct_V_series", "diagnostics.v_series"),
    ("mrac.scenario", "indirect_V_series", "diagnostics.v_series"),
    ("mrac.scenario", "check_delta_V", "diagnostics.check_delta_V"),
    ("mrac.scenario", "tracking_metrics", "diagnostics.summarize"),
    ("mrac.direct", "solve_matching", "systems.solve_matching"),
    ("mrac.direct", "direct_V_series", "diagnostics.v_series"),
    ("mrac.direct", "integrate_ct", "count:systems.integrate_ct_calls"),
    ("mrac.indirect", "solve_matching", "systems.solve_matching"),
    ("mrac.indirect", "indirect_V_series", "diagnostics.v_series"),
    ("mrac.indirect", "integrate_ct", "count:systems.integrate_ct_calls"),
    ("mrac.lyapunov", "solve_matching", "systems.solve_matching"),
    ("mrac.lyapunov", "integrate_ct", "count:systems.integrate_ct_calls"),
    ("mrac.diagnostics", "summarize", "diagnostics.summarize"),
)


def _replacement(tracer, original, how):
    if how == "json-proxy":
        return _JsonProxy(original, tracer)
    if how.startswith("count:"):
        return tracer.counter(original, how[len("count:"):])
    if how == "runner:lyapunov":
        return tracer.span(original, _lyapunov_name, _count_steps)
    if how.startswith("runner:"):
        return tracer.span(original, _runner_name(how[len("runner:"):]),
                           _count_steps)
    if how == "cli.write_trace_csv":
        return tracer.span(original, how, _count_trace_file)
    return tracer.span(original, how)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block and put every
    original back afterwards, also when the block raises."""
    saved = []
    try:
        for module_name, attr, how in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _replacement(tracer, original, how))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


GRADIENT_SCHEMES = ("direct_gradient", "indirect_gradient")
RUNNERS = ("direct.discrete", "direct.ct", "indirect.discrete", "indirect.ct",
           "lyapunov.direct", "lyapunov.indirect")


def layer_metrics(tracer: Tracer, members: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced workload invocation. Times are self
    times summed over the invocation; a layer the workload does not reach
    reads 0."""
    s, c = tracer.self_s, tracer.counts
    gradient = sum(m["scheme"] in GRADIENT_SCHEMES for m in members)
    out = {
        "scenario.load_config_s": s["scenario.load_config"],
        "scenario.run_scenario_self_s": s["scenario.run_scenario"],
        "scenario.solve_matching_calls":
            tracer.calls["systems.solve_matching"] / len(members),
        "systems.solve_matching_s": s["systems.solve_matching"],
    }
    for runner in RUNNERS:
        steps = c[runner + ".steps"]
        layer, kind = runner.split(".")
        out[f"{layer}.{kind}_us_per_step"] = (
            1e6 * s[runner] / steps if steps else 0.0)
    out.update({
        "direct.steps": c["direct.steps"],
        "indirect.steps": c["indirect.steps"],
        "lyapunov.steps": c["lyapunov.steps"],
        "diagnostics.v_series_calls":
            tracer.calls["diagnostics.v_series"] / gradient if gradient else 0.0,
        "diagnostics.v_series_s": s["diagnostics.v_series"],
        "diagnostics.check_delta_V_s": s["diagnostics.check_delta_V"],
        "diagnostics.summarize_s": s["diagnostics.summarize"],
        "systems.integrate_ct_calls": c["systems.integrate_ct_calls"],
        "cli.write_trace_csv_s": s["cli.write_trace_csv"],
        "cli.trace_bytes": c["cli.trace_bytes"],
        "cli.trace_rows": c["cli.trace_rows"],
        "cli.summary_json_s": s["cli.summary_json"],
    })
    return out


EXACT_COUNTS = ("scenario.solve_matching_calls", "direct.steps",
                "indirect.steps", "lyapunov.steps",
                "diagnostics.v_series_calls", "systems.integrate_ct_calls",
                "cli.trace_bytes", "cli.trace_rows")
