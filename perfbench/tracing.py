"""Per-layer tracing from outside the program.

A traced pass replaces public names of smcsim where ``cli``, ``config`` and
``core`` look them up (and the names the sweep loop calls) with wrappers that
record a span per call: layer name, start, end, parent span, and the change
of the counters below over the call. Controllers that ``config`` builds are
wrapped per instance so that their steps are counted and timed. A counting
pass also wraps every signal and plant instance to count signal evaluations
and plant derivative calls; that wrapper costs more than the work it counts,
so the counting pass gives counts only and no times. Spans stay in memory
and are written out once, when the pass ends.

``layer_metrics`` turns the spans of a traced and a counting pass into the
per-layer figures the benchmark reports.
"""

import os
import time

# Public name -> span name. The same function gets the same span name
# whichever module looks it up.
SPAN_NAMES = {
    "main": "cli.main",
    "resolve_scenario": "config.resolve",
    "load_scenario": "config.load",
    "build_scenario": "config.load",
    "verify_signal_bound": "config.bound_check",
    "run_scenario": "sim.integrate",
    "write_csv": "sim.write_csv",
    "compute_metrics": "sim.metrics",
    "lyapunov_trace": "sim.lyapunov_trace",
    "certificate_summary": "sim.certificate_summary",
    "verify_ultimate_bound": "sim.verifiers",
    "verify_band_excursion": "sim.verifiers",
    "overshoot_bound": "core.overshoot_bound",
}

SIGNAL_CLASSES = ("MultiSineSignal", "SquareSignal", "TableSignal")
REFERENCE_CLASSES = ("SineReference",)
PLANT_CLASSES = ("RegulationPlant", "LinearPlant", "TrackingPlant")
CONTROLLER_CLASSES = ("ClassicalSMC", "BoundaryLayerSMC", "UtkinAdaptiveSMC",
                      "PlestanAdaptiveSMC", "DeltaAdaptiveSMC")

COUNTERS = ("signal_evals", "deriv_calls", "controller_steps", "controller_step_s")

UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s", "config.load_s": "s",
    "config.bound_check_s": "s", "config.bound_samples": "count",
    "plants.signal_evals_per_row": "1/row", "plants.deriv_calls_per_row": "1/row",
    "controllers.steps": "count", "controllers.step_s": "s", "sim.rows": "count",
    "sim.integrate_s": "s", "sim.integrate_us_per_row": "us/row", "sim.write_csv_s": "s",
    "sim.csv_mb": "MB", "sim.write_csv_mb_per_s": "MB/s", "sim.metrics_s": "s",
    "sim.lyapunov_trace_s": "s", "sim.verifiers_s": "s", "core.overshoot_bound_s": "s",
    "sim.log_mb": "MB", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        # Counter cells are one-element lists so the per-call wrappers touch
        # a single local; spans snapshot them at entry and exit.
        self.cells = {name: [0] for name in COUNTERS}
        self.cells["controller_step_s"] = [0.0]
        self.spans = []
        self._stack = []

    def _snapshot(self):
        return [self.cells[name][0] for name in COUNTERS]

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, result) adds fields."""
        spans, stack, snapshot = self.spans, self._stack, self._snapshot
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else -1}
            before = snapshot()
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
                rec["counts"] = {k: b - a for k, a, b in zip(COUNTERS, before, snapshot())}
            if attrs is not None:
                rec.update(attrs(args, result))
            return result

        return wrapped

    def wrap_names(self, namespace, names, attrs=None):
        for name in names:
            setattr(namespace, name, self.span(SPAN_NAMES[name], getattr(namespace, name),
                                               (attrs or {}).get(name)))

    # -- per-instance counters -------------------------------------------

    @staticmethod
    def _counted(fn, cell):
        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def _timed_step(self, fn):
        count, total = self.cells["controller_steps"], self.cells["controller_step_s"]
        clock = time.perf_counter

        def step(s, h, g, dt):
            t0 = clock()
            out = fn(s, h, g, dt)
            total[0] += clock() - t0
            count[0] += 1
            return out
        return step

    @staticmethod
    def _instrumenting(cls, methods):
        def build(*args, **kwargs):
            obj = cls(*args, **kwargs)
            for method, wrap in methods.items():
                setattr(obj, method, wrap(getattr(obj, method)))
            return obj
        return build

    def instrument_config(self, config, count):
        """Wrap the objects config builds: controller steps are counted and
        timed; with count, signal evaluations and plant derivative calls are
        counted too (a wrapper on every call, so a counting pass is not timed)."""
        for name in CONTROLLER_CLASSES:
            setattr(config, name, self._instrumenting(getattr(config, name),
                                                      {"step": self._timed_step}))
        if not count:
            return
        evals, derivs = self.cells["signal_evals"], self.cells["deriv_calls"]
        counted_eval = lambda fn: self._counted(fn, evals)  # noqa: E731
        for name in SIGNAL_CLASSES:
            setattr(config, name, self._instrumenting(getattr(config, name),
                                                      {"value": counted_eval}))
        for name in REFERENCE_CLASSES:
            setattr(config, name, self._instrumenting(
                getattr(config, name),
                {"value": counted_eval, "rate": counted_eval, "accel": counted_eval}))
        for name in PLANT_CLASSES:
            setattr(config, name, self._instrumenting(
                getattr(config, name), {"deriv": lambda fn: self._counted(fn, derivs)}))


def log_attrs(args, log):
    """Rows and in-memory size of a trajectory log returned by run_scenario."""
    return {"rows": len(log.t),
            "log_bytes": sum(v.nbytes for v in vars(log).values() if hasattr(v, "nbytes"))}


def csv_attrs(args, _result):
    return {"csv_bytes": os.path.getsize(args[1])}


# ---------------------------------------------------------------------------
# Aggregation (parent side)


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(spans, counted, startup_s):
    """Per-layer figures: times from the spans of a traced pass, exact counts
    from the spans of a counting pass of the same workload."""

    def select(trace, *names):
        return [sp for sp in trace if sp["name"] in names]

    def total(trace, *names):
        return sum(_dur(sp) for sp in select(trace, *names))

    def count(trace, key, *names):
        return sum(sp["counts"][key] for sp in select(trace, *names))

    def attr(trace, key, *names):
        return sum(sp.get(key, 0) for sp in select(trace, *names))

    # Self time of the CLI command: its span minus the spans it called.
    cli_self = 0.0
    for i, sp in enumerate(spans):
        if sp["name"] == "cli.main":
            cli_self += _dur(sp) - sum(_dur(c) for c in spans if c["parent"] == i)

    load = ("config.load", "config.resolve")
    rows = attr(spans, "rows", "sim.integrate")
    counted_rows = attr(counted, "rows", "sim.integrate")
    integrate_s = total(spans, "sim.integrate")
    csv_mb = attr(spans, "csv_bytes", "sim.write_csv") / 1e6
    write_s = total(spans, "sim.write_csv")
    return {
        "cli.startup_s": startup_s,
        "cli.self_s": cli_self,
        "config.load_s": total(spans, *load),
        "config.bound_check_s": total(spans, "config.bound_check"),
        "config.bound_samples": count(counted, "signal_evals", *load),
        "plants.signal_evals_per_row":
            count(counted, "signal_evals", "sim.integrate") / counted_rows,
        "plants.deriv_calls_per_row":
            count(counted, "deriv_calls", "sim.integrate") / counted_rows,
        "controllers.steps": count(spans, "controller_steps", "sim.integrate"),
        "controllers.step_s": count(spans, "controller_step_s", "sim.integrate"),
        "sim.rows": rows,
        "sim.integrate_s": integrate_s,
        "sim.integrate_us_per_row": 1e6 * integrate_s / rows,
        "sim.write_csv_s": write_s,
        "sim.csv_mb": csv_mb,
        "sim.write_csv_mb_per_s": csv_mb / write_s if write_s > 0.0 else 0.0,
        "sim.metrics_s": total(spans, "sim.metrics"),
        "sim.lyapunov_trace_s": total(spans, "sim.lyapunov_trace"),
        "sim.verifiers_s": total(spans, "sim.verifiers"),
        "core.overshoot_bound_s": total(spans, "core.overshoot_bound"),
        "sim.log_mb": attr(spans, "log_bytes", "sim.integrate") / 1e6,
    }
