"""Spans around calls into lieobs modules, recorded from outside ``src/``.

The tracer rebinds module attributes (``lieobs.integrate.compute_errors``,
the closure ``_rhs_factory`` returns, ...) with wrappers that count calls
and time them. Spans nest, so a span's self time is its duration minus
the time of the spans it encloses. A rebinding target that no longer
exists does not stop the run: the metrics that depend on it come back as
null with the reason.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.missing: dict[str, str] = {}
        self.steps = 0
        self.first_sim_start = None
        self.last_sim_end = None
        self._stack: list[float] = []

    def wrap(self, name, fn):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - inner

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, span, targets, make) -> None:
        """Replace each ``module.attr`` in ``targets`` that exists by
        ``make(original)``; record the span as missing if none does."""
        hooked = []
        for path in targets:
            mod_name, attr = path.rsplit(".", 1)
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                setattr(mod, attr, make(getattr(mod, attr)))
                hooked.append(path)
        if not hooked:
            self.missing[span] = "none of " + ", ".join(targets) + " exists"

    def install(self) -> None:
        wrap = self.wrap

        def traced_truth_factory(factory):
            def make_truth(*args, **kwargs):
                truth = factory(*args, **kwargs)
                return dataclasses.replace(truth, state_of=wrap("truth", truth.state_of))
            return make_truth

        def traced_rhs_factory(factory):
            def make_rhs(*args, **kwargs):
                return wrap("rhs", factory(*args, **kwargs))
            return make_rhs

        def traced_simulate(simulate):
            inner = wrap("simulate", simulate)

            def run(config):
                if self.first_sim_start is None:
                    self.first_sim_start = time.perf_counter()
                try:
                    record = inner(config)
                finally:
                    self.last_sim_end = time.perf_counter()
                self.steps += int(round(config.horizon / config.step))
                return record
            return run

        self._rebind(
            "truth",
            ["lieobs.cli.se3_benchmark_truth", "lieobs.kinematics.se3_benchmark_truth"],
            traced_truth_factory,
        )
        self._rebind("simulate", ["lieobs.cli.simulate", "lieobs.integrate.simulate"],
                     traced_simulate)
        self._rebind("bounds", ["lieobs.integrate._resolve_bounds"],
                     lambda f: wrap("bounds", f))
        self._rebind("rhs", ["lieobs.integrate._rhs_factory"], traced_rhs_factory)
        self._rebind(
            "inv",
            [f"lieobs.{m}.mat_inv" for m in ("integrate", "observers", "analysis", "kinematics")],
            lambda f: wrap("inv", f),
        )
        self._rebind("errors", ["lieobs.integrate.compute_errors"], lambda f: wrap("errors", f))
        self._rebind("lyapunov", ["lieobs.integrate.lyapunov_value"],
                     lambda f: wrap("lyapunov", f))
        self._rebind("fit", ["lieobs.cli.fit_exponential"], lambda f: wrap("fit", f))

    def layer_metrics(self, cli_span: tuple[float, float] | None, csv_bytes: int | None) -> dict:
        """Per-layer values, or ``(None, reason)`` where a hook is missing.

        ``cli_span`` is (start, end) of ``lieobs.cli.main``; None when the
        workload does not go through the CLI.
        """
        out = {}

        def put(name, span, value):
            out[name] = (None, self.missing[span]) if span in self.missing else value

        steps = self.steps
        put("kinematics.truth_calls", "truth", self.calls["truth"])
        put("kinematics.truth_s", "truth", self.total["truth"])
        put("kinematics.truth_per_step", "truth", self.calls["truth"] / steps if steps else None)
        put("kinematics.bounds_s", "bounds", self.total["bounds"])
        put("observers.rhs_calls", "rhs", self.calls["rhs"])
        put("observers.rhs_s", "rhs", self.total["rhs"])
        put("matcore.inv_calls", "inv", self.calls["inv"])
        put("matcore.inv_s", "inv", self.total["inv"])
        put("integrate.steps", "simulate", steps)
        put("integrate.rhs_evals", "rhs", self.calls["rhs"])
        put("integrate.self_s", "simulate", self.self_time["simulate"])
        put("analysis.errors_calls", "errors", self.calls["errors"])
        put("analysis.errors_s", "errors", self.total["errors"])
        put("analysis.lyapunov_s", "lyapunov", self.total["lyapunov"])
        put("analysis.fit_s", "fit", self.total["fit"])
        if cli_span is None:
            # The library workload never enters the CLI layer.
            out.update({"cli.config_s": 0.0, "cli.export_s": 0.0, "cli.csv_bytes": 0})
        else:
            start, end = cli_span
            put("cli.config_s", "simulate", (self.first_sim_start or end) - start)
            put("cli.export_s", "simulate", end - (self.last_sim_end or end))
            out["cli.csv_bytes"] = csv_bytes
        return out
