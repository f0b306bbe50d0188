"""Span recorder that wraps the public functions of the magmon modules.

The program is not modified: ``Tracer.install`` replaces module attributes
with timing wrappers, including the names a module imported from another
(``bayes.filter_coefficients`` is the wrapper of ``records.filter_coefficients``),
so calls made through any alias are recorded under the defining module's
name.  ``Tracer.uninstall`` puts every original back.

Each call becomes one span (name, start, end, parent index, round), kept in
memory and written out by ``Tracer.dump`` when the run ends.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

MODULES = ("model", "filtering", "information", "records", "bayes", "spin")
CLI_COMMANDS = {"cmd_info_sweep": "cli.info_sweep", "cmd_simulate": "cli.simulate",
                "cmd_estimate": "cli.estimate", "cmd_verify": "cli.verify"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (name index, start, end, parent, round)
        self.child_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.round = 0
        self.active = True
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib
        pkg = importlib.import_module("magmon")
        modules = {name: importlib.import_module(f"magmon.{name}")
                   for name in MODULES + ("cli",)}
        wrappers = {}
        for name in MODULES:
            mod = modules[name]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{name}.{attr}")
        for attr, span_name in CLI_COMMANDS.items():
            fn = getattr(modules["cli"], attr)
            wrappers[fn] = self._wrap(fn, span_name)
        for mod in list(modules.values()) + [pkg]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, child_time, local = self.spans, self.child_time, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            child_time.append(0.0)
            stack.append(me)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.round)
                if parent >= 0:
                    child_time[parent] += end - start
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- results ------------------------------------------------------------

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        out = {}
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[idx]
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, incl + dur, self_s + dur - self.child_time[i])
        return out

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counters": self.counters,
                       "fields": ["name", "start", "end", "parent", "round"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _save_hook(tracer, args):
    path = os.fspath(args["path"])
    if not path.endswith(".npz"):
        path += ".npz"   # numpy.savez appends the suffix
    tracer.count("records.bytes_written", os.path.getsize(path))


def _traj_hook(tracer, args):
    tracer.count("spin.traj_steps", args["n_trajectories"] * args["grid"].n_steps)


_HOOKS = {"records.save_record": _save_hook,
          "spin.tau_information": _traj_hook,
          "spin.average_conditional": _traj_hook}

# Per-layer metrics taken from spans, named <span>.<field>: field "s" is
# inclusive seconds, "self_s" self seconds, "calls" the call count.
SPAN_METRICS = [
    ("filtering.var_p_ode", "s"),
    ("filtering.sensitivity_ode", "s"),
    ("information.fisher_record_numeric", "s"),
    ("information.qfi_conditional_numeric", "self_s"),
    ("information.ultimate_qfi_ode", "s"),
    ("information.effective_qfi", "s"),
    ("information.effective_qfi", "calls"),
    ("records.simulate_record", "s"),
    ("records.simulate_record", "calls"),
    ("records.save_record", "s"),
    ("records.load_record", "s"),
    ("records.filter_coefficients", "s"),
    ("records.filter_coefficients", "calls"),
    ("bayes.posterior", "s"),
    ("bayes.posterior", "calls"),
    ("bayes.quadratic_coefficients", "calls"),
    ("bayes.prefix_coefficients", "s"),
    ("bayes.saturation_curve", "self_s"),
    ("bayes.estimate", "s"),
    ("bayes.estimate", "calls"),
    ("spin.tau_information", "s"),
    ("spin.average_conditional", "s"),
    ("spin.two_field_trace", "s"),
    ("spin.two_field_trace", "calls"),
    ("spin.ultimate_qfi_finiteJ", "self_s"),
    ("spin.evolve_unconditional", "s"),
    ("cli.info_sweep", "self_s"),
    ("cli.simulate", "self_s"),
    ("cli.estimate", "self_s"),
    ("cli.verify", "self_s"),
]
COUNTER_METRICS = [("records.bytes_written", "bytes"), ("spin.traj_steps", "count")]


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Every per-layer metric, per round of the workload."""
    totals = tracer.totals()
    out = {}
    for span, field in SPAN_METRICS:
        calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "s": incl, "self_s": self_s}[field]
        out[f"{span}.{field}"] = {"value": value / rounds,
                                  "unit": "count" if field == "calls" else "s"}
    for metric, unit in COUNTER_METRICS:
        out[metric] = {"value": tracer.counters.get(metric, 0) / rounds, "unit": unit}
    mc_s = sum(totals.get(s, (0, 0.0, 0.0))[1]
               for s in ("spin.tau_information", "spin.average_conditional"))
    steps = tracer.counters.get("spin.traj_steps", 0)
    out["spin.traj_steps_per_s"] = {"value": steps / mc_s if mc_s > 0 else 0.0,
                                    "unit": "1/s"}
    return out
