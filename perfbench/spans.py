"""Spans around calls into fbarcirc's public functions, recorded from outside.

The tracer swaps every binding of a layer module's public function for a
wrapper, in every loaded ``fbarcirc`` module.  That catches the names that
``cli``, ``tuner`` and ``transient`` bind with ``from .htm import sparams``
and similar imports, and calls a module makes to its own public functions
through its globals.  Nothing in ``src/`` is edited; ``uninstall`` restores
the original objects.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import types

LAYERS = ("config", "netlist", "htm", "metrics", "touchstone", "fileio",
          "tuner", "transient", "cli")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# What a span keeps from a call besides its times: work counts and results
# that the per-layer metrics need.  Keyed by "layer.function".
OBSERVERS = {
    "htm.sparams": lambda a, k, out: int(out.frequencies.size),
    "transient.simulate": lambda a, k, out: round(out.duration / out.dt),
    "transient.extract_phasors": lambda a, k, out: float(out.residual),
    "tuner.objective": lambda a, k, out: float(out),
    "touchstone.write_s3p": lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path")),
    "touchstone.write_harmonics_csv": lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path")),
    "fileio.atomic_write_text": lambda a, k, out: len(_arg(a, k, 1, "text").encode("utf-8")),
}


class Tracer:
    """In-memory span list: [layer, function, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark's root span uses this."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [layer, name, 0.0, 0.0, parent, None]
        self.spans.append(record)
        self._stack.append(idx)
        record[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
        observe = OBSERVERS.get(f"{layer}.{name}")
        if observe is not None:
            record[5] = observe(args, kwargs, out)
        return out

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn.__name__, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"fbarcirc.{layer}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self._wrap(layer, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fbarcirc" and not mod_name.startswith("fbarcirc."):
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers for one workflow call, whose spans are ``spans[lo:hi]``.

    ``spans[lo]`` is the call's root span.  Self time is a span's duration
    minus the durations of its direct children, so the self times of all
    layers add up to the root span's duration.
    """
    child = {}
    for s in spans[lo + 1:hi]:
        child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    by_fn: dict[str, list] = {}
    for i in range(lo, hi):
        layer, name, start, end, _, info = spans[i]
        out[f"{layer}.self_s"] += (end - start) - child.get(i, 0.0)
        by_fn.setdefault(f"{layer}.{name}", []).append((end - start, info))

    def calls(key):
        return len(by_fn.get(key, ()))

    def busy(*keys):
        return sum(d for key in keys for d, _ in by_fn.get(key, ()))

    def infos(*keys):
        return [v for key in keys for _, v in by_fn.get(key, ())]

    points = sum(infos("htm.sparams"))
    out["htm.sparams_calls"] = calls("htm.sparams")
    out["htm.points"] = points
    out["htm.sparams_s"] = busy("htm.sparams")
    out["htm.ms_per_point"] = 1e3 * out["htm.sparams_s"] / points if points else 0.0
    out["netlist.build_calls"] = calls("netlist.build_circulator")
    out["netlist.build_s"] = busy("netlist.build_circulator")
    writers = ("touchstone.write_s3p", "touchstone.write_harmonics_csv")
    out["touchstone.write_s"] = busy(*writers)
    out["touchstone.bytes"] = sum(infos(*writers))
    out["fileio.bytes"] = sum(infos("fileio.atomic_write_text"))
    out["metrics.summarize_s"] = busy("metrics.summarize")
    out["metrics.metrics_at_calls"] = calls("metrics.metrics_at")
    out["metrics.metrics_at_s"] = busy("metrics.metrics_at")
    values = infos("tuner.objective")
    finite = [v for v in values if math.isfinite(v)]
    out["tuner.objective_calls"] = len(values)
    out["tuner.objective_s"] = busy("tuner.objective")
    out["tuner.objective_failed"] = len(values) - len(finite)
    out["tuner.useful_ratio"] = len(finite) / len(values) if values else 0.0
    out["tuner.best_eval_index"] = values.index(min(finite)) if finite else -1
    steps = sum(infos("transient.simulate"))
    residuals = infos("transient.extract_phasors")
    out["transient.simulate_s"] = busy("transient.simulate")
    out["transient.steps"] = steps
    out["transient.steps_per_s"] = steps / out["transient.simulate_s"] if steps else 0.0
    out["transient.extract_s"] = busy("transient.extract_phasors")
    out["transient.fit_residual"] = max(residuals) if residuals else 0.0
    out["config.load_s"] = busy("config.load_config")
    return out
