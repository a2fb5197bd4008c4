"""In-memory spans around the public functions of each gpsdenoise module.

The library has no tracing of its own, so the benchmark wraps functions
from the outside: every wrapper replaces a name in the module namespace
where the caller looks it up (``pipeline`` binds ``train`` by name,
``rbf.train`` finds ``solve_output_weights`` in its own globals, and so
on). The same wrappers also hand each call's result to an optional hook,
which the correctness checks use in untraced runs; with recording off a
wrapper adds one function call and no clock reads.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``extra`` holds per-call facts
such as bytes written or training stages.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, names) pairs: each name is replaced where the caller looks it
# up. A name a module no longer binds is skipped, so its layer reads 0.
PATCH_POINTS = (
    ("pipeline", ("train", "forward", "select_band", "generate_trajectory",
                  "add_noise", "run_method")),
    ("cli", ("run_method", "run_table", "emit_plot_data", "write_plot_data",
             "write_report", "write_series", "generate_trajectory")),
    ("rbf", ("solve_output_weights",)),
    ("bandfilter", ("decompose",)),
    # cmd_generate imports add_noise from .signal at call time
    ("signal", ("add_noise",)),
)


def span_name(fn) -> str:
    """Layer-qualified name, e.g. 'rbf.train' for gpsdenoise.rbf.train."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _train_facts(args, out) -> dict:
    net, trace = out
    history = np.asarray(trace.sse_history)
    return {
        "n": int(np.shape(args[0])[0]),
        "stages": len(history) - 1,
        "useful": int(np.count_nonzero(np.diff(history) < 0)),
        "weight_absmax": float(np.abs(net.output_weights).max(initial=0.0)),
    }


# Per-call facts recorded in a span's extra field, keyed by span name.
FACTS = {
    "rbf.train": _train_facts,
    "signal.write_series": lambda args, out: _file_bytes(args[1]),
    "pipeline.write_plot_data": lambda args, out: _file_bytes(args[1]),
    "signal.read_series": lambda args, out: _file_bytes(args[0]),
}


class Recorder:
    """Collects spans while ``active``; installs and removes the wrappers."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run fn, recording a span when active and passing the result to hook."""
        if not self.active:
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(args, out)
            return out
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        facts = FACTS.get(name)
        if facts is not None:
            span[4] = facts(args, out)
        if hook is not None:
            hook(args, out)
        return out

    def install(self, hooks: dict) -> None:
        """Wrap every patch point; hooks maps a span name to fn(args, out)."""
        originals = {}
        for mod_name, names in PATCH_POINTS:
            module = importlib.import_module(f"gpsdenoise.{mod_name}")
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                # wrap the library function itself, never another wrapper
                fn = originals.setdefault(span_name(fn), fn)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrapper(fn, hooks.get(span_name(fn))))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrapper(self, fn, hook):
        name = span_name(fn)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans_by_pass: list[list[list]], path: Path) -> None:
    """Write one JSON object per span, tagged with its traced pass."""
    with open(path, "w", encoding="ascii") as fh:
        for k, spans in enumerate(spans_by_pass):
            for name, start, end, parent, extra in spans:
                doc = {"pass": k, "name": name, "start": start, "end": end, "parent": parent}
                if extra:
                    doc.update(extra)
                fh.write(json.dumps(doc) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass, derived from its spans alone."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)  # span index -> time covered by its children
    facts = defaultdict(list)
    for name, start, end, parent, extra in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
        if extra:
            facts[name].append(extra)

    def self_s(layer):
        return sum(end - start - child[i]
                   for i, (name, start, end, _, _) in enumerate(spans) if name == layer)

    def fact_sum(layer, key):
        return sum(f[key] for f in facts[layer])

    trains = facts["rbf.train"]
    stages = fact_sum("rbf.train", "stages")
    other_s = total["rbf.train"] - total["rbf.solve_output_weights"]
    # computed, not measured: the n*n candidate kernel is built (exp pass
    # plus the outer-difference buffer) and then read once per stage
    cand_bytes = sum(8 * t["n"] ** 2 * (2 + t["stages"]) for t in trains)
    return {
        "rbf.solve_output_weights.s": total["rbf.solve_output_weights"],
        "rbf.solve_output_weights.calls": calls["rbf.solve_output_weights"],
        "rbf.train.calls": calls["rbf.train"],
        "rbf.train.stages": stages,
        "rbf.train.useful_frac": fact_sum("rbf.train", "useful") / stages if stages else 0.0,
        "rbf.train.weight_absmax": max((t["weight_absmax"] for t in trains), default=0.0),
        "rbf.train.other_s": other_s,
        "rbf.train.cand_bytes": cand_bytes,
        "rbf.train.cand_gbps": cand_bytes / other_s / 1e9 if other_s > 0 else 0.0,
        "rbf.forward.s": total["rbf.forward"],
        "rbf.forward.calls": calls["rbf.forward"],
        "bandfilter.select_band.calls": calls["bandfilter.select_band"],
        "bandfilter.decompose.calls": calls["bandfilter.decompose"],
        "bandfilter.decompose.s": total["bandfilter.decompose"],
        "signal.generate_trajectory.s": total["signal.generate_trajectory"],
        "signal.add_noise.s": total["signal.add_noise"],
        "signal.write_series.s": total["signal.write_series"],
        "signal.write_series.bytes": fact_sum("signal.write_series", "bytes"),
        "signal.read_series.s": total["signal.read_series"],
        "signal.read_series.bytes": fact_sum("signal.read_series", "bytes"),
        "pipeline.emit_plot_data.s": total["pipeline.emit_plot_data"],
        "pipeline.write_plot_data.s": total["pipeline.write_plot_data"],
        "pipeline.write_plot_data.bytes": fact_sum("pipeline.write_plot_data", "bytes"),
        "pipeline.write_report.s": total["pipeline.write_report"],
        "pipeline.run_method.self_s": self_s("pipeline.run_method"),
        "cli.main.self_s": self_s("cli.main"),
    }
