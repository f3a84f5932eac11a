"""In-memory spans around calls into schedlab's public functions.

The tracer replaces each traced function, in every loaded ``schedlab``
module that holds it by name, with a wrapper that records one span: name, start, end, parent span and the id of
the op it belongs to, plus counts taken at the same boundary (ticks,
events, search nodes, rounds, ...).  Nothing inside ``src/`` changes; a
policy's ``pick`` is not wrapped, because a span per tick would cost more
than the tick, so the engine's self time includes the policies' picks.

Spans stay in memory until the run ends, when ``layer_totals`` reduces
them and ``write_chrome`` writes Chrome trace-event JSON for Perfetto.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span name -> (module, function) for every traced layer entry point
TARGETS = (
    ("tasks.generate", "schedlab.tasks", "generate_taskset"),
    ("analysis.rta", "schedlab.analysis", "response_time_analysis"),
    ("analysis.rta_flush", "schedlab.analysis", "rta_with_flush"),
    ("analysis.rta_np", "schedlab.analysis", "rta_nonpreemptive"),
    ("shuffle.budgets", "schedlab.shuffle", "compute_budgets"),
    ("engine.simulate", "schedlab.engine", "simulate"),
    ("flush.violations", "schedlab.flush", "count_violations"),
    ("phase_inference.observe", "schedlab.phase_inference", "observe"),
    ("phase_inference.infer", "schedlab.phase_inference", "infer_offsets"),
    ("cache_probe.probe", "schedlab.cache_probe", "probe_rounds"),
    ("cache_probe.classify", "schedlab.cache_probe", "classify_footprint"),
    ("scenario.parse", "schedlab.scenario", "parse_scenario"),
    ("harness.analyze_scenario", "schedlab.harness", "analyze_scenario"),
    ("harness.run_scenario", "schedlab.harness", "run_scenario"),
    ("harness.run_attack", "schedlab.harness", "run_attack"),
    ("harness.sweep", "schedlab.harness", "sweep"),
    ("cli.main", "schedlab.cli", "main"),
)


def _counts(name, result):
    """Work counts recorded at the span's own boundary."""
    if name == "engine.simulate":
        return {"ticks": result.duration, "events": len(result.events),
                "policy": result.policy}
    if name == "phase_inference.infer":
        return {"nodes": result.explored, "exact": result.status == "exact"}
    if name == "shuffle.budgets":
        return {"budget_ticks": sum(result.per_task.values())}
    if name == "cache_probe.probe":
        return {"rounds": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, parent, op, name, start, end, args
        self.op = -1     # -1 marks set-up work
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- span recording ---------------------------------------------------
    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def begin(self, name, **args):
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": self._new_id(), "parent": parent, "op": self.op,
                "name": name, "start": time.perf_counter_ns(), "end": None,
                "args": args}
        self._stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span, **args):
        span["end"] = time.perf_counter_ns()
        span["args"].update(args)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, error=type(exc).__name__)
                raise
            self.end(span, **_counts(name, result))
            return result
        return traced

    # -- installing the wrappers ---------------------------------------------
    def install(self):
        """Wrap every target wherever a loaded module holds it by name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "schedlab" or k.startswith("schedlab.")]
        for name, modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    # -- output ------------------------------------------------------------
    def to_json(self):
        return [dict(s) for s in self.spans if s["end"] is not None]

    def write_chrome(self, path, pid):
        """Chrome trace-event JSON: one complete ("X") event per span."""
        events = []
        for s in self.spans:
            if s["end"] is None:
                continue
            events.append({
                "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                "ts": s["start"] / 1000.0, "dur": (s["end"] - s["start"]) / 1000.0,
                "pid": pid, "tid": 0,
                "args": {"op": s["op"], "id": s["id"], "parent": s["parent"],
                         **s["args"]},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover (ns)."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - child_ns.get(s["id"], 0)
            for s in spans}


def layer_totals(spans):
    """Per span name: calls, total ns, self ns, and summed counts."""
    own = self_times(spans)
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += s["end"] - s["start"]
        agg["self_ns"] += own[s["id"]]
        for k, v in s["args"].items():
            if isinstance(v, (bool, int)):
                agg[k] = agg.get(k, 0) + int(v)
    return out
