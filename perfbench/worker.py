"""One benchmark process: set up a workload, run its closed loop, report.

Started by ``run.py`` with the repository's ``src`` on the path.  With
``--probe`` it only sets up (interpreter start, ``import schedlab``, input
generation) and reports when it was ready; ``run.py`` takes the set-up
time as the gap between spawning a process and that moment.

Without tracing the loop reports the end-to-end metrics.  With tracing it
runs the loop untraced for a third of ``--seconds``, then exactly the same
ops with spans installed, then the same ops untraced again, and reports the
per-layer metrics of the traced pass, plus ``trace.overhead_ratio`` =
traced op time / mean op time of the two untraced passes around it, so
that warm-up and drift during the run cancel out of the ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from tracer import Tracer, layer_totals, self_times  # noqa: E402

ENGINE_POLICIES = ("vanilla", "nonpreemptive", "flush", "shuffle_task_only",
                   "shuffle_with_idle", "shuffle_fine_grained", "monitor")
HARNESS_ENTRIES = ("analyze_scenario", "run_scenario", "run_attack", "sweep")
CAMPAIGN_POLICIES = ("vanilla", "flush", "nonpreemptive", "shuffle", "monitor")


def import_schedlab(tracer):
    """Import the package from this checkout only; time the import."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    span = tracer.begin("setup.import") if tracer else None
    t0 = time.perf_counter()
    import schedlab
    elapsed = time.perf_counter() - t0
    if span:
        tracer.end(span)
    where = os.path.realpath(schedlab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"schedlab imported from {where}, not from {src}")
    return elapsed


def run_loop(wl, seconds, known_defects, tracer=None, limit=None):
    """Closed loop: next op starts when the previous one (and its check) ends.

    Stops after `limit` ops, or once `seconds` of wall time have passed.
    An op whose causes all lie in `known_defects` hit an open defect of the
    program and counts under `known`; any other cause makes the op failed
    and the run incorrect.
    """
    wl.reset_counts()
    latencies = []
    causes = {}
    failed = known = 0
    start = time.perf_counter()
    for k, item in enumerate(wl.stream()):
        if limit is not None and k >= limit:
            break
        if limit is None and k and time.perf_counter() - start >= seconds:
            break
        span = None
        if tracer:
            tracer.op = k
            span = tracer.begin("op")
        t0 = time.perf_counter_ns()
        try:
            out = wl.op(item)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            err = exc
        latencies.append(time.perf_counter_ns() - t0)
        if span:
            tracer.end(span)
        if err is None:
            got = wl.check(item, out)
        else:
            got = ["error_" + type(err).__name__]
            if failed == 0:
                traceback.print_exception(err, file=sys.stderr)
        if got:
            for c in sorted(set(got)):
                causes[c] = causes.get(c, 0) + 1
            if all(c in known_defects for c in got):
                known += 1
            else:
                failed += 1
    return {"latencies": latencies, "failed": failed, "known": known,
            "causes": causes, "wall_s": time.perf_counter() - start,
            "clock": wl.clock, "counts": wl.counts}


def end_to_end(wl, res):
    clock = res["clock"]
    lat = sorted(res["latencies"])
    n = len(lat)
    rank = math.ceil(wl.tail_pct / 100 * n)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (lat[rank - 1] / 1e6, "ms"),
        "sim_kticks_per_s": (clock.ticks / (clock.ns / 1e9) / 1e3, "kticks/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "pass_ratio": ((n - res["failed"] - res["known"]) / n, "ratio"),
    }
    info = {"ops": n, "tail_pct": wl.tail_pct, "ops_beyond_tail": n - rank,
            "sim_ticks": clock.ticks, "failure_causes": res["causes"],
            "known_defect_ops": res["known"], "wall_s": res["wall_s"]}
    return metrics, info


def per_layer(counts, tracer, import_s, overhead):
    """Per-layer metrics: ``tasks.generate`` from set-up, the rest from the traced pass."""
    spans = tracer.to_json()
    own = self_times(spans)
    setup = layer_totals([s for s in spans if s["op"] < 0])
    timed_spans = [s for s in spans if s["op"] >= 0]
    timed = layer_totals(timed_spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def get(name, src=timed):
        return src.get(name, empty)

    def per_call(name, scale, src=timed):
        agg = get(name, src)
        return agg["total_ns"] / agg["calls"] / scale if agg["calls"] else 0.0

    m = {}
    b = get("shuffle.budgets")
    m["shuffle.budgets.calls"] = (b["calls"], "count")
    m["shuffle.budgets.ms_per_call"] = (per_call("shuffle.budgets", 1e6), "ms")
    m["shuffle.budgets.self_s"] = (b["self_ns"] / 1e9, "s")
    m["shuffle.budget_ticks"] = (b.get("budget_ticks", 0), "count")
    e = get("engine.simulate")
    m["engine.ticks"] = (e.get("ticks", 0), "count")
    m["engine.events"] = (e.get("events", 0), "count")
    m["engine.self_s"] = (e["self_ns"] / 1e9, "s")
    by_policy = {}
    for s in timed_spans:
        if s["name"] == "engine.simulate" and "ticks" in s["args"]:
            pol = s["args"]["policy"]
            pol = "monitor" if pol.startswith("monitor") else pol.replace("-", "_")
            acc = by_policy.setdefault(pol, [0, 0])
            acc[0] += own[s["id"]]
            acc[1] += s["args"]["ticks"]
    for pol in ENGINE_POLICIES:
        ns, ticks = by_policy.get(pol, (0, 0))
        m[f"engine.{pol}.ns_per_tick"] = (ns / ticks if ticks else 0.0, "ns")
    m["flush.violations.us_per_call"] = (per_call("flush.violations", 1e3), "us")
    for name in ("rta", "rta_flush", "rta_np"):
        m[f"analysis.{name}.us_per_call"] = (per_call(f"analysis.{name}", 1e3), "us")
    m["analysis.self_s"] = (sum(get(f"analysis.{x}")["self_ns"]
                                for x in ("rta", "rta_flush", "rta_np")) / 1e9, "s")
    sets = counts.get("sets", 0)
    for pol in CAMPAIGN_POLICIES:
        adm = counts.get("admit." + pol, 0)
        m[f"policy.admit_ratio.{pol}"] = (adm / sets if sets else 0.0, "ratio")
    inf = get("phase_inference.infer")
    nodes = inf.get("nodes", 0)
    m["phase_inference.infer.calls"] = (inf["calls"], "count")
    m["phase_inference.infer.ms_per_call"] = (per_call("phase_inference.infer", 1e6), "ms")
    m["phase_inference.nodes"] = (nodes, "count")
    m["phase_inference.us_per_node"] = (inf["self_ns"] / nodes / 1e3 if nodes else 0.0, "us")
    m["phase_inference.exact_ratio"] = (
        inf.get("exact", 0) / inf["calls"] if inf["calls"] else 0.0, "ratio")
    rounds = get("cache_probe.probe").get("rounds", 0)
    probe_ns = get("cache_probe.probe")["total_ns"] + get("cache_probe.classify")["total_ns"]
    m["cache_probe.rounds"] = (rounds, "count")
    m["cache_probe.us_per_round"] = (probe_ns / rounds / 1e3 if rounds else 0.0, "us")
    labelled = counts.get("rounds", 0)
    m["cache_probe.accuracy"] = (
        counts.get("correct_labels", 0) / labelled if labelled else 0.0, "ratio")
    g = get("tasks.generate", setup)
    m["tasks.generate.calls"] = (g["calls"], "count")
    m["tasks.generate.ms_per_call"] = (per_call("tasks.generate", 1e6, setup), "ms")
    m["tasks.generate.rejects"] = (sum(1 for s in spans if s["op"] < 0
                                       and s["name"] == "tasks.generate"
                                       and "error" in s["args"]), "count")
    m["setup.import_s"] = (import_s, "s")
    m["scenario.parse.us_per_call"] = (per_call("scenario.parse", 1e3), "us")
    for entry in HARNESS_ENTRIES:
        m[f"harness.{entry}.ms_per_call"] = (per_call(f"harness.{entry}", 1e6), "ms")
    c = get("cli.main")
    m["cli.self_ms"] = (c["self_ns"] / c["calls"] / 1e6 if c["calls"] else 0.0, "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    import_s = import_schedlab(tracer)
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    if tracer:
        tracer.install()
    wl = cls(args.seed)
    if tracer:
        tracer.uninstall()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    known = workloads.KNOWN_DEFECTS
    if tracer:
        before = run_loop(wl, args.seconds / 3, known)
        n = len(before["latencies"])
        tracer.install()
        res = run_loop(wl, args.seconds, known, tracer, limit=n)
        tracer.uninstall()
        after = run_loop(wl, args.seconds, known, limit=n)
        passes = (before, res, after)
        untraced_ns = (sum(before["latencies"]) + sum(after["latencies"])) / 2
        overhead = sum(res["latencies"]) / untraced_ns
        metrics = per_layer(res["counts"], tracer, import_s, overhead)
        out_path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        tracer.write_chrome(out_path, os.getpid())
        info = {"ops": n, "chrome_trace": os.path.relpath(out_path, ROOT),
                "spans": len(tracer.spans), "failure_causes": res["causes"],
                "known_defect_ops": res["known"]}
    else:
        res = run_loop(wl, args.seconds, known)
        passes = (res,)
        metrics, info = end_to_end(wl, res)
    n = len(res["latencies"])
    print(json.dumps({
        "ready": ready,
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": n,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
