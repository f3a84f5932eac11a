"""Record the benchmark's baseline: two sets of seeded runs and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 301 ... 310 \
        --second-seeds 311 ... 320 [--out perfbench/out/baseline.json]

Every workload of BENCHMARK.json runs untraced for its run_seconds, once
per seed of the first set, then once per seed of the second set, one run
after another; then once traced with the first seed of the first set.
For each set, workload and metric the record holds every run, the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) /
median.  The agreement table compares the two sets per metric against its
bound: ``within_bound`` needs the second median to be no worse than the
first by more than the bound and both spreads at or below the bound;
``steady`` needs both spreads below a third of the bound.  The record also
names the Python and numpy versions, the CPU model, the number of CPUs,
the git commit when there is one, and the held-out seed from
rationale.json.  The file is rewritten after every run, so an interrupted
session keeps what it measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy, "cpu": cpu,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["info"] = json.loads(lines[-2])["info"]
    res["seed"] = seed
    return res


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    causes = {}
    for r in runs:
        for c, k in r["info"].get("failure_causes", {}).items():
            causes[c] = causes.get(c, 0) + k
    return {"metrics": out, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "failure_causes": causes,
            "all_correct": all(r["correct"] for r in runs)}


def agreement(spec, first, second):
    table = {}
    for m in spec["end_to_end"]:
        a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (b["median"] - a["median"]) / a["median"]
        spreads = (a["spread"], b["spread"])
        table[m["name"]] = {
            "bound": m["bound"], "median_first": a["median"], "median_second": b["median"],
            "second_worse_by": worse, "spread_first": a["spread"],
            "spread_second": b["spread"],
            "within_bound": worse <= m["bound"] and max(spreads) <= m["bound"],
            "steady": max(spreads) < m["bound"] / 3,
        }
    return table


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--second-seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", default=os.path.join(HERE, "out", "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        held_out = json.load(fh)["held_out_seed"]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    record = {"about": __doc__.split("\n\n")[3].replace("\n", " "),
              "machine": machine(), "seconds": seconds, "held_out_seed": held_out,
              "commit": commit(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "first": {"seeds": args.seeds, "workloads": {}},
              "second": {"seeds": args.second_seeds, "workloads": {}},
              "agreement": {}, "traced": {}}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)

    def save():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    for part in ("first", "second"):
        for wl in names:
            runs = []
            for seed in record[part]["seeds"]:
                res = run(wl, seed, seconds, 0)
                runs.append(res)
                record[part]["workloads"][wl] = {"summary": summarize(runs), "runs": runs}
                save()
                print(f"{part} {wl} seed {seed}: ops {res['attempted']}"
                      f" failed {res['failed']}", flush=True)
    for wl in names:
        record["agreement"][wl] = agreement(
            spec, record["first"]["workloads"][wl]["summary"],
            record["second"]["workloads"][wl]["summary"])
        record["traced"][wl] = run(wl, args.seeds[0], seconds, 1)
        save()
    for wl, table in record["agreement"].items():
        print(f"== {wl}")
        for name, a in table.items():
            print(f"  {name:18s} medians {a['median_first']:.4f} {a['median_second']:.4f}"
                  f" worse {a['second_worse_by']:+.3f} spreads {a['spread_first']:.3f}"
                  f" {a['spread_second']:.3f} bound {a['bound']}"
                  f"{'' if a['within_bound'] else '  OUT OF BOUND'}"
                  f"{'  steady' if a['steady'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
