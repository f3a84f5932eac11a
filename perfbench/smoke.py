"""Tiny-size smoke check: every named metric is emitted, with its unit.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Runs each workload for one second, untraced and traced, and checks the
last output line against BENCHMARK.json: exactly the keys correct,
attempted, failed and metrics; every end-to-end metric (untraced) or
per-layer metric (traced) present with the declared unit and a finite
number; no run marked incorrect.  Also checks that rationale.json explains
every per-layer metric.  Exits 1 if anything differs.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"top-level keys {sorted(out)}")
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1):
        problems.append(f"attempted = {out['attempted']!r}")
    if out["correct"] is not True:
        problems.append("run reported incorrect output")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = out["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))},"
                        f" extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        rationale = json.load(fh)
    failed = False
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(rationale["per_layer"]):
        print(f"rationale.json per_layer differs from BENCHMARK.json: "
              f"{sorted(declared ^ set(rationale['per_layer']))}")
        failed = True
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, wl["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{wl['name']:10s} trace={trace}: {status}")
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
