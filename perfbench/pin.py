"""Regenerate pins.json: the digests the longrun and attack checks expect.

Usage, from the root of a checkout:  python3 perfbench/pin.py

Run it only on a commit whose traces are known good.  A change that claims
to keep every trace byte-identical must pass against the existing pins and
must not regenerate them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    pins = {"longrun": {}, "attack": {}}
    lr = workloads.Longrun(0)
    for it in lr.items:
        for sim_seed in range(workloads.LONGRUN_SIM_SEEDS):
            key = f"{it['key']}/{sim_seed}"
            pins["longrun"][key] = lr.digest(lr.op(dict(it, sim_seed=sim_seed)))
    at = workloads.Attack(0)
    at.pins = {}  # so that the check's only complaint is the missing pin
    for base in at.items:
        for r in range(workloads.ATTACK_RELABELS):
            it = workloads.relabel(base, r)
            out = at.op(it)
            # Pin only outputs that pass the workload's own check.
            if at.check(it, out) != ["trace_digest"]:
                raise SystemExit(f"attack {it['key']}: {at.check(it, out)}")
            pins["attack"][it["key"]] = at.digest(out)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins['longrun'])} longrun and {len(pins['attack'])} attack digests")


if __name__ == "__main__":
    main()
