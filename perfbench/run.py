"""schedlab benchmark: four closed-loop workloads, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign|longrun|attack|cli \
        --seed N --seconds S --trace 0|1

The program under test is ``src/schedlab`` of the same checkout; nothing
is installed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The line before it carries details (failure causes by name, the
tail percentile and how many ops lie beyond it, the set-up samples).

Set-up time (``setup_s``) is the median over the measuring process and
SETUP_PROBES set-up-only processes on each side of it, each timed from
spawn to the moment its first op could start.  Probing before and after
the measured run spreads the samples over its whole span of host time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "longrun", "attack", "cli")
SETUP_PROBES = 4  # on each side of the measured run
TIMEOUT_S = 170


def spawn(args, timeout):
    """Run the worker; return (spawn time, parsed last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "schedlab", "__init__.py")):
        print(f"error: no schedlab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + TIMEOUT_S
    setups = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            t_spawn, probe = spawn(base + ["--probe"], deadline - time.monotonic())
            setups.append(probe["ready"] - t_spawn)

    if not args.trace:
        probe_setup()
    t_spawn, res = spawn(base, deadline - time.monotonic())
    metrics = res["metrics"]
    info = dict(res["info"])
    if not args.trace:
        setups.append(res["ready"] - t_spawn)
        probe_setup()
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_samples_s"] = setups
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
