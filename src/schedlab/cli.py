"""Command line front end for scenario files.

Subcommands:
    analyze   verdict of the policy's own schedulability test (exit 1 when not proven)
    simulate  run the scenario, report misses and defense metrics
              (exit 1 on any deadline miss or isolation violation)
    attack    run offset inference (and cache probing when configured)
    sweep     re-evaluate one scenario key over a range of values
    report    full JSON report, byte-stable across reruns

Exit codes: 0 success, 1 the scenario ran but failed its safety or
schedulability check, 2 bad usage, an invalid scenario file, or work past
a limit (harness.MAX_SIMULATED_TICKS, harness.MAX_SWEEP_VALUES).
"""

from __future__ import annotations

import argparse
import json
import sys

from schedlab.analysis import SCHEDULABLE
from schedlab.harness import (
    MAX_SWEEP_VALUES,
    analysis_block,
    build_policy,
    run_attack,
    run_scenario,
    sweep,
)
from schedlab.scenario import ScenarioError, parse_scenario_file


def _parse_values(text: str) -> list:
    """Sweep range: 'lo:hi[:step]' (inclusive ints) or 'a,b,c' (numbers).

    A range is counted before it is built, and refused past MAX_SWEEP_VALUES.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty sweep range")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}; expected lo:hi[:step]")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad range {text!r}; bounds must be integers")
        step = nums[2] if len(nums) == 3 else 1
        if step <= 0:
            raise ValueError("range step must be positive")
        lo, hi = nums[0], nums[1]
        count = max(0, (hi - lo) // step + 1)
        if count > MAX_SWEEP_VALUES:
            raise ValueError(f"range {text!r} has {count} values, more than the"
                             f" limit of {MAX_SWEEP_VALUES}")
        return list(range(lo, hi + 1, step))
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            try:
                out.append(float(piece))
            except ValueError:
                raise ValueError(f"bad sweep value {piece!r}")
    return out


def _cmd_analyze(args) -> int:
    sc = parse_scenario_file(args.scenario)
    rep = build_policy(sc).analyze(sc.taskset)
    block = analysis_block(sc.taskset, rep)
    print(f"scenario {sc.name}: policy={sc.policy}")
    print(f"utilization: {block['utilization']:.4f}"
          f" ({block['utilization_exact']})")
    print(f"method: {block['method']}")
    print(f"verdict: {block['verdict']}")
    # Each deadline is the one the test checked, which for a monitor's
    # failing fine placement is the scan's escalated one.
    for tid, r in sorted(rep.per_task_response.items()):
        print(f"  task {tid}: response={r} deadline={rep.deadlines[tid]}")
    return 0 if block["verdict"] == SCHEDULABLE else 1


def _cmd_simulate(args) -> int:
    sc = parse_scenario_file(args.scenario)
    report = run_scenario(sc, runs=args.runs)
    sim = report["simulation"]
    print(f"scenario {sc.name}: policy={sc.policy}"
          f" duration={report['duration']} runs={report['runs']}")
    print(f"analysis verdict: {report['analysis']['verdict']}")
    print(f"deadline misses: {sim['total_misses']}")
    failed = sim["total_misses"] > 0
    if "total_violations" in sim:
        print(f"isolation violations: {sim['total_violations']}"
              f" (unprotected baseline: {sim['unprotected_violations']})")
        failed = failed or sim["total_violations"] > 0
    if report["entropy"] is not None:
        print(f"schedule entropy: {report['entropy']['mean_bits']:.4f} bits"
              f" ({report['entropy']['samples_per_offset']} samples/offset)")
    if "monitor" in report:
        print(f"mode switches per run: {report['monitor']['mode_switches']}")
    if "restart" in report:
        r = report["restart"]
        print(f"restart: unavailability={r['unavailability']:.6f}"
              f" compromised={r['compromised_fraction']:.6f}")
    return 1 if failed else 0


def _cmd_attack(args) -> int:
    sc = parse_scenario_file(args.scenario)
    report = run_attack(sc, window=args.window)
    off = report["offsets"]
    print(f"observation window: {report['window']} ticks"
          f" ({report['observed_busy_intervals']} busy intervals)")
    qualifier = " (low confidence)" if off["low_confidence"] else ""
    print(f"offset inference: status={off['status']}"
          f" candidates={off['candidates']}"
          f" truth_recovered={off['truth_recovered']}{qualifier}")
    if "cache" in report:
        c = report["cache"]
        acc = "n/a" if c["accuracy"] is None else f"{c['accuracy']:.3f}"
        print(f"cache probe: victim={c['victim']} rounds={c['rounds']}"
              f" epsilon={c['epsilon']} accuracy={acc}")
    return 0


def _cmd_sweep(args) -> int:
    sc = parse_scenario_file(args.scenario)
    values = _parse_values(args.values)
    result = sweep(sc, args.key, values)
    if "best" not in result:
        name = args.key.partition(".")[2]
        for row in result["rows"]:
            print(f"{name}={row[name]} verdict={row['verdict']}")
        return 0
    for row in result["rows"]:
        print(f"period={row['period']} objective={row['objective']:.6f}"
              f" unavailability={row['unavailability']:.6f}")
    best = result["best"]
    print(f"best: period={best['period']} objective={best['objective']:.6f}")
    return 0


def _cmd_report(args) -> int:
    sc = parse_scenario_file(args.scenario)
    report = run_scenario(sc, runs=args.runs)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedlab",
        description="Fixed-priority scheduling laboratory: analysis, "
                    "simulation, timing attacks, and defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verdict of the policy's own schedulability test")
    p.add_argument("scenario", help="scenario file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run the scenario and check safety")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--runs", type=int, default=1,
                   help="ensemble size (default 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("attack", help="infer task offsets from busy intervals")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--window", type=int, default=None,
                   help="observation window in ticks (default: full duration)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="re-evaluate one knob over a range")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--key", required=True,
                   help="<section>.<key>: a numeric key of a section the"
                        " policy reads, or restart.period")
    p.add_argument("--values", required=True,
                   help="'lo:hi[:step]' inclusive, or 'a,b,c'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="full JSON report (deterministic)")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--runs", type=int, default=1,
                   help="ensemble size (default 1)")
    p.add_argument("--out", default="-",
                   help="output path, '-' for stdout (default)")
    p.set_defaults(func=_cmd_report)
    return parser


# Built once, at import: parse_args keeps no state between calls, so a
# process that calls main many times pays for the parser once, as a
# one-shot `schedlab` process does.
PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
