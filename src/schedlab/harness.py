"""Running scenarios end to end and summarizing what happened.

The harness turns a parsed Scenario into policy objects, runs the
requested number of simulations (member i uses seed master + 1000003 * i,
so ensembles are reproducible but decorrelated), and collects analysis,
safety, defense, and attack metrics into one JSON-friendly report.  What
depends on the policy, such as its defense metrics or the sections a
sweep may change, comes from its entry in scenario.POLICIES.
Reports are plain dicts of sorted-key-stable scalars and lists: dumping
them with sort_keys=True is byte-identical across runs of the same
scenario, which makes regression diffs trivial.
"""

from __future__ import annotations

from fractions import Fraction

from schedlab.analysis import AnalysisReport
from schedlab.engine import IDLE, SchedulingPolicy, simulate
from schedlab.phase_inference import Observation, infer_offsets, require_inferable
from schedlab.cache_probe import classify_footprint, probe_rounds
from schedlab.restart import optimize_period
from schedlab.scenario import POLICIES, Scenario, ScenarioError, with_key
from schedlab.shuffle import schedule_entropy
from schedlab.tasks import PERIODIC, TaskSet, hyperperiod, utilization

SEED_STRIDE = 1_000_003  # spreads ensemble members across seed space
# Most ticks (duration x runs) one command may simulate.  A scenario past it,
# such as co-prime periods with a hyperperiod near 10^9, is refused before
# the first tick rather than left to run for hours.  The count is complete:
# attack simulates its window once, and its offset search simulates nothing.
MAX_SIMULATED_TICKS = 10_000_000
# Most values one sweep may evaluate.  The command line counts a lo:hi:step
# range before it builds one, so a range of 10^9 values is refused at once.
MAX_SWEEP_VALUES = 10_000


def member_seed(master: int, index: int) -> int:
    return master + SEED_STRIDE * index


def build_policy(sc: Scenario, shared=None) -> SchedulingPolicy:
    """Fresh policy object for one run of the scenario, by its POLICIES entry.

    shared is what the entry's prepare hook made for the whole command; a
    shuffle policy given certified budgets this way does not certify its own.
    """
    return POLICIES[sc.policy].build(sc, shared)


def scenario_duration(sc: Scenario) -> int:
    if sc.duration is not None:
        return sc.duration
    if any(t.kind != PERIODIC for t in sc.taskset):
        raise ValueError(
            "sporadic tasks have no hyperperiod; give an explicit duration"
        )
    return sc.hyperperiods * hyperperiod(sc.taskset)


def _check_slot_budget(duration: int, runs: int) -> None:
    if duration * runs > MAX_SIMULATED_TICKS:
        raise ScenarioError(
            f"{duration} ticks x {runs} runs exceeds the limit of"
            f" {MAX_SIMULATED_TICKS} simulated ticks"
        )


def _fold_period(ts: TaskSet, duration: int):
    try:
        h = hyperperiod(ts)
    except (ValueError, OverflowError):
        return None
    return h if duration % h == 0 else None


def analyze_scenario(sc: Scenario) -> dict:
    """Static verdict for the scenario's task set, by its policy's own test."""
    return analysis_block(sc.taskset, build_policy(sc).analyze(sc.taskset))


def analysis_block(ts: TaskSet, rep: AnalysisReport) -> dict:
    """The report's analysis block: rep, a test's report on ts, plus U."""
    u = utilization(ts)
    return {
        "utilization": float(u),
        "utilization_exact": f"{Fraction(u)}",
        "method": rep.method,
        "verdict": rep.verdict,
        "responses": {
            str(tid): r for tid, r in sorted(rep.per_task_response.items())
        },
    }


def run_scenario(sc: Scenario, runs: int = 1) -> dict:
    """Simulate `runs` ensemble members and report safety plus metrics."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ts = sc.taskset
    duration = scenario_duration(sc)
    spec = POLICIES[sc.policy]
    _check_slot_budget(duration, 2 * runs if spec.baseline else runs)
    shared = spec.prepare(sc) if spec.prepare else None

    def ensemble(make_policy):
        return [simulate(ts, duration, policy=make_policy(),
                         seed=member_seed(sc.seed, i)) for i in range(runs)]

    traces = ensemble(lambda: build_policy(sc, shared))
    baselines = ensemble(lambda: spec.baseline(sc)) if spec.baseline else []
    run_rows = []
    total_misses = 0
    share_sums = {t.id: 0.0 for t in ts}
    for i, tr in enumerate(traces):
        misses = len(tr.misses)
        total_misses += misses
        ticks = tr.occupancy()
        row = {"seed": member_seed(sc.seed, i), "misses": misses,
               "preemptions": sum(1 for row in tr.event_rows if row[1] == "preempt"),
               "idle_share": ticks[IDLE] / duration}
        run_rows.append(row)
        for t in ts:
            share_sums[t.id] += ticks[t.id] / duration

    report = {
        "name": sc.name,
        "policy": sc.policy,
        "seed": sc.seed,
        "runs": runs,
        "duration": duration,
        "tasks": [
            {"id": t.id, "C": t.C, "T": t.T, "D": t.D, "phase": t.phase,
             "kind": t.kind, "priority": t.priority,
             "security_level": t.security_level,
             "mean_share": share_sums[t.id] / runs}
            for t in sorted(ts, key=lambda t: t.id)
        ],
        "analysis": analyze_scenario(sc),
        "simulation": {
            "total_misses": total_misses,
            "runs": run_rows,
        },
    }
    if spec.report:
        spec.report(sc, report, traces, baselines, shared)

    fold = _fold_period(ts, duration)
    folds = duration // fold if fold else 1
    if runs * folds >= 2:
        _, mean = schedule_entropy(traces, hyperperiod=fold)
        report["entropy"] = {
            "mean_bits": mean,
            "fold": fold if fold else duration,
            "samples_per_offset": runs * folds,
        }
    else:
        report["entropy"] = None

    if sc.restart is not None:
        r = sc.restart
        best = optimize_period([r.period], r.reboot, r.compromise_rate,
                               weight=r.weight,
                               detection_rate=r.detection_rate).best
        report["restart"] = {
            "period": best.period,
            "unavailability": best.report.unavailability,
            "compromised_fraction": best.report.compromised_fraction,
            "objective": best.objective,
            "weight": r.weight,
        }
    return report


def run_attack(sc: Scenario, window: int | None = None) -> dict:
    """Attack the scenario's (possibly defended) system and report success.

    Offset inference always runs; a [cache] section adds aligned
    prime/probe rounds against its victim task.
    """
    ts = sc.taskset
    require_inferable(ts)  # refused before the window is simulated
    duration = window if window is not None else scenario_duration(sc)
    _check_slot_budget(duration, 1)
    victim_trace = simulate(ts, duration, policy=build_policy(sc),
                            seed=sc.seed)
    obs = Observation.from_trace(victim_trace)
    result = infer_offsets(ts, obs)
    truth = tuple(t.phase for t in sorted(ts, key=lambda t: t.id))
    report = {
        "window": duration,
        "observed_busy_intervals": len(obs.busy),
        "offsets": {
            "status": result.status,
            "candidates": len(result.candidates),
            "truth_recovered": truth in result.candidates,
            "exact": result.status == "exact"
            and result.candidates == (truth,),
            "low_confidence": result.low_confidence,
        },
    }
    if sc.cache is not None:
        c = sc.cache
        counts = [c.profiles[i % len(c.profiles)]
                  for i in range(sum(1 for j in victim_trace.jobs
                                     if j.task_id == c.victim))]
        rounds = probe_rounds(victim_trace, c.victim, counts,
                              num_lines=c.lines, epsilon=c.epsilon,
                              seed=sc.seed)
        labels = [classify_footprint(r.observed, c.profiles, r.primed,
                                     c.epsilon) for r in rounds]
        correct = sum(a == b for a, b in zip(labels, counts))
        report["cache"] = {
            "victim": c.victim,
            "rounds": len(rounds),
            "epsilon": c.epsilon,
            "accuracy": correct / len(rounds) if rounds else None,
        }
    return report


def sweep(sc: Scenario, key: str, values) -> dict:
    """Re-evaluate one section key, `<section>.<key>`, over a range of values.

    Each value makes a new scenario, checked as its file would be, and its
    row is the analysis block of that scenario's policy's own test.  Only
    a section the policy reads can change the verdict, so a key of any
    other section is refused, except restart.period: no policy reads
    [restart], and its sweep finds the period with the best restart
    objective instead.  A value the policy refuses gets a row with verdict
    "refused" and the reason, and the sweep goes on.  More than
    MAX_SWEEP_VALUES values are refused before the first is evaluated.
    """
    values = list(values)
    if not values:
        raise ValueError("empty sweep range")
    if len(values) > MAX_SWEEP_VALUES:
        raise ValueError(f"{len(values)} sweep values exceed the limit of"
                         f" {MAX_SWEEP_VALUES}")
    section, _, name = key.partition(".")
    if key == "restart.period":
        if sc.restart is None:
            raise ValueError("scenario has no [restart] section to sweep")
        r = sc.restart
        result = optimize_period(values, r.reboot, r.compromise_rate,
                                 weight=r.weight,
                                 detection_rate=r.detection_rate)
        rows = [
            {"period": p.period, "objective": p.objective,
             "unavailability": p.report.unavailability,
             "compromised_fraction": p.report.compromised_fraction}
            for p in result.curve
        ]
        return {"key": key, "rows": rows,
                "best": {"period": result.best.period,
                         "objective": result.best.objective}}
    if section not in POLICIES[sc.policy].reads:
        raise ValueError(f"unsupported sweep key {key!r}: policy {sc.policy}"
                         f" has no [{section}] keys to sweep")
    rows = []
    for v in values:
        policy = build_policy(with_key(sc, key, v))
        try:
            rep = policy.analyze(sc.taskset)
        except ValueError as exc:  # the policy refuses this value
            rows.append({name: v, "verdict": "refused", "reason": str(exc)})
            continue
        rows.append({name: v, **analysis_block(sc.taskset, rep)})
    return {"key": key, "rows": rows}
