"""The four benchmark workloads: inputs, one op, and the op's correctness check.

Every workload is a closed loop with one client: ``stream`` yields op
inputs, the worker times ``op`` on each, then calls ``check`` outside the
timed region.  ``check`` returns the failure causes of the op (empty when it
passed).  Causes listed in ``KNOWN_DEFECTS`` are open soundness defects of
the program: an op whose causes all lie there is counted apart from the
failed ops and does not make the run incorrect.

All schedlab functions are called through their module (``engine.simulate``,
not a bare ``simulate``) so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import time
from dataclasses import replace

from schedlab import analysis, cache_probe, cli, engine, flush, harness
from schedlab import phase_inference, scenario, shuffle, tasks, monitor

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# Open soundness defects (ROADMAP item 1): the non-preemptive RTA looks at
# the first job only, and monitor-over-flush admission ignores scrub cost.
KNOWN_DEFECTS = frozenset({"nonpreemptive_miss", "monitor_miss"})


def load_pins(workload):
    """Pinned digests; none (so every op fails its check) without the file."""
    try:
        with open(PINS_PATH, encoding="utf-8") as fh:
            return json.load(fh)[workload]
    except FileNotFoundError:
        return {}


def trace_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


class SimClock:
    """Ticks simulated by the benchmark's own calls and the time they took."""

    def __init__(self):
        self.ticks = 0
        self.ns = 0

    def simulate(self, ts, duration, policy, seed):
        t0 = time.perf_counter_ns()
        trace = engine.simulate(ts, duration, policy=policy, seed=seed)
        self.ns += time.perf_counter_ns() - t0
        self.ticks += duration
        return trace


def _generate(n, u, pool, seed, tol):
    """A generated set, or None when the generator misses the target U."""
    try:
        return tasks.generate_taskset(n, u, pool, seed=seed, tol=tol)
    except ValueError:
        return None


class _Workload:
    """Shared state: the sim clock, check counters, and the op stream.

    The default stream cycles over ``items``, each cycle in a fresh seeded
    order (or in list order when ``shuffle_each_cycle`` is false).
    """

    shuffle_each_cycle = True

    def __init__(self, seed):
        self.seed = seed
        self.reset_counts()

    def reset_counts(self):
        self.clock = SimClock()
        self.counts = {}

    def cycles(self, rng):
        """Endless orders of ``items``, one list per cycle."""
        while True:
            order = list(self.items)
            if self.shuffle_each_cycle:
                rng.shuffle(order)
            yield order

    def stream(self):
        for order in self.cycles(random.Random(self.seed)):
            yield from order


# ----------------------------------------------------------------- campaign

CAMPAIGN_POOL = (10, 20, 25, 40, 50, 100, 200)  # every lcm divides 200
CAMPAIGN_SETS = 1080  # 30 passes over the 36 (n, U) strata


class Campaign(_Workload):
    """Generated sets through all five policies and their sound checks."""

    name = "campaign"
    tail_pct = 95
    shuffle_each_cycle = False

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.items = []
        while len(self.items) < CAMPAIGN_SETS:
            k = len(self.items)
            # Stratified: n cycles through 3..8 and U through six bins of
            # [0.4, 1.0), so every run sees the same mix of set shapes.
            n = 3 + k % 6
            u = round(0.4 + 0.1 * ((k // 6) % 6 + rng.random()), 4)
            ts = _generate(n, min(u, 1.0), CAMPAIGN_POOL, rng.getrandbits(32), 0.01)
            if ts is None:
                continue
            ts = tasks.TaskSet(tuple(
                replace(t, phase=rng.randrange(t.T),
                        security_level=rng.randrange(3)) for t in ts), ts.name)
            cost = rng.randint(1, 2)
            if rng.random() < 0.5:
                sec = flush.SecurityPolicy(mode="total_order", flush_cost=cost)
            else:
                ids = [t.id for t in ts]
                pairs = {tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, n))}
                sec = flush.SecurityPolicy(mode="pairwise", flush_cost=cost,
                                           pairs=frozenset(pairs))
            duration = max(t.phase for t in ts) + 2 * tasks.hyperperiod(ts)
            self.items.append({
                "k": k, "ts": ts, "sec": sec, "duration": duration,
                "scan": ts.by_priority()[-1].id,
                "alert": rng.randrange(duration),
                "mode": shuffle.MODES[(k // 36) % 3],
            })

    def op(self, it):
        ts, sec, dur, seed = it["ts"], it["sec"], it["duration"], it["k"]
        sim = self.clock.simulate
        ok = analysis.SCHEDULABLE
        traces = {}
        violations = 0
        if analysis.response_time_analysis(ts).verdict == ok:
            traces["vanilla"] = sim(ts, dur, engine.VanillaFP(), seed)
        if analysis.rta_with_flush(ts, sec).verdict == ok:
            traces["flush"] = sim(ts, dur, flush.FlushFP(sec), seed)
            violations = flush.count_violations(traces["flush"], ts, sec)
        if analysis.rta_nonpreemptive(ts).verdict == ok:
            traces["nonpreemptive"] = sim(ts, dur, engine.NonPreemptiveFP(), seed)
        try:
            budgets = shuffle.compute_budgets(ts)
        except ValueError:
            budgets = None  # not RTA-schedulable: shuffling refused
        if budgets is not None:
            traces["shuffle"] = sim(ts, dur, shuffle.ShuffleFP(
                mode=it["mode"], budgets=budgets), seed)
        policy = monitor.MonitorPolicy(it["scan"], base=flush.FlushFP(sec),
                                       alert_ticks=(it["alert"],))
        try:
            traces["monitor"] = sim(ts, dur, policy, seed)
        except ValueError:
            pass  # admission refused (attach raises before the first tick)
        return traces, violations

    def check(self, it, out):
        traces, violations = out
        c = self.counts
        c["sets"] = c.get("sets", 0) + 1
        causes = []
        for pol, tr in traces.items():
            c["admit." + pol] = c.get("admit." + pol, 0) + 1
            if tr.misses:
                causes.append(pol + "_miss")
            if engine.check_trace(tr, it["ts"]):
                causes.append(pol + "_check_trace")
        if violations:
            causes.append("flush_violation")
        return causes


# ------------------------------------------------------------------ longrun

LONGRUN_POOL = (10, 20, 25, 40, 50, 100, 200)
LONGRUN_DURATION = 10_000
# Cycle c of a run simulates every (set, config) pair with simulation seed
# (first + c) mod LONGRUN_SIM_SEEDS, first drawn from the run's seed; all
# 21 x LONGRUN_SIM_SEEDS traces are pinned, so no trace repeats in a run.
LONGRUN_SIM_SEEDS = 48
# (label, n, U, generator seed, sporadic): generator seeds chosen so that
# every configuration, monitor admission included, accepts the set.
LONGRUN_SETS = (
    ("n4", 4, 0.85, 5, False),
    ("n8", 8, 0.85, 9, False),
    ("sporadic", 5, 0.70, 0, True),
)
LONGRUN_CONFIGS = ("vanilla", "nonpreemptive", "flush", "shuffle_task_only",
                   "shuffle_with_idle", "shuffle_fine_grained", "monitor")


def longrun_sets():
    out = {}
    for label, n, u, gseed, sporadic in LONGRUN_SETS:
        ts = tasks.generate_taskset(n, u, LONGRUN_POOL, seed=gseed)
        taskl = []
        for t in ts:
            t = replace(t, security_level=t.id % 3)
            if sporadic:
                t = replace(t, kind=tasks.SPORADIC if t.id % 2 else tasks.PERIODIC,
                            bcet=max(1, t.C // 2))
            taskl.append(t)
        out[label] = tasks.TaskSet(tuple(taskl), label)
    return out


def longrun_scenario(ts, config):
    """The Scenario that makes harness.build_policy build this config."""
    policy = "shuffle" if config.startswith("shuffle_") else config
    mode = config[len("shuffle_"):] if policy == "shuffle" else None
    lowest = ts.by_priority()[-1].id
    return scenario.Scenario(
        name=f"{ts.name}-{config}", taskset=ts, policy=policy,
        duration=LONGRUN_DURATION,
        shuffle=scenario.ShuffleConfig(mode=mode) if mode else None,
        security=flush.SecurityPolicy(mode="total_order", flush_cost=1)
        if policy == "flush" else None,
        monitor=scenario.MonitorConfig(
            scan_task=lowest, alerts=(LONGRUN_DURATION // 4, LONGRUN_DURATION // 2))
        if policy == "monitor" else None,
    )


class Longrun(_Workload):
    """Fixed sets, one long fixed-duration run per policy configuration."""

    name = "longrun"
    tail_pct = 90

    def __init__(self, seed):
        super().__init__(seed)
        self.pins = load_pins("longrun")
        sets = longrun_sets()
        self.items = [{"key": f"{label}/{cfg}", "sc": longrun_scenario(sets[label], cfg)}
                      for label in sets for cfg in LONGRUN_CONFIGS]

    def stream(self):
        rng = random.Random(self.seed)
        first = rng.randrange(LONGRUN_SIM_SEEDS)
        for c, order in enumerate(self.cycles(rng)):
            sim_seed = (first + c) % LONGRUN_SIM_SEEDS
            for it in order:
                yield dict(it, key=f"{it['key']}/{sim_seed}", sim_seed=sim_seed)

    def op(self, it):
        sc = it["sc"]
        return self.clock.simulate(sc.taskset, sc.duration,
                                   harness.build_policy(sc), it["sim_seed"])

    @staticmethod
    def digest(trace):
        return trace_digest(trace.slots_csv(), trace.events_csv())

    def check(self, it, trace):
        if self.pins.get(it["key"]) != self.digest(trace):
            return ["trace_digest"]
        return []


# ------------------------------------------------------------------- attack

ATTACK_UNIVERSE_SEED = 1705
ATTACK_SETS = 480
# Cycle c of a run shifts every task id by ID_STRIDE x ((first + c) mod
# ATTACK_RELABELS), first drawn from the run's seed.  The schedules keep
# their shape, so every cycle costs the same, but no op input repeats
# within a run; all 480 x ATTACK_RELABELS outputs are pinned.
ATTACK_RELABELS = 24
ID_STRIDE = 10  # generated ids are 1..n with n <= 6
# Periods in 4..20 that divide 240, so a one-hyperperiod window stays short.
ATTACK_H_POOL = (4, 5, 6, 8, 10, 12, 15, 16, 20)
PROFILES = (8, 48)
EPSILON = 0.1


def attack_set(k):
    """Set k: phased, n 3..6, periods 4..20.

    The index fixes the stratum (n, window kind, U bin); the set is drawn
    from a generator seeded by the index alone.
    """
    rng = random.Random(ATTACK_UNIVERSE_SEED * 1_000_003 + k)
    n = 3 + k % 4
    by_hyperperiod = (k // 4) % 2 == 0
    pool = ATTACK_H_POOL if by_hyperperiod else range(4, 21)
    ts = None
    while ts is None:
        u = round(0.3 + 0.1 * ((k // 8) % 5 + rng.random()), 4)
        ts = _generate(n, u, pool, rng.getrandbits(32), 0.02)
    if by_hyperperiod:
        window = tasks.hyperperiod(ts)
    else:
        window = 2 * max(t.T for t in ts)
    ts = tasks.TaskSet(tuple(replace(t, phase=rng.randrange(t.T)) for t in ts),
                       ts.name)
    return {"k": k, "ts": ts, "window": window}


def relabel(it, r):
    """Set `it` with every task id shifted by ID_STRIDE * r; priorities kept."""
    ts = it["ts"]
    ts = tasks.TaskSet(tuple(replace(t, id=t.id + ID_STRIDE * r) for t in ts), ts.name)
    return dict(it, ts=ts, key=f"{it['k']}/{r}")


class Attack(_Workload):
    """Offset inference and prime+probe against observed victim schedules."""

    name = "attack"
    tail_pct = 95

    def __init__(self, seed):
        super().__init__(seed)
        self.pins = load_pins("attack")
        self.items = [attack_set(k) for k in range(ATTACK_SETS)]

    def stream(self):
        rng = random.Random(self.seed)
        first = rng.randrange(ATTACK_RELABELS)
        for c, order in enumerate(self.cycles(rng)):
            r = (first + c) % ATTACK_RELABELS
            for it in order:
                yield relabel(it, r)

    def op(self, it):
        ts = it["ts"]
        trace = self.clock.simulate(ts, it["window"], engine.VanillaFP(), 0)
        obs = phase_inference.Observation.from_trace(trace)
        result = phase_inference.infer_offsets(ts, obs)
        victim = ts.by_priority()[0].id
        jobs = sum(1 for j in trace.jobs if j.task_id == victim)
        touches = [PROFILES[j % 2] for j in range(jobs)]
        rounds = cache_probe.probe_rounds(trace, victim, touches, epsilon=EPSILON,
                                          seed=it["k"])
        labels = [cache_probe.classify_footprint(r.observed, PROFILES, r.primed,
                                                 EPSILON) for r in rounds]
        return trace, result, rounds, labels, touches

    @staticmethod
    def digest(out):
        trace, result, rounds, labels, _ = out
        return trace_digest(trace.slots_csv(), trace.events_csv(),
                            result.candidates, result.status,
                            [r.observed for r in rounds], labels)

    def check(self, it, out):
        trace, result, rounds, labels, touches = out
        c = self.counts
        c["rounds"] = c.get("rounds", 0) + len(rounds)
        c["correct_labels"] = c.get("correct_labels", 0) + sum(
            a == b for a, b in zip(labels, touches))
        causes = []
        truth = tuple(t.phase for t in sorted(it["ts"], key=lambda t: t.id))
        if truth not in result.candidates:
            causes.append("truth_dropped")
        if self.pins.get(it["key"]) != self.digest(out):
            causes.append("trace_digest")
        return causes


# ---------------------------------------------------------------------- cli

SCENARIO_DIR = os.path.join(HERE, "scenarios")
CLI_OPS = (
    ("analyze", "trio.scn"),
    ("analyze", "guarded.scn"),
    ("analyze", "blocking.scn"),
    ("simulate", "veiled.scn", "--runs", "4"),
    ("simulate", "guarded.scn", "--runs", "3"),
    ("simulate", "watch.scn", "--runs", "2"),
    ("simulate", "blocking.scn"),
    ("attack", "hidden.scn"),
    ("attack", "trio.scn", "--window", "36"),
    ("sweep", "guarded.scn", "--key", "security.flush_cost", "--values", "0:3"),
    ("sweep", "trio.scn", "--key", "restart.period", "--values", "5,10,20,40,80"),
    ("report", "veiled.scn", "--runs", "4"),
    ("report", "watch.scn", "--runs", "2"),
)


def cli_ticks(argv, stdout):
    """Ticks the command reports simulating: duration x runs, or the window.

    Read from the program's own output; analyze and sweep report none.
    """
    if argv[0] == "simulate":
        m = re.search(r" duration=(\d+) runs=(\d+)$", stdout, re.M)
        return int(m[1]) * int(m[2])
    if argv[0] == "report":
        report = json.loads(stdout)
        return report["duration"] * report["runs"]
    if argv[0] == "attack":
        return int(re.search(r"^observation window: (\d+) ticks", stdout, re.M)[1])
    return 0


class Cli(_Workload):
    """``schedlab.cli.main`` over fixed scenario files, in the measuring process.

    Start-up (interpreter, ``import schedlab``, ``import schedlab.cli``) is
    this workload's ``setup_s``; the ops are the commands' own work.
    """

    name = "cli"
    tail_pct = 95

    def __init__(self, seed):
        super().__init__(seed)
        self.items = [{"argv": argv} for argv in CLI_OPS]
        self.reports = {}

    def op(self, it):
        argv = list(it["argv"])
        argv[1] = os.path.join(SCENARIO_DIR, argv[1])
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self.clock.ns += time.perf_counter_ns() - t0
        return code, out.getvalue(), err.getvalue()

    def check(self, it, out):
        code, stdout, stderr = out
        causes = []
        if code not in (0, 1):
            causes.append(f"exit_{code}")
        if not causes:
            try:
                self.clock.ticks += cli_ticks(it["argv"], stdout)
            except (TypeError, ValueError, KeyError):
                causes.append("unreadable_output")
        if it["argv"][0] == "report":
            first = self.reports.setdefault(tuple(it["argv"]), stdout)
            if first != stdout:
                causes.append("report_not_byte_identical")
        return causes


WORKLOADS = {w.name: w for w in (Campaign, Longrun, Attack, Cli)}
