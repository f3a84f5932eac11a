"""Soundness matrix: each policy's own schedulability test against its simulator.

For every dispatch policy, a "schedulable" verdict from policy.analyze(ts)
must mean that the same policy runs the set without a deadline miss over
max phase + 2 lcm of the periods.  The sets are seeded random draws of 2-5
tasks up to U = 1, with random phases and security levels.  The same draws
are then varied over the rest of the task model: execution times below C
(bcet), deadlines shorter than periods, sporadic arrivals (T is the
minimum gap), and all three together.

The same draws also check the engine's dispatch itself, slot for slot,
against a tick-by-tick reference that shares no code with it, and the
run-length rows each trace records against the per-tick views and the
readers that use the rows instead of those views, and the event rows
against the `Event` view that their readers never build.
"""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from schedlab import harness
from schedlab.analysis import SCHEDULABLE
from schedlab.engine import (
    Event,
    NonPreemptiveFP,
    VanillaFP,
    check_trace,
    extract_busy_intervals,
    simulate,
)
from schedlab.flush import FlushFP, SecurityPolicy, count_violations
from schedlab.monitor import MonitorPolicy, activity_features
from schedlab.scenario import MonitorConfig, Scenario, ShuffleConfig
from schedlab.shuffle import MODES, ShuffleFP, schedule_entropy
from schedlab.tasks import SPORADIC, TaskSet, generate_taskset

from reference import (
    ref_busy_intervals,
    ref_count_violations,
    ref_dispatch,
    ref_entropy,
    ref_misses,
)

POOL = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40)  # every hyperperiod divides 120
SETS = 600
VARIANT_SETS = 300
VARIANTS = ("bcet", "constrained", "sporadic", "all")


def _vary(task, variant, rng):
    """task with the variant's part of the task model drawn at random."""
    if variant in ("bcet", "all"):
        task = replace(task, bcet=rng.randint(1, task.C))
    if variant in ("constrained", "all"):
        task = replace(task, D=rng.randint(task.C, task.T))
    if variant in ("sporadic", "all"):
        task = replace(task, kind=SPORADIC)
    return task


def _draw(k, variant=None):
    """Set k with its security policy, or None when the generator misses U."""
    rng = random.Random(k)
    n = rng.randint(2, 5)
    try:
        ts = generate_taskset(n, rng.uniform(0.3, 1.0), POOL, seed=k, tol=0.02)
    except ValueError:
        return None
    ts = TaskSet(tuple(
        _vary(replace(t, phase=rng.randrange(t.T),
                      security_level=rng.randrange(3)), variant, rng)
        for t in ts))
    if rng.random() < 0.5:
        sec = SecurityPolicy(mode="total_order", flush_cost=rng.randint(1, 2))
    else:
        ids = [t.id for t in ts]
        pairs = {tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, n))}
        sec = SecurityPolicy(mode="pairwise", flush_cost=rng.randint(1, 2),
                             pairs=frozenset(pairs))
    return ts, sec


def _cases(count, variant=None):
    return [(k, case) for k in range(count)
            if (case := _draw(k, variant)) is not None]


CASES = _cases(SETS)

POLICIES = {
    "vanilla": lambda k, ts, sec: VanillaFP(),
    "nonpreemptive": lambda k, ts, sec: NonPreemptiveFP(),
    "flush": lambda k, ts, sec: FlushFP(sec),
    "shuffle": lambda k, ts, sec: ShuffleFP(mode=MODES[k % len(MODES)]),
    "monitor": lambda k, ts, sec: MonitorPolicy(
        ts.by_priority()[-1].id, base=FlushFP(sec) if k % 2 else VanillaFP(),
        alert_ticks=(k % 40,)),
}


def _admitted_without_miss(name, cases):
    """How many sets the policy admits; each of them must run miss-free."""
    admitted = 0
    for k, (ts, sec) in cases:
        policy = POLICIES[name](k, ts, sec)
        if policy.analyze(ts).verdict != SCHEDULABLE:
            continue
        # hyperperiod() refuses sporadic sets; their lcm bounds the run the same way.
        duration = max(t.phase for t in ts) + 2 * math.lcm(*(t.T for t in ts))
        trace = simulate(ts, duration, policy=policy, seed=k)
        admitted += 1
        assert not trace.misses, (name, k, ts)
    return admitted


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_schedulable_verdict_holds_in_simulation(name):
    admitted = _admitted_without_miss(name, CASES)
    assert admitted >= 40, (name, admitted)  # the claim was really exercised


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_schedulable_verdict_holds_over_the_task_model(name, variant):
    admitted = _admitted_without_miss(name, _cases(VARIANT_SETS, variant))
    assert admitted >= 20, (name, variant, admitted)


DISPATCH = {
    "vanilla": lambda ts, sec: (VanillaFP(), {}),
    "nonpreemptive": lambda ts, sec: (NonPreemptiveFP(), {"preemptive": False}),
    "flush": lambda ts, sec: (FlushFP(sec), {"forbidden": sec.forbidden(ts),
                                              "flush_cost": sec.flush_cost}),
}


@pytest.mark.parametrize("variant", (None, *VARIANTS))
@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_dispatch_matches_the_reference(name, variant):
    # The reference gets the engine's released jobs as plain tuples, so
    # bcet draws and sporadic gaps need no shared randomness.  Its schedule
    # and each job's deadline, release + D, name the jobs that miss.
    checked = 0
    for k, (ts, sec) in _cases(200, variant):
        policy, kw = DISPATCH[name](ts, sec)
        duration = max(t.phase for t in ts) + 2 * math.lcm(*(t.T for t in ts))
        trace = simulate(ts, duration, policy=policy, seed=k)
        assert [j.job_id for j in trace.jobs] == list(range(len(trace.jobs)))
        jobs = [(j.release, j.exec_demand, j.priority, j.task_id)
                for j in trace.jobs]
        slots, job_ids = ref_dispatch(jobs, duration, **kw)
        assert (slots, job_ids) == (trace.slots, trace.slot_jobs), (name, variant, k)
        relative = {t.id: t.D for t in ts}
        deadlines = [j.release + relative[j.task_id] for j in trace.jobs]
        assert ref_misses(jobs, deadlines, job_ids) == [
            (tick, task_id, job_id) for tick, _, task_id, job_id in trace.misses
        ], (name, variant, k)
        checked += 1
    assert checked >= 150


# The scenario whose run_scenario makes the traces POLICIES[name] makes.
SCENARIOS = {
    "flush": lambda k, ts, sec: {"security": sec},
    "shuffle": lambda k, ts, sec: {"shuffle": ShuffleConfig(mode=MODES[k % len(MODES)])},
    "monitor": lambda k, ts, sec: {
        "security": sec if k % 2 else None,
        "monitor": MonitorConfig(ts.by_priority()[-1].id, alerts=(k % 40,))},
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_runs_tile_the_trace_and_feed_its_readers(name, monkeypatch):
    ran = []

    def recording(*args, **kwargs):
        ran.append(simulate(*args, **kwargs))
        return ran[-1]

    monkeypatch.setattr(harness, "simulate", recording)
    checked = 0
    for k, (ts, sec) in CASES[:200]:
        duration = max(t.phase for t in ts) + 2 * math.lcm(*(t.T for t in ts))
        try:
            trace = simulate(ts, duration, policy=POLICIES[name](k, ts, sec), seed=k)
        except ValueError:
            continue  # monitor admission refused the set
        rows = list(trace.runs)
        assert len(rows) == len(trace.runs), (name, k)
        tick = 0
        for start, length, _, _ in rows:
            assert start == tick and length >= 1, (name, k)
            tick += length
        assert tick == duration, (name, k)
        for before, row in zip(rows, rows[1:]):
            assert before[2:] != row[2:], (name, k)  # each row starts a new stretch
        other = simulate(ts, duration, policy=POLICIES[name](k, ts, sec), seed=k + 1)
        # Pooled over the whole run, and over short folds that rows lap.
        folds = (duration, math.gcd(duration, min(t.T for t in ts)))
        entropy = [schedule_entropy([trace, other], hyperperiod=f)[0] for f in folds]
        busy = extract_busy_intervals(trace)
        # Partial scrubs (a cost above the one run) leave residue to count.
        counts = [count_violations(trace, ts, replace(sec, flush_cost=f))
                  for f in (1, 2, 3)]
        occupancy = trace.occupancy()
        window = min(t.T for t in ts)
        features = activity_features(trace, ts, window).tolist()
        for t in (trace, other):
            assert "slots" not in vars(t) and "slot_jobs" not in vars(t), (name, k)
        slots = [occ for _, length, occ, _ in trace.runs for _ in range(length)]
        jobs = [jid for _, length, _, jid in trace.runs for _ in range(length)]
        assert (slots, jobs) == (trace.slots, trace.slot_jobs), (name, k)
        assert busy == ref_busy_intervals(trace.slots), (name, k)
        assert occupancy == Counter(trace.slots), (name, k)
        ids = sorted(t.id for t in ts)
        assert features == [[trace.slots[w * window:(w + 1) * window].count(i) / window
                              for i in ids] for w in range(duration // window)], (name, k)
        assert entropy == [ref_entropy([trace.slots, other.slots], f) for f in folds], (name, k)
        forbidden = sec.forbidden(ts)
        assert counts == [ref_count_violations(trace.slots, forbidden, f)
                          for f in (1, 2, 3)], (name, k)
        misses, csv, problems = trace.misses, trace.events_csv(), check_trace(trace, ts)
        ran.clear()
        if name in SCENARIOS and checked < 40:
            harness.run_scenario(Scenario(f"set{k}", ts, seed=k, policy=name, duration=duration,
                                          **SCENARIOS[name](k, ts, sec)))
            assert ran[0].event_rows == trace.event_rows, (name, k)
        for t in (trace, *ran):
            assert "events" not in vars(t), (name, k)
        assert trace.events == [Event(*row) for row in trace.event_rows], (name, k)
        assert misses == [e for e in trace.events if e.kind == "deadline_miss"], (name, k)
        assert csv.splitlines()[1:] == [",".join(map(str, e)) for e in trace.events]
        assert problems == [], (name, k)
        checked += 1
    assert checked >= 50, (name, checked)  # monitor admits the fewest
