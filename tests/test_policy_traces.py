"""Policy traces over generated sets: frozen digests and the hold contract.

Sixty seeded sets (2-5 tasks, U 0.4-0.75) with random phases and security
levels, some tasks with bcet < C and some sporadic, run under every policy
configuration.  Flush runs in total order with costs 0, 1 and 3, and with
random forbidden pairs at cost 2; a monitor's flush base takes the same
pairs at cost 1.  Each configuration's digest is the sha256 (first 16 hex
digits) of slots_csv() + events_csv() of all its runs in set order, with
a refused set standing as the line "refused".  A monitor configuration
runs only the sets whose scan passes both placements, so an admission
rule never enters its digest.

The hold test checks the engine's contract: a hold stands for exactly the
picks the policy would have made on the ticks it covers.  A policy whose
hold is only ever offered one tick must leave the same trace as the
policy itself.
"""

import copy
import hashlib
import random
from dataclasses import replace

import pytest

from schedlab.analysis import SCHEDULABLE
from schedlab.engine import NonPreemptiveFP, SchedulingPolicy, VanillaFP, simulate
from schedlab.flush import PAIRWISE, FlushFP, SecurityPolicy
from schedlab.monitor import MonitorPolicy
from schedlab.shuffle import GUARD_BUDGET, GUARD_NONE, MODES, ShuffleFP
from schedlab.tasks import SPORADIC, TaskSet, generate_taskset

DURATION = 240
POOL = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30)


def _generated_sets(count=60, seed=9):
    """(task set, pairwise security policy, scan task, alerts) per set."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        ts = generate_taskset(rng.randint(2, 5), rng.uniform(0.4, 0.75), POOL,
                              seed=k, tol=0.02)
        tasks = []
        for t in ts:
            t = replace(t, phase=rng.randrange(t.T),
                        security_level=rng.randrange(3))
            if rng.random() < 0.3:
                t = replace(t, bcet=rng.randint(1, t.C))
            if rng.random() < 0.25:
                t = replace(t, kind=SPORADIC)
            tasks.append(t)
        ids = [t.id for t in tasks]
        pairs = {(a, b) for a in ids for b in ids
                 if a != b and rng.random() < 0.3}
        pairwise = SecurityPolicy(mode=PAIRWISE, flush_cost=2, pairs=pairs)
        scan = rng.choice(ids)
        alerts = tuple(sorted(rng.sample(range(DURATION), 2)))
        out.append((TaskSet(tuple(tasks), ts.name), pairwise, scan, alerts))
    return out


SETS = _generated_sets()


def _flush(cost):
    return lambda ts, pairwise, scan, alerts: FlushFP(
        SecurityPolicy(flush_cost=cost))


def _shuffle(mode, guard):
    return lambda ts, pairwise, scan, alerts: ShuffleFP(mode=mode, guard=guard)


def _monitor(base, escalate):
    return lambda ts, pairwise, scan, alerts: MonitorPolicy(
        scan, base=base(pairwise), alert_ticks=alerts, escalate=escalate)


CONFIGS = {
    "vanilla": lambda ts, pairwise, scan, alerts: VanillaFP(),
    "nonpreemptive": lambda ts, pairwise, scan, alerts: NonPreemptiveFP(),
    "flush_total_f0": _flush(0),
    "flush_total_f1": _flush(1),
    "flush_total_f3": _flush(3),
    "flush_pairwise": lambda ts, pairwise, scan, alerts: FlushFP(pairwise),
    **{f"shuffle_{m}_{g}": _shuffle(m, g)
       for m in MODES for g in (GUARD_BUDGET, GUARD_NONE)},
    **{f"monitor_{b}_escalate={e}": _monitor(base, e)
       for b, base in (("vanilla", lambda pairwise: VanillaFP()),
                       ("flush", lambda pairwise: FlushFP(
                           replace(pairwise, flush_cost=1))))
       for e in (True, False)},
}


class OneTickHolds(SchedulingPolicy):
    """The wrapped policy, asked again on every tick: its hold gets limit 1."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def attach(self, ts, ctx):
        self.inner.attach(ts, ctx)

    def managed_task_ids(self):
        return self.inner.managed_task_ids()

    def pick(self, tick, ready, ctx):
        return self.inner.pick(tick, ready, ctx)

    def hold(self, tick, ready, ctx, choice, limit):
        return self.inner.hold(tick, ready, ctx, choice, 1)


def _frozen(ts, policy, seed):
    """The run's part of its configuration's digest."""
    if isinstance(policy, MonitorPolicy):
        both = copy.copy(policy)
        both.escalate = True
        if both.analyze(ts).verdict != SCHEDULABLE:
            return ""
    return _run(ts, policy, seed)


def _run(ts, policy, seed):
    """The trace's text, or "refused" when the policy turns the set away."""
    try:
        trace = simulate(ts, DURATION, policy=policy, seed=seed)
    except ValueError:
        return "refused\n"
    return trace.slots_csv() + trace.events_csv()


DIGESTS = {
    "flush_pairwise": "2e58ab0b91b1ac27",
    "flush_total_f0": "08b1f5318da88f0e",
    "flush_total_f1": "c04d8a4e151010ee",
    "flush_total_f3": "fbbcb909925bf490",
    "monitor_flush_escalate=False": "89f1b3e33f01717f",
    "monitor_flush_escalate=True": "8229e4a7cf67dada",
    "monitor_vanilla_escalate=False": "9c63c1828b253113",
    "monitor_vanilla_escalate=True": "43c16113e17fa30f",
    "nonpreemptive": "5ebeb89c8c6bac73",
    "shuffle_fine_grained_budget": "081d32d5bdc6da35",
    "shuffle_fine_grained_none": "322e9051fe7e28e2",
    "shuffle_task_only_budget": "dd53cd103357bea8",
    "shuffle_task_only_none": "8cf3438a51be3d10",
    "shuffle_with_idle_budget": "4c7ab3e95284df22",
    "shuffle_with_idle_none": "b3de4c7d07f587f4",
    "vanilla": "08b1f5318da88f0e",
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_generated_set_traces_are_frozen(config):
    h = hashlib.sha256()
    for seed, (ts, pairwise, scan, alerts) in enumerate(SETS):
        policy = CONFIGS[config](ts, pairwise, scan, alerts)
        h.update(_frozen(ts, policy, seed).encode())
    assert h.hexdigest()[:16] == DIGESTS[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_hold_stands_for_the_picks_it_covers(config):
    make = CONFIGS[config]
    ran = 0
    for seed, (ts, pairwise, scan, alerts) in enumerate(SETS):
        own = _run(ts, make(ts, pairwise, scan, alerts), seed)
        wrapped = OneTickHolds(make(ts, pairwise, scan, alerts))
        assert _run(ts, wrapped, seed) == own, (config, seed)
        ran += own != "refused\n"
    assert ran >= 5
