"""Soundness matrix: each policy's own schedulability test against its simulator.

For every dispatch policy, a "schedulable" verdict from policy.analyze(ts)
must mean that the same policy runs the set without a deadline miss over
max phase + 2 hyperperiods.  The sets are seeded random draws of 2-5 tasks
up to U = 1, with random phases and security levels.
"""

import random
from dataclasses import replace

import pytest

from schedlab.analysis import SCHEDULABLE
from schedlab.engine import NonPreemptiveFP, VanillaFP, simulate
from schedlab.flush import FlushFP, SecurityPolicy
from schedlab.monitor import MonitorPolicy
from schedlab.shuffle import MODES, ShuffleFP
from schedlab.tasks import TaskSet, generate_taskset, hyperperiod

POOL = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40)  # every hyperperiod divides 120
SETS = 600


def _draw(k):
    """Set k with its security policy, or None when the generator misses U."""
    rng = random.Random(k)
    n = rng.randint(2, 5)
    try:
        ts = generate_taskset(n, rng.uniform(0.3, 1.0), POOL, seed=k, tol=0.02)
    except ValueError:
        return None
    ts = TaskSet(tuple(
        replace(t, phase=rng.randrange(t.T), security_level=rng.randrange(3))
        for t in ts))
    if rng.random() < 0.5:
        sec = SecurityPolicy(mode="total_order", flush_cost=rng.randint(1, 2))
    else:
        ids = [t.id for t in ts]
        pairs = {tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, n))}
        sec = SecurityPolicy(mode="pairwise", flush_cost=rng.randint(1, 2),
                             pairs=frozenset(pairs))
    return ts, sec


CASES = [(k, case) for k in range(SETS) if (case := _draw(k)) is not None]

POLICIES = {
    "vanilla": lambda k, ts, sec: VanillaFP(),
    "nonpreemptive": lambda k, ts, sec: NonPreemptiveFP(),
    "flush": lambda k, ts, sec: FlushFP(sec),
    "shuffle": lambda k, ts, sec: ShuffleFP(mode=MODES[k % len(MODES)]),
    "monitor": lambda k, ts, sec: MonitorPolicy(
        ts.by_priority()[-1].id, base=FlushFP(sec) if k % 2 else VanillaFP(),
        alert_ticks=(k % 40,)),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_schedulable_verdict_holds_in_simulation(name):
    admitted = 0
    for k, (ts, sec) in CASES:
        policy = POLICIES[name](k, ts, sec)
        if policy.analyze(ts).verdict != SCHEDULABLE:
            continue
        duration = max(t.phase for t in ts) + 2 * hyperperiod(ts)
        trace = simulate(ts, duration, policy=policy, seed=k)
        admitted += 1
        assert not trace.misses, (name, k, ts)
    assert admitted >= 40, (name, admitted)  # the claim was really exercised
