"""Every small two-task set under every policy but the monitor, not a sample.

Each task takes a period in {2, 3, 4, 6}, every cost C in [1, T] and every
deadline D in [C, T]; the two tasks take every pair of phases whose
smaller one is 0, and the first task is given the higher priority, so
both priority orders occur.  Every set a policy's own test admits runs
for max phase + 2H, H the lcm of the periods (the feasibility interval of
Leung and Merrill, 1980).  No job may miss its deadline, and `check_trace`
must find the trace clean.

- Vanilla, non-preemptive and flush (total order, the two tasks at
  opposite security levels in both ways, one-tick scrubs): no job may
  respond later than the per-task response the policy's `analyze`
  prints.  Flush with two-tick scrubs admits none of these sets.
- Shuffle, under each mode with one seed per mode: no job may respond
  later than the completion bound its budgets certify.

This is the small-scope hypothesis (Jackson, Software Abstractions, 2006):
most faults show on small inputs, so all of them are checked.
"""

import math
from dataclasses import replace

import pytest

from schedlab.analysis import SCHEDULABLE
from schedlab.engine import NonPreemptiveFP, VanillaFP, check_trace, simulate
from schedlab.flush import FlushFP, SecurityPolicy
from schedlab.shuffle import MODES, ShuffleFP, compute_budgets
from schedlab.tasks import Task, TaskSet

PERIODS = (2, 3, 4, 6)


def _shapes():
    """Every (C, D, T) over PERIODS with 1 <= C <= D <= T."""
    return [(c, d, t) for t in PERIODS for c in range(1, t + 1)
            for d in range(c, t + 1)]


def _two_task_sets():
    """(task set, run length) of every two-task set with U <= 1."""
    out = []
    for c1, d1, t1 in _shapes():
        for c2, d2, t2 in _shapes():
            if c1 * t2 + c2 * t1 > t1 * t2:  # U > 1
                continue
            hyper = math.lcm(t1, t2)
            phases = [(p, 0) for p in range(t1)] + [(0, p) for p in range(1, t2)]
            for p1, p2 in phases:
                ts = TaskSet((Task(id=1, C=c1, T=t1, D=d1, phase=p1, priority=1),
                              Task(id=2, C=c2, T=t2, D=d2, phase=p2, priority=2)))
                out.append((ts, max(p1, p2) + 2 * hyper))
    return out


ALL = _two_task_sets()
SETS = [(ts, compute_budgets(ts), duration) for ts, duration in ALL
        if ShuffleFP().analyze(ts).verdict == SCHEDULABLE]


def _levels(ts, levels):
    return TaskSet(tuple(replace(t, security_level=lv)
                         for t, lv in zip(ts, levels)))


# Name -> (policy factory, security levels of the two tasks per variant).
RESPONSE_CASES = {
    "vanilla": (VanillaFP, [(0, 0)]),
    "nonpreemptive": (NonPreemptiveFP, [(0, 0)]),
    "flush": (lambda: FlushFP(SecurityPolicy(flush_cost=1)), [(1, 0), (0, 1)]),
}
# What each policy's own test admits: RTA (the same sets the shuffle
# admits), its non-preemptive variant, and the flush test over both level
# orders.
ADMITTED = {"vanilla": 4449, "nonpreemptive": 3736, "flush": 418}


def test_the_enumeration_is_complete():
    # 40 shapes per task and 1,600 ordered pairs, 973 of them with U <= 1;
    # T1 + T2 - 1 phase pairs each make 8,531 sets, and RTA admits 4,449.
    assert len(_shapes()) == 40
    assert len(ALL) == 8531
    assert len(SETS) == 4449


@pytest.mark.parametrize("name", sorted(RESPONSE_CASES))
def test_every_admitted_two_task_set_keeps_its_printed_responses(name):
    factory, variants = RESPONSE_CASES[name]
    admitted = 0
    for levels in variants:
        for plain, duration in ALL:
            ts = _levels(plain, levels)
            policy = factory()
            report = policy.analyze(ts)
            if report.verdict != SCHEDULABLE:
                continue
            admitted += 1
            trace = simulate(ts, duration, policy=policy)
            assert trace.misses == [], (name, ts)
            for job in trace.jobs:
                end = duration if job.completion is None else job.completion
                assert end - job.release <= report.per_task_response[job.task_id], (
                    name, ts, job)
            assert check_trace(trace, ts) == [], (name, ts)
    assert admitted == ADMITTED[name]


@pytest.mark.parametrize("seed, mode", enumerate(MODES))
def test_every_admitted_two_task_set_keeps_its_bounds(seed, mode):
    for ts, budgets, duration in SETS:
        trace = simulate(ts, duration, policy=ShuffleFP(mode=mode, budgets=budgets),
                         seed=seed)
        assert trace.misses == [], (mode, ts)
        for job in trace.jobs:
            end = duration if job.completion is None else job.completion
            assert end - job.release <= budgets.completion_bounds[job.task_id], (
                mode, ts, job)
        assert check_trace(trace, ts) == [], (mode, ts)
