"""Every small two-task set under every shuffle mode, not a sample.

Each task takes a period in {2, 3, 4, 6}, every cost C in [1, T] and every
deadline D in [C, T]; the two tasks take every pair of phases whose
smaller one is 0, and the first task is given the higher priority, so
both priority orders occur.  Every set the guarded shuffle admits runs
for max phase + 2H, H the lcm of the periods (the feasibility interval of
Leung and Merrill, 1980), under each shuffle mode with one seed per mode.
No job may miss its deadline or respond later than the completion bound
its budgets certify, and `check_trace` must find the trace clean.

This is the small-scope hypothesis (Jackson, Software Abstractions, 2006):
most faults show on small inputs, so all of them are checked.
"""

import math

import pytest

from schedlab.analysis import SCHEDULABLE
from schedlab.engine import check_trace, simulate
from schedlab.shuffle import MODES, ShuffleFP, compute_budgets
from schedlab.tasks import Task, TaskSet

PERIODS = (2, 3, 4, 6)


def _shapes():
    """Every (C, D, T) over PERIODS with 1 <= C <= D <= T."""
    return [(c, d, t) for t in PERIODS for c in range(1, t + 1)
            for d in range(c, t + 1)]


def _admitted_sets():
    """(task set, budgets, run length) of every set the shuffle admits."""
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
                if ShuffleFP().analyze(ts).verdict != SCHEDULABLE:
                    continue
                out.append((ts, compute_budgets(ts), max(p1, p2) + 2 * hyper))
    return out


SETS = _admitted_sets()


def test_the_enumeration_is_complete():
    # 40 shapes per task and 1,600 ordered pairs, 973 of them with U <= 1;
    # T1 + T2 - 1 phase pairs each make 8,531 sets, and RTA admits 4,449.
    assert len(_shapes()) == 40
    assert len(SETS) == 4449


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
