"""Schedulability-analysis tests.

Fixed-point examples were derived by hand and cross-checked against the
reference simulator before the analysis code existed; sweeps enforce the
soundness contract (schedulable verdict => miss-free simulation).
"""

import math
import random

import pytest

from schedlab import analysis
from schedlab.analysis import (
    INCONCLUSIVE,
    SCHEDULABLE,
    UNSCHEDULABLE,
    blocking_term_nonpreemptive,
    fixed_point,
    response_time_analysis,
    rta_nonpreemptive,
    rta_with_flush,
)
from schedlab.engine import FLUSH, NonPreemptiveFP, simulate
from schedlab.flush import FlushFP, SecurityPolicy
from schedlab.tasks import Task, TaskSet, generate_taskset, hyperperiod, rate_monotonic


def rm_set(*ct, name="ts"):
    tasks = tuple(Task(id=i + 1, C=c, T=t) for i, (c, t) in enumerate(ct))
    return TaskSet(rate_monotonic(tasks), name=name)


FLAGSHIP = rm_set((1, 4), (2, 6), (3, 12), name="flagship")


class TestResponseTimeAnalysis:
    def test_flagship_fixed_points(self):
        report = response_time_analysis(FLAGSHIP)
        assert report.verdict == SCHEDULABLE
        assert report.per_task_response == {1: 1, 2: 3, 3: 10}

    def test_single_task(self):
        report = response_time_analysis(rm_set((3, 10)))
        assert report.per_task_response == {1: 3}

    def test_set_above_the_liu_layland_bound_can_pass(self):
        ts = rm_set((25, 50), (33, 100))  # U = 0.83 > 2(sqrt(2)-1)
        report = response_time_analysis(ts)
        assert report.verdict == SCHEDULABLE
        assert report.per_task_response == {1: 25, 2: 83}

    def test_overload_flags_low_priority_task(self):
        report = response_time_analysis(rm_set((3, 5), (3, 5)))
        assert report.verdict == UNSCHEDULABLE
        assert report.per_task_response[1] == 3
        assert report.per_task_response[2] is None

    def test_fixed_point_recomputes_exactly(self):
        for seed in range(30):
            ts = generate_taskset(4, 0.7, [4, 5, 6, 8, 10, 12], seed=seed)
            report = response_time_analysis(ts)
            if report.verdict != SCHEDULABLE:
                continue
            by_prio = ts.by_priority()
            for i, task in enumerate(by_prio):
                r = report.per_task_response[task.id]
                again = task.C + sum(
                    math.ceil(r / h.T) * h.C for h in by_prio[:i]
                )
                assert again == r

    def test_schedulable_means_miss_free_simulation(self):
        hits = 0
        for seed in range(200):
            u = 0.3 + 0.7 * random.Random(seed).random()
            ts = generate_taskset(4, u, [4, 5, 6, 8, 10, 12, 15, 20], seed=seed, tol=0.02)
            if response_time_analysis(ts).verdict != SCHEDULABLE:
                continue
            hits += 1
            trace = simulate(ts, hyperperiod(ts))
            assert not trace.misses, ts.name
        assert hits > 50  # the sweep actually exercised the claim

    def test_monotone_in_cost(self):
        rng = random.Random(1)
        rank = {SCHEDULABLE: 0, INCONCLUSIVE: 1, UNSCHEDULABLE: 2}
        for seed in range(40):
            ts = generate_taskset(3, 0.8, [5, 6, 8, 10, 12], seed=seed, tol=0.02)
            before = rank[response_time_analysis(ts).verdict]
            victim = rng.randrange(len(ts.tasks))
            bumped = []
            for i, t in enumerate(ts.tasks):
                c = t.C + 1 if i == victim else t.C
                if c > t.D:
                    c = t.C
                bumped.append(Task(id=t.id, C=c, T=t.T, priority=t.priority))
            after = rank[response_time_analysis(TaskSet(tuple(bumped))).verdict]
            assert after >= before

    def test_sporadic_tasks_analyzable(self):
        ts = TaskSet(
            (
                Task(id=1, C=1, T=4, kind="sporadic", priority=1),
                Task(id=2, C=2, T=9, kind="sporadic", priority=2),
            )
        )
        report = response_time_analysis(ts)
        assert report.verdict == SCHEDULABLE
        assert report.per_task_response == {1: 1, 2: 3}


class TestFlushRta:
    def two_task_policy(self):
        # noleak in both directions between ids 1 and 2
        return SecurityPolicy(mode="pairwise", flush_cost=1, pairs={(1, 2), (2, 1)})

    def test_zero_cost_is_plain_rta(self):
        policy = SecurityPolicy(mode="total_order", flush_cost=0)
        a = rta_with_flush(FLAGSHIP, policy)
        b = response_time_analysis(FLAGSHIP)
        assert a.verdict == b.verdict
        assert a.per_task_response == b.per_task_response

    def test_empty_relation_is_plain_rta(self):
        policy = SecurityPolicy(mode="pairwise", flush_cost=3, pairs=frozenset())
        a = rta_with_flush(FLAGSHIP, policy)
        assert a.per_task_response == response_time_analysis(FLAGSHIP).per_task_response

    def test_one_level_total_order_is_plain_rta(self):
        # Every task sits at level 0, so no flow is forbidden and FlushFP
        # never scrubs: no F may be charged.
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        assert policy.forbidden(FLAGSHIP) == frozenset()
        for report in (rta_with_flush(FLAGSHIP, policy),
                       FlushFP(policy).analyze(FLAGSHIP)):
            assert report.verdict == SCHEDULABLE
            assert report.per_task_response == {1: 1, 2: 3, 3: 10}
        trace = simulate(FLAGSHIP, 48, policy=FlushFP(policy))
        assert FLUSH not in trace.slots
        assert not trace.misses

    def test_two_task_boundary_case(self):
        # R2 = (1+1) + ceil(R/4)*(1+2) lands exactly on D = 8.
        ts = rm_set((1, 4), (1, 8))
        report = rta_with_flush(ts, self.two_task_policy())
        assert report.verdict == SCHEDULABLE
        assert report.per_task_response == {1: 2, 2: 8}
        trace = simulate(ts, 8, policy=FlushFP(self.two_task_policy()))
        assert not trace.misses
        assert trace.slots == [1, -2, 2, -1, -2, 1, -1, -1]

    def test_flagship_with_scrubs_unschedulable(self):
        levels = {1: 3, 2: 2, 3: 1}
        tasks = tuple(
            Task(id=t.id, C=t.C, T=t.T, priority=t.priority, security_level=levels[t.id])
            for t in FLAGSHIP
        )
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        report = rta_with_flush(TaskSet(tasks), policy)
        assert report.verdict == UNSCHEDULABLE
        assert report.per_task_response[1] == 2
        assert report.per_task_response[2] is None

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SecurityPolicy(mode="total_order", flush_cost=-1)

    def test_soundness_sweep(self):
        # Anything the inflated RTA passes must simulate miss-free with
        # the scrub-inserting policy.
        rng = random.Random(99)
        passed = 0
        for seed in range(100):
            f = rng.choice([1, 2])
            ts = generate_taskset(3, 0.4, [8, 10, 12, 15, 20, 24], seed=seed, tol=0.02)
            tasks = tuple(
                Task(
                    id=t.id, C=t.C, T=t.T, priority=t.priority,
                    security_level=rng.randint(1, 3),
                )
                for t in ts
            )
            ts = TaskSet(tasks)
            policy = SecurityPolicy(mode="total_order", flush_cost=f)
            if rta_with_flush(ts, policy).verdict != SCHEDULABLE:
                continue
            passed += 1
            trace = simulate(ts, 2 * hyperperiod(ts), policy=FlushFP(policy))
            assert not trace.misses, ts.name
        assert passed > 20


class TestNonPreemptive:
    def test_blocking_terms(self):
        ts = rm_set((1, 4), (2, 6), (3, 12))
        assert blocking_term_nonpreemptive(ts) == {1: 2, 2: 2, 3: 0}

    def test_lowest_priority_has_no_blocking(self):
        assert blocking_term_nonpreemptive(rm_set((2, 5)))[1] == 0

    def test_flagship_start_time_analysis(self):
        report = rta_nonpreemptive(FLAGSHIP)
        assert report.verdict == SCHEDULABLE
        assert report.per_task_response == {1: 3, 2: 5, 3: 6}

    def test_soundness_sweep(self):
        passed = 0
        for seed in range(100):
            ts = generate_taskset(3, 0.5, [5, 6, 8, 10, 12], seed=seed)
            if rta_nonpreemptive(ts).verdict != SCHEDULABLE:
                continue
            passed += 1
            trace = simulate(ts, 2 * hyperperiod(ts), policy=NonPreemptiveFP())
            assert not trace.misses, ts.name
        assert passed > 30

    def test_later_job_in_busy_period_is_checked(self):
        # The first job of task 3 responds by 8, but its level-3 busy
        # period holds a second job that misses (Davis et al. 2007).
        ts = TaskSet((
            Task(id=1, C=2, T=7, priority=1),
            Task(id=2, C=4, T=8, priority=2),
            Task(id=3, C=2, T=10, priority=3),
        ))
        report = rta_nonpreemptive(ts)
        assert report.verdict == UNSCHEDULABLE
        assert report.per_task_response == {1: 5, 2: 7, 3: None}
        trace = simulate(ts, hyperperiod(ts), policy=NonPreemptiveFP())
        assert [(e.tick, e.task_id) for e in trace.misses] == [(20, 3), (30, 3)]

    def test_busy_period_that_never_closes_is_unschedulable(self):
        # Task 2's level sits at U = 1 while task 3 can block it.
        ts = rm_set((2, 4), (2, 4), (2, 100))
        report = rta_nonpreemptive(ts)
        assert report.verdict == UNSCHEDULABLE
        assert report.per_task_response[2] is None
        assert report.per_task_response[3] is None
        assert rta_nonpreemptive(rm_set((3, 5), (3, 5))).per_task_response == {1: 5, 2: None}


class TestFixedPointKernel:
    def test_least_fixed_point(self):
        # Task 3 of FLAGSHIP: R = 3 + ceil(R/4) + 2 ceil(R/6) = 10.
        assert fixed_point(3, [(4, 1, 0), (6, 2, 0)], 12) == 10

    def test_overshoot_is_returned(self):
        assert fixed_point(3, [(5, 3, 0)], 5) == 6

    def test_offset_shifts_the_window(self):
        # ceil((w + 1) / T) = floor(w / T) + 1: a release at w itself counts,
        # so from 3 the releases at 0 and 4 both land by the fixed point 5.
        assert fixed_point(0, [(4, 1, 1)], 100) == 1
        assert fixed_point(3, [(4, 1, 1)], 100) == 5
        assert fixed_point(3, [(4, 1, 0)], 100) == 4

    def test_iteration_cap_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 1)
        assert fixed_point(3, [(4, 1, 0), (6, 2, 0)], 12) is None
        report = response_time_analysis(FLAGSHIP)
        assert report.verdict == INCONCLUSIVE
        assert report.per_task_response == {1: 1, 2: None, 3: None}
