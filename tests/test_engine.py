"""Simulator unit tests.

Slot layouts were frozen from tests/reference.py (run before the engine
existed); sweeps re-check the engine against that reference on random sets.
"""

import random

import pytest

from schedlab.engine import (
    FLUSH,
    IDLE,
    Job,
    NonPreemptiveFP,
    SchedulingPolicy,
    VanillaFP,
    check_trace,
    extract_busy_intervals,
    simulate,
)
from schedlab.tasks import Task, TaskSet, generate_taskset, hyperperiod, rate_monotonic
from reference import ref_busy_intervals, ref_fp_slots


def rm_set(*ct, name="ts", **kw):
    tasks = tuple(Task(id=i + 1, C=c, T=t, **kw) for i, (c, t) in enumerate(ct))
    return TaskSet(rate_monotonic(tasks), name=name)


FLAGSHIP = rm_set((1, 4), (2, 6), (3, 12), name="flagship")


class TestVanillaLayouts:
    def test_single_task_layout(self):
        trace = simulate(rm_set((2, 5)), 10)
        assert trace.slots == [1, 1, IDLE, IDLE, IDLE, 1, 1, IDLE, IDLE, IDLE]

    def test_two_task_layout(self):
        # tau1=(1,4) runs at 0,4,8; tau2=(2,6) at 1,2 and 6,7 (its second
        # job is not released until t=6).
        trace = simulate(rm_set((1, 4), (2, 6)), 12)
        assert trace.slots == [1, 2, 2, IDLE, 1, IDLE, 2, 2, 1, IDLE, IDLE, IDLE]
        assert not trace.misses

    def test_flagship_layout_and_events(self):
        trace = simulate(FLAGSHIP, 12)
        assert trace.slots == [1, 2, 2, 3, 1, 3, 2, 2, 1, 3, IDLE, IDLE]
        t3 = [(e.tick, e.kind) for e in trace.events if e.task_id == 3]
        assert t3 == [
            (0, "release"),
            (3, "start"),
            (4, "preempt"),
            (5, "resume"),
            (6, "preempt"),
            (9, "resume"),
            (10, "complete"),
        ]

    def test_worst_responses_match_rta_example(self):
        trace = simulate(FLAGSHIP, 24)
        worst = {}
        for job in trace.jobs:
            if job.completion is None:
                continue
            r = job.completion - job.release
            worst[job.task_id] = max(worst.get(job.task_id, 0), r)
        assert worst == {1: 1, 2: 3, 3: 10}

    def test_agrees_with_reference_on_random_sets(self):
        for seed in range(40):
            ts = generate_taskset(4, 0.75, [4, 5, 6, 8, 10, 12], seed=seed)
            h = hyperperiod(ts)
            trace = simulate(ts, 2 * h)
            ref_tasks = [{"C": t.C, "T": t.T, "priority": t.priority} for t in ts]
            expected = [
                IDLE if s == IDLE else s + 1 for s in ref_fp_slots(ref_tasks, 2 * h)
            ]
            assert trace.slots == expected, ts.name

    def test_phase_shifts_layout(self):
        ts = TaskSet((Task(id=1, C=2, T=5, phase=3, priority=1),))
        trace = simulate(ts, 10)
        assert trace.slots == [IDLE, IDLE, IDLE, 1, 1, IDLE, IDLE, IDLE, 1, 1]

    def test_determinism_bit_for_bit(self):
        a = simulate(FLAGSHIP, 36, seed=9)
        b = simulate(FLAGSHIP, 36, seed=9)
        assert a.slots == b.slots and a.events == b.events
        assert a.slots_csv() == b.slots_csv()
        assert a.events_csv() == b.events_csv()

    def test_hyperperiod_periodicity(self):
        for seed in range(10):
            ts = generate_taskset(3, 0.6, [4, 5, 6, 8, 10], seed=seed)
            h = hyperperiod(ts)
            trace = simulate(ts, 2 * h)
            assert trace.slots[:h] == trace.slots[h:], ts.name

    def test_work_conservation(self):
        trace = simulate(FLAGSHIP, 24)
        for tick, occ in enumerate(trace.slots):
            ready_someone = any(
                j.release <= tick and (j.completion is None or j.completion > tick)
                for j in trace.jobs
            )
            assert (occ == IDLE) == (not ready_someone)


class TestBusyIntervals:
    def test_two_task_intervals(self):
        trace = simulate(rm_set((1, 4), (2, 6)), 12)
        assert extract_busy_intervals(trace) == [(0, 3), (4, 5), (6, 9)]

    def test_single_task_intervals(self):
        trace = simulate(rm_set((2, 5)), 10)
        assert extract_busy_intervals(trace) == [(0, 2), (5, 7)]

    def test_all_idle(self):
        ts = TaskSet((Task(id=1, C=1, T=5, phase=50, priority=1),))
        assert extract_busy_intervals(simulate(ts, 10)) == []

    def test_union_equals_non_idle_ticks(self):
        for seed in range(15):
            ts = generate_taskset(3, 0.55, [4, 5, 6, 8, 10], seed=seed)
            trace = simulate(ts, 40)
            covered = set()
            for start, end in extract_busy_intervals(trace):
                covered.update(range(start, end))
            assert covered == {i for i, s in enumerate(trace.slots) if s != IDLE}
            assert ref_busy_intervals(trace.slots) == extract_busy_intervals(trace)


class TestDeadlinesAndChecking:
    def test_clean_trace_passes(self):
        trace = simulate(FLAGSHIP, 24)
        assert check_trace(trace, FLAGSHIP) == []

    def test_overload_records_misses(self):
        ts = rm_set((3, 5), (3, 5))  # U = 1.2
        trace = simulate(ts, 10)
        assert len(trace.misses) >= 1
        assert trace.misses[0].task_id == 2
        assert trace.misses[0].tick == 5
        # check_trace agrees the trace is internally consistent: the late
        # job carries its miss event, so no violations.
        assert check_trace(trace, ts) == []

    def test_missed_job_keeps_running_by_default(self):
        ts = rm_set((3, 5), (3, 5))
        trace = simulate(ts, 10)
        first_t2 = next(j for j in trace.jobs if j.task_id == 2)
        assert first_t2.completion is not None  # finished, just late
        assert first_t2.completion > first_t2.absolute_deadline

    def test_corrupted_trace_is_flagged(self):
        trace = simulate(FLAGSHIP, 12)
        trace.slots[10] = 1  # double-book an idle tick with no job backing
        problems = check_trace(trace, FLAGSHIP)
        assert problems and any("job" in p for p in problems)

    def test_unknown_occupant_flagged(self):
        trace = simulate(FLAGSHIP, 12)
        trace.slots[0] = 77
        assert any("unknown occupant" in p for p in check_trace(trace, FLAGSHIP))


class TestNonPreemptive:
    def test_started_job_runs_to_completion(self):
        # Under preemptive FP tau1 preempts tau3 at t=4; non-preemptive
        # dispatch lets tau3 finish first.
        trace = simulate(FLAGSHIP, 12, policy=NonPreemptiveFP())
        assert trace.slots[:6] == [1, 2, 2, 3, 3, 3]
        assert trace.slots[6] == 1  # blocked tau1 job runs right after

    def test_priority_respected_at_dispatch(self):
        trace = simulate(FLAGSHIP, 24, policy=NonPreemptiveFP())
        assert check_trace(trace, FLAGSHIP) == []


class TestStochasticModels:
    def test_sporadic_gaps_respect_minimum(self):
        ts = TaskSet(
            (
                Task(id=1, C=1, T=6, kind="sporadic", priority=1),
                Task(id=2, C=2, T=9, kind="sporadic", priority=2),
            )
        )
        trace = simulate(ts, 600, seed=3)
        for tid, t in ((1, 6), (2, 9)):
            rel = [e.tick for e in trace.events if e.kind == "release" and e.task_id == tid]
            gaps = [b - a for a, b in zip(rel, rel[1:])]
            assert gaps and min(gaps) >= t

    def test_sporadic_extra_gap_averages_half_the_period(self):
        ts = TaskSet((Task(id=1, C=1, T=8, kind="sporadic", priority=1),))
        trace = simulate(ts, 40000, seed=11)
        rel = [e.tick for e in trace.events if e.kind == "release"]
        extras = [b - a - 8 for a, b in zip(rel, rel[1:])]
        mean = sum(extras) / len(extras)
        assert 3.0 <= mean <= 5.0  # CLT window around T/2 = 4

    def test_variable_execution_within_bounds(self):
        ts = TaskSet((Task(id=1, C=5, T=10, bcet=2, priority=1),))
        trace = simulate(ts, 200, seed=7)
        demands = {j.exec_demand for j in trace.jobs}
        assert demands <= {2, 3, 4, 5}
        assert len(demands) > 1  # actually varies
        again = simulate(ts, 200, seed=7)
        assert [j.exec_demand for j in again.jobs] == [j.exec_demand for j in trace.jobs]


class TestCsvExport:
    def test_slot_csv_shape(self):
        trace = simulate(rm_set((2, 5)), 5)
        assert trace.slots_csv().splitlines() == [
            "tick,occupant,job_id",
            "0,1,0",
            "1,1,0",
            "2,-1,-1",
            "3,-1,-1",
            "4,-1,-1",
        ]

    def test_event_csv_header(self):
        trace = simulate(rm_set((2, 5)), 5)
        lines = trace.events_csv().splitlines()
        assert lines[0] == "tick,kind,task_id,job_id"
        assert lines[1] == "0,release,1,0"


class TestValidationAtBoundary:
    def test_invalid_set_rejected(self):
        bad = TaskSet((Task(id=1, C=3, T=2, priority=1),))
        with pytest.raises(ValueError, match="invalid task set"):
            simulate(bad, 10)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            simulate(FLAGSHIP, 0)


class TestPickContract:
    def test_a_choice_that_is_no_occupant_is_refused(self):
        class Confused(VanillaFP):
            def pick(self, tick, ready, ctx):
                return None

        with pytest.raises(RuntimeError, match="not a job, IDLE or FLUSH"):
            simulate(FLAGSHIP, 12, policy=Confused())

    def test_a_job_from_outside_ready_is_refused(self):
        class Forger(VanillaFP):
            def pick(self, tick, ready, ctx):
                return Job(1, 99, tick, tick + 4, 1, 1, 0)

        with pytest.raises(RuntimeError, match="not in ready"):
            simulate(FLAGSHIP, 12, policy=Forger())


class TestHoldContract:
    class Holding(VanillaFP):
        def __init__(self, extra):
            self.extra = extra
            self.limits = []

        def hold(self, tick, ready, ctx, choice, limit):
            self.limits.append(limit)
            return self.extra(limit)

    def test_zero_ticks_is_refused(self):
        # Holding for 0 ticks would never advance the run.
        with pytest.raises(RuntimeError, match="allowed 1"):
            simulate(FLAGSHIP, 24, policy=self.Holding(lambda limit: 0))

    def test_holding_past_the_limit_is_refused(self):
        with pytest.raises(RuntimeError, match="allowed 1"):
            simulate(FLAGSHIP, 24, policy=self.Holding(lambda limit: limit + 1))

    def test_limit_stops_at_releases_completions_and_the_end(self):
        policy = self.Holding(lambda limit: limit)
        trace = simulate(FLAGSHIP, 12, policy=policy)
        assert trace.slots == simulate(FLAGSHIP, 12).slots
        # Decision points 0, 1, 3, 4, 5, 6, 8, 9, 10: releases at 0, 4, 6,
        # 8; completions at 1, 3, 5, 8, 9, 10; the run ends at 12.
        assert policy.limits == [1, 2, 1, 1, 1, 2, 1, 1, 2]

    def test_policy_without_hold_is_asked_every_tick(self):
        class Counting(SchedulingPolicy):
            def __init__(self):
                self.ticks = []

            def pick(self, tick, ready, ctx):
                self.ticks.append(tick)
                return ready[0] if ready else IDLE

        policy = Counting()
        trace = simulate(FLAGSHIP, 24, policy=policy)
        assert policy.ticks == list(range(24))
        vanilla = simulate(FLAGSHIP, 24)
        assert trace.slots_csv() == vanilla.slots_csv()
        assert trace.events_csv() == vanilla.events_csv()
