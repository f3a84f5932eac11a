"""Scrub-insertion policy tests: residue tracking, slot layouts, violations."""

import random

import pytest

from schedlab.engine import FLUSH, IDLE, VanillaFP, simulate
from schedlab.flush import (
    FlushFP,
    SecurityPolicy,
    count_violations,
)
from schedlab.tasks import Task, TaskSet, generate_taskset, hyperperiod


def leveled(*rows):
    """rows: (id, C, T, priority, level) or with phase appended."""
    tasks = []
    for s in rows:
        tid, c, t, prio, lvl = s[:5]
        phase = s[5] if len(s) > 5 else 0
        tasks.append(
            Task(id=tid, C=c, T=t, priority=prio, security_level=lvl, phase=phase)
        )
    return TaskSet(tuple(tasks))


class TestNeedsFlush:
    """Which flows need a scrub: SecurityPolicy.forbidden(ts) and its checks."""

    def test_total_order_downward_only(self):
        ts = leveled((1, 1, 10, 1, 2), (2, 1, 10, 2, 1), (3, 1, 10, 3, 1))
        forbidden = SecurityPolicy(mode="total_order", flush_cost=1).forbidden(ts)
        assert (1, 2) in forbidden  # high -> low leaks
        assert (2, 1) not in forbidden  # upward is fine
        assert (1, 1) not in forbidden
        assert (2, 3) not in forbidden  # so is one level
        assert forbidden == {(1, 2), (1, 3)}

    def test_pairwise_exact_pairs(self):
        ts = leveled((1, 1, 10, 1, 0), (2, 1, 10, 2, 0), (3, 1, 10, 3, 0))
        policy = SecurityPolicy(mode="pairwise", flush_cost=1, pairs={(1, 3)})
        forbidden = policy.forbidden(ts)
        assert (1, 3) in forbidden
        assert (3, 1) not in forbidden
        assert (1, 2) not in forbidden

    def test_pairwise_keeps_pairs_inside_the_set(self):
        ts = leveled((1, 1, 10, 1, 0), (2, 1, 10, 2, 0))
        policy = SecurityPolicy(mode="pairwise", pairs={(1, 2), (1, 3), (4, 2)})
        assert policy.forbidden(ts) == {(1, 2)}

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="names one task twice"):
            SecurityPolicy(mode="pairwise", pairs={(2, 2)})

    def test_pairs_require_pairwise_mode(self):
        with pytest.raises(ValueError, match="require mode = pairwise"):
            SecurityPolicy(mode="total_order", pairs={(1, 2)})
        assert SecurityPolicy(mode="total_order", pairs=()).pairs == frozenset()

    @pytest.mark.parametrize("cost", [0.5, 1.5, 1.0, "1"])
    def test_flush_cost_must_be_an_integer(self, cost):
        with pytest.raises(ValueError, match="flush cost must be an integer"):
            SecurityPolicy(mode="total_order", flush_cost=cost)


class TestFlushPolicy:
    def test_high_then_low_inserts_one_scrub(self):
        ts = leveled((1, 1, 10, 1, 2), (2, 1, 10, 2, 1))
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        trace = simulate(ts, 10, policy=FlushFP(policy))
        assert trace.slots[:4] == [1, FLUSH, 2, IDLE]
        assert [e.tick for e in trace.events if e.kind == "flush_begin"] == [1]
        assert [e.tick for e in trace.events if e.kind == "flush_end"] == [2]

    def test_residue_survives_idle(self):
        ts = leveled((1, 1, 20, 1, 2), (2, 1, 20, 2, 1, 5))
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        trace = simulate(ts, 10, policy=FlushFP(policy))
        assert trace.slots[:8] == [1, IDLE, IDLE, IDLE, IDLE, FLUSH, 2, IDLE]

    def test_scrub_is_not_preemptable(self):
        # B (priority 1) arrives mid-scrub and must wait for it to finish;
        # the completed scrub also cleans B's entry, and B's own residue
        # then forces a second scrub before C runs.
        ts = leveled((1, 2, 30, 2, 2), (2, 1, 30, 1, 2, 3), (3, 1, 30, 3, 1, 2))
        policy = SecurityPolicy(mode="total_order", flush_cost=2)
        trace = simulate(ts, 10, policy=FlushFP(policy))
        assert trace.slots[:8] == [1, 1, FLUSH, FLUSH, 2, FLUSH, FLUSH, 3]

    def test_residue_accumulates_across_tasks(self):
        # H taints, M runs cleanly in between, L still needs the scrub.
        ts = leveled((1, 1, 30, 1, 0), (2, 1, 30, 2, 0), (3, 1, 30, 3, 0))
        policy = SecurityPolicy(mode="pairwise", flush_cost=1, pairs={(1, 3)})
        trace = simulate(ts, 6, policy=FlushFP(policy))
        assert trace.slots[:4] == [1, 2, FLUSH, 3]

    def test_zero_cost_scrub_is_free(self):
        ts = leveled((1, 1, 10, 1, 2), (2, 1, 10, 2, 1))
        policy = SecurityPolicy(mode="total_order", flush_cost=0)
        trace = simulate(ts, 10, policy=FlushFP(policy))
        assert trace.slots[:3] == [1, 2, IDLE]
        assert count_violations(trace, ts, policy) == 0

    def test_same_task_never_scrubs_itself(self):
        ts = leveled((1, 2, 4, 1, 2))
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        trace = simulate(ts, 12, policy=FlushFP(policy))
        assert FLUSH not in trace.slots


class TestViolationCounting:
    def test_unprotected_dispatch_counts_once(self):
        ts = leveled((1, 1, 10, 1, 2), (2, 1, 10, 2, 1))
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        trace = simulate(ts, 10, policy=VanillaFP())
        assert count_violations(trace, ts, policy) == 1

    def test_reentry_counts_again(self):
        ts = leveled((1, 1, 4, 1, 2), (2, 2, 8, 2, 1))
        policy = SecurityPolicy(mode="total_order", flush_cost=1)
        trace = simulate(ts, 8, policy=VanillaFP())
        # slots: 1,2,2,-,1,-,-,- ; tau2 enters residue once at t=1 and the
        # second tau1 job leaves fresh residue nobody consumes.
        assert trace.slots == [1, 2, 2, IDLE, 1, IDLE, IDLE, IDLE]
        assert count_violations(trace, ts, policy) == 1

    def test_partial_scrub_clears_nothing(self):
        ts = leveled((1, 1, 10, 1, 2), (2, 1, 10, 2, 1))
        policy2 = SecurityPolicy(mode="total_order", flush_cost=2)
        trace = simulate(ts, 10, policy=FlushFP(SecurityPolicy("total_order", 1)))
        # One-tick scrub is partial for a 2-tick requirement: still dirty.
        assert count_violations(trace, ts, policy2) == 1

    def test_flush_traces_are_always_clean(self):
        rng = random.Random(5)
        for seed in range(60):
            ts0 = generate_taskset(3, 0.5, [5, 6, 8, 10, 12], seed=seed)
            tasks = tuple(
                Task(id=t.id, C=t.C, T=t.T, priority=t.priority,
                     security_level=rng.randint(1, 3))
                for t in ts0
            )
            ts = TaskSet(tasks)
            f = rng.choice([1, 2, 3])
            policy = SecurityPolicy(mode="total_order", flush_cost=f)
            trace = simulate(ts, 2 * hyperperiod(ts), policy=FlushFP(policy), seed=seed)
            assert count_violations(trace, ts, policy) == 0, ts.name

    def test_pairwise_traces_clean_too(self):
        rng = random.Random(17)
        for seed in range(40):
            ts = generate_taskset(4, 0.5, [5, 6, 8, 10, 12], seed=seed)
            ids = [t.id for t in ts]
            pairs = set()
            for a in ids:
                for b in ids:
                    if a != b and rng.random() < 0.3:
                        pairs.add((a, b))
            policy = SecurityPolicy(mode="pairwise", flush_cost=rng.choice([1, 2]),
                                    pairs=pairs)
            trace = simulate(ts, 2 * hyperperiod(ts), policy=FlushFP(policy), seed=seed)
            assert count_violations(trace, ts, policy) == 0, ts.name
