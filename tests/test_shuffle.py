"""Randomized-dispatch defense: budget construction, policy, entropy metric.

Budget vectors for the small sets were derived by hand from the two
certificates (inflated busy-window and carry-in release-window) before the
implementation existed; see the inline derivation notes.
"""

import math
import random

import pytest

from schedlab import (
    IDLE,
    Task,
    TaskSet,
    VanillaFP,
    extract_busy_intervals,
    check_trace,
    hyperperiod,
    simulate,
)
from schedlab.shuffle import (
    FINE_GRAINED,
    GUARD_NONE,
    TASK_ONLY,
    WITH_IDLE,
    InversionBudget,
    ShuffleFP,
    _certify,
    _utilization_scale,
    compute_budgets,
    schedule_entropy,
)
from schedlab.tasks import generate_taskset

from reference import ref_fp_slots


def flagship() -> TaskSet:
    return TaskSet(tasks=(
        Task(id=1, C=1, T=4, priority=1),
        Task(id=2, C=2, T=6, priority=2),
        Task(id=3, C=3, T=12, priority=3),
    ))


def pair_5_10() -> TaskSet:
    return TaskSet(tasks=(
        Task(id=1, C=2, T=5, priority=1),
        Task(id=2, C=3, T=10, priority=2),
    ))


def zero_budget(ts: TaskSet) -> InversionBudget:
    return InversionBudget(per_task={t.id: 0 for t in ts}, completion_bounds={})


# --- budget construction -------------------------------------------------

def test_flagship_budgets_frozen():
    # Hand derivation: granting tau1 a tick pushes tau3 to 13 > 12 under
    # both certificates; tau2 gets exactly one (tau3 then finishes at 12,
    # its deadline, via the inflated busy window); any further grant to
    # tau2 or tau3 re-breaks tau3.  Greedy therefore stalls at (0, 1, 0).
    b = compute_budgets(flagship())
    assert b.per_task == {1: 0, 2: 1, 3: 0}


def test_pair_budgets_frozen():
    # Hand derivation: tau1 climbs to its slack cap D - C = 3 (the
    # release-window certificate keeps tau2 at exactly 10 once the
    # busy-window form's inflated utilization passes 1).  tau2 stops at 1.
    b = compute_budgets(pair_5_10())
    assert b.per_task == {1: 3, 2: 1}


def test_three_task_set_gets_at_least_one_tick_everywhere():
    ts = TaskSet(tasks=(
        Task(id=1, C=1, T=6, priority=1),
        Task(id=2, C=2, T=9, priority=2),
        Task(id=3, C=3, T=15, priority=3),
    ))
    b = compute_budgets(ts)
    assert all(v >= 1 for v in b.per_task.values())


def test_budget_caps_at_slack():
    single = TaskSet(tasks=(Task(id=1, C=2, T=9, priority=1),))
    b = compute_budgets(single)
    assert b.per_task == {1: 9 - 2}


def test_completion_bounds_are_sane():
    b = compute_budgets(flagship())
    ts = flagship()
    for t in ts:
        assert t.C <= b.completion_bounds[t.id] <= t.D


def test_unschedulable_set_is_refused():
    ts = TaskSet(tasks=(
        Task(id=1, C=3, T=5, priority=1),
        Task(id=2, C=3, T=5, D=5, phase=0, priority=2),
    ))
    with pytest.raises(ValueError, match="refused"):
        compute_budgets(ts)


def _random_vectors(seed, count):
    """(by_prio, V) pairs: generated sets, some with constrained deadlines,
    and budgets drawn below each task's D - C cap."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            ts = generate_taskset(rng.randint(2, 6), rng.uniform(0.3, 0.9),
                                  (5, 8, 10, 20, 25, 40), seed=rng.getrandbits(32),
                                  tol=0.02)
        except ValueError:
            continue
        if rng.random() < 0.5:
            ts = TaskSet(tuple(Task(id=t.id, C=t.C, T=t.T, priority=t.priority,
                                    D=rng.randint(max(t.C, t.T // 2), t.T))
                               for t in ts))
        by_prio = ts.by_priority()
        v = [rng.randint(0, (t.D - t.C) // 3) for t in by_prio]
        out.append((by_prio, v))
    return out


def _raised(v, j):
    return [x + (i == j) for i, x in enumerate(v)]


def test_certification_is_monotone_in_every_budget():
    # compute_budgets stops raising a task once its raise fails; that is
    # exact only if a failing vector makes every larger vector fail.
    rejected = accepted = 0
    for by_prio, v in _random_vectors(11, 300):
        scale = _utilization_scale(by_prio)
        base = _certify(by_prio, v, scale)
        for j in range(len(by_prio)):
            up = _certify(by_prio, _raised(v, j), scale)
            if base is None:
                assert up is None, (by_prio, v, j)
            elif up is not None:
                assert all(a <= b for a, b in zip(base, up)), (by_prio, v, j)
        rejected += base is None
        accepted += base is not None
    assert rejected >= 30 and accepted >= 30


def test_certifying_from_the_raised_task_keeps_the_higher_bounds():
    checked = 0
    for by_prio, v in _random_vectors(12, 300):
        scale = _utilization_scale(by_prio)
        bounds = _certify(by_prio, v, scale)
        if bounds is None:
            continue
        for k in range(len(by_prio)):
            w = _raised(v, k)
            full = _certify(by_prio, w, scale)
            assert _certify(by_prio, w, scale, k, bounds) == full, (by_prio, w, k)
            checked += full is not None
    assert checked >= 100


def test_mode_and_guard_validation():
    with pytest.raises(ValueError, match="mode"):
        ShuffleFP(mode="chaotic")
    with pytest.raises(ValueError, match="guard"):
        ShuffleFP(guard="hope")


# --- policy behaviour ----------------------------------------------------

@pytest.mark.parametrize("mode", [TASK_ONLY, WITH_IDLE, FINE_GRAINED])
def test_zero_budgets_reduce_to_vanilla(mode):
    ts = flagship()
    base = simulate(ts, 48, policy=VanillaFP(), seed=7)
    for seed in range(5):
        tr = simulate(ts, 48, policy=ShuffleFP(mode=mode, budgets=zero_budget(ts)),
                      seed=seed)
        assert tr.slots == base.slots


@pytest.mark.parametrize("mode", [TASK_ONLY, WITH_IDLE, FINE_GRAINED])
@pytest.mark.parametrize("seed", range(10))
def test_budget_guard_prevents_misses(mode, seed):
    ts = flagship()
    tr = simulate(ts, 10 * hyperperiod(ts), policy=ShuffleFP(mode=mode), seed=seed)
    assert tr.misses == []
    assert check_trace(tr, ts) == []


@pytest.mark.parametrize("mode", [TASK_ONLY, WITH_IDLE, FINE_GRAINED])
@pytest.mark.parametrize("seed", range(10))
def test_budget_guard_prevents_misses_high_slack_pair(mode, seed):
    ts = pair_5_10()
    tr = simulate(ts, 10 * hyperperiod(ts), policy=ShuffleFP(mode=mode), seed=seed)
    assert tr.misses == []
    assert check_trace(tr, ts) == []


def test_randomization_actually_changes_the_schedule():
    ts = pair_5_10()
    base = simulate(ts, 50, policy=VanillaFP(), seed=0)
    differing = sum(
        simulate(ts, 50, policy=ShuffleFP(mode=FINE_GRAINED), seed=s).slots
        != base.slots
        for s in range(10)
    )
    assert differing >= 5


def test_same_seed_same_schedule():
    ts = pair_5_10()
    a = simulate(ts, 100, policy=ShuffleFP(mode=WITH_IDLE), seed=3)
    b = simulate(ts, 100, policy=ShuffleFP(mode=WITH_IDLE), seed=3)
    assert a.slots == b.slots and a.events == b.events


def test_task_only_preserves_busy_intervals():
    # Re-ordering ready jobs without idling never changes when the
    # processor is busy, only who occupies it.
    ts = flagship()
    vanilla = extract_busy_intervals(simulate(ts, 48, policy=VanillaFP(), seed=0))
    for seed in range(8):
        tr = simulate(ts, 48, policy=ShuffleFP(mode=TASK_ONLY), seed=seed)
        assert extract_busy_intervals(tr) == vanilla


def test_with_idle_breaks_busy_intervals_sometimes():
    ts = pair_5_10()
    vanilla = extract_busy_intervals(simulate(ts, 50, policy=VanillaFP(), seed=0))
    broken = any(
        extract_busy_intervals(simulate(ts, 50, policy=ShuffleFP(mode=WITH_IDLE),
                                        seed=s)) != vanilla
        for s in range(12)
    )
    assert broken


def test_unguarded_idling_causes_misses():
    # Without the budget guard, an early idle pick can sit through tau1's
    # whole slack; some seed in a small range must produce a miss, which
    # is exactly the hazard the guard removes.
    ts = pair_5_10()
    missed = any(
        simulate(ts, 50, policy=ShuffleFP(mode=WITH_IDLE, guard=GUARD_NONE),
                 seed=s).misses
        for s in range(20)
    )
    assert missed


def test_guarded_run_uses_inversion():
    # With budgets (3, 1) some seed must schedule tau2 (or idle) while
    # tau1 is pending: compare against the strict-priority reference.
    ts = pair_5_10()
    ref = ref_fp_slots(
        [{"C": 2, "T": 5, "priority": 1, "phase": 0},
         {"C": 3, "T": 10, "priority": 2, "phase": 0}],
        50,
    )
    vanilla = [(-1 if s == -1 else s + 1) for s in ref]
    assert any(
        simulate(ts, 50, policy=ShuffleFP(mode=TASK_ONLY), seed=s).slots != vanilla
        for s in range(10)
    )


# --- entropy metric -------------------------------------------------------

def test_entropy_two_traces_frozen():
    per, mean = schedule_entropy([[0, 1], [0, 2]])
    assert per == [0.0, 1.0]
    assert mean == 0.5


def test_entropy_identical_traces_is_zero():
    per, mean = schedule_entropy([[1, 2, -1], [1, 2, -1]])
    assert per == [0.0, 0.0, 0.0] and mean == 0.0


def test_entropy_single_trace_folded():
    per, mean = schedule_entropy([[0, 1, 0, 2]], hyperperiod=2)
    assert per == [0.0, 1.0]
    assert mean == 0.5


def test_entropy_four_way_split_is_two_bits():
    per, _ = schedule_entropy([[1], [2], [3], [4]])
    assert per == [2.0]


def test_entropy_accepts_traces():
    ts = flagship()
    tr = [simulate(ts, 12, policy=VanillaFP(), seed=s) for s in range(2)]
    per, mean = schedule_entropy(tr)
    assert mean == 0.0 and len(per) == 12


def test_entropy_rejects_mismatched_durations():
    with pytest.raises(ValueError, match="mismatched"):
        schedule_entropy([[0, 1], [0, 1, 2]])


def test_entropy_rejects_nondividing_hyperperiod():
    with pytest.raises(ValueError, match="divide"):
        schedule_entropy([[0, 1, 2, 3]], hyperperiod=3)


def test_entropy_rejects_single_sample():
    with pytest.raises(ValueError, match="two samples"):
        schedule_entropy([[0, 1, 2]])


def test_entropy_ordering_on_ensemble():
    ts = flagship()
    h = hyperperiod(ts)

    def mean_entropy(policy_factory):
        traces = [simulate(ts, 2 * h, policy=policy_factory(), seed=s)
                  for s in range(30)]
        return schedule_entropy(traces, hyperperiod=h)[1]

    vanilla = mean_entropy(VanillaFP)
    fine = mean_entropy(lambda: ShuffleFP(mode=FINE_GRAINED))
    coarse = mean_entropy(lambda: ShuffleFP(mode=TASK_ONLY))
    assert vanilla == 0.0
    assert fine > 0.0
    assert fine >= coarse >= 0.0
