"""Randomized-dispatch defense: budget construction, policy, entropy metric.

Budget vectors for the small sets were derived by hand from the two
certificates (inflated busy-window and carry-in release-window) before the
implementation existed; see the inline derivation notes.
"""

import math
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from schedlab import (
    IDLE,
    Job,
    Task,
    TaskSet,
    VanillaFP,
    extract_busy_intervals,
    check_trace,
    hyperperiod,
    shuffle,
    simulate,
)
from schedlab.analysis import INCONCLUSIVE, SCHEDULABLE
from schedlab.cli import main
from schedlab.engine import Runs, SchedulingPolicy
from schedlab.monitor import MonitorPolicy
from schedlab.scenario import parse_scenario_file
from schedlab.shuffle import (
    FINE_GRAINED,
    GUARD_BUDGET,
    GUARD_NONE,
    MODES,
    NO_SOUND_TEST,
    TASK_ONLY,
    WITH_IDLE,
    InversionBudget,
    ShuffleFP,
    _certify,
    _utilization_scale,
    compute_budgets,
    schedule_entropy,
)
from schedlab.tasks import SPORADIC, generate_taskset

from reference import ref_budgets, ref_fp_slots

WIDE = Path(__file__).parent / "scenarios" / "wide_shuffle.scn"


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


def _oracle_sets(count, seed):
    """Seeded sets of 1 to 8 tasks: light ones whose budgets reach the
    D - C cap, U up to 1 (some refused), constrained deadlines, sporadic
    tasks and bcet < C."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lo, hi = rng.choice(((0.05, 0.3), (0.3, 0.9), (0.9, 1.0)))
        try:
            ts = generate_taskset(1 + len(out) % 8, rng.uniform(lo, hi),
                                  (4, 5, 8, 10, 16, 20, 25, 40),
                                  seed=rng.getrandbits(32), tol=0.02)
        except ValueError:
            continue  # lattice miss near the target; redraw
        tasks = []
        for t in ts:
            if rng.random() < 0.4:
                t = replace(t, D=rng.randint(t.C, t.T))
            if rng.random() < 0.3:
                t = replace(t, kind=SPORADIC)
            if t.C > 1 and rng.random() < 0.3:
                t = replace(t, bcet=rng.randint(1, t.C - 1))
            tasks.append(t)
        out.append(TaskSet(tuple(tasks), ts.name))
    return out


def test_whole_sweeps_grant_what_the_one_tick_greedy_grants():
    refused = capped = stalled = 0
    for ts in _oracle_sets(320, seed=22):
        by_prio = ts.by_priority()
        scale = _utilization_scale(by_prio)
        caps = [t.D - t.C for t in by_prio]
        try:
            budgets, bounds = ref_budgets(caps, lambda v: _certify(by_prio, v, scale))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                compute_budgets(ts)
            assert str(got.value) == str(exc), ts
            refused += 1
            continue
        b = compute_budgets(ts)
        assert [b.per_task[t.id] for t in by_prio] == budgets, ts
        assert [b.completion_bounds[t.id] for t in by_prio] == bounds, ts
        capped += budgets == caps
        stalled += any(0 < v < cap for v, cap in zip(budgets, caps))
    assert refused >= 20 and capped >= 30 and stalled >= 100


def test_wide_budgets_take_few_certificates(monkeypatch):
    # One tick per certificate, these budgets took about six million.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _certify(*args, **kwargs)

    monkeypatch.setattr(shuffle, "_certify", counting)
    b = compute_budgets(parse_scenario_file(WIDE).taskset)
    assert b.per_task == {1: 999_999, 2: 1_999_995, 3: 2_999_987}
    assert b.completion_bounds == {1: 10**6, 2: 2 * 10**6, 3: 3 * 10**6}
    assert len(calls) < 200


def test_wide_shuffle_simulates(capsys):
    assert main(["simulate", str(WIDE)]) == 0
    assert "deadline misses: 0" in capsys.readouterr().out


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


def test_only_the_guarded_shuffle_gets_a_verdict():
    ts = pair_5_10()
    guarded = ShuffleFP(mode=WITH_IDLE).analyze(ts)
    assert guarded.verdict == SCHEDULABLE and guarded.method == "rta"
    for mode in MODES:
        rep = ShuffleFP(mode=mode, guard=GUARD_NONE).analyze(ts)
        assert rep.verdict == INCONCLUSIVE
        assert rep.method == NO_SOUND_TEST
        assert rep.per_task_response == {} and rep.deadlines == {}


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


# --- the legality rule against its definition ------------------------------

class _RecordingRng:
    """Stands in for the policy rng: records each candidate list it is given
    and picks the last candidate."""

    def __init__(self):
        self.given = []

    def choice(self, seq):
        self.given.append(list(seq))
        return seq[-1]


class _Ctx:
    def __init__(self, arrivals=(), completed=None):
        self.rng = _RecordingRng()
        self.arrivals = list(arrivals)
        self.completed = completed


def _job(task_id, job_id, priority, release=0):
    return Job(task_id=task_id, job_id=job_id, release=release,
               absolute_deadline=release + 100, exec_demand=1, remaining=1,
               priority=priority)


def _reference_draw(ready, remaining, mode, guard, sticky):
    """The candidate list the per-candidate rule gives pick's draw, or None
    when the sticky choice stands: a job is legal iff every ready job above
    it has a tick of budget left, and idle iff every ready job has."""
    def enough(j):
        return remaining.get(j.job_id, 0) >= 1

    def job_legal(job):
        return guard == GUARD_NONE or all(
            enough(j) for j in ready if j.priority < job.priority)

    idle_legal = guard == GUARD_NONE or all(enough(j) for j in ready)
    if mode != FINE_GRAINED:
        if sticky is IDLE and idle_legal:
            return None
        if sticky is not IDLE and sticky in ready and job_legal(sticky):
            return None
    candidates = [j for j in ready if job_legal(j)]
    if mode != TASK_ONLY and idle_legal:
        candidates.append(IDLE)
    return candidates


def _check_pick(ready, remaining, mode, guard=GUARD_BUDGET, sticky=None):
    """Drive pick at a non-decision tick and compare with the reference."""
    budgets = InversionBudget(per_task={}, completion_bounds={})
    policy = ShuffleFP(mode=mode, guard=guard, budgets=budgets)
    policy.attach(None, None)
    policy.remaining = dict(remaining)
    policy.sticky = sticky
    ctx = _Ctx()
    choice = policy.pick(0, ready, ctx)
    want = _reference_draw(ready, remaining, mode, guard, sticky)
    if want is None:
        assert ctx.rng.given == [] and choice is sticky
    else:
        assert ctx.rng.given == [want] and choice is want[-1]
    assert policy.sticky is choice
    return want


def test_spent_first_job_keeps_its_sibling_and_drops_lower_levels():
    a1, a2, b, c = _job(1, 1, 1), _job(1, 2, 1, 5), _job(2, 3, 2), _job(3, 4, 3)
    ready = [a1, a2, b, c]
    for mode in MODES:
        assert _check_pick(ready, {1: 0, 2: 2, 3: 2, 4: 2}, mode) == [a1, a2]


def test_spent_job_in_the_middle_ends_the_prefix_at_its_level():
    a, b, c, d = (_job(t, t, t) for t in (1, 2, 3, 4))
    ready = [a, b, c, d]
    for mode in MODES:
        assert _check_pick(ready, {1: 2, 2: 0, 3: 1, 4: 1}, mode) == [a, b]


def test_no_job_spent_and_every_job_spent():
    a, b, c = (_job(t, t, t) for t in (1, 2, 3))
    ready = [a, b, c]
    assert _check_pick(ready, {1: 1, 2: 2, 3: 1}, TASK_ONLY) == ready
    assert _check_pick(ready, {1: 1, 2: 2, 3: 1}, WITH_IDLE) == [*ready, IDLE]
    for mode in MODES:
        assert _check_pick(ready, {}, mode) == [a]


def test_sticky_choice_past_the_prefix_forces_a_fresh_draw():
    a, b, c = (_job(t, t, t) for t in (1, 2, 3))
    ready = [a, b, c]
    some_spent = {1: 1, 2: 0, 3: 1}
    assert _check_pick(ready, some_spent, TASK_ONLY, sticky=c) == [a, b]
    assert _check_pick(ready, some_spent, WITH_IDLE, sticky=IDLE) == [a, b]
    assert _check_pick(ready, some_spent, TASK_ONLY, sticky=b) is None
    assert _check_pick(ready, {1: 1, 2: 1}, WITH_IDLE, sticky=IDLE) == [a, b, c]
    assert _check_pick(ready, {1: 1, 2: 1, 3: 1}, WITH_IDLE, sticky=IDLE) is None


def test_unguarded_shuffle_keeps_no_budgets():
    a, b = _job(1, 1, 1), _job(2, 2, 2)
    for mode in MODES:
        assert _check_pick([a, b], {}, mode, guard=GUARD_NONE) == (
            [a, b] if mode == TASK_ONLY else [a, b, IDLE])
    budgets = InversionBudget(per_task={1: 3, 2: 3}, completion_bounds={})
    policy = ShuffleFP(mode=WITH_IDLE, guard=GUARD_NONE, budgets=budgets)
    policy.attach(None, None)
    assert policy.budget is None
    ctx = _Ctx(arrivals=[a, b])
    choice = policy.pick(0, [a, b], ctx)
    assert policy.hold(0, [a, b], ctx, choice, 7) == 7
    assert policy.remaining == {}


def test_pick_matches_the_per_candidate_rule_on_random_ready_lists():
    rng = random.Random(2016)
    drawn = kept = 0
    for _ in range(1000):
        tasks = rng.randint(1, 8)
        priorities = rng.sample(range(1, 20), tasks)
        ready, job_id = [], 0
        for task_id, prio in enumerate(priorities, start=1):
            for k in range(rng.randint(1, 3)):
                job_id += 1
                ready.append(_job(task_id, job_id, prio, release=10 * k))
        ready = rng.sample(ready, rng.randint(1, len(ready)))
        ready.sort(key=lambda j: j.sort_key)
        remaining = {j.job_id: rng.randint(0, 2) for j in ready}
        sticky = rng.choice([None, IDLE, *ready, _job(99, 99, 0)])
        want = _check_pick(ready, remaining, rng.choice(MODES),
                           rng.choice([GUARD_BUDGET, GUARD_NONE]), sticky)
        drawn += want is not None
        kept += want is None
    assert drawn > 300 and kept > 100


# --- fine-grained holds against tick-by-tick dispatch -----------------------

class _Holds(SchedulingPolicy):
    """The wrapped policy with its hold's limit cut to `cap` (None keeps it);
    records every hold's length."""

    def __init__(self, inner, cap=None):
        self.inner = inner
        self.cap = cap
        self.name = inner.name
        self.lengths = []

    def attach(self, ts, ctx):
        self.inner.attach(ts, ctx)

    def managed_task_ids(self):
        return self.inner.managed_task_ids()

    def pick(self, tick, ready, ctx):
        return self.inner.pick(tick, ready, ctx)

    def hold(self, tick, ready, ctx, choice, limit):
        k = self.inner.hold(tick, ready, ctx, choice,
                            limit if self.cap is None else min(limit, self.cap))
        self.lengths.append(k)
        return k


def _fine_grained_sets(count=30, seed=21):
    """Seeded sets with random phases, some tasks sporadic, some with bcet < C."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        ts = generate_taskset(rng.randint(2, 5), rng.uniform(0.5, 0.85),
                              (4, 5, 6, 8, 10, 12, 15, 20), seed=k, tol=0.02)
        tasks = []
        for t in ts:
            t = replace(t, phase=rng.randrange(t.T))
            if t.C > 1 and rng.random() < 0.4:
                t = replace(t, bcet=rng.randint(1, t.C - 1))
            if rng.random() < 0.3:
                t = replace(t, kind=SPORADIC)
            tasks.append(t)
        out.append(TaskSet(tuple(tasks), ts.name))
    return out


FINE_GRAINED_POLICIES = {
    "guarded": lambda ts: ShuffleFP(mode=FINE_GRAINED),
    "unguarded": lambda ts: ShuffleFP(mode=FINE_GRAINED, guard=GUARD_NONE),
    "monitor": lambda ts: MonitorPolicy(ts.by_priority()[-1].id,
                                        base=ShuffleFP(mode=FINE_GRAINED),
                                        alert_ticks=(50, 200)),
}


@pytest.mark.parametrize("config", sorted(FINE_GRAINED_POLICIES))
def test_fine_grained_holds_leave_the_tick_by_tick_trace(config):
    """A hold that draws ahead leaves the trace of a hold held to one tick."""
    make = FINE_GRAINED_POLICIES[config]
    ran = long_holds = 0
    for seed, ts in enumerate(_fine_grained_sets()):
        traces = []
        for cap in (None, 1):
            policy = _Holds(make(ts), cap)
            try:
                trace = simulate(ts, 300, policy=policy, seed=seed)
            except ValueError:  # refused: not schedulable, or no monitor placement
                break
            traces.append(trace.slots_csv() + trace.events_csv())
            if cap is None:
                long_holds += sum(k > 1 for k in policy.lengths)
        else:
            assert traces[0] == traces[1], (config, seed)
            ran += 1
    assert ran >= 10 and long_holds > 100


# --- entropy metric -------------------------------------------------------

def stand_ins(seqs):
    """Stand-ins for schedule traces, one row per tick: schedule_entropy
    reads only duration and runs."""
    return [SimpleNamespace(duration=len(s), runs=Runs([1] * len(s), s, [-1] * len(s)))
            for s in seqs]


def test_entropy_two_traces_frozen():
    per, mean = schedule_entropy(stand_ins([[0, 1], [0, 2]]))
    assert per == [0.0, 1.0]
    assert mean == 0.5


def test_entropy_identical_traces_is_zero():
    per, mean = schedule_entropy(stand_ins([[1, 2, -1], [1, 2, -1]]))
    assert per == [0.0, 0.0, 0.0] and mean == 0.0


def test_entropy_single_trace_folded():
    per, mean = schedule_entropy(stand_ins([[0, 1, 0, 2]]), hyperperiod=2)
    assert per == [0.0, 1.0]
    assert mean == 0.5


def test_entropy_four_way_split_is_two_bits():
    per, _ = schedule_entropy(stand_ins([[1], [2], [3], [4]]))
    assert per == [2.0]


def test_entropy_accepts_traces():
    ts = flagship()
    tr = [simulate(ts, 12, policy=VanillaFP(), seed=s) for s in range(2)]
    per, mean = schedule_entropy(tr)
    assert mean == 0.0 and len(per) == 12


def test_entropy_rejects_mismatched_durations():
    with pytest.raises(ValueError, match="mismatched"):
        schedule_entropy(stand_ins([[0, 1], [0, 1, 2]]))


def test_entropy_rejects_nondividing_hyperperiod():
    with pytest.raises(ValueError, match="divide"):
        schedule_entropy(stand_ins([[0, 1, 2, 3]]), hyperperiod=3)


def test_entropy_rejects_single_sample():
    with pytest.raises(ValueError, match="two samples"):
        schedule_entropy(stand_ins([[0, 1, 2]]))


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
