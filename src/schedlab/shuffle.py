"""Schedule randomization with a feasibility guard, plus randomness metrics.

The policy randomizes the dispatch order inside slack the analysis can
prove harmless.  Each task gets a static inversion budget V_i; at runtime
every tick spent under priority inversion (a lower-priority job or the
idle slot running while a job waits) charges one tick against each waiting
higher-priority job's per-job budget, and candidates that would overdraw
anyone's budget are excluded.  The highest-priority ready job never
charges anyone, so a legal candidate always exists.

Budget construction: a vector V is accepted only if every task passes at
least one of two per-task certificates.

* Busy-window certificate: inside a level-i busy window, every inversion
  tick consumes budget from some pending job at level i or above, so the
  window and each job's completion are bounded by the classic multi-job
  busy-window recurrence with each participant's cost inflated to
  C_j + V_j.  Requires the inflated utilization at level i to stay <= 1,
  tested exactly in integers: sum of (C_j + V_j) * (H / T_j) <= H, with H
  the lcm of the set's periods.
* Release-window certificate: a job of tau_i finishes within
  R = C_i + V_i + sum over higher j of ceil((R + B_j) / T_j) * C_j,
  where B_j is an already-proven completion bound for tau_j (so hp work
  executing inside the window comes only from releases in an interval of
  length R + B_j).  Unlike the busy-window form this tolerates inflated
  utilization above 1, at the price of explicit carry-in accounting.

Both certificates are least fixed points of `analysis.fixed_point`: the
k-th job of the busy window has own cost k * (C_i + V_i) and terms
(T_j, C_j + V_j, 0), and the release window has own cost C_i + V_i and
terms (T_j, C_j, B_j).  B_i is the smaller of the two bounds that hold.

With V = 0 the busy-window certificate is exactly classic RTA, so every
RTA-schedulable set admits at least the all-zero vector.  Budgets then
grow greedily, one tick at a time in priority order, keeping a vector only
when every task still certifies.  Two facts keep the greedy cheap without
changing a budget or a bound it grants:

* Task i's certificates read only V_j and B_j of tau_i and the tasks above
  it.  So after a one-tick raise of V_k the bounds above k stand, and only
  tau_k and the tasks below it are certified again.
* Every fixed point and the inflated utilization are non-decreasing in
  every V_j and every B_j, and so, task by task from the top, is every B_i.
  (The iteration cap of `fixed_point` cannot break this while the limits
  stay below it, since each iterate under the limit adds at least a tick.)
  A vector that fails therefore makes every larger vector fail.  Budgets
  only grow, so a task whose one-tick raise failed would fail again in
  every later sweep, and it is not tried again.  The greedy still accepts
  the same vectors in the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from schedlab.analysis import (INCONCLUSIVE, SCHEDULABLE, AnalysisReport, fixed_point,
                               response_time_analysis)
from schedlab.engine import IDLE, SchedulingPolicy
from schedlab.tasks import TaskSet, require_valid

TASK_ONLY = "task_only"
WITH_IDLE = "with_idle"
FINE_GRAINED = "fine_grained"
MODES = (TASK_ONLY, WITH_IDLE, FINE_GRAINED)

GUARD_BUDGET = "budget"
GUARD_NONE = "none"  # unsafe, test-only: shows why the guard exists
NO_SOUND_TEST = "unguarded_no_sound_test"  # the method an unguarded shuffle reports

_MAX_WINDOW_JOBS = 10_000


@dataclass(frozen=True)
class InversionBudget:
    """Static per-task inversion budgets plus the proven completion bounds."""

    per_task: dict
    completion_bounds: dict


def _utilization_scale(by_prio) -> tuple[int, list]:
    """H, the lcm of the periods, and each task's weight H / T."""
    hyper = math.lcm(*(t.T for t in by_prio))
    return hyper, [hyper // t.T for t in by_prio]


def _cert_busy_window(task, cost, terms, load, hyper) -> int | None:
    """Inflated multi-job busy-window bound for task, or None if it fails.

    cost is C + V of task, terms hold (T_j, C_j + V_j, 0) of the tasks
    above it, and load is sum of (C_j + V_j) * (H / T_j) over task and
    those above it, with hyper = H.
    """
    if load > hyper:
        return None  # window may never close; certificate inapplicable
    worst = 0
    for k in range(1, _MAX_WINDOW_JOBS + 1):
        limit = (k - 1) * task.T + task.D
        r = fixed_point(k * cost, terms, limit)
        if r is None or r > limit:
            return None  # k-th job in the window would miss
        worst = max(worst, r - (k - 1) * task.T)
        if r <= k * task.T:
            return worst  # window closes before the next own release
    return None


def _cert_release_window(task, cost, terms) -> int | None:
    """Carry-in-aware single-job bound for task, or None if it fails.

    terms hold (T_j, C_j, B_j) of the tasks above it, each B_j a proven
    completion bound.
    """
    r = fixed_point(cost, terms, task.D)
    return None if r is None or r > task.D else r


def _certify(by_prio, budgets, scale, start=0, bounds=()) -> list | None:
    """Completion bounds of every task under budgets, or None on a failure.

    by_prio, budgets and bounds are in priority order, and scale is
    `_utilization_scale(by_prio)`.  bounds[:start] must be the proven
    bounds of the tasks above start under the same budgets[:start]; they
    are kept, and only by_prio[start:] is certified.
    """
    hyper, weights = scale
    out = list(bounds[:start])
    load = 0
    busy, release = [], []
    for i, task in enumerate(by_prio):
        cost = task.C + budgets[i]
        load += cost * weights[i]
        if i >= start:
            a = _cert_busy_window(task, cost, busy, load, hyper)
            b = _cert_release_window(task, cost, release)
            if a is None and b is None:
                return None
            out.append(min(x for x in (a, b) if x is not None))
        busy.append((task.T, cost, 0))
        release.append((task.T, task.C, out[i]))
    return out


def compute_budgets(ts: TaskSet) -> InversionBudget:
    """Largest greedily-reachable safe inversion budgets for ts.

    Starts from the all-zero vector (certified iff classic RTA passes) and
    repeatedly sweeps tasks in priority order, granting one extra tick
    wherever the whole vector still certifies, until a sweep stalls.
    Raises for sets that are not RTA-schedulable: shuffling is refused
    rather than allowed to endanger deadlines.
    """
    if response_time_analysis(ts).verdict != SCHEDULABLE:
        raise ValueError("task set is not RTA-schedulable; shuffling refused")
    by_prio = ts.by_priority()
    scale = _utilization_scale(by_prio)
    budgets = [0] * len(by_prio)
    bounds = _certify(by_prio, budgets, scale)
    if bounds is None:  # cannot happen for RTA-schedulable sets
        raise AssertionError("zero-budget certificate failed on a schedulable set")
    # Tasks still worth a raise: below the D - C cap (beyond it the job
    # itself cannot fit by its deadline) and with no failed raise yet.
    live = [t.C < t.D for t in by_prio]
    changed = True
    while changed:
        changed = False
        for k, task in enumerate(by_prio):
            if not live[k]:
                continue
            budgets[k] += 1
            trial = _certify(by_prio, budgets, scale, k, bounds)
            if trial is None:
                budgets[k] -= 1
                live[k] = False  # every later vector is larger and fails too
            else:
                bounds = trial
                changed = True
                live[k] = budgets[k] < task.D - task.C
    granted = {t.id: v for t, v in zip(by_prio, budgets)}
    return InversionBudget(per_task={t.id: granted[t.id] for t in ts},
                           completion_bounds={t.id: b for t, b in zip(by_prio, bounds)})


class ShuffleFP(SchedulingPolicy):
    """Randomized fixed-priority dispatch in three granularities.

    task_only re-picks among ready jobs at arrivals and completions;
    with_idle adds the idle slot as a candidate; fine_grained re-picks
    every tick.  A choice other than the highest-priority ready job
    charges the budgets of everyone it delays (idle charges every ready
    job); between decision points the previous choice persists until an
    arrival, a completion, or its legality expiring forces a new pick.

    Under the guard a job may run only while every waiting job above it
    has budget left, so the legal jobs are a prefix of `ready`: every job
    up to and including the priority level of the first ready job whose
    budget is spent.  Idle is legal only when no ready job is spent.
    Unguarded, budgets never change a choice, so none are kept.
    """

    def __init__(self, mode: str = TASK_ONLY, guard: str = GUARD_BUDGET,
                 budgets: InversionBudget | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if guard not in (GUARD_BUDGET, GUARD_NONE):
            raise ValueError(f"unknown guard {guard!r}")
        self.mode = mode
        self.guard = guard
        self._given = budgets
        self.name = f"shuffle-{mode}"

    def analyze(self, ts):
        """Plain RTA if guarded; unguarded, a job's delay is unbounded: inconclusive."""
        if self.guard == GUARD_NONE:
            require_valid(ts)
            return AnalysisReport(INCONCLUSIVE, NO_SOUND_TEST)
        return response_time_analysis(ts)

    def attach(self, ts, ctx):
        self.budget = None
        if self.guard == GUARD_BUDGET:
            self.budget = self._given if self._given is not None else compute_budgets(ts)
        self.remaining: dict[int, int] = {}
        self.sticky = None

    def _legal(self, ready) -> tuple[list, bool]:
        """The legal prefix of ready and whether idle is legal, in one pass."""
        if self.budget is not None:
            remaining = self.remaining
            for i, job in enumerate(ready):
                if remaining.get(job.job_id, 0) < 1:
                    end = i + 1
                    while end < len(ready) and ready[end].priority == job.priority:
                        end += 1
                    return ready[:end], False
        return ready, True

    def pick(self, tick, ready, ctx):
        if self.budget is not None:
            for job in ctx.arrivals:
                self.remaining[job.job_id] = self.budget.per_task[job.task_id]
            if ctx.completed is not None:
                self.remaining.pop(ctx.completed.job_id, None)
        if not ready:
            # Forced idle: nobody is waiting, so nobody is charged.
            self.sticky = None
            return IDLE
        legal, idle_legal = self._legal(ready)
        choice = self.sticky  # kept unless a decision point or it is no longer legal
        if (self.mode == FINE_GRAINED or ctx.arrivals or ctx.completed is not None
                or not (idle_legal if choice is IDLE else choice in legal)):
            if self.mode != TASK_ONLY and idle_legal:
                legal = [*legal, IDLE]
            choice = ctx.rng.choice(legal)
        self.sticky = choice
        return choice

    def hold(self, tick, ready, ctx, choice, limit):
        # Each tick of the choice charges one tick to every job it delays.
        # The choice stands while each of them has budget left; a charged
        # job with none left means pick broke the guard.
        k = 1 if self.mode == FINE_GRAINED else limit
        if self.budget is None:
            return k
        if choice is IDLE:
            charged = ready
        else:
            charged = [j for j in ready if j.priority < choice.priority]
        remaining = self.remaining
        if charged:
            k = min(k, min(remaining.get(j.job_id, 0) for j in charged))
            if k < 1:
                raise AssertionError("inversion budget overdrawn")
        for j in charged:
            remaining[j.job_id] = remaining.get(j.job_id, 0) - k
        return k


def schedule_entropy(traces, hyperperiod: int | None = None):
    """Shannon entropy (bits) of the occupant per tick offset, plus the mean.

    traces are schedule traces, read through their `slots`; all must share
    one duration.  When `hyperperiod` is given and
    divides the duration, the samples at offset o pool slots o, o + H,
    o + 2H, ... across every trace, so a single long trace measures its
    own hyperperiod-to-hyperperiod variability.  At least two samples per
    offset are required.
    """
    seqs = [t.slots for t in traces]
    if not seqs:
        raise ValueError("no traces given")
    duration = len(seqs[0])
    if any(len(s) != duration for s in seqs):
        raise ValueError("traces have mismatched durations")
    h = duration if hyperperiod is None else hyperperiod
    if h <= 0 or duration % h != 0:
        raise ValueError(f"hyperperiod {h} does not divide duration {duration}")
    total = duration // h * len(seqs)  # samples per offset
    if total < 2:
        raise ValueError("need at least two samples per offset")
    per_offset = []
    for o in range(h):
        counts = Counter(occ for s in seqs for occ in s[o::h])
        ent = 0.0
        for c in counts.values():
            p = c / total
            ent -= p * math.log2(p)
        per_offset.append(ent)
    return per_offset, sum(per_offset) / len(per_offset)
