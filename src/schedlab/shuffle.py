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
RTA-schedulable set admits at least the all-zero vector.  The budgets
granted are those of a greedy that sweeps the tasks in priority order,
raises each by one tick and keeps a raise only when every task still
certifies, until a sweep raises nobody.  Three facts give the same
budgets and bounds for far fewer certificates:

* Task i's certificates read only V_j and B_j of tau_i and the tasks above
  it.  So the bounds are a function of the vector, and after raising
  budgets from V_k down the bounds above k stand, and only tau_k and the
  tasks below it are certified again.
* Every fixed point and the inflated utilization are non-decreasing in
  every V_j and every B_j, and so, task by task from the top, is every B_i.
  (The iteration cap of `fixed_point` cannot break this while the limits
  stay below it, since each iterate under the limit adds at least a tick.)
  A vector that fails therefore makes every larger vector fail.  Budgets
  only grow, so a task whose one-tick raise failed would fail again in
  every later sweep, and it is not tried again.  The greedy still accepts
  the same vectors in the same order.
* Whole sweeps.  Call a task live while it is below its D - C cap and has
  no failed raise, and let raised(m) give every live task m more ticks,
  each capped at D - C.  Every vector the greedy tries in its next m
  sweeps is at most raised(m) in every budget.  So if raised(m)
  certifies, the greedy accepts all of those raises, in order, and
  reaches raised(m).  `compute_budgets` gallops on m and then bisects it
  to find the largest such m, and takes those sweeps at once.  It runs
  sweep m + 1 one raise at a time.  Had every raise of that sweep held,
  it would end at raised(m + 1), which fails, so one of them fails and
  its task is retired.  A call is at most n rounds of O(log D + n)
  certificates, where the one-tick greedy made one per granted tick.
"""

from __future__ import annotations

import math
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

    Grants what the module docstring's one-tick greedy grants, from the
    all-zero vector (certified iff classic RTA passes), by whole sweeps.
    If every live task m ticks higher (capped at D - C) certifies, so does
    every vector of the greedy's next m sweeps, which is no larger in any
    budget; the greedy would accept all of them.  So each round gallops on
    m, then bisects it, to find the largest such m, and grants those m
    sweeps at once.  Sweep m + 1 then runs one raise at a time, and one of
    its raises fails, so every round retires a task: O(n (log D + n))
    certificates a call.  Raises for sets that are not RTA-schedulable:
    shuffling is refused rather than allowed to endanger deadlines.
    """
    if response_time_analysis(ts).verdict != SCHEDULABLE:
        raise ValueError("task set is not RTA-schedulable; shuffling refused")
    by_prio = ts.by_priority()
    scale = _utilization_scale(by_prio)
    caps = [t.D - t.C for t in by_prio]  # beyond it the job cannot fit by its deadline
    budgets = [0] * len(by_prio)
    bounds = _certify(by_prio, budgets, scale)
    if bounds is None:  # cannot happen for RTA-schedulable sets
        raise AssertionError("zero-budget certificate failed on a schedulable set")
    # Tasks still worth a raise: below the cap and with no failed raise yet.
    live = [k for k, cap in enumerate(caps) if cap > 0]
    while live:
        # m whole sweeps certify for m = good and fail for m = bad; until
        # one fails, bad is top + 1, past the last m that raises anyone.
        top = max(caps[k] - budgets[k] for k in live)
        good, bad, best = 0, top + 1, None
        while bad - good > 1:
            m = (good + bad) // 2 if bad <= top else min(2 * good or 1, top)
            trial = budgets[:]
            for k in live:
                trial[k] = min(caps[k], trial[k] + m)
            proven = _certify(by_prio, trial, scale, live[0], bounds)
            if proven is None:
                bad = m
            else:
                good, best = m, (trial, proven)
        if best is not None:
            budgets, bounds = best
            live = [k for k in live if budgets[k] < caps[k]]
        kept = []
        for k in live:  # sweep good + 1, one raise at a time
            budgets[k] += 1
            proven = _certify(by_prio, budgets, scale, k, bounds)
            if proven is None:
                budgets[k] -= 1  # every later vector is larger and fails too
            else:
                bounds = proven
                if budgets[k] < caps[k]:
                    kept.append(k)
        live = kept
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

    A fine-grained hold makes the next ticks' draws early: the same
    `ctx.rng.choice` call over the same candidates, in the same order, that
    pick would make on each tick.  Before the hold's limit nothing is
    released, completes or reaches its deadline, and before the smallest
    budget of the jobs the choice delays runs out no job's legality
    changes, so every tick would give pick the candidates of its last
    draw.  The hold ends at the first draw that differs from the choice,
    and pick returns that draw at its tick; otherwise it ends at the limit
    or that budget.  A forced idle (nothing ready) draws nothing and holds
    to the limit.

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
        self.drawn_from: list = []  # the candidates of pick's last draw
        self.ahead: tuple | None = None  # (tick, choice) a hold drew early

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
        if self.ahead is not None:
            # The hold before this tick drew this tick's choice.  Nothing
            # arrived or completed since, so no budget is set or dropped.
            at, choice = self.ahead
            self.ahead = None
            if at != tick:
                raise AssertionError(f"choice drawn for tick {at} asked for at {tick}")
            return choice
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
            self.drawn_from = legal
        self.sticky = choice
        return choice

    def hold(self, tick, ready, ctx, choice, limit):
        # Each tick of the choice charges one tick to every job it delays.
        # The choice stands while each of them has budget left; a charged
        # job with none left means pick broke the guard.  ready[0] delays
        # nobody.
        charged = ()
        if self.budget is not None and ready and choice is not ready[0]:
            if choice is IDLE:
                charged = ready
            else:
                charged = [j for j in ready if j.priority < choice.priority]
        remaining = self.remaining
        if charged:
            cap = min(remaining.get(j.job_id, 0) for j in charged)
            if cap < 1:
                raise AssertionError("inversion budget overdrawn")
            limit = min(limit, cap)
        k = limit
        if self.mode == FINE_GRAINED and ready:
            # Draw the next ticks' choices as pick would, from the same
            # candidates; no legality changes before limit.
            draw, legal = ctx.rng.choice, self.drawn_from
            k = 1
            while k < limit:
                nxt = draw(legal)
                if nxt is not choice:
                    self.ahead = (tick + k, nxt)
                    break
                k += 1
        for j in charged:
            remaining[j.job_id] = remaining.get(j.job_id, 0) - k
        return k


def schedule_entropy(traces, hyperperiod: int | None = None):
    """Shannon entropy (bits) of the occupant per tick offset, plus the mean.

    traces are schedule traces, read through their `duration` and `runs`;
    all must share one duration.  When `hyperperiod` is given and
    divides the duration, the samples at offset o pool slots o, o + H,
    o + 2H, ... across every trace, so a single long trace measures its
    own hyperperiod-to-hyperperiod variability.  At least two samples per
    offset are required.
    """
    if not traces:
        raise ValueError("no traces given")
    duration = traces[0].duration
    if any(t.duration != duration for t in traces):
        raise ValueError("traces have mismatched durations")
    h = duration if hyperperiod is None else hyperperiod
    if h <= 0 or duration % h != 0:
        raise ValueError(f"hyperperiod {h} does not divide duration {duration}")
    total = duration // h * len(traces)  # samples per offset
    if total < 2:
        raise ValueError("need at least two samples per offset")
    # Occupant counts per offset, each in order of first occurrence (trace
    # by trace, tick by tick), so the sums below add in a fixed order.
    counts = [{} for _ in range(h)]
    for trace in traces:
        o = 0  # offset of the row's first tick
        for length, occ in zip(trace.runs.length, trace.runs.occupant):
            if length == 1:  # most rows of a fine-grained shuffle
                c = counts[o]
                c[occ] = c.get(occ, 0) + 1
                o = o + 1 if o + 1 < h else 0
                continue
            laps, rest = divmod(length, h)
            if laps:
                for c in counts:
                    c[occ] = c.get(occ, 0) + laps
            end = o + rest
            for c in counts[o:end] if end <= h else counts[o:] + counts[:end - h]:
                c[occ] = c.get(occ, 0) + 1
            o = end if end < h else end - h
    per_offset = []
    for c in counts:
        ent = 0.0
        for n in c.values():
            p = n / total
            ent -= p * math.log2(p)
        per_offset.append(ent)
    return per_offset, sum(per_offset) / len(per_offset)
