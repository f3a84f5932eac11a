"""Inferring task release offsets from busy/idle observations.

An attacker who can only tell busy from idle (a low-priority spy task, a
power trace, a bus monitor) still learns a lot about a fixed-priority
periodic system: the busy intervals over a window are a deterministic
function of the release offsets.  This module recovers the set of offset
vectors consistent with an observation.

The search walks tasks from highest to lowest priority.  Fixed-priority
dispatch means earlier (higher) tasks are unaffected by later ones, so a
partial assignment can be simulated incrementally: each new task's jobs
claim the earliest free ticks at or after max(release, previous job's
finish), where ticks past the window count as free.  Two prunes keep the
walk small: a partial schedule that occupies an observed-idle tick can
never become consistent, and the unassigned tasks' maximum demand must be
able to cover the still-unexplained busy ticks.

A leaf whose occupancy equals the observed busy mask is reported as a
candidate without running the simulator again.  That is exact for
preemptive fixed priority when tasks are periodic, every job runs for
exactly C and priorities are unique: the engine orders ready jobs by
(priority, release, job id) and keeps a late job running, so the task
being added takes exactly the ticks its higher-priority tasks leave free,
job by job in release order, and the ticks it takes past the window
cannot change anything inside it.  Inputs outside those three conditions
are refused up front.  brute_force_offsets stays simulator-based, as the
independent oracle the search is tested against.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from schedlab.engine import VanillaFP, extract_busy_intervals, simulate
from schedlab.tasks import PERIODIC, TaskSet, hyperperiod, require_valid

EXACT = "exact"
AMBIGUOUS = "ambiguous"
FAILED = "failed"

BRUTE_FORCE_CAP = 10_000_000


@dataclass(frozen=True)
class Observation:
    """Busy intervals seen over [0, window); busy is ((start, end), ...)."""

    window: int
    busy: tuple

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be >= 0")
        norm = tuple((int(b), int(e)) for b, e in self.busy)
        prev_end = 0
        for b, e in norm:
            if not (0 <= b < e <= self.window):
                raise ValueError(f"interval ({b}, {e}) outside [0, {self.window})")
            if b < prev_end:
                raise ValueError("busy intervals must be sorted and disjoint")
            prev_end = e
        object.__setattr__(self, "busy", norm)

    @classmethod
    def from_trace(cls, trace) -> "Observation":
        return cls(window=trace.duration, busy=extract_busy_intervals(trace))

    def mask(self) -> int:
        m = 0
        for b, e in self.busy:
            m |= ((1 << (e - b)) - 1) << b
        return m


def observe(ts: TaskSet, window: int, seed: int = 0) -> Observation:
    """Run the victim and keep only what a busy/idle prober would see."""
    return Observation.from_trace(simulate(ts, window, policy=VanillaFP(), seed=seed))


@dataclass(frozen=True)
class InferenceResult:
    task_ids: tuple        # ascending; positions in each candidate vector
    candidates: tuple      # offset vectors consistent with the observation
    status: str            # exact | ambiguous | failed
    low_confidence: bool   # window shorter than the hyperperiod
    explored: int          # partial assignments examined


def _require_periodic(ts: TaskSet):
    bad = [t.id for t in ts if t.kind != PERIODIC]
    if bad:
        raise ValueError(f"offset inference needs periodic tasks; sporadic: {bad}")


def require_inferable(ts: TaskSet) -> None:
    """Refuse a set the search cannot answer exactly (see the module doc).

    The set must be valid (unique priorities among others), periodic, and
    run every job for exactly C (bcet unset or equal to C).
    """
    require_valid(ts)
    _require_periodic(ts)
    variable = [t.id for t in ts if not t.fixed_execution]
    if variable:
        raise ValueError(
            f"offset inference needs a fixed execution time; bcet < C: {variable}"
        )


def _place(occ: int, busy: int, window: int, C: int, T: int, offset: int):
    """Claim one task's execution ticks on top of occ; None on conflict.

    Exact for fixed priorities: the task being added is the lowest so far,
    so it runs precisely in the free ticks, job by job in release order.
    Ticks at or past the window are treated as free.
    """
    release = offset
    prev_done = 0
    while release < window:
        pos = max(release, prev_done)
        remaining = C
        while remaining > 0 and pos < window:
            if not (occ >> pos) & 1:
                if not (busy >> pos) & 1:
                    return None  # runs during an observed-idle tick
                occ |= 1 << pos
                remaining -= 1
            pos += 1
        prev_done = pos + remaining  # spill past the window finishes there
        release += T
    return occ


def _max_demand(task, window: int) -> int:
    if window <= 0:
        return 0
    jobs = (window - 1) // task.T + 1  # releases in [0, window), offset 0
    return jobs * task.C


def infer_offsets(ts: TaskSet, obs: Observation) -> InferenceResult:
    """All release-offset vectors (one per task, in [0, T)) matching obs.

    The task set supplies ids, costs, periods, and priorities; any offsets
    it carries are ignored.  The window must cover at least one period of
    every task, otherwise a task could hide entirely and the answer would
    be vacuous.  Sets that require_inferable refuses raise ValueError.
    """
    require_inferable(ts)
    longest = max(t.T for t in ts)
    if obs.window < longest:
        raise ValueError(
            f"window {obs.window} is shorter than the longest period {longest}"
        )
    by_prio = ts.by_priority()
    busy_mask = obs.mask()
    want = busy_mask.bit_count()
    demand_tail = [0] * (len(by_prio) + 1)
    for i in range(len(by_prio) - 1, -1, -1):
        demand_tail[i] = demand_tail[i + 1] + _max_demand(by_prio[i], obs.window)

    found = []
    explored = 0

    def walk(level: int, occ: int, offsets: tuple):
        nonlocal explored
        if level == len(by_prio):
            if occ == busy_mask:
                found.append(offsets)
            return
        task = by_prio[level]
        for offset in range(task.T):
            explored += 1
            nxt = _place(occ, busy_mask, obs.window, task.C, task.T, offset)
            if nxt is None:
                continue
            if nxt.bit_count() + demand_tail[level + 1] < want:
                continue  # the rest cannot explain the remaining busy ticks
            walk(level + 1, nxt, offsets + (offset,))

    walk(0, 0, ())

    ids_sorted = tuple(sorted(t.id for t in ts))
    pos = {t.id: i for i, t in enumerate(by_prio)}
    candidates = sorted(tuple(c[pos[i]] for i in ids_sorted) for c in found)
    status = (FAILED if not candidates
              else EXACT if len(candidates) == 1 else AMBIGUOUS)
    return InferenceResult(
        task_ids=ids_sorted,
        candidates=tuple(candidates),
        status=status,
        low_confidence=_shorter_than_hyperperiod(ts, obs.window),
        explored=explored,
    )


def _shorter_than_hyperperiod(ts: TaskSet, window: int) -> bool:
    try:
        return window < hyperperiod(ts)
    except OverflowError:
        return True


def _with_offsets(ts: TaskSet, ids_sorted, vec) -> TaskSet:
    offs = dict(zip(ids_sorted, vec))
    return TaskSet(
        tasks=tuple(dataclasses.replace(t, phase=offs[t.id]) for t in ts),
        name=ts.name,
    )


def _replay_matches(ts, ids_sorted, vec, obs: Observation) -> bool:
    replay = observe(_with_offsets(ts, ids_sorted, vec), obs.window)
    return replay.busy == obs.busy


def brute_force_offsets(ts: TaskSet, obs: Observation,
                        cap: int = BRUTE_FORCE_CAP) -> tuple:
    """Exhaustive reference: try every offset vector through the simulator.

    Slow but independent of the pruned search; used to validate it.  The
    offset space is the product of the periods and must stay within cap.
    """
    _require_periodic(ts)
    space = 1
    for t in ts:
        space *= t.T
    if space > cap:
        raise ValueError(f"offset space {space} exceeds cap {cap}")
    ids_sorted = tuple(sorted(t.id for t in ts))
    vectors = itertools.product(*(range(ts.by_id(i).T) for i in ids_sorted))
    if obs.window == 0:
        return tuple(vectors)
    # product yields the vectors in ascending order, so the hits are sorted
    return tuple(v for v in vectors if _replay_matches(ts, ids_sorted, v, obs))
