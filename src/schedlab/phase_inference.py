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
finish), where ticks past the window count as free.  Exact prunes keep
the walk small: a partial schedule that occupies an observed-idle tick
can never become consistent, and the unassigned tasks' maximum demand
must be able to cover the still-unexplained busy ticks.  Before placing
a task, its offsets are narrowed without touching the schedule: a
released job is pending, so every in-window release must fall on a busy
tick; a task released before the last idle tick ahead of the first
unexplained busy tick would run in that idle tick; and the last task must
be released by that busy tick to explain it.

The subtree below a partial assignment depends only on its state: the
next task's level and the occupancy so far.  _place, the release masks,
the idle-tick bounds, the last-task bound and the demand prune read
nothing else.  So each distinct state is expanded once, keeping the
offsets that lead to a candidate and the states they lead to, and the
candidates are the root-to-leaf paths of that graph, listed once at the
end.  This is dynamic programming over the search's states (Bellman,
1957): a state reached along two prefixes has the same suffixes after
both, so listing each prefix with each suffix of its state is exact.

The window is cut to its feasibility interval when it can be.  Whether
a tick is busy depends only on the work pending there, not on which job
runs, so every offset vector's busy mask is that of a work-conserving
processor fed by its periodic releases.  Let S < T_max be the latest
offset.  From S on, the releases repeat with period H, the hyperperiod,
and the backlog obeys W(t + H) = max(g, W(t) - (1 - U) H), where g, the
largest excess of releases over elapsed time in a suffix of [t, t + H),
is the same for every t >= S.  With U = 1 that makes W(S + 2H) =
W(S + H).  With U < 1, g is also the backlog the same releases would
leave at S had they always run, which bounds W(S); so both are g.
Either way the mask repeats with period H from S + H, and so from
T_max + H (Leung and Merrill, 1980; Goossens and Devillers, 1997, for
the whole fixed-priority schedule).  When U <= 1 and the
observed mask repeats too, a vector that agrees with it on
[0, T_max + 2H) agrees on every later tick, so the search runs on that
prefix alone.  An overloaded set, or an observed mask that does not
repeat, keeps the whole window.

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
    explored: int          # sum of T over the expanded (task, occupancy)
                           # states: each examines every offset of its task


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
        pos = release if release > prev_done else prev_done
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


def _release_ok(busy: int, window: int, T: int) -> int:
    """Bit o set iff offset o in [0, T) releases only on busy ticks.

    Every in-window release tick of a job is busy: the job is pending from
    then on, so it or a higher-priority job runs there.
    """
    chunks = -(-window // T)
    ticks = busy | ((1 << chunks * T) - (1 << window))  # past the window: no release
    full = (1 << T) - 1
    ok = full
    for k in range(chunks):
        ok &= ticks >> (k * T)
    return ok & full


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
    try:
        h = hyperperiod(ts)
    except OverflowError:
        h = None  # past the tick range: no cut, and low confidence
    window = _search_window(ts, h, busy_mask, obs.window, longest)
    busy_mask &= (1 << window) - 1
    want = busy_mask.bit_count()
    # demand_tail[i]: the most busy ticks tasks i.. can take in the window
    demand_tail = [0] * (len(by_prio) + 1)
    for i in range(len(by_prio) - 1, -1, -1):
        t = by_prio[i]
        demand_tail[i] = demand_tail[i + 1] + ((window - 1) // t.T + 1) * t.C

    release_ok = [_release_ok(busy_mask, window, t.T) for t in by_prio]
    # need[i]: the fewest busy ticks the tasks up to i must take, as the
    # ones after it take at most demand_tail[i + 1]
    need = [want - tail for tail in demand_tail[1:]]
    last = len(by_prio) - 1
    # below[i]: the states expanded after task i is placed, each occupancy
    # mapped to its edges: the offsets of task i + 1 that lead to a
    # candidate, each with the edges of the state it leads to.  The last
    # task's edges are bare offsets, and no state lies below it.
    below = [{} for _ in range(last)] + [None]
    explored = 0

    def expand(level: int, occ: int) -> list:
        nonlocal explored
        task = by_prio[level]
        explored += task.T  # every offset is examined, most by the masks alone
        # b: the first busy tick occ leaves unexplained (the window's end if
        # none).  A task released before the last idle tick ahead of b runs
        # in that tick, which no task may take; and with one task left, it
        # must be released by b to explain it.
        unexplained = busy_mask & ~occ
        b = (unexplained & -unexplained).bit_length() - 1 if unexplained else window
        lo = (~busy_mask & ((1 << b) - 1)).bit_length()
        allowed = release_ok[level] >> lo << lo
        if level == last and unexplained:
            allowed &= (2 << b) - 1
        edges = []
        least = need[level]
        seen = below[level]
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            offset = bit.bit_length() - 1
            nxt = _place(occ, busy_mask, window, task.C, task.T, offset)
            if nxt is None or nxt.bit_count() < least:
                continue  # idle tick taken, or the rest cannot explain the rest
            if seen is None:
                edges.append(offset)  # every busy tick is taken
                continue
            child = seen.get(nxt)
            if child is None:
                child = seen[nxt] = expand(level + 1, nxt)
            if child:
                edges.append((offset, child))
        return edges

    found = []

    def paths(level: int, edges: list, prefix: tuple):
        if level == last:
            found.extend([prefix + (offset,) for offset in edges])
            return
        for offset, child in edges:
            paths(level + 1, child, prefix + (offset,))

    paths(0, expand(0, 0), ())

    ids_sorted = tuple(sorted(t.id for t in ts))
    order = [t.id for t in by_prio]
    if order != list(ids_sorted):
        pos = [order.index(i) for i in ids_sorted]
        found = [tuple([c[j] for j in pos]) for c in found]
    found.sort()
    status = (FAILED if not found
              else EXACT if len(found) == 1 else AMBIGUOUS)
    return InferenceResult(
        task_ids=ids_sorted,
        candidates=tuple(found),
        status=status,
        low_confidence=h is None or obs.window < h,
        explored=explored,
    )


def _search_window(ts: TaskSet, h, busy: int, window: int, longest: int) -> int:
    """The prefix of the window the search needs: T_max + 2H or all of it.

    With U <= 1 every candidate's busy mask repeats with period H from
    T_max + H (see the module doc).  If the observed mask does too, the
    ticks past T_max + 2H tell nothing that the ticks before them do not.
    """
    if h is None:
        return window
    cut = longest + 2 * h
    if window <= cut or sum(t.C * (h // t.T) for t in ts) > h:
        return window  # nothing to cut, or overloaded
    tail = (1 << (window - cut)) - 1
    if (busy >> (longest + h)) & tail != (busy >> cut) & tail:
        return window  # the observed mask does not repeat
    return cut


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
