"""Offline schedulability tests: response-time analysis in three forms.

All tests are sufficient-side conservative: a "schedulable" verdict must
never be contradicted by the matching simulator configuration.  Every
response-time bound in schedlab (plain, flush-aware and non-preemptive RTA
here, and both shuffle budget certificates) is the least fixed point of

    r = own + sum over terms (t, c, j) of ceil((r + j) / t) * c

over integer ticks, computed by the one kernel `fixed_point`.  Each bound
only chooses its own cost and its interference terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from schedlab.tasks import TaskSet, require_valid

SCHEDULABLE = "schedulable"
UNSCHEDULABLE = "unschedulable"
INCONCLUSIVE = "inconclusive"

# Fixed-point iteration cap; pathological inputs give up as inconclusive.
MAX_ITERATIONS = 10**6


@dataclass(frozen=True)
class AnalysisReport:
    verdict: str
    method: str
    per_task_response: dict = field(default_factory=dict)
    # Task id -> the deadline its response was checked against.  A test may
    # run on a variant of the given set (the monitor's fine placement).
    deadlines: dict = field(default_factory=dict)


def fixed_point(own: int, terms, limit) -> int | None:
    """Least r >= own with r = own + sum(ceil((r + j) / t) * c for t, c, j in terms).

    Iterates from own.  The first iterate above limit is returned as it is,
    so the caller sees the overshoot; None means MAX_ITERATIONS passed
    without the iteration settling.
    """
    r = own
    for _ in range(MAX_ITERATIONS):
        nxt = own
        for t, c, j in terms:
            nxt -= (-(r + j) // t) * c  # adds ceil((r + j) / t) * c
        if nxt == r or nxt > limit:
            return nxt
        r = nxt
    return None


def _report(method: str, by_prio, bounds) -> AnalysisReport:
    """Verdict from per-task response bounds, given in priority order.

    A bound past the task's deadline makes the set unschedulable; None (the
    iteration cap) makes it inconclusive unless another task fails.  Either
    way the task's response is reported as None.
    """
    responses: dict[int, int | None] = {}
    verdict = SCHEDULABLE
    for task, r in zip(by_prio, bounds):
        if r is None:
            verdict = INCONCLUSIVE if verdict == SCHEDULABLE else verdict
        elif r > task.D:
            verdict = UNSCHEDULABLE
        responses[task.id] = r if r is not None and r <= task.D else None
    return AnalysisReport(verdict=verdict, method=method,
                          per_task_response=responses,
                          deadlines={task.id: task.D for task in by_prio})


def _preemptive_bounds(by_prio, f: int) -> list:
    """RTA bounds when every dispatch may be preceded by a scrub of f ticks."""
    return [
        fixed_point(task.C + f, [(h.T, h.C + 2 * f, 0) for h in by_prio[:i]], task.D)
        for i, task in enumerate(by_prio)
    ]


def response_time_analysis(ts: TaskSet) -> AnalysisReport:
    """Classic preemptive fixed-priority RTA.

    R_i = C_i + sum over higher-priority j of ceil(R_i / T_j) * C_j,
    iterated from C_i.  Sound for sporadic tasks too (T is the minimum
    inter-arrival).  A task whose iteration exceeds its deadline is
    reported with response None and the verdict turns unschedulable.
    """
    require_valid(ts)
    by_prio = ts.by_priority()
    return _report("rta", by_prio, _preemptive_bounds(by_prio, 0))


def rta_with_flush(ts: TaskSet, policy) -> AnalysisReport:
    """Conservative RTA under scrub insertion with cost F.

    Every dispatch boundary that could demand a scrub is charged: the
    analyzed task pays one F (its own entry), and each higher-priority job
    pays 2F (its entry plus the re-entry it forces on whoever it preempts).
    F is charged only when policy.forbidden(ts) names a pair; with none,
    FlushFP never scrubs and runs as VanillaFP, so, as with F = 0, this is
    exactly plain RTA.  Soundness, not tightness, is the contract here.
    """
    require_valid(ts)
    f = policy.flush_cost
    by_prio = ts.by_priority()
    charged = f if policy.forbidden(ts) else 0
    return _report("rta_flush", by_prio, _preemptive_bounds(by_prio, charged))


def blocking_term_nonpreemptive(ts: TaskSet) -> dict[int, int]:
    """B_i = max over lower-priority j of (C_j - 1), 0 for the lowest task.

    The longest a just-dispatched non-preemptable lower job can hold the
    processor once tau_i is ready is its remaining cost minus the tick in
    which tau_i arrived.
    """
    require_valid(ts)
    by_prio = ts.by_priority()
    out: dict[int, int] = {}
    for i, task in enumerate(by_prio):
        lower = by_prio[i + 1:]
        out[task.id] = max((t.C - 1 for t in lower), default=0)
    return out


def _nonpreemptive_bound(task, higher, b: int):
    """Worst response over every job of task in its level-i busy period.

    The busy period t = b + sum over hep k of ceil(t / T_k) * C_k is
    iterated with each first job moved into own (ceil((t - T)/T) =
    ceil(t/T) - 1), so it starts at a positive lower bound.  Job q starts
    by w = b + q*C_i + sum over higher j of (floor(w/T_j) + 1) * C_j and
    responds by w + C_i - q*T_i.  math.inf when the busy period never
    closes, None on the iteration cap.
    """
    hep = (*higher, task)
    u = sum(Fraction(k.C, k.T) for k in hep)
    if u > 1 or (u == 1 and b > 0):
        return math.inf
    t = fixed_point(b + sum(k.C for k in hep), [(k.T, k.C, -k.T) for k in hep], math.inf)
    if t is None:
        return None
    interference = [(h.T, h.C, 1) for h in higher]  # floor(w/T)+1 = ceil((w+1)/T)
    worst = 0
    for q in range(-(-t // task.T)):
        w = fixed_point(b + q * task.C, interference, task.D - task.C + q * task.T)
        if w is None:
            return None
        worst = max(worst, w + task.C - q * task.T)
        if worst > task.D:
            break
    return worst


def rta_nonpreemptive(ts: TaskSet) -> AnalysisReport:
    """RTA for fully non-preemptive fixed-priority dispatch.

    Multi-job level-i busy-period form of Davis, Burns, Bril and Lukkien
    (Real-Time Systems 35(3), 2007, section 5): every job of tau_i in the
    busy period is checked, since a later job can respond later than the
    first.  Once a job starts it cannot be preempted, so only
    higher-priority jobs released no later than its start interfere.
    """
    require_valid(ts)
    blocking = blocking_term_nonpreemptive(ts)
    by_prio = ts.by_priority()
    bounds = [_nonpreemptive_bound(task, by_prio[:i], blocking[task.id])
              for i, task in enumerate(by_prio)]
    return _report("rta_nonpreemptive", by_prio, bounds)
