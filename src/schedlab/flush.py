"""Leakage-constrained dispatch: scrub a shared resource between tasks.

SecurityPolicy.forbidden(ts) decides which information flows between tasks
are forbidden; FlushFP, its analysis and count_violations all read it.
FlushFP inserts a non-preemptable scrub of F ticks (FLUSH slots) whenever
the next task to run could observe residue left by a forbidden predecessor,
so a set with no forbidden pair runs unscrubbed and its analysis charges no
F.  Residue survives idle time: only a completed scrub clears it.
"""

from __future__ import annotations

from dataclasses import dataclass

from schedlab.analysis import rta_with_flush
from schedlab.engine import FLUSH, IDLE, SchedulingPolicy
from schedlab.tasks import TaskSet

TOTAL_ORDER = "total_order"
PAIRWISE = "pairwise"


@dataclass(frozen=True)
class SecurityPolicy:
    """Security levels plus the forbidden-flow relation.

    In total_order mode a flow from a higher level to a strictly lower one
    is forbidden (levels come from each task's security_level).  In
    pairwise mode the explicit pairs (src, dst) are forbidden, and only
    that mode takes pairs.  flush_cost is the scrub length F, a whole
    number of ticks; F = 0 models a free scrub, i.e. every dispatch
    boundary is implicitly clean and no FLUSH slots appear.
    """

    mode: str = TOTAL_ORDER
    flush_cost: int = 1
    pairs: frozenset = frozenset()

    def __post_init__(self):
        if self.mode not in (TOTAL_ORDER, PAIRWISE):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        if self.pairs and self.mode != PAIRWISE:
            raise ValueError("pair entries require mode = pairwise")
        if not isinstance(self.flush_cost, int):
            raise ValueError(
                f"flush cost must be an integer, got {self.flush_cost!r}")
        if self.flush_cost < 0:
            raise ValueError("flush cost must be >= 0")
        for src, dst in self.pairs:
            if src == dst:
                raise ValueError(f"forbidden flow ({src}, {dst}) names one task twice")

    def forbidden(self, ts: TaskSet) -> frozenset:
        """The (src, dst) task-id pairs where dst may not run over src's residue.

        Pairwise mode keeps the named pairs whose two ids are both in ts;
        total order forbids every flow from a strictly higher level down.
        """
        if self.mode == PAIRWISE:
            ids = {t.id for t in ts}
            return frozenset((src, dst) for src, dst in self.pairs
                             if src in ids and dst in ids)
        return frozenset((src.id, dst.id) for src in ts for dst in ts
                         if src.security_level > dst.security_level)


class FlushFP(SchedulingPolicy):
    """Preemptive fixed-priority dispatch with scheduler-inserted scrubs.

    Residue is tracked as the set of tasks that executed since the last
    completed scrub.  Before dispatching the highest-priority ready job,
    any forbidden residue forces a scrub of flush_cost consecutive FLUSH
    slots; the scrub is non-preemptable, and arrivals during it simply
    wait.  Idle never clears residue.
    """

    name = "flush"

    def __init__(self, policy: SecurityPolicy):
        self.policy = policy

    def analyze(self, ts):
        return rta_with_flush(ts, self.policy)

    def attach(self, ts, ctx):
        self.forbidden = self.policy.forbidden(ts)
        self.taint: set[int] = set()
        self._scrub_end = 0  # the tick after the running scrub's last slot

    def pick(self, tick, ready, ctx):
        if tick < self._scrub_end:
            return FLUSH
        if not ready:
            return IDLE  # residue deliberately survives idle time
        job = ready[0]
        if any((src, job.task_id) in self.forbidden for src in self.taint):
            # Nothing runs during a scrub, so its residue is gone once it
            # starts; a free scrub (flush_cost = 0) spends no slot at all.
            self.taint.clear()
            if self.policy.flush_cost > 0:
                self._scrub_end = tick + self.policy.flush_cost
                return FLUSH
        self.taint.add(job.task_id)
        return job

    def hold(self, tick, ready, ctx, choice, limit):
        # A job or idle stands until ready changes; a scrub runs its course.
        if choice is FLUSH:
            return min(self._scrub_end - tick, limit)
        return limit


def count_violations(trace, ts: TaskSet, policy: SecurityPolicy) -> int:
    """Count dispatch boundaries where a task began running over forbidden residue.

    Residue is re-derived from the trace's runs alone: the tasks executed
    since the last FLUSH run of length >= flush_cost (shorter runs are
    partial scrubs and clear nothing).  Each contiguous execution run of a
    task is one exposure, counted once at its first tick.  With
    flush_cost = 0 scrubbing is free and implicit, so no trace violates.
    """
    f = policy.flush_cost
    if f == 0:
        return 0
    forbidden = policy.forbidden(ts)
    violations = 0
    taint: set[int] = set()
    run = 0  # length of the FLUSH run ending at the previous tick, modulo f
    prev = IDLE
    for length, occ in zip(trace.runs.length, trace.runs.occupant):
        if occ == FLUSH:
            # A FLUSH stretch may span several rows; every f-th tick of it
            # completes a scrub.
            if run + length >= f:
                taint.clear()
            run = (run + length) % f
            prev = FLUSH
            continue
        run = 0
        if occ == IDLE:
            prev = IDLE
            continue
        if occ != prev and any((src, occ) in forbidden for src in taint):
            violations += 1
        taint.add(occ)
        prev = occ
    return violations
