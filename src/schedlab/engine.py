"""Deterministic tick-level simulator of uniprocessor fixed-priority scheduling.

The engine owns releases, execution accounting, deadline checks, and event
emission; scheduling decisions are delegated to a pluggable policy object
invoked every tick.  All randomness (sporadic gaps, variable demands,
policy coin flips) derives from the single seed passed to simulate(), so a
trace is reproducible bit for bit.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from schedlab.analysis import AnalysisReport, response_time_analysis, rta_nonpreemptive
from schedlab.tasks import PERIODIC, Task, TaskSet, require_valid

IDLE = -1
FLUSH = -2

EVENT_KINDS = (
    "release",
    "start",
    "preempt",
    "resume",
    "complete",
    "deadline_miss",
    "flush_begin",
    "flush_end",
    "mode_switch",
    "restart_begin",
    "restart_end",
)


@dataclass
class Job:
    """One released instance of a task.

    completion is the boundary after the last executed slot, so a job whose
    final slot is tick t completes at t + 1.  priority is copied from the
    owning task at release; policies that re-prioritize at runtime mutate it.
    """

    task_id: int
    job_id: int
    release: int
    absolute_deadline: int
    exec_demand: int
    remaining: int
    priority: int
    start: int | None = None
    completion: int | None = None
    missed: bool = False


@dataclass(frozen=True)
class Event:
    tick: int
    kind: str
    task_id: int
    job_id: int


@dataclass(frozen=True)
class BusyInterval:
    start: int
    end: int  # exclusive

    def __iter__(self):
        return iter((self.start, self.end))


@dataclass
class ScheduleTrace:
    duration: int
    slots: list[int]  # occupant per tick: task id, IDLE, or FLUSH
    slot_jobs: list[int]  # job id per tick, -1 for IDLE/FLUSH
    events: list[Event]
    jobs: list[Job]
    seed: int
    policy: str

    @property
    def misses(self) -> list[Event]:
        return [e for e in self.events if e.kind == "deadline_miss"]

    def events_of(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def slots_csv(self) -> str:
        lines = ["tick,occupant,job_id"]
        for tick, (occ, jid) in enumerate(zip(self.slots, self.slot_jobs)):
            lines.append(f"{tick},{occ},{jid}")
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        lines = ["tick,kind,task_id,job_id"]
        for e in self.events:
            lines.append(f"{e.tick},{e.kind},{e.task_id},{e.job_id}")
        return "\n".join(lines) + "\n"


class PolicyError(ValueError):
    """A policy refused the task set (e.g. its feasibility guard failed)."""


class EngineContext:
    """Per-tick view handed to policies.

    current: the job that occupied the previous tick, if it is still
    incomplete (None after idle, flush, or a completion).
    arrivals: jobs released at this tick boundary.
    completed: the job whose last slot was the previous tick, if any.
    """

    def __init__(self, engine):
        self._engine = engine
        self.rng: random.Random = engine.policy_rng
        self.tick: int = 0
        self.current: Job | None = None
        self.arrivals: list[Job] = []
        self.completed: Job | None = None

    def emit(self, kind: str, task_id: int, job_id: int = -1, tick: int | None = None):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._engine.events.append(
            Event(self.tick if tick is None else tick, kind, task_id, job_id)
        )

    def spawn(self, task_id: int, demand: int, deadline: int, priority: int) -> Job:
        """Release a job outside the periodic stream (policy-managed tasks)."""
        return self._engine.spawn_job(task_id, demand, deadline, priority)


class SchedulingPolicy:
    """Base policy: subclasses pick the occupant of each tick.

    attach() runs once before the first tick and may raise PolicyError to
    refuse the workload.  pick() must return a Job from `ready`, a job it
    spawned itself, or the IDLE/FLUSH sentinel.  `ready` is sorted by
    (priority, release, job_id), so ready[0] is the highest-priority job.
    analyze() is the schedulability test that is sound for this dispatch;
    scenario verdicts and monitor admission both ask the policy for it.
    """

    name = "base"

    def attach(self, ts: TaskSet, ctx: EngineContext) -> None:
        pass

    def managed_task_ids(self) -> set[int]:
        """Task ids whose releases the policy drives via ctx.spawn()."""
        return set()

    def analyze(self, ts: TaskSet) -> AnalysisReport:
        """The schedulability test that is sound for this policy's dispatch."""
        return response_time_analysis(ts)

    def pick(self, tick: int, ready: list[Job], ctx: EngineContext):
        raise NotImplementedError


class VanillaFP(SchedulingPolicy):
    """Preemptive fixed-priority dispatch: highest-priority ready job runs."""

    name = "vanilla"

    def pick(self, tick, ready, ctx):
        return ready[0] if ready else IDLE


class NonPreemptiveFP(SchedulingPolicy):
    """Fixed-priority dispatch where a started job runs to completion."""

    name = "nonpreemptive"

    def analyze(self, ts):
        return rta_nonpreemptive(ts)

    def pick(self, tick, ready, ctx):
        if ctx.current is not None:
            return ctx.current
        return ready[0] if ready else IDLE


class _Engine:
    def __init__(self, ts: TaskSet, policy: SchedulingPolicy, duration: int, seed: int,
                 abort_on_miss: bool, sporadic_mean_extra):
        require_valid(ts)
        if duration < 1:
            raise ValueError("duration must be >= 1")
        self.ts = ts
        self.policy = policy
        self.duration = duration
        self.seed = seed
        self.abort_on_miss = abort_on_miss
        base = random.Random(seed)
        self.arrival_rng = random.Random(base.getrandbits(64))
        self.policy_rng = random.Random(base.getrandbits(64))
        self.sporadic_mean_extra = sporadic_mean_extra
        self.events: list[Event] = []
        self.jobs: list[Job] = []
        self.slots: list[int] = []
        self.slot_jobs: list[int] = []
        self.ready: list[Job] = []  # sorted by (priority, release, job_id)
        self.job_counter = 0
        self.next_release: dict[int, int] = {}
        self.ctx = EngineContext(self)

    def _geometric_extra(self, mean: float) -> int:
        # Geometric count of failures with success probability 1/(1+mean),
        # giving E[extra] = mean; inverse-CDF keeps it one draw per gap.
        if mean <= 0:
            return 0
        p = 1.0 / (1.0 + mean)
        u = 1.0 - self.arrival_rng.random()  # in (0, 1]
        return int(math.log(u) / math.log(1.0 - p))

    def _job_demand(self, task: Task) -> int:
        if task.bcet is not None and task.bcet < task.C:
            return self.arrival_rng.randint(task.bcet, task.C)
        return task.C

    def _insert_ready(self, job: Job) -> None:
        key = (job.priority, job.release, job.job_id)
        keys = [(j.priority, j.release, j.job_id) for j in self.ready]
        self.ready.insert(bisect.bisect(keys, key), job)

    def spawn_job(self, task_id: int, demand: int, deadline: int, priority: int) -> Job:
        tick = self.ctx.tick
        job = Job(
            task_id=task_id,
            job_id=self.job_counter,
            release=tick,
            absolute_deadline=deadline,
            exec_demand=demand,
            remaining=demand,
            priority=priority,
        )
        self.job_counter += 1
        self.jobs.append(job)
        self._insert_ready(job)
        self.events.append(Event(tick, "release", task_id, job.job_id))
        self.ctx.arrivals.append(job)
        return job

    def _release_due(self, tick: int) -> None:
        for task in self.ts:
            if task.id in self.managed:
                continue
            due = self.next_release[task.id]
            if due == tick:
                self.spawn_job(
                    task.id, self._job_demand(task), tick + task.D, task.priority
                )
                if task.kind == PERIODIC:
                    self.next_release[task.id] = due + task.T
                else:
                    mean = self.sporadic_mean_extra
                    if mean is None:
                        mean = task.T / 2
                    self.next_release[task.id] = due + task.T + self._geometric_extra(mean)

    def run(self) -> ScheduleTrace:
        self.policy.attach(self.ts, self.ctx)
        self.managed = set(self.policy.managed_task_ids())
        for task in self.ts:
            if task.id not in self.managed:
                self.next_release[task.id] = task.phase
        prev_job: Job | None = None  # occupant of the previous tick (jobs only)
        prev_occ = IDLE
        for tick in range(self.duration):
            self.ctx.tick = tick
            self.ctx.arrivals = []
            self.ctx.completed = None
            if prev_job is not None and prev_job.remaining == 0:
                prev_job.completion = tick
                self.events.append(Event(tick, "complete", prev_job.task_id, prev_job.job_id))
                self.ready.remove(prev_job)
                self.ctx.completed = prev_job
                prev_job = None
            self.ctx.current = prev_job
            self._release_due(tick)
            for job in list(self.ready):
                if job.absolute_deadline == tick and job.remaining > 0 and not job.missed:
                    job.missed = True
                    self.events.append(Event(tick, "deadline_miss", job.task_id, job.job_id))
                    if self.abort_on_miss:
                        self.ready.remove(job)
                        if prev_job is job:
                            prev_job = None
                            self.ctx.current = None
            choice = self.policy.pick(tick, self.ready, self.ctx)
            if choice is IDLE or choice is FLUSH or isinstance(choice, int):
                occ = choice
                if prev_job is not None:
                    self.events.append(Event(tick, "preempt", prev_job.task_id, prev_job.job_id))
                if occ == FLUSH and prev_occ != FLUSH:
                    self.events.append(Event(tick, "flush_begin", -1, -1))
                if prev_occ == FLUSH and occ != FLUSH:
                    self.events.append(Event(tick, "flush_end", -1, -1))
                self.slots.append(occ)
                self.slot_jobs.append(-1)
                prev_job = None
                prev_occ = occ
                continue
            job = choice
            if job.remaining <= 0:
                raise RuntimeError("policy picked a finished job")
            if prev_occ == FLUSH:
                self.events.append(Event(tick, "flush_end", -1, -1))
            if prev_job is not None and prev_job is not job:
                self.events.append(Event(tick, "preempt", prev_job.task_id, prev_job.job_id))
            if job.start is None:
                job.start = tick
                self.events.append(Event(tick, "start", job.task_id, job.job_id))
            elif prev_job is not job:
                self.events.append(Event(tick, "resume", job.task_id, job.job_id))
            job.remaining -= 1
            self.slots.append(job.task_id)
            self.slot_jobs.append(job.job_id)
            prev_job = job
            prev_occ = job.task_id
        # Boundary bookkeeping for a job finishing on the last slot.
        if prev_job is not None and prev_job.remaining == 0:
            prev_job.completion = self.duration
            self.events.append(
                Event(self.duration, "complete", prev_job.task_id, prev_job.job_id)
            )
        if prev_occ == FLUSH:
            self.events.append(Event(self.duration, "flush_end", -1, -1))
        return ScheduleTrace(
            duration=self.duration,
            slots=self.slots,
            slot_jobs=self.slot_jobs,
            events=self.events,
            jobs=self.jobs,
            seed=self.seed,
            policy=self.policy.name,
        )


def simulate(
    ts: TaskSet,
    duration: int,
    policy: SchedulingPolicy | None = None,
    seed: int = 0,
    abort_on_miss: bool = False,
    sporadic_mean_extra: float | None = None,
) -> ScheduleTrace:
    """Run one deterministic simulation and return its trace.

    sporadic_mean_extra sets the mean extra gap (beyond T) for sporadic
    releases; None defaults to T/2 per task.  Deadline misses are recorded
    and the job keeps running unless abort_on_miss is set.
    """
    engine = _Engine(
        ts,
        policy if policy is not None else VanillaFP(),
        duration,
        seed,
        abort_on_miss,
        sporadic_mean_extra,
    )
    return engine.run()


def extract_busy_intervals(trace: ScheduleTrace) -> list[BusyInterval]:
    """Maximal non-IDLE runs; FLUSH slots occupy the processor, so they count."""
    out = []
    begin = None
    for tick, occ in enumerate(trace.slots):
        if occ != IDLE and begin is None:
            begin = tick
        elif occ == IDLE and begin is not None:
            out.append(BusyInterval(begin, tick))
            begin = None
    if begin is not None:
        out.append(BusyInterval(begin, trace.duration))
    return out


def check_trace(trace: ScheduleTrace, ts: TaskSet) -> list[str]:
    """Re-derive trace invariants from raw slots/events; empty means clean.

    Checks: known occupants, execution within [release, completion), demand
    accounting versus completion events, and deadline conformance (a job
    past its deadline must carry a deadline_miss event, and vice versa).
    """
    problems = []
    known = {t.id for t in ts}
    jobs_by_id = {j.job_id: j for j in trace.jobs}
    if len(trace.slots) != trace.duration or len(trace.slot_jobs) != trace.duration:
        problems.append("slot array length does not match duration")
    executed: dict[int, list[int]] = {}
    for tick, (occ, jid) in enumerate(zip(trace.slots, trace.slot_jobs)):
        if occ in (IDLE, FLUSH):
            if jid != -1:
                problems.append(f"tick {tick}: idle/flush slot carries job id {jid}")
            continue
        if occ not in known:
            problems.append(f"tick {tick}: unknown occupant {occ}")
            continue
        job = jobs_by_id.get(jid)
        if job is None:
            problems.append(f"tick {tick}: slot names unknown job {jid}")
            continue
        if job.task_id != occ:
            problems.append(f"tick {tick}: occupant {occ} does not own job {jid}")
        executed.setdefault(jid, []).append(tick)
    completes = {e.job_id for e in trace.events if e.kind == "complete"}
    misses = {e.job_id for e in trace.events if e.kind == "deadline_miss"}
    for job in trace.jobs:
        ticks = executed.get(job.job_id, [])
        if ticks and ticks[0] < job.release:
            problems.append(f"job {job.job_id}: executed before release")
        if job.completion is not None and ticks and ticks[-1] >= job.completion:
            problems.append(f"job {job.job_id}: executed at/after completion")
        done = job.job_id in completes
        if done != (len(ticks) == job.exec_demand and job.remaining == 0):
            problems.append(f"job {job.job_id}: demand accounting mismatch")
        finished_late = job.completion is not None and job.completion > job.absolute_deadline
        unfinished_past = (
            job.completion is None
            and job.absolute_deadline < trace.duration
            and job.remaining > 0
        )
        if (finished_late or unfinished_past) and job.job_id not in misses:
            problems.append(f"job {job.job_id}: missed deadline without a miss event")
        if job.job_id in misses and not (finished_late or unfinished_past or job.missed):
            problems.append(f"job {job.job_id}: miss event without a late job")
    return problems
