"""Deterministic tick-level simulator of uniprocessor fixed-priority scheduling.

The engine owns releases, execution accounting, deadline checks, and event
emission; scheduling decisions are delegated to a pluggable policy object.
The engine advances from decision point to decision point: at each one it
asks the policy to pick an occupant, then to hold it: to say how many
ticks that choice stands (at most until the next release, the running
job's completion, the earliest pending deadline or the end of the run)
and book what those ticks cost the policy.  The engine books the slots in
one step.  A hold stands for exactly the picks the policy would have made
on the ticks it covers, so the trace is the one a tick-by-tick loop would
produce; the default hold is one tick.  All randomness (sporadic gaps,
variable demands, policy coin flips) derives from the single seed passed
to simulate(), so a trace is reproducible bit for bit.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

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
)


@dataclass
class Job:
    """One released instance of a task.

    completion is the boundary after the last executed slot, so a job whose
    final slot is tick t completes at t + 1.  priority is copied from the
    owning task at release and is fixed from then on: the engine computes
    the job's place in the ready queue (sort_key) once, at release.
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
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sort_key = (self.priority, self.release, self.job_id)


_SORT_KEY = attrgetter("sort_key")


class Event(NamedTuple):
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


class EngineContext:
    """View of the current decision point handed to policies.

    Policies see the context at decision points only: pick() runs there,
    and hold() then covers the ticks up to the next one, during which no
    job is released, completes or reaches its deadline.
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

    attach() runs once before the first tick and may raise ValueError to
    refuse the workload.  pick() runs at each decision point and must
    return a Job from `ready`, a job it spawned itself, or the IDLE/FLUSH
    sentinel.  `ready` is sorted by (priority, release, job_id), so
    ready[0] is the highest-priority job.  hold() then says for how many
    ticks k, 1 <= k <= limit, that choice stands, and books what those k
    ticks cost, such as the budgets each of them charges; the engine asks
    again at tick + k.  pick() would have made the same choice on each of
    those ticks, and hold() repeats nothing pick() decided: state that
    changes with time is kept as tick stamps (a scrub's end, a scan's last
    release) that pick() compares with the tick.  limit never reaches past
    the next release, the chosen job's completion, the earliest pending
    deadline or the end of the run.  The default holds one tick, so a
    policy without its own hold() is asked on every tick.
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

    def hold(self, tick: int, ready: list[Job], ctx: EngineContext, choice,
             limit: int) -> int:
        """Ticks, from 1 to limit, for which `choice` stands."""
        return 1


class VanillaFP(SchedulingPolicy):
    """Preemptive fixed-priority dispatch: highest-priority ready job runs."""

    name = "vanilla"

    def pick(self, tick, ready, ctx):
        return ready[0] if ready else IDLE

    def hold(self, tick, ready, ctx, choice, limit):
        return limit  # ready cannot change before the next decision point


class NonPreemptiveFP(SchedulingPolicy):
    """Fixed-priority dispatch where a started job runs to completion."""

    name = "nonpreemptive"

    def analyze(self, ts):
        return rta_nonpreemptive(ts)

    def pick(self, tick, ready, ctx):
        if ctx.current is not None:
            return ctx.current
        return ready[0] if ready else IDLE

    def hold(self, tick, ready, ctx, choice, limit):
        return limit


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
        self.ready: list[Job] = []  # sorted by Job.sort_key
        self.job_counter = 0
        # (due tick, index in ts, task) for every task the engine releases;
        # popping it releases one tick's jobs in task-set order.
        self.releases: list[tuple[int, int, Task]] = []
        # (absolute deadline, job id, job) of every released job; entries of
        # finished or missed jobs are dropped lazily when they reach the top.
        self.deadlines: list[tuple[int, int, Job]] = []
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
        bisect.insort(self.ready, job, key=_SORT_KEY)
        heapq.heappush(self.deadlines, (deadline, job.job_id, job))
        self.events.append(Event(tick, "release", task_id, job.job_id))
        self.ctx.arrivals.append(job)
        return job

    def _release_due(self, tick: int) -> None:
        releases = self.releases
        while releases and releases[0][0] == tick:
            _, index, task = releases[0]
            self.spawn_job(task.id, self._job_demand(task), tick + task.D, task.priority)
            due = tick + task.T
            if task.kind != PERIODIC:
                mean = self.sporadic_mean_extra
                if mean is None:
                    mean = task.T / 2
                due += self._geometric_extra(mean)
            heapq.heapreplace(releases, (due, index, task))

    def run(self) -> ScheduleTrace:
        policy = self.policy
        ctx = self.ctx
        policy.attach(self.ts, ctx)
        managed = policy.managed_task_ids()
        releases = self.releases = [(t.phase, i, t) for i, t in enumerate(self.ts)
                                    if t.id not in managed]
        heapq.heapify(releases)
        deadlines = self.deadlines
        ready = self.ready
        events = self.events
        slots = self.slots
        slot_jobs = self.slot_jobs
        duration = self.duration
        prev_job: Job | None = None  # occupant of the previous tick (jobs only)
        prev_occ = IDLE
        deadline = None  # earliest pending deadline after the previous decision
        tick = 0
        while tick < duration:
            ctx.tick = tick
            ctx.arrivals = []
            ctx.completed = None
            if prev_job is not None and prev_job.remaining == 0:
                prev_job.completion = tick
                events.append(Event(tick, "complete", prev_job.task_id, prev_job.job_id))
                ready.remove(prev_job)
                ctx.completed = prev_job
                prev_job = None
            ctx.current = prev_job
            if releases and releases[0][0] == tick:
                self._release_due(tick)
            if deadline == tick:
                for job in [j for j in ready if j.absolute_deadline == tick
                            and j.remaining > 0 and not j.missed]:
                    job.missed = True
                    events.append(Event(tick, "deadline_miss", job.task_id, job.job_id))
                    if self.abort_on_miss:
                        ready.remove(job)
                        if prev_job is job:
                            prev_job = None
                            ctx.current = None
            choice = policy.pick(tick, ready, ctx)
            is_job = not (choice is IDLE or choice is FLUSH or isinstance(choice, int))
            if is_job and choice.remaining <= 0:
                raise RuntimeError("policy picked a finished job")
            # Decision points: the next release, the earliest pending
            # deadline, the chosen job's completion and the end of the run.
            limit = duration - tick
            if releases and releases[0][0] - tick < limit:
                limit = releases[0][0] - tick
            # Drop finished and missed jobs' entries, and deadlines no tick
            # will check: those at or before this one, which a policy's own
            # spawn in pick() may have set.
            while deadlines:
                deadline, _, pending = deadlines[0]
                if deadline > tick and pending.completion is None and not pending.missed:
                    if deadline - tick < limit:
                        limit = deadline - tick
                    break
                heapq.heappop(deadlines)
            else:
                deadline = None
            if is_job and choice.remaining < limit:
                limit = choice.remaining
            k = policy.hold(tick, ready, ctx, choice, limit)
            if not 1 <= k <= limit:
                raise RuntimeError(
                    f"policy {policy.name} held its choice for {k!r} ticks at"
                    f" tick {tick}; allowed 1..{limit}"
                )
            occ = choice.task_id if is_job else choice
            if prev_occ == FLUSH and occ != FLUSH:
                events.append(Event(tick, "flush_end", -1, -1))
            if prev_job is not None and prev_job is not choice:
                events.append(Event(tick, "preempt", prev_job.task_id, prev_job.job_id))
            if is_job:
                job = choice
                if job.start is None:
                    job.start = tick
                    events.append(Event(tick, "start", occ, job.job_id))
                elif prev_job is not job:
                    events.append(Event(tick, "resume", occ, job.job_id))
                job.remaining -= k
                slot_jobs.extend([job.job_id] * k)
                prev_job = job
            else:
                if occ == FLUSH and prev_occ != FLUSH:
                    events.append(Event(tick, "flush_begin", -1, -1))
                slot_jobs.extend([-1] * k)
                prev_job = None
            slots.extend([occ] * k)
            prev_occ = occ
            tick += k
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
