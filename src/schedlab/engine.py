"""Deterministic tick-level simulator of uniprocessor fixed-priority scheduling.

The engine owns releases, execution accounting, deadline checks, and event
emission; scheduling decisions are delegated to a pluggable policy object.
The engine advances from decision point to decision point: at each one it
asks the policy to pick an occupant, then to hold it: to say how many
ticks that choice stands (at most until the next release, the running
job's completion, the earliest pending deadline or the end of the run)
and book what those ticks cost the policy.  The engine books each hold in
the trace's `runs`, rows of (start, length, occupant, job id): a hold that
keeps the previous tick's occupant and job extends that row, any other
starts a new one.  The per-tick views `slots` and `slot_jobs` are built
from those rows only when first read.  A hold stands for exactly the
picks the policy would have made on the ticks it covers, so the trace is
the one a tick-by-tick loop would produce; the default hold is one tick.
Events are booked the same way, as plain (tick, kind, task id, job id)
rows in the trace's `event_rows`; the `Event` view is built on first read.
All randomness (sporadic gaps, variable demands, policy coin flips)
derives from the single seed passed to simulate(), so a trace is
reproducible bit for bit.  The two random streams are built on first
use, so a run that draws nothing builds none.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple, Sequence

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


@dataclass(slots=True, init=False)
class Job:
    """One released instance of a task.

    completion is the boundary after the last executed slot, so a job whose
    final slot is tick t completes at t + 1.  priority is copied from the
    owning task at release and is fixed from then on: the job's place in
    the ready queue (sort_key) is computed once, when it is built.
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
    sort_key: tuple = field(repr=False, compare=False)

    # Written out: the generated __init__ and a __post_init__ call for the
    # sort key cost about 15% more per job.
    def __init__(self, task_id, job_id, release, absolute_deadline, exec_demand,
                 remaining, priority, start=None, completion=None):
        self.task_id = task_id
        self.job_id = job_id
        self.release = release
        self.absolute_deadline = absolute_deadline
        self.exec_demand = exec_demand
        self.remaining = remaining
        self.priority = priority
        self.start = start
        self.completion = completion
        self.sort_key = (priority, release, job_id)


_SORT_KEY = attrgetter("sort_key")


class Event(NamedTuple):
    tick: int
    kind: str
    task_id: int
    job_id: int


@dataclass(slots=True)
class Runs:
    """A schedule as rows (start, length, occupant, job id).

    The occupant is a task id, IDLE or FLUSH, and the job id is -1 for IDLE
    and FLUSH.  The rows tile [0, duration) in order, and each differs from
    the one before it in occupant or job, so they are the run-length
    encoding of the per-tick schedule.  They are kept as three lists,
    length, occupant and job_id, whose items are ints the trace holds
    anyway (small lengths, task ids, job ids), so a row costs about three
    pointers; a row's start is the sum of the lengths before it.  Iterating
    yields the rows as tuples.
    """

    length: list[int] = field(default_factory=list)
    occupant: list[int] = field(default_factory=list)
    job_id: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.length)

    def __iter__(self):
        start = 0
        for length, occ, jid in zip(self.length, self.occupant, self.job_id):
            yield start, length, occ, jid
            start += length


@dataclass
class ScheduleTrace:
    """One run: its `runs`, event rows, jobs, seed and policy label.

    slots and slot_jobs are the per-tick views of the runs, built on first
    read and cached, so a caller may edit them (check_trace reads them)
    while runs keeps what the engine booked.  event_rows are the run's
    events as plain (tick, kind, task id, job id) tuples, in the order
    they happened; events is their `Event` view, built on first read.
    """

    duration: int
    runs: Runs
    event_rows: list[tuple[int, str, int, int]]
    jobs: list[Job]
    seed: int
    policy: str

    @cached_property
    def events(self) -> list[Event]:
        return [Event(*row) for row in self.event_rows]

    @cached_property
    def slots(self) -> list[int]:
        """Occupant per tick: task id, IDLE, or FLUSH."""
        out = []
        for length, occ in zip(self.runs.length, self.runs.occupant):
            out += [occ] * length
        return out

    @cached_property
    def slot_jobs(self) -> list[int]:
        """Job id per tick, -1 for IDLE/FLUSH."""
        out = []
        for length, jid in zip(self.runs.length, self.runs.job_id):
            out += [jid] * length
        return out

    def occupancy(self) -> Counter:
        """Ticks held by each occupant (task id, IDLE or FLUSH)."""
        ticks = Counter()
        for length, occ in zip(self.runs.length, self.runs.occupant):
            ticks[occ] += length
        return ticks

    @property
    def misses(self) -> list[Event]:
        return [Event(*row) for row in self.event_rows if row[1] == "deadline_miss"]

    def slots_csv(self) -> str:
        lines = ["tick,occupant,job_id"]
        for start, length, occ, jid in self.runs:
            row = f",{occ},{jid}"
            lines += [f"{tick}{row}" for tick in range(start, start + length)]
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        lines = ["tick,kind,task_id,job_id"]
        for tick, kind, task_id, job_id in self.event_rows:
            lines.append(f"{tick},{kind},{task_id},{job_id}")
        return "\n".join(lines) + "\n"


class EngineContext:
    """View of the current decision point handed to policies.

    Policies see the context at decision points only: pick() runs there,
    and hold() then covers the ticks up to the next one, during which no
    job is released, completes or reaches its deadline.
    current: the job that occupied the previous tick, if it is still
    incomplete (None after idle, flush, or a completion).
    arrivals: jobs released at this tick boundary (an empty tuple when
    there are none).
    completed: the job whose last slot was the previous tick, if any.
    rng: the policies' random stream, built on first use.
    """

    def __init__(self, engine):
        self._engine = engine
        self.tick: int = 0
        self.current: Job | None = None
        self.arrivals: Sequence[Job] = ()
        self.completed: Job | None = None

    @cached_property
    def rng(self) -> random.Random:
        return self._engine.policy_rng

    def emit(self, kind: str, task_id: int):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._engine.event_rows.append((self.tick, kind, task_id, -1))

    def spawn(self, task_id: int, demand: int, deadline: int, priority: int) -> Job:
        """Release a job outside the periodic stream, due after this tick."""
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
    release) that pick() compares with the tick.  pick() still makes every
    choice the trace holds: a hold that must draw to know how long its
    choice stands, as a fine-grained shuffle's does, only makes those
    draws early, and pick() returns the draw that ended the hold at its
    tick.  limit never reaches past the next release, the chosen job's
    completion, the earliest pending deadline or the end of the run.  The
    default holds one tick, so a policy without its own hold() is asked on
    every tick.
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


def _release_spec(t: Task) -> tuple:
    """What releasing a job of t reads: id, C, the low end of a variable
    demand (None if fixed), D, priority, T, and the log term of a sporadic
    task's geometric gap (None if periodic)."""
    low = t.bcet if t.bcet is not None and t.bcet < t.C else None
    gap_log = None if t.kind == PERIODIC else math.log(1.0 - 1.0 / (1.0 + t.T / 2))
    return t.id, t.C, low, t.D, t.priority, t.T, gap_log


class _Engine:
    def __init__(self, ts: TaskSet, policy: SchedulingPolicy, duration: int,
                 seed: int):
        require_valid(ts)
        if duration < 1:
            raise ValueError("duration must be >= 1")
        self.ts = ts
        self.policy = policy
        self.duration = duration
        self.seed = seed
        self.event_rows: list[tuple[int, str, int, int]] = []
        self.jobs: list[Job] = []  # a job's id is its index here
        self.ready: list[Job] = []  # sorted by Job.sort_key
        # (absolute deadline, sort key, job) of each job not yet due, popped
        # when due or, once the job is finished, on reaching the top.
        self.deadlines: list[tuple[int, tuple, Job]] = []
        self.ctx = EngineContext(self)

    @cached_property
    def _stream_seeds(self) -> tuple[int, int]:
        base = random.Random(self.seed)
        return base.getrandbits(64), base.getrandbits(64)

    @cached_property
    def arrival_rng(self) -> random.Random:
        """Sporadic gaps and variable demands."""
        return random.Random(self._stream_seeds[0])

    @cached_property
    def policy_rng(self) -> random.Random:
        return random.Random(self._stream_seeds[1])

    def spawn_job(self, task_id: int, demand: int, deadline: int, priority: int) -> Job:
        tick = self.ctx.tick
        if deadline <= tick:
            raise RuntimeError(f"task {task_id}: job spawned at tick {tick} due at {deadline}")
        job_id = len(self.jobs)
        job = Job(task_id, job_id, tick, deadline, demand, demand, priority)
        self.jobs.append(job)
        bisect.insort(self.ready, job, key=_SORT_KEY)
        heapq.heappush(self.deadlines, (deadline, job.sort_key, job))
        self.event_rows.append((tick, "release", task_id, job_id))
        self.ctx.arrivals = [*self.ctx.arrivals, job]
        return job

    def run(self) -> ScheduleTrace:
        policy = self.policy
        ctx = self.ctx
        policy.attach(self.ts, ctx)
        managed = policy.managed_task_ids()
        # (due tick, index in ts, release spec) for every task the engine
        # releases; popping it releases one tick's jobs in task-set order.
        releases = [(t.phase, i, _release_spec(t)) for i, t in enumerate(self.ts)
                    if t.id not in managed]
        heapq.heapify(releases)
        duration = self.duration
        next_release = releases[0][0] if releases else duration
        deadlines = self.deadlines
        ready = self.ready
        jobs = self.jobs
        runs = Runs()
        lengths, occupants, job_ids = runs.length, runs.occupant, runs.job_id
        pick = policy.pick
        hold = policy.hold
        emit = self.event_rows.append
        insort, bisect_left = bisect.insort, bisect.bisect_left
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        prev_job: Job | None = None  # occupant of the previous tick (jobs only)
        prev_occ = None  # occupant of the previous tick: task id, IDLE or FLUSH
        tick = 0
        while tick < duration:
            ctx.tick = tick
            ctx.completed = None
            if prev_job is not None and prev_job.remaining == 0:
                prev_job.completion = tick
                emit((tick, "complete", prev_job.task_id, prev_job.job_id))
                if ready and ready[0] is prev_job:  # most often the highest-priority job
                    del ready[0]
                else:
                    i = bisect_left(ready, prev_job.sort_key, key=_SORT_KEY)
                    if i == len(ready) or ready[i] is not prev_job:
                        raise RuntimeError("policy picked a job that is not in ready")
                    del ready[i]
                ctx.completed = prev_job
                prev_job = None
            ctx.current = prev_job
            if next_release == tick:
                arrivals = []
                while releases[0][0] == tick:
                    _, index, spec = releases[0]
                    task_id, demand, low, rel_deadline, priority, period, gap_log = spec
                    if low is not None:
                        demand = self.arrival_rng.randint(low, demand)
                    job_id = len(jobs)
                    job = Job(task_id, job_id, tick, tick + rel_deadline, demand, demand,
                              priority)
                    jobs.append(job)
                    insort(ready, job, key=_SORT_KEY)
                    heappush(deadlines, (tick + rel_deadline, job.sort_key, job))
                    emit((tick, "release", task_id, job_id))
                    arrivals.append(job)
                    due = tick + period
                    if gap_log is not None:
                        # A geometric count of failures with success probability
                        # 1/(1 + T/2) has mean T/2; inverse CDF, one draw per gap.
                        u = 1.0 - self.arrival_rng.random()  # in (0, 1]
                        due += int(math.log(u) / gap_log)
                    heapreplace(releases, (due, index, spec))
                next_release = releases[0][0]
                ctx.arrivals = arrivals
            else:
                ctx.arrivals = ()
            # Pop the deadlines due now, each unfinished job's as a miss (the
            # sort key orders a tick's misses as ready is), and finished jobs'
            # entries, so the top is the next pending deadline.
            while deadlines:
                due, _, job = deadlines[0]
                if job.completion is None:
                    if due > tick:
                        break
                    emit((tick, "deadline_miss", job.task_id, job.job_id))
                heappop(deadlines)
            choice = pick(tick, ready, ctx)
            is_job = choice.__class__ is Job
            if is_job and choice.remaining <= 0:
                raise RuntimeError("policy picked a finished job")
            # Decision points: the next release, the earliest pending
            # deadline, the chosen job's completion and the end of the run.
            limit = (next_release if next_release < duration else duration) - tick
            if deadlines and deadlines[0][0] - tick < limit:
                limit = deadlines[0][0] - tick
            if is_job and choice.remaining < limit:
                limit = choice.remaining
            k = hold(tick, ready, ctx, choice, limit)
            if not 1 <= k <= limit:
                raise RuntimeError(
                    f"policy {policy.name} held its choice for {k!r} ticks at"
                    f" tick {tick}; allowed 1..{limit}"
                )
            if is_job:
                choice.remaining -= k
                if prev_job is choice:  # the running job goes on: extend its row
                    lengths[-1] += k
                    tick += k
                    continue
                occ = choice.task_id
                job_id = choice.job_id
            elif choice == IDLE or choice == FLUSH:
                if choice == prev_occ and job_ids[-1] == -1:  # idling or scrubbing goes on
                    lengths[-1] += k
                    tick += k
                    continue
                occ = choice
                job_id = -1
            else:
                raise RuntimeError(
                    f"policy {policy.name} picked {choice!r}: not a job, IDLE or FLUSH")
            if prev_occ == FLUSH:
                emit((tick, "flush_end", -1, -1))
            if prev_job is not None:
                emit((tick, "preempt", prev_job.task_id, prev_job.job_id))
            if is_job:
                if choice.start is None:
                    choice.start = tick
                    emit((tick, "start", occ, job_id))
                else:
                    emit((tick, "resume", occ, job_id))
                prev_job = choice
            else:
                if occ == FLUSH:
                    emit((tick, "flush_begin", -1, -1))
                prev_job = None
            lengths.append(k)
            occupants.append(occ)
            job_ids.append(job_id)
            prev_occ = occ
            tick += k
        # Boundary bookkeeping for a job finishing on the last slot.
        if prev_job is not None and prev_job.remaining == 0:
            prev_job.completion = duration
            emit((duration, "complete", prev_job.task_id, prev_job.job_id))
        if prev_occ == FLUSH:
            emit((duration, "flush_end", -1, -1))
        return ScheduleTrace(duration, runs, self.event_rows, jobs, self.seed, policy.name)


def simulate(
    ts: TaskSet,
    duration: int,
    policy: SchedulingPolicy | None = None,
    seed: int = 0,
) -> ScheduleTrace:
    """Run one deterministic simulation and return its trace.

    A sporadic task's next release comes T plus a geometric extra gap with
    mean T/2 after its last one.  A deadline miss is recorded as an event,
    and the late job keeps running until it completes.
    """
    engine = _Engine(ts, policy if policy is not None else VanillaFP(), duration, seed)
    return engine.run()


def extract_busy_intervals(trace: ScheduleTrace) -> list[tuple[int, int]]:
    """Maximal non-IDLE runs as (start, end) pairs, end exclusive; FLUSH counts."""
    out = []
    end = 0
    for length, occ in zip(trace.runs.length, trace.runs.occupant):
        start, end = end, end + length
        if occ == IDLE:
            continue
        if out and out[-1][1] == start:
            out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def check_trace(trace: ScheduleTrace, ts: TaskSet) -> list[str]:
    """Re-derive trace invariants from raw slots/events; empty means clean.

    Checks: known occupants, execution within [release, completion), demand
    accounting versus completion events, and deadline conformance (a job
    past its deadline must carry a deadline_miss event at that deadline, and
    vice versa).
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
    completes = {jid for _, kind, _, jid in trace.event_rows if kind == "complete"}
    misses = {jid: tick for tick, kind, _, jid in trace.event_rows if kind == "deadline_miss"}
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
        if job.job_id in misses and not (finished_late or unfinished_past):
            problems.append(f"job {job.job_id}: miss event without a late job")
        if misses.get(job.job_id, job.absolute_deadline) != job.absolute_deadline:
            problems.append(f"job {job.job_id}: miss event off its deadline")
    return problems
