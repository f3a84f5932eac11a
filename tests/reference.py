"""Independent reference implementations used only as test oracles.

Everything in here is written for obviousness, not speed, and must stay
decoupled from the package under test: no imports from schedlab.  The
reference simulator is a straight transcription of preemptive fixed-priority
dispatching over integer ticks; tests freeze its outputs as expected values.
"""

import math

IDLE = -1
FLUSH = -2


def ref_fp_slots(tasks, duration):
    """Simulate preemptive fixed-priority dispatch, one tick at a time.

    tasks: list of dicts with keys C, T, priority, and optional phase, D.
    Lower priority number wins the processor.  Returns a list of length
    `duration` whose entries are the running task's index in `tasks`, or
    IDLE.  Ties cannot occur (priorities must be distinct).
    """
    n = len(tasks)
    prios = [t["priority"] for t in tasks]
    assert len(set(prios)) == n
    # pending[i] holds [remaining, release] per unfinished job, oldest first
    pending = [[] for _ in range(n)]
    slots = []
    for tick in range(duration):
        for i, t in enumerate(tasks):
            phase = t.get("phase", 0)
            if tick >= phase and (tick - phase) % t["T"] == 0:
                pending[i].append([t["C"], tick])
        ready = [i for i in range(n) if pending[i]]
        if not ready:
            slots.append(IDLE)
            continue
        run = min(ready, key=lambda i: prios[i])
        slots.append(run)
        pending[run][0][0] -= 1
        if pending[run][0][0] == 0:
            pending[run].pop(0)
    return slots


def ref_fp_responses(tasks, duration):
    """Worst observed response time per task over `duration` ticks.

    Jobs released but not finished inside the window are ignored, so pick
    the window large enough (a hyperperiod past the longest deadline is
    plenty for synchronous release).  Returns a list of ints or None for
    tasks that never completed a job.
    """
    n = len(tasks)
    prios = [t["priority"] for t in tasks]
    pending = [[] for _ in range(n)]
    worst = [None] * n
    for tick in range(duration):
        for i, t in enumerate(tasks):
            phase = t.get("phase", 0)
            if tick >= phase and (tick - phase) % t["T"] == 0:
                pending[i].append([t["C"], tick])
        ready = [i for i in range(n) if pending[i]]
        if not ready:
            continue
        run = min(ready, key=lambda i: prios[i])
        job = pending[run][0]
        job[0] -= 1
        if job[0] == 0:
            resp = tick + 1 - job[1]
            if worst[run] is None or resp > worst[run]:
                worst[run] = resp
            pending[run].pop(0)
    return worst


def ref_busy_intervals(slots):
    """Maximal runs of non-idle slots as (begin, end) half-open pairs."""
    out = []
    begin = None
    for tick, occ in enumerate(slots):
        if occ != IDLE and begin is None:
            begin = tick
        elif occ == IDLE and begin is not None:
            out.append((begin, tick))
            begin = None
    if begin is not None:
        out.append((begin, len(slots)))
    return out


def ref_rm_priorities(tasks):
    """Rate-monotonic priority assignment: shorter period first, id breaks ties."""
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i]["T"], tasks[i].get("id", i)))
    prios = [0] * len(tasks)
    for rank, i in enumerate(order):
        prios[i] = rank + 1
    return prios


def ref_dispatch(jobs, duration, preemptive=True, forbidden=(), flush_cost=0):
    """Fixed-priority dispatch of given jobs, one tick at a time.

    jobs: (release, demand, priority, task) tuples, listed by job id, so in
    release order.  Among released unfinished jobs the least (priority,
    release, job id) runs.  Non-preemptive dispatch keeps the job that ran
    the previous tick until it finishes.  A job past its deadline keeps
    running.  forbidden holds (src, dst) task pairs: a job of dst about to
    run while src has run since the last scrub (idle time clears nothing)
    waits for a scrub of flush_cost FLUSH ticks that nothing preempts; a
    free scrub (flush_cost 0) takes no tick.  Returns the occupant (task,
    IDLE or FLUSH) and the job id (-1 when no job runs) of each tick.
    """
    remaining = [demand for _, demand, _, _ in jobs]
    released = 0
    pending = []  # ids of released unfinished jobs
    running = None  # the job that ran the previous tick, while unfinished
    residue = set()
    scrub_left = 0
    occupants, job_ids = [], []
    for tick in range(duration):
        while released < len(jobs) and jobs[released][0] <= tick:
            pending.append(released)
            released += 1
        occ, job = IDLE, None
        if scrub_left:
            occ = FLUSH
            scrub_left -= 1
        elif not preemptive and running is not None:
            job = running
        elif pending:
            job = min(pending, key=lambda j: (jobs[j][2], jobs[j][0], j))
            if any((src, jobs[job][3]) in forbidden for src in residue):
                residue.clear()
                if flush_cost:
                    occ, job = FLUSH, None
                    scrub_left = flush_cost - 1
        running = None
        if job is not None:
            occ = jobs[job][3]
            residue.add(occ)
            remaining[job] -= 1
            if remaining[job]:
                running = job
            else:
                pending.remove(job)
        occupants.append(occ)
        job_ids.append(-1 if job is None else job)
    return occupants, job_ids


def ref_misses(jobs, deadlines, job_ids):
    """The deadline misses of a schedule, as (tick, task, job id) rows.

    jobs: as for ref_dispatch; deadlines: each job's absolute deadline;
    job_ids: the job run at each tick, as ref_dispatch returns them.  A job
    misses at its deadline d, if d falls inside the schedule and the job
    has not run its whole demand in the ticks before d.  Misses at one tick
    are listed in (priority, release, job id) order.
    """
    ran = [0] * len(jobs)
    completion = [None] * len(jobs)
    for tick, job in enumerate(job_ids):
        if job != -1:
            ran[job] += 1
            if ran[job] == jobs[job][1]:
                completion[job] = tick + 1
    late = sorted(
        (d, priority, release, job, task)
        for job, ((release, _, priority, task), d) in enumerate(zip(jobs, deadlines))
        if d < len(job_ids) and (completion[job] is None or completion[job] > d)
    )
    return [(d, task, job) for d, _, _, job, task in late]


def ref_count_violations(slots, forbidden, flush_cost):
    """Dispatches of a task over forbidden residue, read one tick at a time.

    Residue is the tasks run since the last completed scrub: every
    flush_cost-th tick of a FLUSH stretch completes one, and a stretch cut
    shorter clears nothing.  A task's contiguous run counts once, at its
    first tick.  A free scrub (flush_cost 0) leaves nothing to count.
    """
    if flush_cost == 0:
        return 0
    violations = 0
    residue = set()
    scrubbed = 0  # FLUSH ticks since the last completed scrub
    prev = IDLE
    for occ in slots:
        if occ == FLUSH:
            scrubbed += 1
            if scrubbed == flush_cost:
                residue.clear()
                scrubbed = 0
        else:
            scrubbed = 0
            if occ != IDLE:
                if occ != prev and any((src, occ) in forbidden for src in residue):
                    violations += 1
                residue.add(occ)
        prev = occ
    return violations


def ref_entropy(seqs, fold):
    """Shannon entropy (bits) of the occupant at each offset o < fold,
    pooled over ticks o, o + fold, ... of every per-tick list in seqs."""
    total = len(seqs[0]) // fold * len(seqs)
    out = []
    for o in range(fold):
        counts = {}
        for s in seqs:
            for occ in s[o::fold]:
                counts[occ] = counts.get(occ, 0) + 1
        ent = 0.0
        for n in counts.values():
            p = n / total
            ent -= p * math.log2(p)
        out.append(ent)
    return out


def ref_budgets(caps, certify):
    """The one-tick budget greedy, one whole-vector certificate per raise.

    caps are the tasks' D - C in priority order, and certify(budgets)
    returns the completion bounds of a budget vector, or None when it
    fails.  Sweep the tasks in priority order and raise each by one tick
    while the raised vector certifies; a task stops at its cap or at its
    first failed raise.  Returns (budgets, bounds), and raises the package's
    refusal when the all-zero vector fails.
    """
    budgets = [0] * len(caps)
    bounds = certify(budgets)
    if bounds is None:
        raise ValueError("task set is not RTA-schedulable; shuffling refused")
    live = [cap > 0 for cap in caps]
    while any(live):
        for k, cap in enumerate(caps):
            if not live[k]:
                continue
            trial = budgets[:k] + [budgets[k] + 1] + budgets[k + 1:]
            got = certify(trial)
            if got is None:
                live[k] = False
            else:
                budgets, bounds = trial, got
                live[k] = budgets[k] < cap
    return budgets, bounds
