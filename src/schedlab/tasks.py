"""Workload model: tasks, task sets, derived quantities, synthetic generation.

Time is measured in integer ticks (one tick = one scheduler quantum), so
traces are exact and brute-force oracles stay exhaustive at desk scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

PERIODIC = "periodic"
SPORADIC = "sporadic"

# LCM values past this no longer fit a 64-bit signed tick counter.
MAX_TICK = 2**63 - 1
MAX_TRIES = 200  # fresh draws generate_taskset makes before it gives up


@dataclass(frozen=True)
class Task:
    """One recurrent task: worst-case cost C, period T, deadline D <= T.

    priority is unique within a TaskSet, lower number = higher priority.
    For sporadic tasks T is the minimum inter-arrival gap.  bcet enables
    the variable execution-time model (per-job demand uniform in
    [bcet, C]); leaving it None keeps demand fixed at C.
    """

    id: int
    C: int
    T: int
    D: int | None = None
    phase: int = 0
    kind: str = PERIODIC
    priority: int | None = None
    security_level: int = 0
    bcet: int | None = None

    def __post_init__(self):
        if self.D is None:
            object.__setattr__(self, "D", self.T)

    @property
    def fixed_execution(self) -> bool:
        return self.bcet is None or self.bcet == self.C


@dataclass(frozen=True)
class TaskSet:
    tasks: tuple[Task, ...]
    name: str = "taskset"

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self):
        return len(self.tasks)

    def by_id(self, task_id: int) -> Task:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(f"no task with id {task_id}")

    def by_priority(self) -> tuple[Task, ...]:
        return tuple(sorted(self.tasks, key=lambda t: t.priority))


def rate_monotonic(tasks) -> tuple[Task, ...]:
    """Assign priorities 1..n by increasing period; ties break by id."""
    order = sorted(tasks, key=lambda t: (t.T, t.id))
    out = []
    prio = {id(t): i + 1 for i, t in enumerate(order)}
    for t in tasks:
        out.append(replace(t, priority=prio[id(t)]))
    return tuple(out)


def validate(ts: TaskSet) -> list[str]:
    """Check every Task/TaskSet invariant; violations are data, not errors.

    Returns an empty list exactly when the set is well-formed.  Each entry
    names the offending task id and the rule broken.
    """
    problems = []
    if not ts.tasks:
        problems.append("task set is empty")
        return problems
    ids = [t.id for t in ts.tasks]
    if len(set(ids)) != len(ids):
        problems.append("duplicate task ids")
    prios = [t.priority for t in ts.tasks]
    if any(p is None for p in prios):
        problems.append("unassigned priorities (use rate_monotonic or set explicitly)")
    elif len(set(prios)) != len(prios):
        problems.append("duplicate priorities")
    for t in ts.tasks:
        tag = f"task {t.id}"
        if t.C < 1:
            problems.append(f"{tag}: C must be >= 1 (got {t.C})")
        if t.T < t.C:
            problems.append(f"{tag}: T must be >= C (got T={t.T}, C={t.C})")
        if t.D > t.T:
            problems.append(f"{tag}: D must be <= T (got D={t.D}, T={t.T})")
        if t.D < t.C:
            problems.append(f"{tag}: D must be >= C (got D={t.D}, C={t.C})")
        if t.phase < 0:
            problems.append(f"{tag}: phase must be >= 0 (got {t.phase})")
        if t.kind not in (PERIODIC, SPORADIC):
            problems.append(f"{tag}: unknown kind {t.kind!r}")
        if t.bcet is not None and not (1 <= t.bcet <= t.C):
            problems.append(f"{tag}: bcet must lie in [1, C] (got {t.bcet})")
    return problems


def require_valid(ts: TaskSet) -> None:
    problems = validate(ts)
    if problems:
        raise ValueError("invalid task set: " + "; ".join(problems))


def hyperperiod(ts: TaskSet) -> int:
    """LCM of all periods; defined only for purely periodic sets."""
    sporadic = [t.id for t in ts.tasks if t.kind != PERIODIC]
    if sporadic:
        raise ValueError(f"hyperperiod undefined: sporadic tasks {sporadic}")
    h = math.lcm(*(t.T for t in ts.tasks))
    if h > MAX_TICK:
        raise OverflowError(f"hyperperiod {h} exceeds the tick range")
    return h


def utilization(ts: TaskSet) -> Fraction:
    """Exact rational sum of C_i/T_i."""
    return sum((Fraction(t.C, t.T) for t in ts.tasks), Fraction(0))


def _uunifast(n: int, total: float, rng: random.Random) -> list[float]:
    # Unbiased uniform split of `total` over the n-simplex.
    shares = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        shares.append(remaining - nxt)
        remaining = nxt
    shares.append(remaining)
    return shares


def generate_taskset(
    n: int,
    target_u: float,
    period_choices,
    seed: int,
    tol: float = 0.01,
) -> TaskSet:
    """Draw n periodic tasks whose total utilization lands within tol of target_u.

    Per-task shares come from a uniform simplex split; integer costs are
    rounded then nudged by +/-1 until |U - target_u| <= tol, retrying with
    fresh draws when rounding paints the search into a corner.  Implicit
    deadlines (D = T), zero phases, rate-monotonic priorities.

    Reachable utilizations live on the lattice spanned by 1/T_i, so the
    pool must be granular enough for the tolerance: {4, 5, 6, 8, 10, 12}
    (lattice step 1/120) comfortably supports the default tol; {4, 6, 8,
    12} (step 1/24) does not, and such requests error out honestly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < target_u <= 1):
        raise ValueError("target_u must lie in (0, 1]")
    periods = sorted(set(int(p) for p in period_choices))
    if not periods:
        raise ValueError("period_choices must be non-empty")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        shares = _uunifast(n, target_u, rng)
        ts_periods = [rng.choice(periods) for _ in range(n)]
        costs = [max(1, round(u * t)) for u, t in zip(shares, ts_periods)]
        costs = [min(c, t) for c, t in zip(costs, ts_periods)]
        # Greedy +/-1 repair toward the target, one cost at a time.
        for _ in range(50 * n):
            u = sum(Fraction(c, t) for c, t in zip(costs, ts_periods))
            err = float(u) - target_u
            if abs(err) <= tol:
                break
            best, best_gain = None, 0.0
            for i, (c, t) in enumerate(zip(costs, ts_periods)):
                step = -1 if err > 0 else 1
                nc = c + step
                if not (1 <= nc <= t):
                    continue
                nerr = abs(err + step / t)
                gain = abs(err) - nerr
                if gain > best_gain:
                    best, best_gain = i, gain
            if best is None:
                break
            costs[best] += -1 if err > 0 else 1
        u = sum(Fraction(c, t) for c, t in zip(costs, ts_periods))
        if abs(float(u) - target_u) <= tol:
            tasks = tuple(
                Task(id=i + 1, C=c, T=t)
                for i, (c, t) in enumerate(zip(costs, ts_periods))
            )
            return TaskSet(
                tasks=rate_monotonic(tasks),
                name=f"gen-n{n}-u{target_u:g}-s{seed}",
            )
    raise ValueError(
        f"could not hit U={target_u} within tol={tol} after {MAX_TRIES} draws "
        f"(periods {periods})"
    )
