"""Workload-model unit tests.

Expected schedules come from tests/reference.py, an independent
tick-by-tick simulator kept import-free of the package.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from schedlab.tasks import (
    Task,
    TaskSet,
    generate_taskset,
    hyperperiod,
    rate_monotonic,
    utilization,
    validate,
)
from reference import ref_fp_slots


def rm_set(*ct, name="ts"):
    tasks = tuple(Task(id=i + 1, C=c, T=t) for i, (c, t) in enumerate(ct))
    return TaskSet(rate_monotonic(tasks), name=name)


FLAGSHIP = rm_set((1, 4), (2, 6), (3, 12), name="flagship")


class TestHyperperiod:
    def test_lcm_arithmetic(self):
        assert hyperperiod(FLAGSHIP) == 12

    def test_single_task_identity(self):
        assert hyperperiod(rm_set((2, 5))) == 5

    def test_schedule_repeats_after_hyperperiod(self):
        ts = rm_set((1, 4), (2, 6))
        assert hyperperiod(ts) == 12
        ref = [{"C": t.C, "T": t.T, "priority": t.priority} for t in ts]
        slots = ref_fp_slots(ref, 24)
        assert slots[:12] == slots[12:]

    def test_sporadic_rejected(self):
        t1 = Task(id=1, C=1, T=5, priority=1)
        t2 = Task(id=2, C=1, T=7, kind="sporadic", priority=2)
        with pytest.raises(ValueError, match="sporadic"):
            hyperperiod(TaskSet((t1, t2)))

    def test_overflow_guarded(self):
        # Five large coprime periods push the LCM past 2**63 - 1.
        periods = [99991, 99989, 99971, 99961, 99929]
        ts = TaskSet(
            tuple(Task(id=i, C=1, T=p, priority=i) for i, p in enumerate(periods))
        )
        with pytest.raises(OverflowError):
            hyperperiod(ts)


class TestUtilization:
    def test_flagship_exact_fraction(self):
        assert utilization(FLAGSHIP) == Fraction(10, 12) == Fraction(5, 6)

    def test_full_single_task(self):
        assert utilization(rm_set((1, 1))) == 1

    def test_generator_hits_target(self):
        for seed in range(20):
            ts = generate_taskset(4, 0.7, [4, 5, 6, 8, 10, 12], seed=seed)
            assert abs(float(utilization(ts)) - 0.7) <= 0.01


class TestValidate:
    def test_valid_set_is_clean(self):
        assert validate(FLAGSHIP) == []

    def test_deadline_beyond_period(self):
        bad = TaskSet((Task(id=7, C=1, T=4, D=6, priority=1),))
        problems = validate(bad)
        assert len(problems) == 1
        assert "task 7" in problems[0] and "D" in problems[0]

    def test_duplicate_priorities(self):
        ts = TaskSet((Task(id=1, C=1, T=4, priority=1), Task(id=2, C=1, T=5, priority=1)))
        assert any("duplicate priorities" in p for p in validate(ts))

    def test_deadline_below_cost_rejected(self):
        bad = TaskSet((Task(id=3, C=3, T=10, D=2, priority=1),))
        assert any("D must be >= C" in p for p in validate(bad))

    def test_empty_set(self):
        assert validate(TaskSet(())) == ["task set is empty"]

    def test_mutation_catalogue(self):
        # Each single-field perturbation must trip its rule.  Most trip
        # exactly one; C > T cascades because the implicit D = T then also
        # violates D >= C.
        cases = [
            (Task(id=1, C=0, T=4, priority=1), "C must be >= 1", 1),
            (Task(id=1, C=5, T=4, priority=1), "T must be >= C", 2),
            (Task(id=1, C=1, T=4, phase=-1, priority=1), "phase", 1),
            (Task(id=1, C=1, T=4, kind="aperiodic", priority=1), "unknown kind", 1),
            (Task(id=1, C=2, T=4, bcet=3, priority=1), "bcet", 1),
            (Task(id=1, C=2, T=4, bcet=0, priority=1), "bcet", 1),
        ]
        for mutant, rule, count in cases:
            hits = validate(TaskSet((mutant,)))
            assert len(hits) == count, (mutant, hits)
            assert any(rule in p for p in hits), (mutant, hits)


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        a = generate_taskset(3, 0.6, [4, 5, 6, 8, 10, 12], seed=42)
        b = generate_taskset(3, 0.6, [4, 5, 6, 8, 10, 12], seed=42)
        assert a == b

    def test_coarse_period_pool_is_rejected_not_mangled(self):
        # Periods {4, 6, 8, 12} trap utilization on a 1/24 lattice whose
        # nearest point to 0.6 is 0.0167 away, beyond the default tol.
        with pytest.raises(ValueError, match="could not hit"):
            generate_taskset(3, 0.6, [4, 6, 8, 12], seed=42)

    def test_single_task_exact_split(self):
        ts = generate_taskset(1, 0.5, [10], seed=0)
        (t,) = ts.tasks
        assert (t.C, t.T) == (5, 10)

    def test_mean_error_over_many_sets(self):
        errs = []
        for seed in range(1000):
            ts = generate_taskset(3, 0.65, [4, 5, 6, 8, 10, 12], seed=seed)
            errs.append(abs(float(utilization(ts)) - 0.65))
        assert sum(errs) / len(errs) <= 0.02

    def test_rm_priorities_assigned(self):
        ts = generate_taskset(4, 0.5, [4, 5, 6, 8, 10, 12], seed=7)
        by_prio = ts.by_priority()
        periods = [t.T for t in by_prio]
        assert periods == sorted(periods)
        assert validate(ts) == []

    def test_infeasible_target_errors(self):
        # One task, period 2: reachable utilizations are only 1/2 and 1.
        with pytest.raises(ValueError, match="could not hit"):
            generate_taskset(1, 0.7, [2], seed=1)


class TestRateMonotonic:
    def test_ties_break_by_id(self):
        tasks = (Task(id=2, C=1, T=6), Task(id=1, C=1, T=6), Task(id=3, C=1, T=4))
        ranked = {t.id: t.priority for t in rate_monotonic(tasks)}
        assert ranked == {3: 1, 1: 2, 2: 3}

    def test_defaults_fill_in(self):
        t = Task(id=1, C=2, T=8)
        assert t.D == 8 and t.phase == 0 and t.kind == "periodic"
        assert t.fixed_execution


# Frozen generator output: sha256 (first 16 hex digits) of repr(TaskSet),
# or of the refusal message, for each of GENERATOR_REQUESTS seeded requests
# over fine and coarse period pools.  Taken before the repair loop's
# utilization moved from Fraction sums to integer arithmetic; a change to
# the draws, the repair or the rounding of U changes it.
GENERATOR_POOLS = (
    (4, 5, 6, 8, 10, 12),
    (4, 6, 8, 12),
    (10, 20, 25, 40, 50, 100, 200),
    (4, 5, 6, 8, 10, 12, 15, 16, 20),
    tuple(range(4, 21)),
    (4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40),
)
GENERATOR_REQUESTS = 2000
GENERATOR_DIGEST = "30a56a6c631456e1"


def _generator_requests(count=GENERATOR_REQUESTS, seed=19):
    rng = random.Random(seed)
    for _ in range(count):
        yield (rng.randint(1, 8), round(rng.uniform(0.05, 1.0), 4),
               GENERATOR_POOLS[rng.randrange(len(GENERATOR_POOLS))],
               rng.getrandbits(32), rng.choice((0.01, 0.02)))


def test_generator_output_is_frozen():
    h = hashlib.sha256()
    made = refused = 0
    for n, u, pool, seed, tol in _generator_requests():
        try:
            out = repr(generate_taskset(n, u, pool, seed=seed, tol=tol))
            made += 1
        except ValueError as exc:
            out = "refused: " + str(exc)
            refused += 1
        h.update(out.encode())
        h.update(b"\x00")
    assert min(made, refused) >= 400  # both outcomes are exercised
    assert h.hexdigest()[:16] == GENERATOR_DIGEST
