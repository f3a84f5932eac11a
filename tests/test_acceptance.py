"""End-to-end acceptance checks, one test per criterion.

Each test covers one property the package must hold at scale: analysis
soundness, attack fidelity against an exhaustive oracle, defense safety
and effect, cross-validation of the stochastic models, detector quality,
and bit-level reproducibility.  The conftest prints a one-line PASS/FAIL
verdict per criterion after the run.
"""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from schedlab.analysis import (
    SCHEDULABLE,
    response_time_analysis,
    rta_with_flush,
)
from schedlab.cache_probe import estimate_touches, probe_rounds
from schedlab.engine import VanillaFP, check_trace, extract_busy_intervals, simulate
from schedlab.flush import FlushFP, SecurityPolicy, count_violations
from schedlab.harness import run_attack, run_scenario
from schedlab.monitor import (
    MonitorPolicy,
    activity_features,
    detection_latencies,
    fit_profile,
    flag_anomalies,
)
from schedlab.phase_inference import (
    EXACT,
    Observation,
    brute_force_offsets,
    infer_offsets,
    observe,
)
from schedlab.restart import (
    detection_analysis,
    optimize_period,
    periodic_analysis,
    simulate_detection,
    simulate_periodic,
)
from schedlab.scenario import parse_scenario
from schedlab.shuffle import (
    FINE_GRAINED,
    TASK_ONLY,
    WITH_IDLE,
    ShuffleFP,
    schedule_entropy,
)
from schedlab.tasks import Task, TaskSet, generate_taskset, hyperperiod

POOL = (4, 5, 6, 8, 10, 12)  # lattice fine enough for tight targets, H <= 120
POOL_SMALL = (4, 5, 6, 8, 10)


def make_sets(count, seed, n_range, u_range, pool=POOL, tol=0.02):
    """Reproducible stream of generated task sets across a U sweep."""
    rng = random.Random(seed)
    sets = []
    attempt = 0
    while len(sets) < count:
        n = rng.randint(*n_range)
        target = rng.uniform(*u_range)
        attempt += 1
        try:
            sets.append(generate_taskset(n, target, pool,
                                         seed=seed + 7919 * attempt, tol=tol))
        except ValueError:
            continue  # lattice miss near the target; redraw
    return sets


def with_random_phases(ts, rng):
    tasks = tuple(replace(t, phase=rng.randrange(t.T)) for t in ts)
    return TaskSet(tasks=tasks, name=ts.name)


def truth_of(ts):
    return tuple(t.phase for t in sorted(ts, key=lambda t: t.id))


def with_offsets(ts, task_ids, offsets):
    lookup = dict(zip(task_ids, offsets))
    tasks = tuple(replace(t, phase=lookup[t.id]) for t in ts)
    return TaskSet(tasks=tasks, name=ts.name)


# -------------------------------------------------------------- criterion 1


def test_c1_analysis_soundness_sweep(acceptance):
    with acceptance.criterion("C1"):
        sets = make_sets(1000, seed=101, n_range=(2, 5), u_range=(0.3, 0.98))
        schedulable = 0
        for ts in sets:
            report = response_time_analysis(ts)
            if report.verdict != SCHEDULABLE:
                continue
            schedulable += 1
            trace = simulate(ts, hyperperiod(ts))
            assert not trace.misses, (
                f"RTA passed but simulation missed: {ts.name}"
            )
        # the sweep must actually exercise both outcomes
        assert 100 <= schedulable < len(sets)
        acceptance.note("C1", f"{schedulable}/1000 schedulable, 0 misses")


# -------------------------------------------------------------- criterion 2


def test_c2_offset_inference_fidelity(acceptance):
    with acceptance.criterion("C2"):
        rng = random.Random(202)
        sets = [with_random_phases(ts, rng)
                for ts in make_sets(500, seed=202, n_range=(2, 4),
                                    u_range=(0.3, 0.8), pool=POOL_SMALL)]
        oracle_cap = 400  # offset-space size we can afford to enumerate
        oracle_checked = 0
        unambiguous = 0
        exact_hits = 0
        for ts in sets:
            h = hyperperiod(ts)
            obs = observe(ts, h)
            result = infer_offsets(ts, obs)
            truth = truth_of(ts)
            assert truth in result.candidates, f"truth dropped: {ts.name}"
            assert not result.low_confidence
            # consistency: every candidate re-simulates to the observation
            for cand in result.candidates:
                relabeled = with_offsets(ts, result.task_ids, cand)
                busy = tuple(extract_busy_intervals(simulate(relabeled, h)))
                assert busy == obs.busy, f"inconsistent candidate: {ts.name}"
            space = math.prod(t.T for t in ts)
            if space <= oracle_cap:
                oracle = brute_force_offsets(ts, obs)
                assert set(oracle) == set(result.candidates), (
                    f"oracle mismatch: {ts.name}"
                )
                oracle_checked += 1
            if len(result.candidates) == 1:
                unambiguous += 1
                if result.status == EXACT and result.candidates[0] == truth:
                    exact_hits += 1
        assert oracle_checked >= 50
        assert unambiguous >= 50
        rate = exact_hits / unambiguous
        assert rate >= 0.90
        acceptance.note(
            "C2",
            f"exact {exact_hits}/{unambiguous} unambiguous, "
            f"{oracle_checked} oracle-checked",
        )


# -------------------------------------------------------------- criterion 3


def test_c3_shuffle_safety_and_entropy(acceptance):
    with acceptance.criterion("C3"):
        rng = random.Random(303)
        sets = make_sets(100, seed=303, n_range=(3, 5), u_range=(0.30, 0.65))
        modes = (TASK_ONLY, WITH_IDLE, FINE_GRAINED)
        entropy_sum = {m: 0.0 for m in modes}
        exact_vanilla = 0
        exact_with_idle = 0
        for idx, ts in enumerate(sets):
            # entropy on the synchronous sets: with zero phases every fold
            # starts from an empty backlog, so the vanilla baseline repeats
            # bit-for-bit and all measured entropy comes from the shuffler
            h = hyperperiod(ts)
            duration = 100 * h
            for mode in modes:
                trace = simulate(ts, duration, policy=ShuffleFP(mode=mode),
                                 seed=1000 + idx)
                assert not trace.misses, f"{mode} missed on {ts.name}"
                _, mean_bits = schedule_entropy([trace], hyperperiod=h)
                entropy_sum[mode] += mean_bits
            vanilla = simulate(ts, duration)
            assert not vanilla.misses
            _, vanilla_bits = schedule_entropy([vanilla], hyperperiod=h)
            assert vanilla_bits == 0.0

            # inference on phase-shifted variants: offsets are the secret
            phased = with_random_phases(ts, rng)
            truth = truth_of(phased)

            def is_exact(obs):
                res = infer_offsets(phased, obs)
                return (res.status == EXACT
                        and res.candidates == (truth,))

            exact_vanilla += is_exact(observe(phased, h))
            shuffled = simulate(phased, h, policy=ShuffleFP(mode=WITH_IDLE),
                                seed=5000 + idx)
            exact_with_idle += is_exact(Observation.from_trace(shuffled))
        means = {m: entropy_sum[m] / len(sets) for m in modes}
        # across random sets the idle-capable modes separate clearly from
        # task_only; fine_grained vs with_idle is workload-dependent (their
        # ensemble means tie within noise), so that link is pinned on the
        # reference workload below where it holds with a real margin
        assert means[FINE_GRAINED] >= means[TASK_ONLY] > 0
        assert means[WITH_IDLE] >= means[TASK_ONLY] > 0
        assert exact_vanilla >= 20  # the attack must be worth defending against
        assert exact_with_idle <= exact_vanilla / 2

        # reference workload, 1000-trace ensembles per mode: the full chain
        reference = TaskSet(tasks=(
            Task(id=1, C=2, T=10, priority=3),
            Task(id=2, C=1, T=6, priority=1),
            Task(id=3, C=1, T=10, priority=4),
            Task(id=4, C=1, T=6, priority=2),
        ), name="reference-shuffle")
        rh = hyperperiod(reference)
        ref_means = {}
        for mode in modes:
            traces = [
                simulate(reference, 5 * rh, policy=ShuffleFP(mode=mode),
                         seed=s) for s in range(1000)
            ]
            assert all(not t.misses for t in traces)
            _, ref_means[mode] = schedule_entropy(traces, hyperperiod=rh)
        _, ref_vanilla = schedule_entropy([simulate(reference, 5 * rh)],
                                          hyperperiod=rh)
        assert (ref_means[FINE_GRAINED] >= ref_means[WITH_IDLE]
                >= ref_means[TASK_ONLY] > ref_vanilla == 0.0)
        acceptance.note(
            "C3",
            f"ensemble {means[TASK_ONLY]:.3f}/{means[WITH_IDLE]:.3f}/"
            f"{means[FINE_GRAINED]:.3f} bits, reference chain "
            f"{ref_means[TASK_ONLY]:.3f}/{ref_means[WITH_IDLE]:.3f}/"
            f"{ref_means[FINE_GRAINED]:.3f}, exact {exact_vanilla}->"
            f"{exact_with_idle} of 100",
        )


# -------------------------------------------------------------- criterion 4


def _random_security(ts, rng):
    if rng.random() < 0.5:
        levels = {t.id: rng.randrange(3) for t in ts}
        ts = TaskSet(tasks=tuple(replace(t, security_level=levels[t.id])
                                 for t in ts), name=ts.name)
        return ts, SecurityPolicy(mode="total_order",
                                  flush_cost=rng.randrange(3))
    ids = [t.id for t in ts]
    pairs = set()
    for _ in range(rng.randint(1, 3)):
        src, dst = rng.sample(ids, 2)
        pairs.add((src, dst))
    return ts, SecurityPolicy(mode="pairwise", flush_cost=rng.randrange(3),
                              pairs=frozenset(pairs))


def test_c4_flush_isolation_and_soundness(acceptance):
    with acceptance.criterion("C4"):
        rng = random.Random(404)
        ticks = 0
        for ts in make_sets(100, seed=404, n_range=(2, 4),
                            u_range=(0.3, 0.7)):
            ts, policy = _random_security(ts, rng)
            trace = simulate(ts, 10_000, policy=FlushFP(policy))
            ticks += trace.duration
            assert count_violations(trace, ts, policy) == 0
        assert ticks >= 1_000_000

        passed = 0
        for ts in make_sets(500, seed=444, n_range=(2, 4),
                            u_range=(0.3, 0.9)):
            ts, policy = _random_security(ts, rng)
            report = rta_with_flush(ts, policy)
            if report.verdict != SCHEDULABLE:
                continue
            passed += 1
            trace = simulate(ts, hyperperiod(ts), policy=FlushFP(policy))
            assert not trace.misses, f"flush RTA unsound on {ts.name}"
        assert passed >= 100
        acceptance.note(
            "C4", f"{ticks} violation-free ticks, {passed}/500 flush-RTA"
            " passes simulated clean",
        )


# -------------------------------------------------------------- criterion 5


def test_c5_restart_cross_validation(acceptance):
    with acceptance.criterion("C5"):
        points = 0
        for i, rate in enumerate((0.05, 0.1, 0.2, 0.5)):
            for j, period in enumerate((10, 20, 40, 80)):
                analytic = periodic_analysis(period, 1.0, rate)
                mc = simulate_periodic(period, 1.0, rate,
                                       trials=1_000_000, seed=100 * i + j)
                rel_comp = abs(
                    mc.compromised_fraction - analytic.compromised_fraction
                ) / analytic.compromised_fraction
                rel_unavail = abs(
                    mc.unavailability - analytic.unavailability
                ) / analytic.unavailability
                assert rel_comp <= 0.01, (rate, period, rel_comp)
                assert rel_unavail <= 0.01
                points += 1
        for i, (lam, mu) in enumerate(
            ((0.1, 0.5), (0.2, 1.0), (0.05, 0.2), (0.3, 0.3))
        ):
            analytic = detection_analysis(20, 2.0, lam, mu)
            mc = simulate_detection(20, 2.0, lam, mu,
                                    trials=1_000_000, seed=900 + i)
            rel_comp = abs(
                mc.compromised_fraction - analytic.compromised_fraction
            ) / analytic.compromised_fraction
            rel_unavail = abs(
                mc.unavailability - analytic.unavailability
            ) / analytic.unavailability
            assert rel_comp <= 0.01, (lam, mu, rel_comp)
            assert rel_unavail <= 0.01
            points += 1
        assert points == 20

        # documented configuration with an interior optimum
        grid = list(range(5, 301))
        result = optimize_period(grid, 1.0, 0.05, weight=0.5)
        assert result.best.period == 7
        assert result.best.objective == pytest.approx(0.12974, abs=1e-4)
        by_period = {p.period: p.objective for p in result.curve}
        assert by_period[grid[0]] > result.best.objective
        assert by_period[grid[-1]] > result.best.objective
        acceptance.note(
            "C5", f"20 grid points within 1%, optimum P={result.best.period}"
        )


# -------------------------------------------------------------- criterion 6


def test_c6_cache_usage_inference(acceptance):
    with acceptance.criterion("C6"):
        ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1),))
        trace = simulate(ts, 500)
        jobs = sum(1 for j in trace.jobs if j.task_id == 1)
        assert jobs == 100
        counts = [8 if i % 2 == 0 else 48 for i in range(jobs)]

        clean = probe_rounds(trace, 1, counts, num_lines=64, epsilon=0.0)
        recovered = [
            round(estimate_touches(r.observed, r.primed, 0.0)) for r in clean
        ]
        assert recovered == counts  # noise-free inference is exact

        noisy = probe_rounds(trace, 1, counts, num_lines=64, epsilon=0.1,
                             seed=606)
        estimates = [
            estimate_touches(r.observed, r.primed, 0.1) for r in noisy
        ]
        r = float(np.corrcoef(estimates, counts)[0, 1])
        assert r >= 0.9
        acceptance.note("C6", f"exact at eps=0, r={r:.4f} at eps=0.1")


# -------------------------------------------------------------- criterion 7


def test_c7_monitor_detection_and_latency(acceptance):
    with acceptance.criterion("C7"):
        normal = TaskSet(tasks=(
            Task(id=1, C=1, T=4, priority=1),
            Task(id=2, C=2, T=6, priority=2, bcet=1),
            Task(id=3, C=3, T=12, priority=3, bcet=1),
        ))
        attack = TaskSet(tasks=(
            Task(id=1, C=1, T=4, priority=1),
            Task(id=2, C=4, T=6, priority=2, bcet=4),
            Task(id=3, C=3, T=12, priority=3, bcet=1),
        ))
        h = hyperperiod(normal)

        def feats(ts, seeds):
            return np.vstack([
                activity_features(simulate(ts, 10 * h, seed=s), normal, h)
                for s in seeds
            ])

        profile = fit_profile(feats(normal, range(20)), k=2)
        fpr = flag_anomalies(profile, feats(normal, range(20, 30))).mean()
        tpr = flag_anomalies(profile, feats(attack, range(30, 40))).mean()
        assert fpr <= 0.05
        assert tpr >= 0.95

        scanned = TaskSet(tasks=normal.tasks + (
            Task(id=9, C=1, T=12, priority=4),
        ))
        fine_lat, passive_lat = [], []
        runs = 0
        for alert in range(5, 105, 5):
            for seed in range(5):
                pair = []
                for escalate in (True, False):
                    policy = MonitorPolicy(9, alert_ticks=(alert,),
                                           escalate=escalate)
                    trace = simulate(scanned, 120, policy=policy, seed=seed)
                    assert not trace.misses
                    assert not check_trace(trace, scanned)
                    (lat,) = detection_latencies(trace, 9, (alert,))
                    assert lat is not None
                    pair.append(lat)
                fine_lat.append(pair[0])
                passive_lat.append(pair[1])
                runs += 1
        assert runs == 100
        mean_fine = sum(fine_lat) / len(fine_lat)
        mean_passive = sum(passive_lat) / len(passive_lat)
        assert mean_fine < mean_passive
        acceptance.note(
            "C7",
            f"tpr={tpr:.2f} fpr={fpr:.2f}, latency {mean_fine:.2f} vs "
            f"{mean_passive:.2f} over {runs} scenarios",
        )


# -------------------------------------------------------------- criterion 8

_C8_SCENARIOS = (
    """
name = det-vanilla
policy = vanilla
hyperperiods = 2
[task]
id = 1
C = 1
T = 4
[task]
id = 2
C = 2
T = 6
""",
    """
name = det-shuffle
policy = shuffle
hyperperiods = 4
seed = 11
[task]
id = 1
C = 1
T = 4
[task]
id = 2
C = 2
T = 6
[shuffle]
mode = fine_grained
""",
    """
name = det-flush
policy = flush
hyperperiods = 2
[task]
id = 1
C = 1
T = 4
[task]
id = 2
C = 2
T = 12
[security]
mode = pairwise
flush_cost = 1
pair = 1 2
""",
    """
name = det-monitor
policy = monitor
hyperperiods = 2
[task]
id = 1
C = 1
T = 4
[task]
id = 2
C = 2
T = 6
[task]
id = 9
C = 1
T = 12
[monitor]
scan_task = 9
alert = 5
""",
    """
name = det-probe
policy = vanilla
duration = 50
[task]
id = 1
C = 2
T = 5
phase = 3
[restart]
period = 60
reboot = 1
compromise_rate = 0.1
[cache]
victim = 1
epsilon = 0.1
""",
)


def test_c8_seeded_determinism(acceptance):
    with acceptance.criterion("C8"):
        for text in _C8_SCENARIOS:
            sc = parse_scenario(text)
            first = json.dumps(run_scenario(sc, runs=2), sort_keys=True)
            second = json.dumps(run_scenario(sc, runs=2), sort_keys=True)
            assert first == second, f"report drift in {sc.name}"
            a = run_attack(sc)
            b = run_attack(sc)
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True)

        sc = parse_scenario(_C8_SCENARIOS[1])
        t1 = simulate(sc.taskset, 48, policy=ShuffleFP(mode=FINE_GRAINED),
                      seed=sc.seed)
        t2 = simulate(sc.taskset, 48, policy=ShuffleFP(mode=FINE_GRAINED),
                      seed=sc.seed)
        assert t1.slots_csv() == t2.slots_csv()
        assert t1.events == t2.events
        other = simulate(sc.taskset, 48, policy=ShuffleFP(mode=FINE_GRAINED),
                         seed=sc.seed + 1)
        assert other.slots != t1.slots  # the seed is the only noise source
        acceptance.note("C8", f"{len(_C8_SCENARIOS)} scenarios byte-stable")
