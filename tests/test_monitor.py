"""Monitoring defense: learned profiles, escalating scans."""

import numpy as np
import pytest

from schedlab import Task, TaskSet, VanillaFP, hyperperiod, simulate
from schedlab.flush import FlushFP, SecurityPolicy
from schedlab.monitor import (
    MonitorPolicy,
    activity_features,
    detection_latencies,
    fit_profile,
    flag_anomalies,
    score_vectors,
)


def flagship():
    return TaskSet(tasks=(
        Task(id=1, C=1, T=4, priority=1),
        Task(id=2, C=2, T=6, priority=2),
        Task(id=3, C=3, T=12, priority=3),
    ))


def with_scan(scan_C=1, scan_T=12, scan_prio=4):
    base = flagship().tasks
    return TaskSet(tasks=(*base, Task(id=9, C=scan_C, T=scan_T,
                                      priority=scan_prio)))


# --- feature extraction --------------------------------------------------------

def test_activity_features_frozen_small_case():
    ts = flagship()
    tr = simulate(ts, 12, policy=VanillaFP(), seed=0)
    feats = activity_features(tr, ts, window=6)
    assert feats.shape == (2, 3)
    assert feats[0] == pytest.approx([2 / 6, 2 / 6, 2 / 6])
    assert feats[1] == pytest.approx([1 / 6, 2 / 6, 1 / 6])


def test_activity_features_validation():
    ts = flagship()
    tr = simulate(ts, 12, policy=VanillaFP(), seed=0)
    with pytest.raises(ValueError, match="positive"):
        activity_features(tr, ts, window=0)
    with pytest.raises(ValueError, match="longer"):
        activity_features(tr, ts, window=13)


# --- profile learning -----------------------------------------------------------

def test_single_cluster_centroid_is_the_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3)) * 0.1 + np.array([0.3, 0.2, 0.1])
    prof = fit_profile(x, k=1)
    assert prof.centroids.shape == (1, 3)
    assert prof.centroids[0] == pytest.approx(x.mean(axis=0))


def test_two_separated_clusters_are_recovered():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 2)) * 0.02 + np.array([0.2, 0.1])
    b = rng.normal(size=(30, 2)) * 0.02 + np.array([0.7, 0.2])
    prof = fit_profile(np.vstack([a, b]), k=2)
    got = sorted(map(tuple, np.round(prof.centroids, 1)))
    assert got == [(0.2, 0.1), (0.7, 0.2)]


def test_squared_error_never_increases_with_k():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(60, 2))
    sses = [fit_profile(x, k=k).sse for k in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(sses, sses[1:]))


def test_threshold_is_a_training_quantile():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2)) * 0.05 + 0.4
    prof = fit_profile(x, k=1)
    assert flag_anomalies(prof, x).mean() <= 0.011


def test_scores_separate_near_from_far():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 2)) * 0.05 + np.array([0.4, 0.3])
    prof = fit_profile(x, k=1)
    near = x.mean(axis=0)
    far = near + np.array([0.5, -0.25])
    s = score_vectors(prof, np.vstack([near, far]))
    assert s[0] <= prof.threshold < s[1]
    assert list(flag_anomalies(prof, np.vstack([near, far]))) == [False, True]


def test_profile_validation_errors():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError, match="degenerate"):
        fit_profile(x, k=2)
    with pytest.raises(ValueError, match="k\\*d"):
        fit_profile(np.zeros((3, 2)), k=2)
    with pytest.raises(ValueError, match="k must"):
        fit_profile(x, k=0)
    with pytest.raises(ValueError, match="2-d"):
        fit_profile(np.zeros(5), k=1)
    prof = fit_profile(np.random.default_rng(0).uniform(size=(10, 2)), k=1)
    with pytest.raises(ValueError, match="features"):
        score_vectors(prof, np.zeros((1, 3)))


def test_profile_benchmark_separates_inflated_task():
    # Train on variable but honest executions; attack doubles tau2's cost.
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
        rows = [activity_features(
            simulate(ts, 10 * h, policy=VanillaFP(), seed=s), normal, window=h)
            for s in seeds]
        return np.vstack(rows)

    train = feats(normal, range(20))
    test_normal = feats(normal, range(20, 30))
    test_attack = feats(attack, range(30, 40))
    prof = fit_profile(train, k=2)
    fpr = flag_anomalies(prof, test_normal).mean()
    tpr = flag_anomalies(prof, test_attack).mean()
    assert fpr <= 0.05
    assert tpr >= 0.95


# --- escalating scan policy -------------------------------------------------------

def test_passive_monitor_matches_engine_released_scan():
    ts = with_scan()
    base = simulate(ts, 120, policy=VanillaFP(), seed=0)
    mon = simulate(ts, 120, policy=MonitorPolicy(scan_task_id=9), seed=0)
    assert mon.slots == base.slots
    assert mon.misses == []


def test_escalation_emits_mode_switches_and_returns():
    ts = with_scan()
    pol = MonitorPolicy(scan_task_id=9, alert_ticks=[20])
    tr = simulate(ts, 120, policy=pol, seed=0)
    switches = [e for e in tr.events if e.kind == "mode_switch"]
    assert len(switches) == 2
    assert switches[0].tick == 20
    assert switches[1].tick > 20
    fine_jobs = [j for j in tr.jobs if j.task_id == 9 and j.priority == 0]
    assert len(fine_jobs) == 1  # de-escalates after the first one finishes
    assert tr.misses == []


def test_escalation_strictly_cuts_detection_latency():
    ts = with_scan()
    alerts = [20]
    fast = simulate(ts, 120, policy=MonitorPolicy(9, alert_ticks=alerts),
                    seed=0)
    slow = simulate(ts, 120,
                    policy=MonitorPolicy(9, alert_ticks=alerts,
                                         escalate=False), seed=0)
    lat_fast = detection_latencies(fast, 9, alerts)
    lat_slow = detection_latencies(slow, 9, alerts)
    assert lat_fast[0] is not None and lat_slow[0] is not None
    assert lat_fast[0] < lat_slow[0]


def test_latency_sentinel_when_no_scan_completes():
    ts = with_scan()
    tr = simulate(ts, 120, policy=MonitorPolicy(9), seed=0)
    assert detection_latencies(tr, 9, [119]) == [None]


def test_monitor_refuses_unschedulable_placements():
    heavy = TaskSet(tasks=(*flagship().tasks,
                           Task(id=9, C=3, T=4, priority=4)))
    with pytest.raises(ValueError, match="refused"):
        simulate(heavy, 10, policy=MonitorPolicy(9))
    # Passive placement fits, but doubling the scan rate does not.
    # Passive load fits exactly; halving the scan period pushes U past 1.
    tight = TaskSet(tasks=(
        Task(id=1, C=3, T=8, priority=1),
        Task(id=2, C=3, T=8, D=8, priority=2, phase=0),
        Task(id=9, C=2, T=8, priority=3),
    ))
    with pytest.raises(ValueError, match="fine"):
        simulate(tight, 10, policy=MonitorPolicy(9))


def test_monitor_without_escalation_admits_on_the_passive_placement():
    # The same sets as above: without escalation the fine placement never
    # runs, so neither its test nor its priority can refuse the monitor.
    tight = TaskSet(tasks=(
        Task(id=1, C=3, T=8, priority=1),
        Task(id=2, C=3, T=8, D=8, priority=2, phase=0),
        Task(id=9, C=2, T=8, priority=3),
    ))
    tr = simulate(tight, 48, policy=MonitorPolicy(9, alert_ticks=[5],
                                                  escalate=False))
    assert tr.misses == []
    assert not [e for e in tr.events if e.kind == "mode_switch"]
    tr = simulate(with_scan(), 24, policy=MonitorPolicy(
        9, fine_priority=1, escalate=False))
    assert tr.misses == []
    heavy = TaskSet(tasks=(*flagship().tasks,
                           Task(id=9, C=3, T=4, priority=4)))
    with pytest.raises(ValueError, match="passive"):
        simulate(heavy, 10, policy=MonitorPolicy(9, escalate=False))


def test_monitor_rejects_bad_configuration():
    ts = with_scan()
    with pytest.raises(ValueError, match="not in task set"):
        simulate(ts, 10, policy=MonitorPolicy(scan_task_id=42))
    with pytest.raises(ValueError, match="collides"):
        simulate(ts, 10, policy=MonitorPolicy(9, fine_priority=1))


def test_monitor_runs_are_deterministic():
    ts = with_scan()
    a = simulate(ts, 120, policy=MonitorPolicy(9, alert_ticks=[30]), seed=5)
    b = simulate(ts, 120, policy=MonitorPolicy(9, alert_ticks=[30]), seed=5)
    assert a.slots == b.slots and a.events == b.events


def test_monitor_over_flush_admits_by_flush_aware_analysis():
    # Plain RTA passes this set, but not once every dispatch pays a scrub.
    levels = {1: 3, 2: 2, 3: 1, 9: 0}
    ts = TaskSet(tasks=tuple(Task(id=t.id, C=t.C, T=t.T, priority=t.priority,
                                  security_level=levels[t.id])
                             for t in with_scan()))
    assert MonitorPolicy(9).analyze(ts).verdict == "schedulable"
    base = FlushFP(SecurityPolicy(mode="total_order", flush_cost=1))
    monitor = MonitorPolicy(9, base=base)
    assert monitor.analyze(ts).method == "rta_flush"
    assert monitor.analyze(ts).verdict == "unschedulable"
    with pytest.raises(ValueError, match="passive placement"):
        simulate(ts, 24, policy=monitor)
