"""Prime/probe cache channel: state machine, noise statistics, per-job rounds."""

import random

import pytest

from schedlab import Task, TaskSet, VanillaFP, simulate
from schedlab.cache_probe import (
    ATTACKER,
    COLD,
    CacheState,
    classify_footprint,
    estimate_touches,
    expected_observation,
    probe_rounds,
)


# --- cache state machine ----------------------------------------------------

def test_prime_then_clean_probe_sees_nothing():
    c = CacheState(16)
    c.prime()
    assert c.probe(0.0) == 0


def test_probe_counts_victim_evictions_exactly_without_noise():
    c = CacheState(16, seed=1)
    c.prime()
    c.victim_touch(task_id=3, k=5)
    assert c.probe(0.0) == 5


def test_probe_before_prime_is_a_protocol_error():
    c = CacheState(8)
    with pytest.raises(ValueError, match="prime"):
        c.probe()
    c.prime()
    c.probe()
    with pytest.raises(ValueError, match="prime"):
        c.probe()  # probe consumed the prime


def test_touch_validation():
    c = CacheState(8)
    with pytest.raises(ValueError, match="touch"):
        c.victim_touch(1, 9)
    with pytest.raises(ValueError, match="positive"):
        c.victim_touch(0, 2)
    with pytest.raises(ValueError, match="epsilon"):
        c.prime()
        c.probe(epsilon=1.5)


def test_cold_cache_initial_state():
    c = CacheState(4)
    assert c.owner == [COLD] * 4
    c.prime()
    assert c.owner == [ATTACKER] * 4


def test_probe_draws_once_per_line_in_line_order():
    c = CacheState(8, seed=5)
    c.prime()
    c.owner[2] = c.owner[6] = 3
    rng = random.Random(5)
    want = sum((line in (2, 6)) != (rng.random() < 0.4) for line in range(8))
    assert c.probe(0.4) == want


def test_noisy_probe_mean_matches_flip_model():
    # Full prime of 64, 8 touches, eps = 0.1: expect 0.9*8 + 0.1*56 = 12.8.
    c = CacheState(64, seed=11)
    total = 0
    trials = 10_000
    for _ in range(trials):
        c.prime()
        c.victim_touch(1, 8)
        total += c.probe(epsilon=0.1)
        c.owner = [COLD] * 64
    mean = total / trials
    assert abs(mean - expected_observation(8, 64, 0.1)) < 0.15
    assert abs(estimate_touches(mean, 64, 0.1) - 8.0) < 0.2


# --- estimator and classifier ------------------------------------------------

def test_estimator_inverts_expectation_exactly():
    for k in (0, 8, 31, 64):
        for eps in (0.0, 0.1, 0.25, 0.49):
            assert estimate_touches(
                expected_observation(k, 64, eps), 64, eps
            ) == pytest.approx(k)


def test_estimator_rejects_half_noise():
    with pytest.raises(ValueError, match="0.5"):
        estimate_touches(10, 64, 0.5)


def test_classifier_nearest_profile_and_ties():
    assert classify_footprint(10, (8, 48), 64, 0.0) == 8
    assert classify_footprint(40, (8, 48), 64, 0.0) == 48
    assert classify_footprint(28, (8, 48), 64, 0.0) == 8  # tie -> smaller
    with pytest.raises(ValueError, match="profiles"):
        classify_footprint(10, (), 64, 0.0)


# --- rounds around scheduled jobs --------------------------------------------

def victim_trace(duration=50):
    ts = TaskSet(tasks=(
        Task(id=1, C=1, T=10, priority=1),
        Task(id=2, C=3, T=10, priority=2),
    ))
    return ts, simulate(ts, duration, policy=VanillaFP(), seed=0)


def test_aligned_rounds_recover_footprints_exactly_without_noise():
    _, tr = victim_trace()
    counts = [8, 48, 8, 48, 8]
    rounds = probe_rounds(tr, victim_id=2, touch_counts=counts)
    assert len(rounds) == 5
    assert all(r.in_window for r in rounds)
    assert [r.observed for r in rounds] == counts
    assert [estimate_touches(r.observed, r.primed, 0.0) for r in rounds] == counts


def test_misaligned_rounds_measure_background_only():
    _, tr = victim_trace()
    rounds = probe_rounds(tr, victim_id=2, touch_counts=[8] * 5,
                          predicted_starts=[90, 91, 92, 93, 94])
    assert all(not r.in_window for r in rounds)
    assert all(r.true_touches == 0 and r.observed == 0 for r in rounds)


def test_alternating_profiles_classified_reliably_under_noise():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1),))
    tr = simulate(ts, 500, policy=VanillaFP(), seed=0)
    counts = [8 if i % 2 == 0 else 48 for i in range(100)]
    rounds = probe_rounds(tr, victim_id=1, touch_counts=counts,
                          epsilon=0.1, seed=3)
    labels = [classify_footprint(r.observed, (8, 48), r.primed, 0.1)
              for r in rounds]
    accuracy = sum(a == b for a, b in zip(labels, counts)) / len(counts)
    assert accuracy >= 0.9


def test_wrong_starts_degrade_classification_to_chance():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1),))
    tr = simulate(ts, 500, policy=VanillaFP(), seed=0)
    counts = [8 if i % 2 == 0 else 48 for i in range(100)]
    wrong = [j.start + 2 for j in tr.jobs]  # just past every window
    rounds = probe_rounds(tr, victim_id=1, touch_counts=counts,
                          predicted_starts=wrong, epsilon=0.1, seed=3)
    labels = [classify_footprint(r.observed, (8, 48), r.primed, 0.1)
              for r in rounds]
    accuracy = sum(a == b for a, b in zip(labels, counts)) / len(counts)
    assert accuracy <= 0.6


def test_round_bookkeeping_errors():
    _, tr = victim_trace()
    with pytest.raises(ValueError, match="no jobs"):
        probe_rounds(tr, victim_id=9, touch_counts=[1])
    with pytest.raises(ValueError, match="shorter"):
        probe_rounds(tr, victim_id=2, touch_counts=[8])
    with pytest.raises(ValueError, match="per victim job"):
        probe_rounds(tr, victim_id=2, touch_counts=[8] * 5,
                     predicted_starts=[0])


def test_rounds_are_deterministic_per_seed():
    _, tr = victim_trace()
    a = probe_rounds(tr, victim_id=2, touch_counts=[8] * 5, epsilon=0.2, seed=5)
    b = probe_rounds(tr, victim_id=2, touch_counts=[8] * 5, epsilon=0.2, seed=5)
    assert a == b
