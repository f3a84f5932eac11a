"""Offset-inference attack: observation capture, pruned search, oracle parity."""

import math
import random
from dataclasses import replace

import pytest

import schedlab.engine
import schedlab.phase_inference
from schedlab import Task, TaskSet, generate_taskset, hyperperiod, utilization
from schedlab.cli import main
from schedlab.engine import extract_busy_intervals, simulate
from schedlab.phase_inference import (
    AMBIGUOUS,
    EXACT,
    FAILED,
    InferenceResult,
    Observation,
    brute_force_offsets,
    infer_offsets,
    observe,
)


def single(C=2, T=5, phase=0):
    return TaskSet(tasks=(Task(id=1, C=C, T=T, phase=phase, priority=1),))


def flagship(phases=(0, 0, 0)):
    return TaskSet(tasks=(
        Task(id=1, C=1, T=4, phase=phases[0], priority=1),
        Task(id=2, C=2, T=6, phase=phases[1], priority=2),
        Task(id=3, C=3, T=12, phase=phases[2], priority=3),
    ))


# --- observation capture ---------------------------------------------------

def test_observe_offset_task_frozen():
    # (C=2, T=5) released at 3: bursts at 3, 8, 13 over a 15-tick window.
    obs = observe(single(phase=3), 15)
    assert obs.busy == ((3, 5), (8, 10), (13, 15))
    assert obs.window == 15


def test_observe_far_offset_is_all_idle():
    obs = observe(single(phase=50), 10)
    assert obs.busy == ()


def test_observation_mask():
    obs = Observation(window=6, busy=((1, 3), (5, 6)))
    assert obs.mask() == 0b100110


def test_observation_validation():
    with pytest.raises(ValueError, match="outside"):
        Observation(window=4, busy=((2, 6),))
    with pytest.raises(ValueError, match="sorted"):
        Observation(window=10, busy=((4, 6), (0, 2)))


# --- inference on hand-checkable cases -------------------------------------

def test_single_task_offset_recovered_exactly():
    result = infer_offsets(single(), observe(single(phase=3), 15))
    assert result.candidates == ((3,),)
    assert result.status == EXACT
    assert result.low_confidence is False
    assert result.task_ids == (1,)


def test_attacker_side_offsets_are_ignored():
    knowledge = single(phase=999)  # stale guess must not leak into the search
    result = infer_offsets(knowledge, observe(single(phase=3), 15))
    assert result.candidates == ((3,),)


def test_identical_pair_is_ambiguous_by_label_swap():
    ts = TaskSet(tasks=(
        Task(id=1, C=2, T=10, phase=0, priority=1),
        Task(id=2, C=2, T=10, phase=5, priority=2),
    ))
    result = infer_offsets(ts, observe(ts, 20))
    assert result.status == AMBIGUOUS
    assert (0, 5) in result.candidates and (5, 0) in result.candidates


def test_truth_is_always_among_candidates():
    truth = (1, 0, 2)
    ts = flagship(truth)
    result = infer_offsets(ts, observe(ts, 2 * hyperperiod(ts)))
    assert truth in result.candidates
    assert result.status in (EXACT, AMBIGUOUS)


def test_inconsistent_observation_fails():
    # 15 solid busy ticks cannot come from a task that can execute at most
    # 6 of them.
    result = infer_offsets(single(), Observation(window=15, busy=((0, 15),)))
    assert result.status == FAILED
    assert result.candidates == ()


def test_window_extension_never_adds_candidates():
    ts = flagship((1, 0, 2))
    h = hyperperiod(ts)
    wide = set(infer_offsets(ts, observe(ts, 2 * h)).candidates)
    narrow = set(infer_offsets(ts, observe(ts, h)).candidates)
    assert wide <= narrow


def test_short_window_refused():
    with pytest.raises(ValueError, match="longest period"):
        infer_offsets(single(), Observation(window=4, busy=((0, 2),)))


def test_variable_execution_refused():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1, bcet=1),))
    with pytest.raises(ValueError, match=r"bcet < C: \[1\]"):
        infer_offsets(ts, observe(single(phase=3), 15))


def test_bcet_equal_to_cost_accepted():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1, bcet=2),))
    assert infer_offsets(ts, observe(single(phase=3), 15)).candidates == ((3,),)


def test_invalid_set_refused():
    ts = TaskSet(tasks=(
        Task(id=1, C=1, T=4, priority=1),
        Task(id=2, C=1, T=6, priority=1),
    ))
    with pytest.raises(ValueError, match="duplicate priorities"):
        infer_offsets(ts, Observation(window=12, busy=()))


def test_cli_attack_refuses_variable_execution(tmp_path, capsys, monkeypatch):
    def no_run(engine):
        raise AssertionError("simulated a scenario that attack refuses")

    monkeypatch.setattr(schedlab.engine._Engine, "run", no_run)
    path = tmp_path / "variable.scn"
    path.write_text(
        "name = variable\n\n[task]\nid = 1\nC = 2\nT = 5\nbcet = 1\n",
        encoding="utf-8")
    assert main(["attack", str(path)]) == 2
    assert "bcet < C" in capsys.readouterr().err


def test_sporadic_tasks_refused():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1, kind="sporadic"),))
    with pytest.raises(ValueError, match="sporadic"):
        infer_offsets(ts, Observation(window=10, busy=()))
    with pytest.raises(ValueError, match="sporadic"):
        brute_force_offsets(ts, Observation(window=10, busy=()))


def test_low_confidence_below_hyperperiod():
    ts = TaskSet(tasks=(
        Task(id=1, C=1, T=5, phase=0, priority=1),
        Task(id=2, C=1, T=7, phase=0, priority=2),
    ))
    assert infer_offsets(ts, observe(ts, 7)).low_confidence is True
    assert infer_offsets(ts, observe(ts, 35)).low_confidence is False


# --- brute-force reference and parity --------------------------------------

def test_brute_force_cap():
    ts = TaskSet(tasks=(
        Task(id=1, C=1, T=100, priority=1),
        Task(id=2, C=1, T=100, priority=2),
        Task(id=3, C=1, T=100, priority=3),
    ))
    with pytest.raises(ValueError, match="exceeds cap"):
        brute_force_offsets(ts, Observation(window=100, busy=()), cap=1000)


def test_brute_force_empty_window_matches_everything():
    hits = brute_force_offsets(single(), Observation(window=0, busy=()), cap=10)
    assert hits == tuple((p,) for p in range(5))


def test_brute_force_single_task():
    hits = brute_force_offsets(single(), observe(single(phase=3), 15))
    assert hits == ((3,),)


@pytest.mark.parametrize("seed", range(12))
def test_pruned_search_equals_brute_force(seed):
    import random

    rng = random.Random(seed)
    ts = generate_taskset(
        n=3, target_u=0.5, period_choices=[4, 5, 6, 8], seed=seed, tol=0.05
    )
    truth = TaskSet(tasks=tuple(
        Task(id=t.id, C=t.C, T=t.T, phase=rng.randrange(t.T), priority=t.priority)
        for t in ts
    ))
    obs = observe(truth, hyperperiod(ts))
    result = infer_offsets(ts, obs)
    brute = brute_force_offsets(ts, obs)
    assert result.candidates == brute
    assert tuple(t.phase for t in sorted(truth, key=lambda t: t.id)) in brute


def test_result_is_deterministic():
    ts = flagship((1, 0, 2))
    obs = observe(ts, hyperperiod(ts))
    a = infer_offsets(ts, obs)
    b = infer_offsets(ts, obs)
    assert a == b
    assert isinstance(a, InferenceResult)


# --- the search against the simulator ---------------------------------------

def _random_truth(rng: random.Random, overloaded: bool) -> TaskSet:
    # Overloaded sets (U > 1) miss deadlines and spill past the window.
    while True:
        n = rng.randint(2, 3 if overloaded else 4)
        target = rng.uniform(1.05, 1.2) if overloaded else rng.uniform(0.3, 0.9)
        shares = [rng.random() for _ in range(n)]
        prios = rng.sample(range(1, n + 1), n)
        tasks = []
        for i, share in enumerate(shares):
            T = rng.randint(2, 12)
            C = min(T, max(1, round(target * share / sum(shares) * T)))
            tasks.append(Task(id=i + 1, C=C, T=T, D=rng.randint(C, T),
                              phase=rng.randrange(T), priority=prios[i]))
        ts = TaskSet(tasks=tuple(tasks))
        if (utilization(ts) > 1) == overloaded:
            return ts


def test_candidates_replay_to_the_observation():
    # Every candidate the search reports re-simulates to the observed busy
    # intervals, and the candidates equal the simulator-based oracle.
    rng = random.Random(606)
    missed = oracle_checked = 0
    for i in range(150):
        truth = _random_truth(rng, overloaded=i % 2 == 0)
        longest = max(t.T for t in truth)
        window = (longest, 2 * longest, hyperperiod(truth))[i % 3]
        trace = simulate(truth, window)
        missed += bool(trace.misses)
        obs = Observation.from_trace(trace)
        result = infer_offsets(truth, obs)
        assert tuple(t.phase for t in truth) in result.candidates
        for cand in result.candidates:
            replay = TaskSet(tasks=tuple(
                replace(t, phase=p) for t, p in zip(truth, cand)))
            busy = tuple(extract_busy_intervals(simulate(replay, window)))
            assert busy == obs.busy, (truth, window, cand)
        if math.prod(t.T for t in truth) <= 400:
            assert result.candidates == brute_force_offsets(truth, obs)
            oracle_checked += 1
    assert missed >= 60 and oracle_checked >= 100


def test_offset_prunes_match_brute_force():
    # The search narrows each task's offsets before placing it: releases
    # fall on busy ticks only, and bounds come from the first busy tick
    # the placed tasks leave unexplained.  The spill case: C,T = (1,4),
    # (1,4), (1,20) at phases 2, 3, 19 over 20 ticks.  The first two take
    # ticks 18 and 19, so the last task's only job runs wholly past the
    # window and no busy tick bounds its offset from above.
    spill = TaskSet(tasks=(
        Task(id=1, C=1, T=4, phase=2, priority=1),
        Task(id=2, C=1, T=4, phase=3, priority=2),
        Task(id=3, C=1, T=20, phase=19, priority=3),
    ))
    obs = observe(spill, 20)
    assert obs.busy[-1] == (18, 20) and len(obs.busy) == 5
    spilled = infer_offsets(spill, obs).candidates
    assert (2, 3, 18) in spilled and (2, 3, 19) in spilled
    assert spilled == brute_force_offsets(spill, obs)
    rng = random.Random(2020)
    checked = 0
    while checked < 120:
        truth = _random_truth(rng, overloaded=checked % 2 == 0)
        if math.prod(t.T for t in truth) > 200:
            continue
        window = max(t.T for t in truth) + rng.randrange(12)
        obs = Observation.from_trace(simulate(truth, window))
        result = infer_offsets(truth, obs)
        assert result.candidates == brute_force_offsets(truth, obs), (truth, window)
        assert tuple(t.phase for t in truth) in result.candidates
        checked += 1


def test_search_runs_no_simulation(monkeypatch):
    truths = [(1, 0, 2), (3, 5, 11), (0, 0, 0)]
    cases = []
    for phases in truths:
        truth = flagship(phases)
        obs = observe(truth, hyperperiod(truth))
        cases.append((obs, brute_force_offsets(truth, obs)))

    def refuse(*args, **kwargs):
        raise AssertionError("the offset search called the simulator")

    monkeypatch.setattr(schedlab.phase_inference, "observe", refuse)
    monkeypatch.setattr(schedlab.engine, "simulate", refuse)
    # also catches simulate reached through any module's own import of it
    monkeypatch.setattr(schedlab.engine._Engine, "run", refuse)
    for phases, (obs, expected) in zip(truths, cases):
        assert phases in expected
        assert infer_offsets(flagship(), obs).candidates == expected
