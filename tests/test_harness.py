"""Harness and CLI: scenario execution, reports, sweeps, exit codes."""

import json
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from schedlab.cli import _parse_values, main
from schedlab.engine import NonPreemptiveFP, VanillaFP
from schedlab.flush import FlushFP, SecurityPolicy
from schedlab.harness import (
    MAX_SIMULATED_TICKS,
    MAX_SWEEP_VALUES,
    analyze_scenario,
    build_policy,
    member_seed,
    run_attack,
    run_scenario,
    scenario_duration,
    sweep,
)
from schedlab.monitor import MonitorPolicy
from schedlab.restart import optimize_period
from schedlab.scenario import (
    POLICIES,
    MonitorConfig,
    Scenario,
    ScenarioError,
    ShuffleConfig,
    parse_scenario,
    parse_scenario_file,
)
from schedlab.shuffle import ShuffleFP
from schedlab.tasks import SPORADIC, Task, TaskSet, generate_taskset

HIDDEN = Path(__file__).parents[1] / "perfbench" / "scenarios" / "hidden.scn"

VANILLA = """
name = trio
policy = vanilla
seed = 0

[task]
id = 1
C = 1
T = 4

[task]
id = 2
C = 2
T = 6

[task]
id = 3
C = 3
T = 12
"""

SHUFFLE = VANILLA.replace("name = trio", "name = trio-shuffled").replace(
    "policy = vanilla", "policy = shuffle"
) + """
[shuffle]
mode = fine_grained
guard = budget
"""

FLUSH = """
name = flushed
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
"""

# The trio under total order with one shared level: nothing is forbidden.
ONE_LEVEL = VANILLA.replace("policy = vanilla", "policy = flush") + """
[security]
mode = total_order
flush_cost = 1
"""

MONITOR = """
name = watched
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
id = 3
C = 3
T = 12

[task]
id = 9
C = 1
T = 12

[monitor]
scan_task = 9
alert = 20
"""

RESTART = """
name = rebooter
policy = vanilla
duration = 12

[task]
id = 1
C = 1
T = 4

[restart]
period = 60
reboot = 1
compromise_rate = 0.1
"""

PROBE = """
name = probed
policy = vanilla
duration = 50
seed = 0

[task]
id = 1
C = 2
T = 5
phase = 3

[cache]
victim = 1
lines = 64
epsilon = 0.0
profile = 8 48
"""

OVERLOAD = """
name = doomed
policy = vanilla
hyperperiods = 2

[task]
id = 1
C = 3
T = 4

[task]
id = 2
C = 3
T = 4
"""


# analyze passes the passive placement, but the escalated scan (C=2, T=4,
# top priority) leaves 3-tick jobs with periods of 8 unschedulable.
ESCALATION_FAILS = """
name = crowded
policy = monitor
duration = 64

[task]
id = 1
C = 3
T = 8

[task]
id = 2
C = 3
T = 8

[task]
id = 3
C = 2
T = 8

[monitor]
scan_task = 3
alert = 10
"""

# With one-tick scrubs the passive placement passes flush-aware RTA, but
# the escalated scan (C=2, T=15, top priority) pushes task 1's response
# past its deadline of 6, so the monitor refuses the set.
SCRUBBED_ESCALATION = """
name = scrubbed
policy = monitor

[task]
id = 1
C = 2
T = 6
security_level = 1

[task]
id = 2
C = 2
T = 30

[security]
mode = total_order
flush_cost = 1

[monitor]
scan_task = 2
"""

# Co-prime periods: one hyperperiod is 971,230,541 ticks.
COPRIME = """
name = coprime
policy = vanilla

[task]
id = 1
C = 1
T = 997

[task]
id = 2
C = 1
T = 991

[task]
id = 3
C = 1
T = 983
"""


def _write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- harness


def test_build_policy_types():
    assert isinstance(build_policy(parse_scenario(VANILLA)), VanillaFP)
    np_sc = parse_scenario(VANILLA.replace("policy = vanilla",
                                           "policy = nonpreemptive"))
    assert isinstance(build_policy(np_sc), NonPreemptiveFP)
    sh = build_policy(parse_scenario(SHUFFLE))
    assert isinstance(sh, ShuffleFP)
    assert sh.mode == "fine_grained"
    assert isinstance(build_policy(parse_scenario(FLUSH)), FlushFP)
    mon = build_policy(parse_scenario(MONITOR))
    assert isinstance(mon, MonitorPolicy)
    assert isinstance(mon.base, VanillaFP)


def test_every_policy_name_builds_a_fresh_policy():
    texts = {
        "vanilla": VANILLA,
        "nonpreemptive": VANILLA.replace("policy = vanilla",
                                         "policy = nonpreemptive"),
        "shuffle": SHUFFLE,
        "flush": FLUSH,
        "monitor": MONITOR,
    }
    assert set(texts) == set(POLICIES)
    for name, text in texts.items():
        sc = parse_scenario(text)
        assert sc.policy == name
        assert build_policy(sc) is not build_policy(sc)  # runs share no state


def test_constructed_scenario_follows_the_policy_table():
    ts = parse_scenario(VANILLA).taskset
    with pytest.raises(ScenarioError, match="policy must be one of"):
        Scenario(name="x", taskset=ts, policy="fifo")
    with pytest.raises(ScenarioError, match=r"needs a \[security\] section"):
        Scenario(name="x", taskset=ts, policy="flush")
    sc = Scenario(name="x", taskset=ts, policy="shuffle")
    assert sc.shuffle == ShuffleConfig()
    assert isinstance(build_policy(sc), ShuffleFP)


def test_monitor_policy_wraps_flush_base():
    text = MONITOR + """
[security]
mode = pairwise
flush_cost = 1
pair = 1 2
"""
    mon = build_policy(parse_scenario(text))
    assert isinstance(mon.base, FlushFP)


def test_scenario_duration_hyperperiods_and_explicit():
    assert scenario_duration(parse_scenario(VANILLA)) == 12
    assert scenario_duration(parse_scenario(FLUSH)) == 24
    assert scenario_duration(parse_scenario(RESTART)) == 12


def test_scenario_duration_sporadic_needs_explicit():
    ts = TaskSet((Task(id=1, C=1, T=5, kind=SPORADIC, priority=1),))
    sc = Scenario(name="spor", taskset=ts)
    with pytest.raises(ValueError, match="explicit duration"):
        scenario_duration(sc)
    assert scenario_duration(
        Scenario(name="spor", taskset=ts, duration=40)) == 40


def test_member_seed_stride():
    assert member_seed(0, 0) == 0
    assert member_seed(7, 2) == 7 + 2 * 1_000_003


def test_run_scenario_report_shape():
    report = run_scenario(parse_scenario(VANILLA))
    assert report["name"] == "trio"
    assert report["policy"] == "vanilla"
    assert report["duration"] == 12
    assert report["runs"] == 1
    assert report["analysis"]["verdict"] == "schedulable"
    assert report["analysis"]["responses"] == {"1": 1, "2": 3, "3": 10}
    assert report["simulation"]["total_misses"] == 0
    rows = report["simulation"]["runs"]
    assert [r["seed"] for r in rows] == [0]
    shares = {t["id"]: t["mean_share"] for t in report["tasks"]}
    # one hyperperiod: 3 + 4 + 3 executed slots out of 12, 2 idle
    assert shares[1] == pytest.approx(3 / 12)
    assert shares[2] == pytest.approx(4 / 12)
    assert shares[3] == pytest.approx(3 / 12)
    assert rows[0]["idle_share"] == pytest.approx(2 / 12)


def test_run_scenario_runs_must_be_positive():
    with pytest.raises(ValueError, match="runs"):
        run_scenario(parse_scenario(VANILLA), runs=0)


def test_run_scenario_ensemble_seeds():
    report = run_scenario(parse_scenario(VANILLA), runs=3)
    seeds = [r["seed"] for r in report["simulation"]["runs"]]
    assert seeds == [member_seed(0, i) for i in range(3)]


def test_entropy_none_with_single_sample():
    sc = parse_scenario(VANILLA)
    assert run_scenario(sc)["entropy"] is None


def test_entropy_zero_for_vanilla_ensemble():
    report = run_scenario(parse_scenario(VANILLA), runs=4)
    assert report["entropy"]["mean_bits"] == 0.0
    assert report["entropy"]["fold"] == 12
    assert report["entropy"]["samples_per_offset"] == 4


def test_entropy_positive_for_shuffle_ensemble():
    report = run_scenario(parse_scenario(SHUFFLE), runs=8)
    assert report["entropy"]["mean_bits"] > 0.0
    assert report["simulation"]["total_misses"] == 0


def test_flush_scenario_blocks_leaks_vanilla_does_not():
    report = run_scenario(parse_scenario(FLUSH), runs=2)
    sim = report["simulation"]
    assert sim["total_misses"] == 0
    assert sim["total_violations"] == 0
    assert sim["unprotected_violations"] > 0
    assert all(r["flush_share"] > 0 for r in sim["runs"])
    assert report["analysis"]["method"] == "rta_flush"


def test_monitor_scenario_reports_latency():
    report = run_scenario(parse_scenario(MONITOR))
    assert report["simulation"]["total_misses"] == 0
    mon = report["monitor"]
    assert mon["alerts"] == [20]
    assert mon["mode_switches"] == [2]
    (lat,) = mon["latencies"][0]
    assert lat is not None and lat >= 0


def test_restart_block_matches_analysis():
    report = run_scenario(parse_scenario(RESTART))
    r = report["restart"]
    assert r["unavailability"] == pytest.approx(1 / 60)
    assert 0 < r["compromised_fraction"] < 1
    assert r["objective"] == pytest.approx(
        0.5 * r["unavailability"] + 0.5 * r["compromised_fraction"])


def test_report_is_deterministic():
    sc = parse_scenario(SHUFFLE)
    a = json.dumps(run_scenario(sc, runs=3), sort_keys=True)
    b = json.dumps(run_scenario(sc, runs=3), sort_keys=True)
    assert a == b


# ----------------------------------------------------------------- attack


def test_attack_single_task_exact():
    report = run_attack(parse_scenario(PROBE))
    off = report["offsets"]
    assert off["status"] == "exact"
    assert off["candidates"] == 1
    assert off["truth_recovered"] is True
    assert off["exact"] is True
    assert off["low_confidence"] is False


def test_attack_recovers_trio_offsets():
    text = VANILLA.replace("id = 1\nC = 1\nT = 4",
                           "id = 1\nC = 1\nT = 4\nphase = 1")
    report = run_attack(parse_scenario(text))
    assert report["offsets"]["truth_recovered"] is True


def test_attack_window_override():
    # periods 5 and 7: a 7-tick window fits every period but not the
    # 35-tick hyperperiod, so the result is flagged low confidence
    text = """
name = shortwin
duration = 40

[task]
id = 1
C = 2
T = 5
phase = 3

[task]
id = 2
C = 1
T = 7
"""
    report = run_attack(parse_scenario(text), window=7)
    assert report["window"] == 7
    assert report["offsets"]["low_confidence"] is True
    full = run_attack(parse_scenario(text), window=35)
    assert full["offsets"]["low_confidence"] is False


def test_attack_simulates_its_window_once(monkeypatch):
    # The slot budget counts duration x 1 for attack, so attack may run the
    # engine exactly once: the offset search must not simulate.
    import schedlab.engine

    runs = []
    real_run = schedlab.engine._Engine.run

    def counted(engine):
        runs.append(engine.duration)
        return real_run(engine)

    monkeypatch.setattr(schedlab.engine._Engine, "run", counted)
    sc = parse_scenario_file(HIDDEN)
    report = run_attack(sc)
    assert report["offsets"]["exact"] is True
    assert runs == [scenario_duration(sc)]


def test_attack_cache_rounds_exact_when_clean():
    report = run_attack(parse_scenario(PROBE))
    cache = report["cache"]
    assert cache["rounds"] == 10
    assert cache["accuracy"] == 1.0


# ------------------------------------------------------------------ sweep


def test_sweep_flush_cost_monotone_degradation():
    sc = parse_scenario(FLUSH)
    result = sweep(sc, "security.flush_cost", range(0, 7))
    verdicts = [row["verdict"] for row in result["rows"]]
    assert verdicts[0] == "schedulable"
    assert verdicts[1] == "schedulable"
    assert verdicts[-1] != "schedulable"
    seen_bad = False
    for v in verdicts:
        if v != "schedulable":
            seen_bad = True
        elif seen_bad:
            pytest.fail(f"schedulable after unschedulable: {verdicts}")


def test_sweep_restart_matches_optimizer():
    sc = parse_scenario(RESTART)
    periods = list(range(5, 301, 5))
    result = sweep(sc, "restart.period", periods)
    direct = optimize_period(periods, sc.restart.reboot,
                             sc.restart.compromise_rate,
                             weight=sc.restart.weight)
    assert len(result["rows"]) == len(periods)
    assert result["best"]["period"] == direct.best.period
    assert result["best"]["objective"] == pytest.approx(
        direct.best.objective)
    for row, point in zip(result["rows"], direct.curve):
        assert row["objective"] == pytest.approx(point.objective)


def test_sweep_rejects_empty_and_unknown():
    sc = parse_scenario(FLUSH)
    with pytest.raises(ValueError, match="empty sweep range"):
        sweep(sc, "security.flush_cost", [])
    with pytest.raises(ValueError, match="unsupported sweep key"):
        sweep(sc, "tasks.T", [1])
    with pytest.raises(ValueError, match="no \\[restart\\]"):
        sweep(sc, "restart.period", [10, 20])
    with pytest.raises(ValueError, match="no \\[security\\]"):
        sweep(parse_scenario(VANILLA), "security.flush_cost", [1])


def test_sweep_rejects_a_fractional_flush_cost():
    sc = parse_scenario(FLUSH)
    with pytest.raises(ValueError, match="flush cost must be an integer"):
        sweep(sc, "security.flush_cost", [1, 1.5])
    with pytest.raises(ValueError, match="flush cost must be >= 0"):
        sweep(sc, "security.flush_cost", [-1])


def _generated_scenarios(count, seed):
    """Flush, monitor-over-flush and monitor-over-vanilla scenarios on
    generated sets, with random levels, scrub costs and scan tasks."""
    rng = random.Random(seed)
    pool = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30)
    for k in range(count):
        ts = generate_taskset(rng.randint(2, 5), rng.uniform(0.2, 0.9), pool,
                              seed=k, tol=0.02)
        ts = TaskSet(tuple(replace(t, security_level=rng.randrange(3))
                           for t in ts), ts.name)
        security = SecurityPolicy(flush_cost=rng.randint(0, 2))
        monitor = MonitorConfig(scan_task=rng.choice(ts.tasks).id)
        yield Scenario("flush", ts, policy="flush", security=security)
        yield Scenario("monitor", ts, policy="monitor", security=security,
                       monitor=monitor)
        yield Scenario("monitor", ts, policy="monitor", monitor=monitor)


def test_sweep_verdicts_are_the_policys_own():
    # Each swept scenario is built here by hand, and its policy's own test
    # must give the verdict sweep printed; a section the policy does not
    # read, or that the scenario lacks, has no verdict and is refused.
    cases = {
        "security.flush_cost": (range(4), lambda sc, v: replace(
            sc, security=replace(sc.security, flush_cost=v))),
        "monitor.fine_priority": (range(7), lambda sc, v: replace(
            sc, monitor=replace(sc.monitor, fine_priority=v))),
    }
    compared = refused = 0
    for sc in _generated_scenarios(150, seed=2017):
        for key, (values, swept) in cases.items():
            section = key.partition(".")[0]
            if (section not in POLICIES[sc.policy].reads
                    or getattr(sc, section) is None):
                with pytest.raises(ValueError, match=f"no \\[{section}\\]"):
                    sweep(sc, key, values)
                continue
            for v in values:
                try:
                    want = build_policy(swept(sc, v)).analyze(sc.taskset)
                except ValueError as exc:  # a fine priority that collides
                    (row,) = sweep(sc, key, [v])["rows"]
                    assert row == {key.partition(".")[2]: v, "verdict": "refused",
                                   "reason": str(exc)}, (sc, key, v)
                    refused += 1
                    continue
                (row,) = sweep(sc, key, [v])["rows"]
                assert row["verdict"] == want.verdict, (sc, key, v)
                compared += 1
    assert compared > 1000 and refused > 0


def test_sweep_refuses_keys_that_cannot_change_a_verdict():
    shuffled = parse_scenario(SHUFFLE + "\n[security]\nflush_cost = 1\n")
    with pytest.raises(ValueError, match="policy shuffle has no"):
        sweep(shuffled, "security.flush_cost", [0, 1])
    flushed = parse_scenario(FLUSH)
    with pytest.raises(ValueError, match="no single-valued key 'pair'"):
        sweep(flushed, "security.pair", [1])
    with pytest.raises(ValueError, match="no single-valued key 'alert'"):
        sweep(parse_scenario(MONITOR), "monitor.alert", [5])
    probed = parse_scenario(PROBE)
    with pytest.raises(ValueError, match="no \\[cache\\] keys"):
        sweep(probed, "cache.lines", [32, 64])
    with pytest.raises(ValueError, match="fine_priority expects an integer"):
        sweep(parse_scenario(MONITOR), "monitor.fine_priority", [0.5])


# -------------------------------------------------------------------- cli


def test_cli_sweep_fractional_flush_cost_exits_two(tmp_path, capsys):
    path = _write(tmp_path, FLUSH)
    assert main(["sweep", path, "--key", "security.flush_cost",
                 "--values", "0.5,1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "flush cost must be an integer, got 0.5" in err


def test_parse_values_forms():
    assert _parse_values("0:4") == [0, 1, 2, 3, 4]
    assert _parse_values("5:20:5") == [5, 10, 15, 20]
    assert _parse_values("1,2,3") == [1, 2, 3]
    assert _parse_values("0.5, 1.5") == [0.5, 1.5]
    with pytest.raises(ValueError, match="step"):
        _parse_values("1:5:0")
    with pytest.raises(ValueError, match="integers"):
        _parse_values("a:b")
    with pytest.raises(ValueError, match="bad sweep value"):
        _parse_values("1,x")


def test_cli_analyze_ok(tmp_path, capsys):
    path = _write(tmp_path, VANILLA)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: schedulable" in out
    assert "utilization: 0.8333 (5/6)" in out


def test_cli_analyze_unschedulable_exits_one(tmp_path, capsys):
    path = _write(tmp_path, OVERLOAD)
    assert main(["analyze", path]) == 1
    assert "verdict:" in capsys.readouterr().out


def test_cli_analyze_charges_no_scrub_without_a_forbidden_pair(tmp_path, capsys):
    path = _write(tmp_path, ONE_LEVEL)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "method: rta_flush" in out
    assert "verdict: schedulable" in out


def test_cli_unguarded_shuffle_gets_no_verdict(tmp_path, capsys):
    # With its guard off veiled.scn misses deadlines, so plain RTA's
    # schedulable verdict would not hold; no test is sound for it.
    veiled = HIDDEN.with_name("veiled.scn").read_text()
    text = (veiled.replace("mode = with_idle", "mode = fine_grained")
            .replace("guard = budget", "guard = none"))
    assert text.count("fine_grained") == text.count("guard = none") == 1
    path = _write(tmp_path, text)
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert "method: unguarded_no_sound_test\nverdict: inconclusive\n" in out
    assert "task " not in out
    assert main(["simulate", "--runs", "5", path]) == 1
    assert "deadline misses: 0" not in capsys.readouterr().out


def test_cli_simulate_ok(tmp_path, capsys):
    path = _write(tmp_path, VANILLA)
    assert main(["simulate", path]) == 0
    assert "deadline misses: 0" in capsys.readouterr().out


def test_cli_simulate_miss_exits_one(tmp_path, capsys):
    path = _write(tmp_path, OVERLOAD)
    assert main(["simulate", path]) == 1
    out = capsys.readouterr().out
    assert "deadline misses: 0" not in out


def test_cli_simulate_flush_prints_violations(tmp_path, capsys):
    path = _write(tmp_path, FLUSH)
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out
    assert "isolation violations: 0" in out
    assert "unprotected baseline:" in out


def test_cli_attack(tmp_path, capsys):
    path = _write(tmp_path, PROBE)
    assert main(["attack", path]) == 0
    out = capsys.readouterr().out
    assert "status=exact" in out
    assert "accuracy=1.000" in out


def test_cli_sweep_flush(tmp_path, capsys):
    path = _write(tmp_path, FLUSH)
    assert main(["sweep", path, "--key", "security.flush_cost",
                 "--values", "0:4"]) == 0
    out = capsys.readouterr().out
    assert out.count("flush_cost=") == 5


def test_cli_sweep_verdict_is_the_monitors(tmp_path, capsys):
    path = _write(tmp_path, SCRUBBED_ESCALATION)
    assert main(["sweep", path, "--key", "security.flush_cost",
                 "--values", "1"]) == 0
    assert capsys.readouterr().out == "flush_cost=1 verdict=unschedulable\n"
    assert main(["analyze", path]) == 1
    assert "verdict: unschedulable" in capsys.readouterr().out


def test_cli_monitor_without_escalation_checks_the_passive_placement(
        tmp_path, capsys):
    # Only the escalated placement fails, and a monitor that never
    # escalates never runs it.
    path = _write(tmp_path, SCRUBBED_ESCALATION + "escalate = false\n")
    assert main(["analyze", path]) == 0
    assert "verdict: schedulable" in capsys.readouterr().out
    assert main(["simulate", path]) == 0
    assert "deadline misses: 0" in capsys.readouterr().out
    path = _write(tmp_path, SCRUBBED_ESCALATION + "escalate = true\n")
    assert main(["analyze", path]) == 1
    assert main(["simulate", path]) == 2
    assert "fine placement" in capsys.readouterr().err


def test_cli_sweep_monitor_fine_priority(tmp_path, capsys):
    # At priority 5 the escalated scan (C=1, T=6) runs below every task, at
    # U = 1, and cannot finish within its deadline of 6.
    path = _write(tmp_path, MONITOR)
    assert main(["sweep", path, "--key", "monitor.fine_priority",
                 "--values", "0,5"]) == 0
    assert capsys.readouterr().out == (
        "fine_priority=0 verdict=schedulable\n"
        "fine_priority=5 verdict=unschedulable\n")


def test_cli_sweep_goes_on_past_a_refused_value(capsys):
    # Tasks 1 and 2 of watch.scn hold priorities 1 and 2, where the
    # escalated scan would collide; the values around them still get rows.
    watch = str(HIDDEN.with_name("watch.scn"))
    assert main(["sweep", watch, "--key", "monitor.fine_priority",
                 "--values", "0:4"]) == 0
    assert capsys.readouterr().out == (
        "fine_priority=0 verdict=schedulable\n"
        "fine_priority=1 verdict=refused\n"
        "fine_priority=2 verdict=refused\n"
        "fine_priority=3 verdict=unschedulable\n"
        "fine_priority=4 verdict=unschedulable\n")


@pytest.mark.parametrize("text,key", [
    (SHUFFLE + "\n[security]\nflush_cost = 1\n", "security.flush_cost"),
    (FLUSH, "security.pair"),
    (PROBE, "cache.lines"),
], ids=["unread-section", "repeated-key", "cache"])
def test_cli_sweep_refused_key_exits_two(tmp_path, capsys, text, key):
    path = _write(tmp_path, text)
    assert main(["sweep", path, "--key", key, "--values", "1:2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_cli_sweep_restart(tmp_path, capsys):
    path = _write(tmp_path, RESTART)
    assert main(["sweep", path, "--key", "restart.period",
                 "--values", "10:100:10"]) == 0
    assert "best: period=" in capsys.readouterr().out


def test_cli_report_stdout_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, SHUFFLE)
    assert main(["report", path, "--runs", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["report", path, "--runs", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["policy"] == "shuffle"
    assert "shuffle" in parsed


def test_cli_report_to_file(tmp_path, capsys):
    path = _write(tmp_path, VANILLA)
    out_path = tmp_path / "report.json"
    assert main(["report", path, "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    data = json.loads(out_path.read_text())
    assert data["name"] == "trio"


def test_cli_missing_file_exits_two(capsys):
    assert main(["analyze", "/nonexistent/scenario.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_scenario_exits_two(tmp_path, capsys):
    path = _write(tmp_path, VANILLA.replace("policy = vanilla",
                                            "policy = warp"))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line" in err


def test_cli_empty_sweep_range_exits_two(tmp_path, capsys):
    path = _write(tmp_path, FLUSH)
    assert main(["sweep", path, "--key", "security.flush_cost",
                 "--values", "5:4"]) == 2
    assert "empty sweep range" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["0:1000000000",
                                    "0:1000000000000000000000000000000",
                                    f"1:{2 * MAX_SWEEP_VALUES + 1}:2",
                                    ",".join(["1"] * (MAX_SWEEP_VALUES + 1))])
def test_cli_refuses_sweeps_past_the_value_cap(tmp_path, capsys, values):
    path = _write(tmp_path, FLUSH)
    start = time.perf_counter()
    assert main(["sweep", path, "--key", "security.flush_cost",
                 "--values", values]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"limit of {MAX_SWEEP_VALUES}" in capsys.readouterr().err


def test_sweep_value_cap_is_inclusive_and_covers_restart():
    assert len(_parse_values(f"1:{2 * MAX_SWEEP_VALUES}:2")) == MAX_SWEEP_VALUES
    sc = parse_scenario(RESTART)
    periods = range(10, 10 + MAX_SWEEP_VALUES)
    assert len(sweep(sc, "restart.period", periods)["rows"]) == MAX_SWEEP_VALUES
    with pytest.raises(ValueError, match=f"limit of {MAX_SWEEP_VALUES}"):
        sweep(sc, "restart.period", range(10, 11 + MAX_SWEEP_VALUES))


def test_cli_usage_error_exits_two(capsys):
    assert main([]) == 2
    assert main(["sweep"]) == 2
    capsys.readouterr()


def test_cli_module_invocation(tmp_path):
    path = _write(tmp_path, VANILLA)
    proc = subprocess.run(
        [sys.executable, "-m", "schedlab.cli", "analyze", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verdict: schedulable" in proc.stdout


def test_cli_reuses_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    # A usage error, --help and two commands in a row on the one parser:
    # main builds none, and a command prints what a fresh process prints.
    import argparse

    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(a))
    path = _write(tmp_path, FLUSH)
    assert main(["simulate"]) == 2
    assert "required: scenario" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: schedlab ")
    commands = (["simulate", path, "--runs", "3"], ["simulate", path])
    outputs = []
    for argv in commands:
        main(argv)
        outputs.append(capsys.readouterr().out)
    assert built == []
    assert "runs=3" in outputs[0] and "runs=1" in outputs[1]
    for argv, out in zip(commands, outputs):
        fresh = subprocess.run([sys.executable, "-W", "error", "-m", "schedlab.cli", *argv],
                               capture_output=True, text=True)
        assert fresh.stdout == out


def test_cli_monitor_verdict_covers_the_escalated_placement(tmp_path, capsys):
    path = _write(tmp_path, ESCALATION_FAILS)
    assert main(["analyze", path]) == 1
    assert "verdict: unschedulable" in capsys.readouterr().out
    assert main(["simulate", path]) == 2
    assert "fine placement" in capsys.readouterr().err



def test_cli_analyze_prints_the_deadline_the_test_used(tmp_path, capsys):
    # The failing report is the fine placement's, where the scan's
    # deadline is half its declared period.
    path = _write(tmp_path, ESCALATION_FAILS)
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert "  task 1: response=7 deadline=8\n" in out
    assert "  task 3: response=2 deadline=4\n" in out
    block = analyze_scenario(parse_scenario(ESCALATION_FAILS))
    assert block["responses"] == {"1": 7, "2": None, "3": 2}


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_cli_certifies_shuffle_budgets_once(tmp_path, capsys, monkeypatch,
                                            command):
    import schedlab.scenario
    import schedlab.shuffle

    calls = []
    original = schedlab.shuffle.compute_budgets

    def counted(ts):
        calls.append(ts)
        return original(ts)

    monkeypatch.setattr(schedlab.shuffle, "compute_budgets", counted)
    monkeypatch.setattr(schedlab.scenario, "compute_budgets", counted)
    path = _write(tmp_path, SHUFFLE)
    assert main([command, path, "--runs", "4"]) == 0
    assert len(calls) == 1


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, schedlab, schedlab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"

@pytest.mark.parametrize("command", ["simulate", "report", "attack"])
def test_cli_refuses_runs_past_the_slot_budget(tmp_path, capsys, command):
    path = _write(tmp_path, COPRIME)
    start = time.perf_counter()
    assert main([command, path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "simulated ticks" in capsys.readouterr().err


def test_slot_budget_counts_every_run():
    half = MAX_SIMULATED_TICKS // 2 + 1  # one run fits, two do not
    sc = parse_scenario(VANILLA.replace("seed = 0", f"seed = 0\nduration = {half}"))
    with pytest.raises(ScenarioError, match=f"{half} ticks x 2 runs"):
        run_scenario(sc, runs=2)


def test_slot_budget_counts_the_flush_baseline_runs(tmp_path, capsys,
                                                   monkeypatch):
    # Each flush run is simulated twice, protected and as the unprotected
    # baseline, so one run of just over half the budget does not fit.
    import schedlab.harness

    def no_ticks(*args, **kwargs):
        raise AssertionError("simulated before the slot budget was checked")

    monkeypatch.setattr(schedlab.harness, "simulate", no_ticks)
    half = MAX_SIMULATED_TICKS // 2 + 1
    text = FLUSH.replace("hyperperiods = 2", f"duration = {half}")
    with pytest.raises(ScenarioError, match=f"{half} ticks x 2 runs"):
        run_scenario(parse_scenario(text), runs=1)
    assert main(["simulate", _write(tmp_path, text)]) == 2
    assert "simulated ticks" in capsys.readouterr().err


def test_analyze_reports_the_policys_own_method():
    np_sc = parse_scenario(VANILLA.replace("policy = vanilla",
                                           "policy = nonpreemptive"))
    assert analyze_scenario(np_sc)["method"] == "rta_nonpreemptive"
    assert analyze_scenario(parse_scenario(SHUFFLE))["method"] == "rta"
    assert analyze_scenario(parse_scenario(MONITOR))["method"] == "rta"
    flushed = MONITOR + """
[security]
mode = pairwise
flush_cost = 1
pair = 1 2
"""
    assert analyze_scenario(parse_scenario(flushed))["method"] == "rta_flush"


def test_nonpreemptive_blocking_is_analyzed():
    # Plain RTA passes this set; non-preemptive dispatch misses deadlines.
    text = """
name = blocked
policy = nonpreemptive
hyperperiods = 2

[task]
id = 1
C = 1
T = 2

[task]
id = 2
C = 3
T = 8
"""
    sc = parse_scenario(text)
    assert analyze_scenario(sc)["verdict"] == "unschedulable"
    assert run_scenario(sc)["simulation"]["total_misses"] > 0
