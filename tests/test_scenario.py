"""Scenario format: parsing, line-anchored errors, semantic checks, round-trip."""

import pytest

from schedlab.flush import SecurityPolicy
from schedlab.scenario import (
    CacheConfig,
    MonitorConfig,
    RestartConfig,
    Scenario,
    ScenarioError,
    ShuffleConfig,
    emit_scenario,
    parse_scenario,
    parse_scenario_file,
)
from schedlab.tasks import Task, TaskSet

MINIMAL = """\
name = demo
seed = 7

[task]
id = 1
C = 1
T = 4

[task]
id = 2
C = 2
T = 6
"""

FULL = """\
# everything at once
name = kitchen-sink
seed = 11
policy = flush
duration = 120

[task]
id = 1
C = 1
T = 4
priority = 1
security_level = 2

[task]
id = 2
C = 2
T = 6
priority = 2
security_level = 1
bcet = 1

[task]
id = 9
C = 1
T = 12
priority = 3

[shuffle]
mode = with_idle
guard = budget

[security]
mode = total_order
flush_cost = 1

[restart]
period = 60
reboot = 1.5
compromise_rate = 0.1
detection_rate = 0.5
weight = 0.25

[monitor]
scan_task = 9
fine_priority = 0
alert = 20
alert = 50
escalate = true

[cache]
victim = 2
lines = 64
epsilon = 0.1
profile = 8 48
"""


def test_minimal_parse_assigns_rate_monotonic_priorities():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "demo" and sc.seed == 7
    assert sc.policy == "vanilla"
    assert sc.hyperperiods == 1 and sc.duration is None
    assert [t.priority for t in sc.taskset.by_priority()] == [1, 2]
    assert sc.taskset.by_id(1).T == 4
    assert sc.shuffle is None and sc.security is None


def test_full_parse_builds_every_section():
    sc = parse_scenario(FULL)
    assert sc.policy == "flush" and sc.duration == 120
    assert sc.shuffle == ShuffleConfig(mode="with_idle", guard="budget")
    assert sc.security == SecurityPolicy(mode="total_order", flush_cost=1)
    assert sc.restart == RestartConfig(period=60.0, reboot=1.5,
                                       compromise_rate=0.1,
                                       detection_rate=0.5, weight=0.25)
    assert sc.monitor == MonitorConfig(scan_task=9, fine_priority=0,
                                       alerts=(20, 50), escalate=True)
    assert sc.cache == CacheConfig(victim=2, lines=64, epsilon=0.1,
                                   profiles=(8, 48))


def test_round_trip_is_identity():
    for text in (MINIMAL, FULL):
        sc = parse_scenario(text)
        assert parse_scenario(emit_scenario(sc)) == sc


def test_round_trip_from_constructed_scenario():
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1, kind="sporadic"),
                        Task(id=2, C=1, T=7, priority=2)), name="built")
    sc = Scenario(name="built", taskset=ts, seed=3, policy="shuffle",
                  hyperperiods=2, shuffle=ShuffleConfig(mode="fine_grained"))
    assert parse_scenario(emit_scenario(sc)) == sc


def test_round_trip_with_duration():
    # A duration replaces the hyperperiods default, as it does in the file.
    ts = TaskSet(tasks=(Task(id=1, C=1, T=4, priority=1),), name="x")
    sc = Scenario(name="x", taskset=ts, duration=8)
    assert sc.hyperperiods is None
    assert parse_scenario(emit_scenario(sc)) == sc


def test_file_round_trip(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(FULL, encoding="utf-8")
    assert parse_scenario_file(path) == parse_scenario(FULL)


def line_of(err) -> int:
    return err.value.line


def test_unknown_key_is_line_anchored():
    text = MINIMAL + "\n[task]\nid = 3\nC = 1\nT = 8\nwcet = 3\n"
    with pytest.raises(ScenarioError, match="unknown key 'wcet'") as err:
        parse_scenario(text)
    assert f"line {line_of(err)}" in str(err.value)
    assert line_of(err) == len(text.splitlines())


def test_unknown_section_and_header_errors():
    with pytest.raises(ScenarioError, match=r"unknown section \[tsak\]") as err:
        parse_scenario("[tsak]\nid = 1\n")
    assert line_of(err) == 1
    with pytest.raises(ScenarioError, match="unterminated"):
        parse_scenario("[task\n")
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("just some words\n")
    with pytest.raises(ScenarioError, match="empty value"):
        parse_scenario("name =\n")


def test_type_errors_are_line_anchored():
    bad = "duration = soon\n"
    with pytest.raises(ScenarioError, match="integer") as err:
        parse_scenario(bad + MINIMAL)
    assert line_of(err) == 1


def test_missing_required_task_key():
    with pytest.raises(ScenarioError, match="missing required key 'C'") as err:
        parse_scenario("[task]\nid = 1\nT = 4\n")
    assert line_of(err) == 1


def test_semantic_error_names_offending_task():
    text = """\
[task]
id = 1
C = 2
T = 4
D = 9
"""
    with pytest.raises(ScenarioError, match="task 1.*D"):
        parse_scenario(text)


def test_duplicate_task_ids_rejected():
    text = "[task]\nid = 1\nC = 1\nT = 4\n[task]\nid = 1\nC = 1\nT = 6\n"
    with pytest.raises(ScenarioError, match="duplicate task id"):
        parse_scenario(text)


def test_mixed_priority_assignment_rejected():
    text = "[task]\nid = 1\nC = 1\nT = 4\npriority = 1\n[task]\nid = 2\nC = 1\nT = 6\n"
    with pytest.raises(ScenarioError, match="every task"):
        parse_scenario(text)


def test_duplicate_sections_and_keys_rejected():
    with pytest.raises(ScenarioError, match=r"duplicate section \[security\]"):
        parse_scenario(MINIMAL + "[security]\n[security]\n")
    with pytest.raises(ScenarioError, match="duplicate key 'seed'"):
        parse_scenario("seed = 1\nseed = 2\n" + MINIMAL)
    with pytest.raises(ScenarioError, match="duplicate key 'C'"):
        parse_scenario("[task]\nid = 1\nC = 1\nC = 2\nT = 4\n")


def test_bad_references_rejected():
    with pytest.raises(ScenarioError, match="unknown task 5") as err:
        parse_scenario(MINIMAL + "[security]\nmode = pairwise\npair = 1 5\n")
    assert line_of(err) == len(MINIMAL.splitlines()) + 3
    with pytest.raises(ScenarioError, match="scan_task references unknown"):
        parse_scenario(MINIMAL + "[monitor]\nscan_task = 7\n")
    with pytest.raises(ScenarioError, match="victim references unknown"):
        parse_scenario(MINIMAL + "[cache]\nvictim = 3\n")


def test_pair_shape_and_mode_coupling():
    with pytest.raises(ScenarioError, match="two task ids"):
        parse_scenario(MINIMAL + "[security]\nmode = pairwise\npair = 1\n")
    with pytest.raises(ScenarioError, match="pairwise"):
        parse_scenario(MINIMAL + "[security]\nmode = total_order\npair = 1 2\n")


def test_policy_validation():
    with pytest.raises(ScenarioError, match="policy must be one of"):
        parse_scenario("policy = fifo\n" + MINIMAL)
    with pytest.raises(ScenarioError, match=r"needs a \[security\]"):
        parse_scenario("policy = flush\n" + MINIMAL)
    with pytest.raises(ScenarioError, match=r"needs a \[monitor\]"):
        parse_scenario("policy = monitor\n" + MINIMAL)
    sc = parse_scenario("policy = shuffle\n" + MINIMAL)
    assert sc.shuffle == ShuffleConfig()  # defaults filled in


def test_duration_and_hyperperiods_are_exclusive():
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario("duration = 10\nhyperperiods = 2\n" + MINIMAL)
    with pytest.raises(ScenarioError, match=">= 1"):
        parse_scenario("duration = 0\n" + MINIMAL)


def test_scenario_without_tasks_rejected():
    with pytest.raises(ScenarioError, match="at least one"):
        parse_scenario("name = empty\n")


def test_restart_requires_core_keys():
    with pytest.raises(ScenarioError, match="missing required key 'reboot'"):
        parse_scenario(MINIMAL + "[restart]\nperiod = 60\ncompromise_rate = 0.1\n")


# Parser behaviour frozen as a table: one malformed input per error path,
# with the exact message and line it produces.  Each row is
# (text before MINIMAL, text after MINIMAL, line, message); a row whose
# "before" is None parses the "after" text alone.
FROZEN_ERRORS = [
    ("name =\n", "", 1, "line 1: empty value for 'name'"),
    ("colour = red\n", "", 1, "line 1: unknown top-level key 'colour'"),
    ("seed = 1\n", "", 3, "line 3: duplicate key 'seed'"),
    ("policy = fifo\n", "", 1,
     "line 1: policy must be one of ('vanilla', 'nonpreemptive', 'shuffle',"
     " 'flush', 'monitor')"),
    ("duration = soon\n", "", 1,
     "line 1: duration expects an integer, got 'soon'"),
    ("hyperperiods = 1.5\n", "", 1,
     "line 1: hyperperiods expects an integer, got '1.5'"),
    ("duration = 10\nhyperperiods = 2\n", "", 2,
     "line 2: give either duration or hyperperiods, not both"),
    ("duration = 0\n", "", 1, "line 1: duration must be >= 1"),
    ("hyperperiods = 0\n", "", 1, "line 1: hyperperiods must be >= 1"),
    ("policy = flush\n", "", 0, "policy flush needs a [security] section"),
    ("policy = monitor\n", "", 0, "policy monitor needs a [monitor] section"),
    ("", "[task\n", 13, "line 13: unterminated section header"),
    ("", "[tsak]\n", 13, "line 13: unknown section [tsak]"),
    ("", "just some words\n", 13, "line 13: expected 'key = value'"),
    ("", "[task]\nid = 3\nC = 1\nT = 8\nwcet = 3\n", 17,
     "line 17: unknown key 'wcet' in [task]"),
    ("", "[cache]\nvictim = 1\nvictim = 2\n", 15,
     "line 15: duplicate key 'victim' in [cache]"),
    ("", "[task]\nid = 3\nT = 8\n", 13,
     "line 13: [task] missing required key 'C'"),
    ("", "[task]\nC = 1\nT = 8\n", 13,
     "line 13: [task] missing required key 'id'"),
    ("", "[task]\nid = 3\nC = 1\n", 13,
     "line 13: [task] missing required key 'T'"),
    ("", "[task]\nid = 3\nC = one\nT = 8\n", 15,
     "line 15: C expects an integer, got 'one'"),
    ("", "[task]\nid = 3\nC = 1\nT = 8\nphase = late\n", 17,
     "line 17: phase expects an integer, got 'late'"),
    ("", "[task]\nid = 3\nC = 1\nT = 8\nkind = bursty\n", 17,
     "line 17: kind must be periodic or sporadic"),
    ("", "[task]\nid = 3\nC = 1\nT = 8\nbcet = 0.5\n", 17,
     "line 17: bcet expects an integer, got '0.5'"),
    ("", "[task]\nid = 3\nC = 1\nT = 12\npriority = 3\n", 0,
     "either every task carries a priority or none does"),
    ("", "[task]\nid = 3\nC = 2\nT = 8\nD = 9\n", 0,
     "task 3: D must be <= T (got D=9, T=8)"),
    ("", "[task]\nid = 1\nC = 1\nT = 8\n", 0, "duplicate task ids"),
    (None, "name = empty\n", 0,
     "a scenario needs at least one [task] section"),
    ("", "[shuffle]\n[shuffle]\n", 14, "line 14: duplicate section [shuffle]"),
    ("", "[shuffle]\nmode = chaotic\n", 14,
     "line 14: shuffle mode must be one of ('task_only', 'with_idle',"
     " 'fine_grained')"),
    ("", "[shuffle]\nguard = maybe\n", 14,
     "line 14: guard must be budget or none"),
    ("", "[security]\nmode = lattice\n", 14,
     "line 14: security mode must be total_order or pairwise"),
    ("", "[security]\nflush_cost = 0.5\n", 14,
     "line 14: flush_cost expects an integer, got '0.5'"),
    ("", "[security]\nflush_cost = -1\n", 13,
     "line 13: flush cost must be >= 0"),
    ("", "[security]\nmode = pairwise\npair = 1\n", 15,
     "line 15: pair expects two task ids"),
    ("", "[security]\nmode = pairwise\npair = 1 x\n", 15,
     "line 15: pair expects an integer, got 'x'"),
    ("", "[security]\nmode = pairwise\npair = 1 5\n", 15,
     "line 15: pair references unknown task 5"),
    ("", "[security]\nmode = pairwise\npair = 2 2\n", 13,
     "line 13: forbidden flow (2, 2) names one task twice"),
    ("", "[security]\nmode = total_order\npair = 1 2\n", 13,
     "line 13: pair entries require mode = pairwise"),
    ("", "[security]\npair = 1 2\n", 13,
     "line 13: pair entries require mode = pairwise"),
    ("", "[restart]\nperiod = 60\ncompromise_rate = 0.1\n", 13,
     "line 13: [restart] missing required key 'reboot'"),
    ("", "[restart]\nperiod = soon\nreboot = 1\ncompromise_rate = 0.1\n", 14,
     "line 14: period expects a number, got 'soon'"),
    ("", "[restart]\nperiod = 60\nreboot = 1\ncompromise_rate = 0.1\n"
         "weight = heavy\n", 17,
     "line 17: weight expects a number, got 'heavy'"),
    ("", "[monitor]\nfine_priority = 0\n", 13,
     "line 13: [monitor] missing required key 'scan_task'"),
    ("", "[monitor]\nscan_task = two\n", 14,
     "line 14: scan_task expects an integer, got 'two'"),
    ("", "[monitor]\nscan_task = 7\n", 14,
     "line 14: scan_task references unknown task 7"),
    ("", "[monitor]\nscan_task = 2\nfine_priority = top\n", 15,
     "line 15: fine_priority expects an integer, got 'top'"),
    ("", "[monitor]\nscan_task = 2\nalert = 5\nalert = soon\n", 16,
     "line 16: alert expects an integer, got 'soon'"),
    ("", "[monitor]\nscan_task = 2\nescalate = maybe\n", 15,
     "line 15: escalate expects true or false, got 'maybe'"),
    ("", "[cache]\nlines = 32\n", 13,
     "line 13: [cache] missing required key 'victim'"),
    ("", "[cache]\nvictim = 3\n", 14,
     "line 14: victim references unknown task 3"),
    ("", "[cache]\nvictim = 1\nlines = many\n", 15,
     "line 15: lines expects an integer, got 'many'"),
    ("", "[cache]\nvictim = 1\nepsilon = tiny\n", 15,
     "line 15: epsilon expects a number, got 'tiny'"),
    ("", "[cache]\nvictim = 1\nprofile = 8 x\n", 15,
     "line 15: profile expects an integer, got 'x'"),
]


@pytest.mark.parametrize("before, after, line, message", FROZEN_ERRORS)
def test_frozen_error_message_and_line(before, after, line, message):
    text = after if before is None else before + MINIMAL + after
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    assert err.value.line == line


EMITTED_MINIMAL = """\
name = demo
seed = 7
policy = vanilla
hyperperiods = 1

[task]
id = 1
C = 1
T = 4
D = 4
phase = 0
kind = periodic
priority = 1
security_level = 0

[task]
id = 2
C = 2
T = 6
D = 6
phase = 0
kind = periodic
priority = 2
security_level = 0
"""

EMITTED_FULL = """\
name = kitchen-sink
seed = 11
policy = flush
duration = 120

[task]
id = 1
C = 1
T = 4
D = 4
phase = 0
kind = periodic
priority = 1
security_level = 2

[task]
id = 2
C = 2
T = 6
D = 6
phase = 0
kind = periodic
priority = 2
security_level = 1
bcet = 1

[task]
id = 9
C = 1
T = 12
D = 12
phase = 0
kind = periodic
priority = 3
security_level = 0

[shuffle]
mode = with_idle
guard = budget

[security]
mode = total_order
flush_cost = 1

[restart]
period = 60.0
reboot = 1.5
compromise_rate = 0.1
detection_rate = 0.5
weight = 0.25

[monitor]
scan_task = 9
fine_priority = 0
alert = 20
alert = 50
escalate = true

[cache]
victim = 2
lines = 64
epsilon = 0.1
profile = 8 48
"""

EMITTED_BUILT = """\
name = built
seed = 3
policy = monitor
duration = 70

[task]
id = 1
C = 2
T = 5
D = 5
phase = 0
kind = sporadic
priority = 1
security_level = 0
bcet = 1

[task]
id = 2
C = 1
T = 7
D = 7
phase = 0
kind = periodic
priority = 2
security_level = 3

[shuffle]
mode = fine_grained
guard = budget

[security]
mode = pairwise
flush_cost = 2
pair = 1 2
pair = 2 1

[restart]
period = 30
reboot = 0.5
compromise_rate = 0.01
weight = 0.5

[monitor]
scan_task = 2
fine_priority = 0
alert = 9
alert = 3
escalate = false

[cache]
victim = 1
lines = 64
epsilon = 0.25
profile = 4 12 30
"""


def built_scenario() -> Scenario:
    """Every section set, some fields left at their defaults, ints where
    the parser would give floats, and unsorted pairs and alerts."""
    ts = TaskSet(tasks=(Task(id=1, C=2, T=5, priority=1, kind="sporadic",
                             bcet=1),
                        Task(id=2, C=1, T=7, priority=2, security_level=3)),
                 name="built")
    return Scenario(
        name="built", taskset=ts, seed=3, policy="monitor", duration=70,
        hyperperiods=None,
        shuffle=ShuffleConfig(mode="fine_grained"),
        security=SecurityPolicy(mode="pairwise", flush_cost=2,
                                pairs=frozenset({(2, 1), (1, 2)})),
        restart=RestartConfig(period=30, reboot=0.5, compromise_rate=0.01),
        monitor=MonitorConfig(scan_task=2, alerts=(9, 3), escalate=False),
        cache=CacheConfig(victim=1, epsilon=0.25, profiles=(4, 12, 30)),
    )


def test_frozen_emitted_text():
    assert emit_scenario(parse_scenario(MINIMAL)) == EMITTED_MINIMAL
    assert emit_scenario(parse_scenario(FULL)) == EMITTED_FULL
    assert emit_scenario(built_scenario()) == EMITTED_BUILT
    assert parse_scenario(EMITTED_BUILT) == built_scenario()


def test_absent_keys_take_the_config_types_defaults():
    text = MINIMAL + """
[shuffle]
[security]
[restart]
period = 60
reboot = 1
compromise_rate = 0.1
[monitor]
scan_task = 2
[cache]
victim = 1
"""
    sc = parse_scenario(text)
    assert sc.shuffle == ShuffleConfig()
    assert sc.security == SecurityPolicy()
    assert sc.restart == RestartConfig(period=60, reboot=1, compromise_rate=0.1)
    assert sc.monitor == MonitorConfig(scan_task=2)
    assert sc.cache == CacheConfig(victim=1)
    assert sc.taskset.by_id(1) == Task(id=1, C=1, T=4, priority=1)
