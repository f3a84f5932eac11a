"""Frozen engine traces: sha256 of slots_csv() + events_csv() per case.

Each digest keeps the first 16 hex digits.  They were taken from the
tick-by-tick engine before it learned to hold a choice across ticks.  Any
change to the engine or to a policy that moves one slot, one event or one
random draw changes a digest here.  The cases cover what the benchmark's
pinned traces do not: every policy and guard, every flush mode and cost,
monitor alerts before the scan's phase, sporadic tasks with variable
demand, overload, one-tick runs, and runs that end in the middle of a
scrub or a job.  The overload keys keep the "/abort=False" suffix they
were frozen under, from when a late job could be dropped; a late job
always keeps running.
"""

import hashlib
from dataclasses import replace

import pytest

from schedlab.engine import FLUSH, IDLE, NonPreemptiveFP, VanillaFP, simulate
from schedlab.flush import PAIRWISE, FlushFP, SecurityPolicy
from schedlab.monitor import MonitorPolicy
from schedlab.shuffle import GUARD_NONE, MODES, ShuffleFP, compute_budgets
from schedlab.tasks import SPORADIC, Task, TaskSet, hyperperiod, rate_monotonic

SEEDS = (0, 1, 2)


def rm_set(*rows, name="ts"):
    """Rate-monotonic set from (C, T, D, phase, security_level) rows."""
    tasks = tuple(Task(id=i + 1, C=c, T=t, D=d, phase=p, security_level=s)
                  for i, (c, t, d, p, s) in enumerate(rows))
    return TaskSet(rate_monotonic(tasks), name=name)


# Constrained deadlines and phases, three security levels.
PHASED = rm_set((1, 5, 4, 2, 2), (2, 8, 8, 0, 0), (3, 20, 17, 5, 1),
                (2, 40, 40, 11, 2), name="phased")
# U = 1.2: jobs pile up, several jobs of one task wait at once.
OVERLOAD = rm_set((2, 5, 5, 0, 1), (2, 6, 6, 1, 0), (3, 10, 8, 0, 2),
                  name="overload")
# Odd tasks sporadic, every task with variable demand.
SPORADIC_SET = TaskSet(tuple(
    replace(t, kind=SPORADIC if t.id % 2 else t.kind, bcet=max(1, t.C // 2))
    for t in rm_set((2, 6, 6, 0, 1), (3, 10, 9, 0, 0), (4, 25, 25, 3, 2),
                    name="sporadic")), "sporadic")
# Scan task 4 (lowest priority, phase 30) for the monitor cases.
WATCHED = rm_set((1, 8, 8, 0, 1), (2, 12, 12, 0, 0), (2, 24, 24, 0, 2),
                 (1, 48, 48, 30, 0), name="watched")
# Long scrubs between tasks 1 and 2, so a run can end inside one.
SCRUBBED = rm_set((2, 10, 10, 0, 1), (3, 15, 15, 4, 0), name="scrubbed")

TOTAL = SecurityPolicy(flush_cost=1)
PAIRS = SecurityPolicy(mode=PAIRWISE, flush_cost=2,
                       pairs=frozenset({(1, 3), (3, 2), (4, 1)}))


def span(ts):
    return max(t.phase for t in ts) + 2 * hyperperiod(ts)


def flush_cost(cost):
    return lambda: FlushFP(replace(TOTAL, flush_cost=cost))


def shuffle(mode, guard="budget", budgets=None):
    return lambda: ShuffleFP(mode=mode, guard=guard, budgets=budgets)


def monitor(base, alerts, escalate=True):
    return lambda: MonitorPolicy(4, base=base(), alert_ticks=alerts,
                                 escalate=escalate)


POLICIES = {
    "vanilla": VanillaFP,
    "nonpreemptive": NonPreemptiveFP,
    "flush_total_f0": flush_cost(0),
    "flush_total_f1": flush_cost(1),
    "flush_total_f2": flush_cost(2),
    "flush_pairwise_f1": lambda: FlushFP(replace(PAIRS, flush_cost=1)),
    "flush_pairwise_f2": lambda: FlushFP(PAIRS),
    **{f"shuffle_{m}": shuffle(m) for m in MODES},
    **{f"shuffle_{m}_unguarded": shuffle(m, GUARD_NONE) for m in MODES},
}
# Unguarded shuffles that still charge (and overdraw) given budgets.
CHARGING = {
    f"shuffle_{m}_unguarded_charged":
        shuffle(m, GUARD_NONE, compute_budgets(PHASED)) for m in MODES
}
MONITORS = {
    # Alert at 3, before the scan's first release at 30.
    "monitor_vanilla_early_alert": monitor(VanillaFP, (3, 100)),
    "monitor_vanilla_alerts": monitor(VanillaFP, (40, 41, 150)),
    "monitor_vanilla_no_escalate": monitor(VanillaFP, (40,), escalate=False),
    "monitor_flush_early_alert": monitor(lambda: FlushFP(TOTAL), (3, 100)),
    "monitor_flush_pairwise": monitor(
        lambda: FlushFP(replace(PAIRS, flush_cost=1)), (60, 170)),
}
UNGUARDED = {k: v for k, v in POLICIES.items()
             if not k.startswith("shuffle_") or k.endswith("_unguarded")}
TOLERANT = {k: v for k, v in POLICIES.items() if not k.startswith("shuffle_")}

CASES = {}
for _name, _factory in POLICIES.items():
    for _seed in SEEDS:
        CASES[f"phased/{_name}/{_seed}"] = (PHASED, _factory, span(PHASED), _seed)
        CASES[f"sporadic/{_name}/{_seed}"] = (SPORADIC_SET, _factory, 600, _seed)
    CASES[f"one_tick/{_name}"] = (PHASED, _factory, 1, 0)
for _name, _factory in CHARGING.items():
    for _seed in SEEDS:
        CASES[f"phased/{_name}/{_seed}"] = (PHASED, _factory, span(PHASED), _seed)
for _name, _factory in MONITORS.items():
    for _seed in SEEDS:
        CASES[f"watched/{_name}/{_seed}"] = (WATCHED, _factory, 300, _seed)
    CASES[f"one_tick/{_name}"] = (WATCHED, _factory, 1, 0)
for _name, _factory in UNGUARDED.items():
    for _seed in SEEDS:
        CASES[f"overload/{_name}/{_seed}/abort=False"] = (
            OVERLOAD, _factory, 120, _seed)
for _name, _factory in TOLERANT.items():
    # Tick 40 lies inside a job under every one of these policies.
    CASES[f"mid_job/{_name}"] = (SCRUBBED, _factory, 41, 0)
# The 3-tick scrubs begin at ticks 4 and 64.
CASES["mid_scrub/flush_f3"] = (SCRUBBED, flush_cost(3), 6, 0)
CASES["mid_scrub/flush_f3_long"] = (SCRUBBED, flush_cost(3), 66, 0)


def run_case(name):
    ts, factory, duration, seed = CASES[name]
    return simulate(ts, duration, policy=factory(), seed=seed)


def digest(trace):
    text = trace.slots_csv() + trace.events_csv()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


DIGESTS = {
    "mid_job/flush_pairwise_f1": "0c09eaa9b5090344",
    "mid_job/flush_pairwise_f2": "0c09eaa9b5090344",
    "mid_job/flush_total_f0": "0c09eaa9b5090344",
    "mid_job/flush_total_f1": "712469fc63444ae4",
    "mid_job/flush_total_f2": "89608f5fb5b6ef6a",
    "mid_job/nonpreemptive": "24e63546aee33d65",
    "mid_job/vanilla": "0c09eaa9b5090344",
    "mid_scrub/flush_f3": "a74f17ea5ff97396",
    "mid_scrub/flush_f3_long": "ae91339d0b6b52a3",
    "one_tick/flush_pairwise_f1": "d32ce7a8160e1fc6",
    "one_tick/flush_pairwise_f2": "d32ce7a8160e1fc6",
    "one_tick/flush_total_f0": "d32ce7a8160e1fc6",
    "one_tick/flush_total_f1": "d32ce7a8160e1fc6",
    "one_tick/flush_total_f2": "d32ce7a8160e1fc6",
    "one_tick/monitor_flush_early_alert": "1ff6324b2e672c41",
    "one_tick/monitor_flush_pairwise": "1ff6324b2e672c41",
    "one_tick/monitor_vanilla_alerts": "1ff6324b2e672c41",
    "one_tick/monitor_vanilla_early_alert": "1ff6324b2e672c41",
    "one_tick/monitor_vanilla_no_escalate": "1ff6324b2e672c41",
    "one_tick/nonpreemptive": "d32ce7a8160e1fc6",
    "one_tick/shuffle_fine_grained": "119f146f9ef5049b",
    "one_tick/shuffle_fine_grained_unguarded": "119f146f9ef5049b",
    "one_tick/shuffle_task_only": "d32ce7a8160e1fc6",
    "one_tick/shuffle_task_only_unguarded": "d32ce7a8160e1fc6",
    "one_tick/shuffle_with_idle": "119f146f9ef5049b",
    "one_tick/shuffle_with_idle_unguarded": "119f146f9ef5049b",
    "one_tick/vanilla": "d32ce7a8160e1fc6",
    "overload/flush_pairwise_f1/0/abort=False": "a4c7f84c2c5f2fe9",
    "overload/flush_pairwise_f1/1/abort=False": "a4c7f84c2c5f2fe9",
    "overload/flush_pairwise_f1/2/abort=False": "a4c7f84c2c5f2fe9",
    "overload/flush_pairwise_f2/0/abort=False": "3daff69500b88412",
    "overload/flush_pairwise_f2/1/abort=False": "3daff69500b88412",
    "overload/flush_pairwise_f2/2/abort=False": "3daff69500b88412",
    "overload/flush_total_f0/0/abort=False": "0a2ed25255fdebaa",
    "overload/flush_total_f0/1/abort=False": "0a2ed25255fdebaa",
    "overload/flush_total_f0/2/abort=False": "0a2ed25255fdebaa",
    "overload/flush_total_f1/0/abort=False": "e90d749928358c87",
    "overload/flush_total_f1/1/abort=False": "e90d749928358c87",
    "overload/flush_total_f1/2/abort=False": "e90d749928358c87",
    "overload/flush_total_f2/0/abort=False": "3f48b8ecff7ecd4e",
    "overload/flush_total_f2/1/abort=False": "3f48b8ecff7ecd4e",
    "overload/flush_total_f2/2/abort=False": "3f48b8ecff7ecd4e",
    "overload/nonpreemptive/0/abort=False": "6b9d2577a74d8844",
    "overload/nonpreemptive/1/abort=False": "6b9d2577a74d8844",
    "overload/nonpreemptive/2/abort=False": "6b9d2577a74d8844",
    "overload/shuffle_fine_grained_unguarded/0/abort=False": "6cf3f549a128c8b9",
    "overload/shuffle_fine_grained_unguarded/1/abort=False": "953c28962d043d70",
    "overload/shuffle_fine_grained_unguarded/2/abort=False": "3807a78d0a263fcb",
    "overload/shuffle_task_only_unguarded/0/abort=False": "5824ba94226cd527",
    "overload/shuffle_task_only_unguarded/1/abort=False": "a483d6a79a084c2e",
    "overload/shuffle_task_only_unguarded/2/abort=False": "7788eeac6ed2d90d",
    "overload/shuffle_with_idle_unguarded/0/abort=False": "e300be876deeedba",
    "overload/shuffle_with_idle_unguarded/1/abort=False": "ed9c36b3a3e3f0b0",
    "overload/shuffle_with_idle_unguarded/2/abort=False": "61117e7b785610b4",
    "overload/vanilla/0/abort=False": "0a2ed25255fdebaa",
    "overload/vanilla/1/abort=False": "0a2ed25255fdebaa",
    "overload/vanilla/2/abort=False": "0a2ed25255fdebaa",
    "phased/flush_pairwise_f1/0": "28c5826b5c133254",
    "phased/flush_pairwise_f1/1": "28c5826b5c133254",
    "phased/flush_pairwise_f1/2": "28c5826b5c133254",
    "phased/flush_pairwise_f2/0": "41d6298d577d0bf7",
    "phased/flush_pairwise_f2/1": "41d6298d577d0bf7",
    "phased/flush_pairwise_f2/2": "41d6298d577d0bf7",
    "phased/flush_total_f0/0": "431efaba1ddd5304",
    "phased/flush_total_f0/1": "431efaba1ddd5304",
    "phased/flush_total_f0/2": "431efaba1ddd5304",
    "phased/flush_total_f1/0": "1922052350ad02e3",
    "phased/flush_total_f1/1": "1922052350ad02e3",
    "phased/flush_total_f1/2": "1922052350ad02e3",
    "phased/flush_total_f2/0": "34135122dd37a8e3",
    "phased/flush_total_f2/1": "34135122dd37a8e3",
    "phased/flush_total_f2/2": "34135122dd37a8e3",
    "phased/nonpreemptive/0": "f18d03bd632edca1",
    "phased/nonpreemptive/1": "f18d03bd632edca1",
    "phased/nonpreemptive/2": "f18d03bd632edca1",
    "phased/shuffle_fine_grained/0": "946a7f0fc06c3605",
    "phased/shuffle_fine_grained/1": "e5e068f9f276aa6d",
    "phased/shuffle_fine_grained/2": "2592148fe985f9a8",
    "phased/shuffle_fine_grained_unguarded/0": "24c9ae0d9f65f017",
    "phased/shuffle_fine_grained_unguarded/1": "96dbf7422ed35218",
    "phased/shuffle_fine_grained_unguarded/2": "4fd0d1cdb7cc47b6",
    "phased/shuffle_fine_grained_unguarded_charged/0": "24c9ae0d9f65f017",
    "phased/shuffle_fine_grained_unguarded_charged/1": "96dbf7422ed35218",
    "phased/shuffle_fine_grained_unguarded_charged/2": "4fd0d1cdb7cc47b6",
    "phased/shuffle_task_only/0": "0bc6af1da59037ad",
    "phased/shuffle_task_only/1": "e24da47716ac64f5",
    "phased/shuffle_task_only/2": "1db13d860f43e98e",
    "phased/shuffle_task_only_unguarded/0": "0bc6af1da59037ad",
    "phased/shuffle_task_only_unguarded/1": "e24da47716ac64f5",
    "phased/shuffle_task_only_unguarded/2": "1db13d860f43e98e",
    "phased/shuffle_task_only_unguarded_charged/0": "0bc6af1da59037ad",
    "phased/shuffle_task_only_unguarded_charged/1": "e24da47716ac64f5",
    "phased/shuffle_task_only_unguarded_charged/2": "1db13d860f43e98e",
    "phased/shuffle_with_idle/0": "8da32e3938b77d28",
    "phased/shuffle_with_idle/1": "67145e4fdb0cb3b3",
    "phased/shuffle_with_idle/2": "74e6a8e167a0115b",
    "phased/shuffle_with_idle_unguarded/0": "8ef9d20f94a32598",
    "phased/shuffle_with_idle_unguarded/1": "45dd277c4cbbf79a",
    "phased/shuffle_with_idle_unguarded/2": "5346e230de452118",
    "phased/shuffle_with_idle_unguarded_charged/0": "8ef9d20f94a32598",
    "phased/shuffle_with_idle_unguarded_charged/1": "45dd277c4cbbf79a",
    "phased/shuffle_with_idle_unguarded_charged/2": "5346e230de452118",
    "phased/vanilla/0": "431efaba1ddd5304",
    "phased/vanilla/1": "431efaba1ddd5304",
    "phased/vanilla/2": "431efaba1ddd5304",
    "sporadic/flush_pairwise_f1/0": "ddf678aa44d7503c",
    "sporadic/flush_pairwise_f1/1": "d2028fa2124adeb6",
    "sporadic/flush_pairwise_f1/2": "b4537d60680c16c1",
    "sporadic/flush_pairwise_f2/0": "4e1b2fbb0d6e0e6c",
    "sporadic/flush_pairwise_f2/1": "88631fd82e7c9e60",
    "sporadic/flush_pairwise_f2/2": "bff4af361905a50e",
    "sporadic/flush_total_f0/0": "2915ff9e2cc937a5",
    "sporadic/flush_total_f0/1": "a1c1471ef7fddcb2",
    "sporadic/flush_total_f0/2": "da554f4dc1c19736",
    "sporadic/flush_total_f1/0": "37342a7f95c75224",
    "sporadic/flush_total_f1/1": "fbff0cc353955572",
    "sporadic/flush_total_f1/2": "0f8635468809447c",
    "sporadic/flush_total_f2/0": "460a1ded4496ec74",
    "sporadic/flush_total_f2/1": "758d6eb717a0f85c",
    "sporadic/flush_total_f2/2": "c2cffcab70e9328b",
    "sporadic/nonpreemptive/0": "4ead63235e6f5276",
    "sporadic/nonpreemptive/1": "78d42f61967e1854",
    "sporadic/nonpreemptive/2": "b400e7b550f3cf26",
    "sporadic/shuffle_fine_grained/0": "22465fa4f3833082",
    "sporadic/shuffle_fine_grained/1": "94c701e14a4796aa",
    "sporadic/shuffle_fine_grained/2": "6b5d3d9dc260c751",
    "sporadic/shuffle_fine_grained_unguarded/0": "66679f202b66e061",
    "sporadic/shuffle_fine_grained_unguarded/1": "80d2082e7551239b",
    "sporadic/shuffle_fine_grained_unguarded/2": "50adb3ccd3311ca3",
    "sporadic/shuffle_task_only/0": "bab49381fa56844c",
    "sporadic/shuffle_task_only/1": "1c96f9e7ecf4eeb2",
    "sporadic/shuffle_task_only/2": "c8bfb19c7ffe0134",
    "sporadic/shuffle_task_only_unguarded/0": "9bd7cc65d5a45e10",
    "sporadic/shuffle_task_only_unguarded/1": "19d266ac14c60be0",
    "sporadic/shuffle_task_only_unguarded/2": "90b9828a0851a98d",
    "sporadic/shuffle_with_idle/0": "263fb1889757a50a",
    "sporadic/shuffle_with_idle/1": "803065569be7ddab",
    "sporadic/shuffle_with_idle/2": "e17f0af6509fd2b1",
    "sporadic/shuffle_with_idle_unguarded/0": "2dc76c85201e56dd",
    "sporadic/shuffle_with_idle_unguarded/1": "881b74e92a03d408",
    "sporadic/shuffle_with_idle_unguarded/2": "53a469109944be33",
    "sporadic/vanilla/0": "2915ff9e2cc937a5",
    "sporadic/vanilla/1": "a1c1471ef7fddcb2",
    "sporadic/vanilla/2": "da554f4dc1c19736",
    "watched/monitor_flush_early_alert/0": "dff7e2c406b98a5f",
    "watched/monitor_flush_early_alert/1": "dff7e2c406b98a5f",
    "watched/monitor_flush_early_alert/2": "dff7e2c406b98a5f",
    "watched/monitor_flush_pairwise/0": "e386032c80994330",
    "watched/monitor_flush_pairwise/1": "e386032c80994330",
    "watched/monitor_flush_pairwise/2": "e386032c80994330",
    "watched/monitor_vanilla_alerts/0": "9e65f4af5094b4fc",
    "watched/monitor_vanilla_alerts/1": "9e65f4af5094b4fc",
    "watched/monitor_vanilla_alerts/2": "9e65f4af5094b4fc",
    "watched/monitor_vanilla_early_alert/0": "59965cbf3a363b53",
    "watched/monitor_vanilla_early_alert/1": "59965cbf3a363b53",
    "watched/monitor_vanilla_early_alert/2": "59965cbf3a363b53",
    "watched/monitor_vanilla_no_escalate/0": "4d5039e0773c570b",
    "watched/monitor_vanilla_no_escalate/1": "4d5039e0773c570b",
    "watched/monitor_vanilla_no_escalate/2": "4d5039e0773c570b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_frozen(name):
    assert digest(run_case(name)) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


def test_cut_cases_end_where_they_say():
    assert run_case("mid_scrub/flush_f3").slots[-1] == FLUSH
    assert run_case("mid_scrub/flush_f3").events[-1].kind == "flush_end"
    long = run_case("mid_scrub/flush_f3_long")
    assert long.slots[-1] == FLUSH and long.slots[-4:].count(FLUSH) < 3
    for name in CASES:
        if name.startswith("mid_job/"):
            trace = run_case(name)
            assert trace.slots[-1] not in (IDLE, FLUSH), name
            last = trace.slot_jobs[-1]
            job = next(j for j in trace.jobs if j.job_id == last)
            assert job.remaining > 0, name


def test_overload_cases_miss_and_keep_running():
    trace = run_case("overload/vanilla/0/abort=False")
    assert trace.misses
    assert any(j.missed and j.completion is not None for j in trace.jobs)


def test_monitor_cases_escalate_before_the_first_scan():
    trace = run_case("watched/monitor_vanilla_early_alert/0")
    switches = [e for e in trace.events if e.kind == "mode_switch"]
    scans = [e for e in trace.events
             if e.kind == "release" and e.task_id == 4]
    assert switches[0].tick == 3 and scans[0].tick == 30
