"""Scenario files: a line-oriented format describing one experiment.

A scenario bundles a task set with the policy under test and the
parameters of any attack or defense involved, so experiments can be
stored, diffed, and replayed.  The format is deliberately plain:

    # full-line comments and blank lines are ignored
    name = demo
    seed = 42
    policy = flush
    hyperperiods = 4

    [task]
    id = 1
    C = 1
    T = 4
    priority = 1
    security_level = 2

    [security]
    mode = total_order
    flush_cost = 1

Top-level keys come first, then one [task] section per task and at most
one of each parameter section.  Keys are `key = value`; a few keys repeat
(alert, pair) or take several values (profile).  Errors carry the line
number they were found on.  emit_scenario() writes a file that parses
back to an equal Scenario.

Two tables drive the format.  _SECTIONS maps each section to its config
type and each key to the field it sets and its value parser; parsing,
emitting and with_key all walk it, and a key left out takes the type's
default (a field without one is a required key).  POLICIES maps each
policy name to every section its policy reads, the factory that builds
it, and the hooks that add what only that policy reports.  A Scenario,
parsed or constructed, fills the first section its policy reads with its
defaults or is refused; a sweep may set only keys of sections it reads.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, NamedTuple

from schedlab.engine import FLUSH, NonPreemptiveFP, VanillaFP
from schedlab.flush import (
    PAIRWISE,
    TOTAL_ORDER,
    FlushFP,
    SecurityPolicy,
    count_violations,
)
from schedlab.monitor import MonitorPolicy, detection_latencies
from schedlab.shuffle import (
    GUARD_BUDGET,
    GUARD_NONE,
    MODES,
    TASK_ONLY,
    ShuffleFP,
    compute_budgets,
)
from schedlab.tasks import (
    PERIODIC,
    SPORADIC,
    Task,
    TaskSet,
    rate_monotonic,
    validate,
)


class ScenarioError(ValueError):
    """Parse or validation failure; `line` is 1-based, 0 for file-level."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class ShuffleConfig:
    mode: str = TASK_ONLY
    guard: str = GUARD_BUDGET


@dataclass(frozen=True)
class RestartConfig:
    period: float
    reboot: float
    compromise_rate: float
    detection_rate: float | None = None
    weight: float = 0.5


@dataclass(frozen=True)
class MonitorConfig:
    scan_task: int
    fine_priority: int = 0
    alerts: tuple = ()
    escalate: bool = True


@dataclass(frozen=True)
class CacheConfig:
    victim: int
    lines: int = 64
    epsilon: float = 0.0
    profiles: tuple = (8, 48)


@dataclass(frozen=True)
class Scenario:
    name: str
    taskset: TaskSet
    seed: int = 0
    policy: str = "vanilla"
    duration: int | None = None
    hyperperiods: int | None = 1
    shuffle: ShuffleConfig | None = None
    security: SecurityPolicy | None = None
    restart: RestartConfig | None = None
    monitor: MonitorConfig | None = None
    cache: CacheConfig | None = None

    def __post_init__(self):
        if self.duration is not None:
            # a duration overrides the hyperperiods default, as in the file
            object.__setattr__(self, "hyperperiods", None)
        if self.policy not in POLICIES:
            raise ScenarioError(f"policy must be one of {tuple(POLICIES)}")
        spec = POLICIES[self.policy]
        if not spec.reads or getattr(self, spec.reads[0]) is not None:
            return
        if not spec.filled:
            raise ScenarioError(
                f"policy {self.policy} needs a [{spec.reads[0]}] section")
        object.__setattr__(self, spec.reads[0], _SECTIONS[spec.reads[0]][0]())


class PolicySpec(NamedTuple):
    """What a policy name stands for.

    reads names every section the policy's factory reads.  Its first entry
    is the policy's own section: a missing one takes its defaults when
    filled is true and is refused otherwise.  Scenario checks and sweep
    both go by reads.

    A command that runs the scenario calls each hook that is set:
    prepare(sc) once, for state every run and the report share, given to
    build as `shared`; baseline(sc) for a policy each ensemble member also
    runs under, counted in the slot budget before the first tick; and
    report(sc, report, traces, baselines, shared) to add what only this
    policy can say to the report.
    """

    reads: tuple
    filled: bool
    build: Callable  # (scenario, shared or None) -> fresh SchedulingPolicy
    prepare: Callable | None = None
    baseline: Callable | None = None
    report: Callable | None = None


def _flush_report(sc: Scenario, report, traces, baselines, shared) -> None:
    sim = report["simulation"]
    for row, tr in zip(sim["runs"], traces):
        row["violations"] = count_violations(tr, sc.taskset, sc.security)
        row["flush_share"] = tr.occupancy()[FLUSH] / tr.duration
    sim["total_violations"] = sum(row["violations"] for row in sim["runs"])
    sim["unprotected_violations"] = sum(
        count_violations(b, sc.taskset, sc.security) for b in baselines)


def _shuffle_budgets(sc: Scenario):
    # One certification serves every run and the report's shuffle block.
    if sc.shuffle.guard == GUARD_BUDGET:
        return compute_budgets(sc.taskset)
    return None


def _shuffle_report(sc: Scenario, report, traces, baselines, budgets) -> None:
    if budgets is None:
        return
    report["shuffle"] = {
        "budgets": {str(k): v for k, v in sorted(budgets.per_task.items())},
        "completion_bounds": {
            str(k): v for k, v in sorted(budgets.completion_bounds.items())
        },
    }


def _monitor(sc: Scenario, shared) -> MonitorPolicy:
    m = sc.monitor
    base = FlushFP(sc.security) if sc.security is not None else VanillaFP()
    return MonitorPolicy(m.scan_task, base=base, fine_priority=m.fine_priority,
                         alert_ticks=m.alerts, escalate=m.escalate)


def _monitor_report(sc: Scenario, report, traces, baselines, shared) -> None:
    m = sc.monitor
    report["monitor"] = {
        "alerts": list(m.alerts),
        "latencies": [detection_latencies(tr, m.scan_task, m.alerts)
                      for tr in traces],
        "mode_switches": [sum(1 for row in tr.event_rows if row[1] == "mode_switch")
                          for tr in traces],
    }


POLICIES = {
    "vanilla": PolicySpec((), False, lambda sc, shared: VanillaFP()),
    "nonpreemptive": PolicySpec((), False,
                                lambda sc, shared: NonPreemptiveFP()),
    "shuffle": PolicySpec(("shuffle",), True, lambda sc, shared: ShuffleFP(
        mode=sc.shuffle.mode, guard=sc.shuffle.guard, budgets=shared),
        prepare=_shuffle_budgets, report=_shuffle_report),
    "flush": PolicySpec(("security",), False,
                        lambda sc, shared: FlushFP(sc.security),
                        baseline=lambda sc: VanillaFP(), report=_flush_report),
    "monitor": PolicySpec(("monitor", "security"), False, _monitor,
                          report=_monitor_report),
}


# Value parsers: (raw, line, key, task_ids) -> value.  task_ids is None
# while the top level and the tasks themselves are parsed.

def _text(raw: str, line: int, key: str, task_ids) -> str:
    return raw


def _int(raw: str, line: int, key: str, task_ids) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key} expects an integer, got {raw!r}", line)


def _float(raw: str, line: int, key: str, task_ids) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{key} expects a number, got {raw!r}", line)


def _bool(raw: str, line: int, key: str, task_ids) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"{key} expects true or false, got {raw!r}", line)


def _positive(raw: str, line: int, key: str, task_ids) -> int:
    value = _int(raw, line, key, task_ids)
    if value < 1:
        raise ScenarioError(f"{key} must be >= 1", line)
    return value


def _ints(raw: str, line: int, key: str, task_ids) -> tuple:
    return tuple(_int(p, line, key, task_ids) for p in raw.split())


def _task(raw: str, line: int, key: str, task_ids) -> int:
    tid = _int(raw, line, key, task_ids)
    if tid not in task_ids:
        raise ScenarioError(f"{key} references unknown task {tid}", line)
    return tid


def _task_pair(raw: str, line: int, key: str, task_ids) -> tuple:
    parts = raw.split()
    if len(parts) != 2:
        raise ScenarioError("pair expects two task ids", line)
    return tuple(_task(p, line, key, task_ids) for p in parts)


def _choice(options: tuple, message: str) -> Callable:
    def parse(raw: str, line: int, key: str, task_ids) -> str:
        if raw not in options:
            raise ScenarioError(message, line)
        return raw
    return parse


class _Key(NamedTuple):
    field: str  # the config field the key sets
    parse: Callable
    many: bool = False  # the key repeats; the field holds all its values


def _keys(parse: Callable, *names: str) -> dict:
    return {name: _Key(name, parse) for name in names}


def _section(cls, keys: dict) -> tuple:
    """(cls, keys, required keys): those whose field has no default."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    return cls, keys, [k for k, spec in keys.items() if spec.field in required]


_TOP = {
    "name": _text,
    "seed": _int,
    "policy": _choice(tuple(POLICIES),
                      f"policy must be one of {tuple(POLICIES)}"),
    "duration": _positive,
    "hyperperiods": _positive,
}
# Each section's config type and keys, in the order emit_scenario writes
# them; the sections other than [task] are Scenario fields of the same name.
_SECTIONS = {
    "task": _section(Task, {
        **_keys(_int, "id", "C", "T", "D", "phase"),
        "kind": _Key("kind", _choice(
            (PERIODIC, SPORADIC), f"kind must be {PERIODIC} or {SPORADIC}")),
        **_keys(_int, "priority", "security_level", "bcet"),
    }),
    "shuffle": _section(ShuffleConfig, {
        "mode": _Key("mode", _choice(MODES,
                                     f"shuffle mode must be one of {MODES}")),
        "guard": _Key("guard", _choice(
            (GUARD_BUDGET, GUARD_NONE),
            f"guard must be {GUARD_BUDGET} or {GUARD_NONE}")),
    }),
    "security": _section(SecurityPolicy, {
        "mode": _Key("mode", _choice((TOTAL_ORDER, PAIRWISE),
                                     f"security mode must be {TOTAL_ORDER} or"
                                     f" {PAIRWISE}")),
        "flush_cost": _Key("flush_cost", _int),
        "pair": _Key("pairs", _task_pair, many=True),
    }),
    "restart": _section(RestartConfig, _keys(_float, "period", "reboot",
                                             "compromise_rate",
                                             "detection_rate", "weight")),
    "monitor": _section(MonitorConfig, {
        "scan_task": _Key("scan_task", _task),
        "fine_priority": _Key("fine_priority", _int),
        "alert": _Key("alerts", _int, many=True),
        "escalate": _Key("escalate", _bool),
    }),
    "cache": _section(CacheConfig, {
        "victim": _Key("victim", _task),
        "lines": _Key("lines", _int),
        "epsilon": _Key("epsilon", _float),
        "profile": _Key("profiles", _ints),
    }),
}


def _scan(text: str):
    """Split into (top_items, sections); keys keep their line numbers."""
    top: dict[str, tuple] = {}
    sections: list[tuple] = []
    current: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            current = (name, lineno, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not val:
            raise ScenarioError(f"empty value for {key!r}", lineno)
        if current is None:
            if key not in _TOP:
                raise ScenarioError(f"unknown top-level key {key!r}", lineno)
            if key in top:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            top[key] = (val, lineno)
        else:
            sec, _, items = current
            spec = _SECTIONS[sec][1].get(key)
            if spec is None:
                raise ScenarioError(f"unknown key {key!r} in [{sec}]", lineno)
            if key in items and not spec.many:
                raise ScenarioError(f"duplicate key {key!r} in [{sec}]", lineno)
            items.setdefault(key, []).append((val, lineno))
    return top, sections


def _build(name: str, header_line: int, items: dict, task_ids):
    """The config one section describes; absent keys keep the defaults."""
    cls, keys, required = _SECTIONS[name]
    for key in required:
        if key not in items:
            raise ScenarioError(f"[{name}] missing required key {key!r}",
                                header_line)
    kw = {}
    for key, found in items.items():
        spec = keys[key]
        values = [spec.parse(raw, line, key, task_ids) for raw, line in found]
        kw[spec.field] = tuple(values) if spec.many else values[0]
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ScenarioError(str(exc), header_line) from None


def parse_scenario(text: str) -> Scenario:
    top, sections = _scan(text)
    kw = {key: _TOP[key](raw, line, key, None)
          for key, (raw, line) in top.items()}
    if "duration" in kw and "hyperperiods" in kw:
        raise ScenarioError("give either duration or hyperperiods, not both",
                            top["hyperperiods"][1])
    name = kw.pop("name", "scenario")

    tasks = [_build(*sec, None) for sec in sections if sec[0] == "task"]
    if not tasks:
        raise ScenarioError("a scenario needs at least one [task] section")
    with_prio = [t for t in tasks if t.priority is not None]
    if with_prio and len(with_prio) != len(tasks):
        raise ScenarioError(
            "either every task carries a priority or none does")
    if not with_prio:
        tasks = rate_monotonic(tasks)
    ts = TaskSet(tasks=tuple(tasks), name=name)
    problems = validate(ts)
    if problems:
        raise ScenarioError("; ".join(problems))

    task_ids = {t.id for t in ts}
    built = {}
    for sec, line, items in sections:
        if sec == "task":
            continue
        if sec in built:
            raise ScenarioError(f"duplicate section [{sec}]", line)
        built[sec] = _build(sec, line, items, task_ids)

    return Scenario(name=name, taskset=ts, **kw, **built)


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def with_key(sc: Scenario, key: str, value) -> Scenario:
    """sc with `<section>.<key>` set to value, as if its file said so.

    The section, one of the Scenario's fields, must be present in sc and
    the key must not repeat.  The section's config type checks the value
    first, then the key's own parser, then the new Scenario itself.
    """
    section, _, name = key.partition(".")
    spec = _SECTIONS[section][1].get(name)
    if spec is None or spec.many:
        raise ScenarioError(f"[{section}] has no single-valued key {name!r}")
    config = getattr(sc, section)
    if config is None:
        raise ScenarioError(f"scenario has no [{section}] section")
    config = replace(config, **{spec.field: value})
    spec.parse(str(value), 0, name, {t.id for t in sc.taskset})
    return replace(sc, **{section: config})


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def _emit(name: str, config) -> list[str]:
    out = ["", f"[{name}]"]
    for key, spec in _SECTIONS[name][1].items():
        value = getattr(config, spec.field)
        if spec.many:  # a set of pairs is written sorted, alerts in order
            if isinstance(value, frozenset):
                value = sorted(value)
            out += [f"{key} = {_show(v)}" for v in value]
        elif value is not None:
            out.append(f"{key} = {_show(value)}")
    return out


def emit_scenario(sc: Scenario) -> str:
    """Canonical text form; parse_scenario(emit_scenario(s)) equals s."""
    out = [f"name = {sc.name}", f"seed = {sc.seed}", f"policy = {sc.policy}"]
    if sc.duration is not None:
        out.append(f"duration = {sc.duration}")
    else:
        out.append(f"hyperperiods = {sc.hyperperiods}")
    for t in sorted(sc.taskset, key=lambda t: t.id):
        out += _emit("task", t)
    for name in _SECTIONS:
        if name != "task" and getattr(sc, name) is not None:
            out += _emit(name, getattr(sc, name))
    return "\n".join(out) + "\n"
