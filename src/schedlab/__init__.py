"""schedlab: a desk-scale laboratory for scheduling-level timing security.

Simulates fixed-priority scheduling of periodic/sporadic task sets on a
single processor with integer ticks, mounts schedule-inference and
cache-probing attacks against the simulated system, and evaluates four
defenses (constraint-driven flushing, schedule randomization, periodic
restarts, and runtime monitoring) with reproducible metrics.
"""

from schedlab.tasks import (
    Task,
    TaskSet,
    hyperperiod,
    utilization,
    validate,
    generate_taskset,
    rate_monotonic,
)
from schedlab.engine import (
    IDLE,
    FLUSH,
    Job,
    Event,
    ScheduleTrace,
    simulate,
    extract_busy_intervals,
    check_trace,
    VanillaFP,
    NonPreemptiveFP,
)
from schedlab.analysis import (
    AnalysisReport,
    response_time_analysis,
    rta_with_flush,
    blocking_term_nonpreemptive,
    rta_nonpreemptive,
)
from schedlab.shuffle import (
    TASK_ONLY,
    WITH_IDLE,
    FINE_GRAINED,
    InversionBudget,
    ShuffleFP,
    compute_budgets,
    schedule_entropy,
)
from schedlab.flush import SecurityPolicy, FlushFP, count_violations
from schedlab.phase_inference import (
    Observation,
    InferenceResult,
    observe,
    infer_offsets,
    brute_force_offsets,
)
from schedlab.cache_probe import (
    ProbeRound,
    probe_rounds,
    estimate_touches,
    classify_footprint,
)
from schedlab.restart import (
    RestartReport,
    MonteCarloReport,
    periodic_analysis,
    detection_analysis,
    simulate_periodic,
    simulate_detection,
    optimize_period,
)
from schedlab.monitor import (
    MonitorPolicy,
    activity_features,
    fit_profile,
    flag_anomalies,
    detection_latencies,
)
from schedlab.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    parse_scenario_file,
)
from schedlab.harness import analyze_scenario, run_scenario, run_attack, sweep

__version__ = "0.1.0"

__all__ = [
    "Task",
    "TaskSet",
    "hyperperiod",
    "utilization",
    "validate",
    "generate_taskset",
    "rate_monotonic",
    "IDLE",
    "FLUSH",
    "Job",
    "Event",
    "ScheduleTrace",
    "simulate",
    "extract_busy_intervals",
    "check_trace",
    "VanillaFP",
    "NonPreemptiveFP",
    "AnalysisReport",
    "response_time_analysis",
    "rta_with_flush",
    "blocking_term_nonpreemptive",
    "rta_nonpreemptive",
    "TASK_ONLY",
    "WITH_IDLE",
    "FINE_GRAINED",
    "InversionBudget",
    "ShuffleFP",
    "compute_budgets",
    "schedule_entropy",
    "SecurityPolicy",
    "FlushFP",
    "count_violations",
    "Observation",
    "InferenceResult",
    "observe",
    "infer_offsets",
    "brute_force_offsets",
    "ProbeRound",
    "probe_rounds",
    "estimate_touches",
    "classify_footprint",
    "RestartReport",
    "MonteCarloReport",
    "periodic_analysis",
    "detection_analysis",
    "simulate_periodic",
    "simulate_detection",
    "optimize_period",
    "MonitorPolicy",
    "activity_features",
    "fit_profile",
    "flag_anomalies",
    "detection_latencies",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_file",
    "analyze_scenario",
    "run_scenario",
    "run_attack",
    "sweep",
    "__version__",
]
