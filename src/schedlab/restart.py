"""Restart-based recovery: availability vs. exposure trade-off.

A node that reboots from a clean image every P ticks bounds how long an
intruder can persist: compromise arrives as a Poisson process (rate
lambda), survives until the next reboot, and each reboot costs b ticks of
downtime.  A detection-triggered variant reboots early once an intrusion
detector (exponential detection delay, rate mu) fires, with the periodic
reboot as a backstop at the window end.

Closed forms below treat one cycle as a renewal.  With W = P - b and
compromise time X ~ Exp(lambda):

* periodic: compromised time per cycle (W - X)^+ has mean
  W - (1 - exp(-lambda W)) / lambda; unavailability is b / P.
* detection: compromised time is min(D, W - X) for X < W with
  D ~ Exp(mu); cycle length is b + min(X, W) + compromised time.

Monte-Carlo counterparts draw the same model directly, so the two can
validate each other to tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class RestartReport:
    period: float
    reboot: float
    window: float
    unavailability: float
    compromised_fraction: float
    compromised_per_cycle: float
    cycle_length: float


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    unavailability: float
    unavailability_ci: float       # 95% half-width; 0 when deterministic
    compromised_fraction: float
    compromised_fraction_ci: float


@dataclass(frozen=True)
class SweepPoint:
    period: float
    objective: float
    report: RestartReport


@dataclass(frozen=True)
class SweepResult:
    best: SweepPoint
    curve: tuple


def _check_common(period, reboot, compromise_rate):
    if reboot <= 0:
        raise ValueError("reboot time must be positive")
    if period <= reboot:
        raise ValueError("period must exceed the reboot time")
    if compromise_rate < 0:
        raise ValueError("compromise rate must be >= 0")


def periodic_analysis(period, reboot, compromise_rate) -> RestartReport:
    """Closed-form exposure of a blindly periodic restart policy."""
    _check_common(period, reboot, compromise_rate)
    w = period - reboot
    lam = compromise_rate
    comp = 0.0 if lam == 0 else w - (1.0 - math.exp(-lam * w)) / lam
    return RestartReport(
        period=period,
        reboot=reboot,
        window=w,
        unavailability=reboot / period,
        compromised_fraction=comp / period,
        compromised_per_cycle=comp,
        cycle_length=period,
    )


def detection_analysis(period, reboot, compromise_rate,
                       detection_rate) -> RestartReport:
    """Closed-form exposure with detection-triggered early restarts."""
    _check_common(period, reboot, compromise_rate)
    if detection_rate <= 0:
        raise ValueError("detection rate must be positive")
    w = period - reboot
    lam, mu = compromise_rate, detection_rate
    if lam == 0:
        comp = 0.0
        up = w
    else:
        hit = 1.0 - math.exp(-lam * w)
        if math.isclose(lam, mu, rel_tol=1e-12):
            comp = (hit - lam * w * math.exp(-lam * w)) / mu
        else:
            comp = (hit - lam * (math.exp(-lam * w) - math.exp(-mu * w))
                    / (mu - lam)) / mu
        up = hit / lam  # E[min(X, W)]
    cycle = reboot + up + comp
    return RestartReport(
        period=period,
        reboot=reboot,
        window=w,
        unavailability=reboot / cycle,
        compromised_fraction=comp / cycle,
        compromised_per_cycle=comp,
        cycle_length=cycle,
    )


def simulate_periodic(period, reboot, compromise_rate, trials=100_000,
                      seed=0) -> MonteCarloReport:
    """Draw per-cycle compromise times directly; cycles are length P."""
    import numpy as np

    _check_common(period, reboot, compromise_rate)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    w = period - reboot
    rng = np.random.default_rng(seed)
    if compromise_rate == 0:
        comp = np.zeros(trials)
    else:
        x = rng.exponential(1.0 / compromise_rate, size=trials)
        comp = np.clip(w - x, 0.0, None)
    frac = comp / period
    ci = Z95 * frac.std(ddof=1) / math.sqrt(trials)
    return MonteCarloReport(
        trials=trials,
        unavailability=reboot / period,
        unavailability_ci=0.0,
        compromised_fraction=float(frac.mean()),
        compromised_fraction_ci=float(ci),
    )


def simulate_detection(period, reboot, compromise_rate, detection_rate,
                       trials=100_000, seed=0) -> MonteCarloReport:
    """Renewal-reward estimate: ratios of means over simulated cycles.

    Confidence intervals for the ratios come from the delta method:
    var(A/B) ~ var(a - (A/B) b) / (n * mean(b)^2).
    """
    import numpy as np

    _check_common(period, reboot, compromise_rate)
    if detection_rate <= 0:
        raise ValueError("detection rate must be positive")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    w = period - reboot
    rng = np.random.default_rng(seed)
    if compromise_rate == 0:
        x = np.full(trials, np.inf)
    else:
        x = rng.exponential(1.0 / compromise_rate, size=trials)
    d = rng.exponential(1.0 / detection_rate, size=trials)
    compromised = np.where(x < w, np.minimum(d, w - x), 0.0)
    cycles = reboot + np.minimum(x, w) + compromised

    def ratio_ci(num):
        r = num.mean() / cycles.mean()
        resid = num - r * cycles
        var = resid.var(ddof=1) / (trials * cycles.mean() ** 2)
        return float(r), float(Z95 * math.sqrt(var))

    comp_frac, comp_ci = ratio_ci(compromised)
    unavail, unavail_ci = ratio_ci(np.full(trials, float(reboot)))
    return MonteCarloReport(
        trials=trials,
        unavailability=unavail,
        unavailability_ci=unavail_ci,
        compromised_fraction=comp_frac,
        compromised_fraction_ci=comp_ci,
    )


def objective(report: RestartReport, weight: float) -> float:
    """Weighted blend of downtime and exposure; weight leans to downtime."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0, 1]")
    return (weight * report.unavailability
            + (1.0 - weight) * report.compromised_fraction)


def optimize_period(periods, reboot, compromise_rate, weight=0.5,
                    detection_rate=None) -> SweepResult:
    """Evaluate the objective over candidate periods; ties go to the
    larger period (fewer reboots at equal cost)."""
    periods = list(periods)
    if not periods:
        raise ValueError("no candidate periods given")
    curve = []
    best = None
    for p in periods:
        if detection_rate is None:
            rep = periodic_analysis(p, reboot, compromise_rate)
        else:
            rep = detection_analysis(p, reboot, compromise_rate, detection_rate)
        point = SweepPoint(period=p, objective=objective(rep, weight), report=rep)
        curve.append(point)
        if (best is None or point.objective < best.objective
                or (point.objective == best.objective
                    and point.period > best.period)):
            best = point
    return SweepResult(best=best, curve=tuple(curve))
