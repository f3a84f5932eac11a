"""Behavioral monitoring: learned activity profiles, and a scan policy
that escalates its own sampling rate at scripted alert ticks.

Two layers, not coupled: no anomaly flag escalates a scan.

* A learned profile models per-window task activity shares.  Training
  vectors are clustered with incrementally seeded k-means (each new
  centroid is the training point that most reduces the current squared
  error, then Lloyd refinement), scored by Mahalanobis distance under a
  pooled ridge-regularized covariance, and thresholded at a high quantile
  of the training scores.  Activity shares are nearly collinear (they sum
  to at most 1), hence the ridge.
* MonitorPolicy runs a scan task it manages itself on top of a wrapped
  dispatch policy.  Normally scans run at a passive priority and period;
  an alert escalates them to a reserved high priority and half the
  period until one escalated scan completes.  Every placement the scan
  can take must pass the wrapped policy's own schedulability test up
  front, so the monitor can never be the cause of a deadline miss.  With
  escalate = false that is the passive placement alone, and fine_priority
  is never used, so it may equal a task's priority.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from schedlab.analysis import SCHEDULABLE, UNSCHEDULABLE, AnalysisReport
from schedlab.engine import SchedulingPolicy, VanillaFP
from schedlab.tasks import TaskSet

if TYPE_CHECKING:
    import numpy as np  # imported where used: no scan or analysis path needs it

PASSIVE = "passive"
FINE = "fine"
RIDGE = 1e-6  # added to the covariance's diagonal
QUANTILE = 0.99  # of the training scores, the anomaly threshold


# --- learned activity profile -------------------------------------------------

def activity_features(trace, ts: TaskSet, window: int) -> np.ndarray:
    """Per-window share of processor time for each task (ascending id).

    Trailing slots that do not fill a whole window are dropped.
    """
    import numpy as np

    if window <= 0:
        raise ValueError("window must be positive")
    if window > trace.duration:
        raise ValueError("window longer than the trace")
    ids = sorted(t.id for t in ts)
    col = {tid: i for i, tid in enumerate(ids)}
    windows = trace.duration // window
    last = windows * window
    out = np.zeros((windows, len(ids)))
    for start, length, occ, _ in trace.runs:
        if occ not in col or start >= last:
            continue
        end = min(start + length, last)
        while start < end:  # the row's ticks in each window it crosses
            w = start // window
            stop = min(end, (w + 1) * window)
            out[w, col[occ]] += stop - start
            start = stop
    return out / window


@dataclass
class ActivityProfile:
    centroids: np.ndarray
    cov_inv: np.ndarray
    threshold: float
    sse: float


def _lloyd(x: np.ndarray, centroids: np.ndarray):
    import numpy as np

    for _ in range(100):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = centroids.copy()
        for c in range(centroids.shape[0]):
            members = x[assign == c]
            if len(members):
                new[c] = members.mean(axis=0)
        if np.allclose(new, centroids):
            break
        centroids = new
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return centroids, assign, float(d2.min(axis=1).sum())


def fit_profile(vectors, k: int) -> ActivityProfile:
    """Cluster training vectors and calibrate an anomaly threshold.

    Seeding is incremental and deterministic: start from the global mean;
    each further centroid is the training point with the largest total
    squared-error reduction, followed by Lloyd refinement.  The final
    squared error therefore never increases when k grows.  Requires at
    least k * d training vectors and at least k distinct ones.
    """
    import numpy as np

    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ValueError("training vectors must be a 2-d array")
    n, d = x.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k * d:
        raise ValueError(f"need at least k*d = {k * d} vectors, got {n}")
    if len(np.unique(x, axis=0)) < k:
        raise ValueError("fewer distinct vectors than clusters; degenerate")
    centroids = x.mean(axis=0, keepdims=True)
    centroids, assign, sse = _lloyd(x, centroids)
    for _ in range(1, k):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        near = d2.min(axis=1)
        cand_d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        gains = np.maximum(near[:, None] - cand_d2, 0.0).sum(axis=0)
        best = int(gains.argmax())
        centroids = np.vstack([centroids, x[best]])
        centroids, assign, sse = _lloyd(x, centroids)
    resid = x - centroids[assign]
    cov = resid.T @ resid / n + RIDGE * np.eye(d)
    cov_inv = np.linalg.inv(cov)
    prof = ActivityProfile(centroids=centroids, cov_inv=cov_inv,
                           threshold=0.0, sse=sse)
    scores = score_vectors(prof, x)
    prof.threshold = float(np.quantile(scores, QUANTILE))
    return prof


def score_vectors(profile: ActivityProfile, vectors) -> np.ndarray:
    """Mahalanobis distance to the nearest centroid, one score per row."""
    import numpy as np

    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    if x.shape[1] != profile.centroids.shape[1]:
        raise ValueError(
            f"expected {profile.centroids.shape[1]} features, got {x.shape[1]}"
        )
    best = np.full(x.shape[0], np.inf)
    for c in profile.centroids:
        delta = x - c
        m = np.einsum("ij,jk,ik->i", delta, profile.cov_inv, delta)
        best = np.minimum(best, m)
    return np.sqrt(best)


def flag_anomalies(profile: ActivityProfile, vectors) -> np.ndarray:
    return score_vectors(profile, vectors) > profile.threshold


# --- escalating scan policy -----------------------------------------------------

class MonitorPolicy(SchedulingPolicy):
    """Self-scheduled security scans over a wrapped dispatch policy.

    The scan task must be in the task set; this policy manages its
    releases instead of the engine.  Passive mode releases it at its
    declared period and priority; an alert tick escalates to
    fine_priority and half the period (at least 1) until one escalated
    scan finishes, then drops back.  Mode changes emit mode_switch
    events.
    """

    name = "monitor"

    def __init__(self, scan_task_id: int, base: SchedulingPolicy | None = None,
                 fine_priority: int = 0, alert_ticks=(), escalate: bool = True):
        self.scan_task_id = scan_task_id
        self.base = base if base is not None else VanillaFP()
        self.fine_priority = fine_priority
        self.alert_ticks = tuple(sorted(alert_ticks))
        self.escalate = escalate
        self.name = f"monitor({self.base.name})"

    def managed_task_ids(self):
        return {self.scan_task_id} | self.base.managed_task_ids()

    def analyze(self, ts):
        """The base policy's report on the passive placement when every
        placement the scan can take passes, otherwise on the first one
        that fails."""
        return self._admission(ts)[1]

    def _admission(self, ts: TaskSet):
        """(label of the first failing placement or None, its report).

        The scan runs in two placements: passive, as declared, and fine, at
        fine_priority with half the period.  Each placement that can occur
        must pass the base policy's own test, and without escalation only
        the passive one can; with all of them passing the passive report
        is given.
        """
        try:
            scan = ts.by_id(self.scan_task_id)
        except KeyError:
            raise ValueError(
                f"scan task {self.scan_task_id} not in task set"
            ) from None
        others = [t for t in ts if t.id != scan.id]
        if self.escalate and any(t.priority == self.fine_priority
                                 for t in others):
            raise ValueError(
                f"fine priority {self.fine_priority} collides with task set"
            )
        passive = self.base.analyze(ts)
        if passive.verdict != SCHEDULABLE:
            return PASSIVE, passive
        if not self.escalate:
            return None, passive
        fine_period = max(1, scan.T // 2)
        if scan.C > fine_period:
            # An escalated scan longer than its own period never keeps up.
            return FINE, AnalysisReport(UNSCHEDULABLE, passive.method,
                                        {scan.id: None},
                                        deadlines={scan.id: fine_period})
        fine_scan = dataclasses.replace(
            scan, T=fine_period, D=fine_period, priority=self.fine_priority,
            phase=0,
        )
        fine = self.base.analyze(TaskSet(tasks=(*others, fine_scan)))
        if fine.verdict != SCHEDULABLE:
            return FINE, fine
        return None, passive

    def attach(self, ts: TaskSet, ctx):
        failed, _ = self._admission(ts)
        if failed is not None:
            raise ValueError(
                f"scan task unschedulable in {failed} placement; "
                "monitoring refused"
            )
        self._scan = ts.by_id(self.scan_task_id)
        self._fine_period = max(1, self._scan.T // 2)
        self._fine = False
        self._last_release: int | None = None
        self._alerts = list(self.alert_ticks) if self.escalate else []
        self.base.attach(ts, ctx)

    def _due(self) -> int:
        """The tick of the next scan release in the current mode."""
        if self._last_release is None:
            return self._scan.phase
        if self._fine:
            return self._last_release + self._fine_period
        return self._last_release + self._scan.T

    def pick(self, tick, ready, ctx):
        done = ctx.completed
        if (self._fine and done is not None
                and done.task_id == self.scan_task_id
                and done.priority == self.fine_priority):
            self._fine = False
            ctx.emit("mode_switch", self.scan_task_id)
        if not self._fine and self._alerts and self._alerts[0] <= tick:
            del self._alerts[0]
            self._fine = True
            ctx.emit("mode_switch", self.scan_task_id)
        if tick >= self._due():
            scan = self._scan
            fine = self._fine
            ctx.spawn(scan.id, demand=scan.C,
                      deadline=tick + (self._fine_period if fine else scan.T),
                      priority=self.fine_priority if fine else scan.priority)
            self._last_release = tick
        return self.base.pick(tick, ready, ctx)

    def hold(self, tick, ready, ctx, choice, limit):
        # The mode falls back only at a scan's completion, which already
        # ends the hold; an alert or the next scan release must end it too.
        limit = min(limit, self._due() - tick)
        if not self._fine and self._alerts:
            limit = min(limit, self._alerts[0] - tick)
        return self.base.hold(tick, ready, ctx, choice, limit)


def detection_latencies(trace, scan_task_id: int, alert_ticks) -> list:
    """Per alert: ticks until the first scan released at or after it
    completes; None if no such scan finishes inside the trace."""
    finishes = sorted(
        (j.release, j.completion)
        for j in trace.jobs
        if j.task_id == scan_task_id and j.completion is not None
    )
    out = []
    for alert in alert_ticks:
        after = [c for r, c in finishes if r >= alert]
        out.append(min(after) - alert if after else None)
    return out
