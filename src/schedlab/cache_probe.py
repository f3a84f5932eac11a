"""Prime-and-probe cache measurement against scheduled victim jobs.

The attacker fills every cache line with its own data (prime), lets the
victim run, then measures how many lines were evicted (probe).  Timing
the probe is noisy: each line's evicted/intact reading flips
independently with probability epsilon.  Knowing when a victim job runs
(for instance from offset inference) lets the attacker wrap one
prime/probe round around each job and read off its per-job cache
footprint.  Nothing else touches the cache, so a round that misses the
job's execution window sees only the noise.

The footprint estimator inverts the noise: a round over m lines of
which k were truly evicted reads an expected (1 - eps) * k + eps * (m - k)
lines as evicted, so k can be recovered as (observed - eps * m) / (1 - 2 eps)
for eps < 1/2.  Distinguishing a small set of known activity profiles
(e.g. light vs heavy jobs) stays reliable at noise levels where exact
recovery does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATTACKER = 0
COLD = -1


class CacheState:
    """Direct-mapped view of num_lines cache lines with per-line owners."""

    def __init__(self, num_lines: int, seed: int = 0):
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        self.num_lines = num_lines
        self.owner = [COLD] * num_lines
        self.primed = False
        self._rng = random.Random(seed)

    def prime(self):
        """Fill every line with attacker data."""
        self.owner = [ATTACKER] * self.num_lines
        self.primed = True

    def victim_touch(self, task_id: int, k: int):
        """The victim claims k distinct lines chosen uniformly at random."""
        if not 0 <= k <= self.num_lines:
            raise ValueError(f"cannot touch {k} of {self.num_lines} lines")
        if task_id <= 0:
            raise ValueError("victim task ids are positive")
        for line in self._rng.sample(range(self.num_lines), k):
            self.owner[line] = task_id

    def probe(self, epsilon: float = 0.0) -> int:
        """Measured eviction count; each line's reading flips w.p. epsilon.

        One noise draw per line, from line 0 up, whatever epsilon is.
        Consumes the prime: the next round must prime again.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not self.primed:
            raise ValueError("probe without a preceding prime")
        draw = self._rng.random
        observed = 0
        for owner in self.owner:
            hit = owner != ATTACKER
            if draw() < epsilon:
                hit = not hit
            observed += hit
        self.primed = False
        return observed


@dataclass(frozen=True)
class ProbeRound:
    job_id: int
    predicted_start: int
    in_window: bool      # did the job's first slot fall inside the round?
    true_touches: int
    observed: int
    primed: int


def probe_rounds(trace, victim_id: int, touch_counts, *, num_lines: int = 64,
                 predicted_starts=None, epsilon: float = 0.0, seed: int = 0) -> list:
    """One prime/probe round per victim job in the trace.

    touch_counts[i] is how many lines the i-th victim job touches when it
    executes; it touches them at its first executed slot.  Round i covers
    [predicted_starts[i], predicted_starts[i] + C): a job starting inside
    is measured; a round that misses its job sees only the probe's noise.
    Defaults to perfectly aligned rounds (predicted = actual starts).
    """
    victim_jobs = [j for j in trace.jobs if j.task_id == victim_id]
    if not victim_jobs:
        raise ValueError(f"no jobs of task {victim_id} in trace")
    wcet = max(j.exec_demand for j in victim_jobs)
    if predicted_starts is None:
        predicted_starts = [j.start if j.start is not None else -1
                            for j in victim_jobs]
    if len(predicted_starts) != len(victim_jobs):
        raise ValueError("one predicted start per victim job required")
    if len(touch_counts) < len(victim_jobs):
        raise ValueError("touch_counts shorter than the victim job list")
    cache = CacheState(num_lines, seed=seed)
    rounds = []
    for i, job in enumerate(victim_jobs):
        s = predicted_starts[i]
        inside = job.start is not None and s <= job.start < s + wcet
        cache.prime()
        touched = touch_counts[i] if inside else 0
        if touched:
            cache.victim_touch(victim_id, touched)
        rounds.append(ProbeRound(
            job_id=job.job_id,
            predicted_start=s,
            in_window=inside,
            true_touches=touched,
            observed=cache.probe(epsilon),
            primed=num_lines,
        ))
    return rounds


def estimate_touches(observed: int, primed: int, epsilon: float) -> float:
    """Noise-corrected footprint estimate; needs epsilon < 1/2."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("estimator defined for epsilon in [0, 0.5)")
    return (observed - epsilon * primed) / (1.0 - 2.0 * epsilon)


def expected_observation(touches: int, primed: int, epsilon: float) -> float:
    return (1.0 - epsilon) * touches + epsilon * (primed - touches)


def classify_footprint(observed: int, profiles, primed: int,
                       epsilon: float):
    """Nearest-profile label for one round; ties go to the smaller profile."""
    if not profiles:
        raise ValueError("no profiles given")
    return min(
        sorted(profiles),
        key=lambda k: abs(observed - expected_observation(k, primed, epsilon)),
    )
