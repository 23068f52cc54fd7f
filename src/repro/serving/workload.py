"""Seeded open-loop workload: Zipf tenant skew, diurnal swell, flash bursts.

Open-loop means arrivals do not wait for responses — the defining property
of internet-facing traffic, and the reason overload is survivable only by
shedding: the offered rate is whatever the world sends, not what the
server finishes. The generator is a pure function of its config:

* **tenant skew** — tenant *k* (0-based) arrives with probability
  proportional to ``1/(k+1)**zipf_s``; at the default ``zipf_s=1.5`` the
  heaviest of 8 tenants offers ~52% of all traffic, the lightest ~2% —
  the regime where FIFO serving starves the tail and weighted-fair
  queueing visibly does not;
* **diurnal swell** — the base rate is modulated by a sinusoid
  (``1 + amplitude * sin(2*pi*t/period)``), the compressed day/night cycle
  of a public catalogue;
* **flash bursts** — seeded windows multiply the instantaneous rate by
  ``burst_factor`` (a new Sentinel acquisition drops, everyone queries at
  once);
* **query skew** — queries are drawn Zipf-style from a small hot pool, so
  concurrent duplicates are common: the coalescing opportunity is in the
  workload, not bolted on.

Arrivals come from a thinning (acceptance-rejection) sampler over the
time-varying rate, all randomness from per-purpose seeded streams (same
derivation recipe as :mod:`repro.faults`), so the same config yields the
same arrival list, byte for byte.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ServingError
from repro.resilience.admission import PRIORITY_BATCH, PRIORITY_INTERACTIVE
from repro.soak import stream_seed


def zipf_weights(count: int, s: float) -> List[float]:
    """Normalised Zipf(s) weights for ranks 1..count."""
    if count < 1:
        raise ServingError("zipf_weights needs count >= 1")
    raw = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class _ZipfPicker:
    """Inverse-CDF draw from a Zipf distribution, deterministic per stream."""

    def __init__(self, count: int, s: float, rng: random.Random):
        self._cumulative = []
        running = 0.0
        for weight in zipf_weights(count, s):
            running += weight
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard float drift at the top
        self._rng = rng

    def pick(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random())


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one generated workload (all knobs seeded/deterministic)."""

    seed: int = 21
    tenants: int = 8
    requests: int = 20_000
    zipf_s: float = 1.5  #: tenant skew exponent
    base_rate: float = 600.0  #: aggregate arrivals/s at the diurnal mean
    diurnal_amplitude: float = 0.5  #: rate swings +-50% over the "day"
    diurnal_period_s: float = 40.0  #: compressed day length
    burst_count: int = 4
    burst_factor: float = 4.0
    burst_duration_s: float = 4.0
    query_pool: int = 32  #: distinct queries in circulation
    query_zipf_s: float = 1.1  #: hot-query skew (drives coalescing)
    batch_fraction: float = 0.25  #: share of arrivals in the batch class

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.requests < 1 or self.query_pool < 1:
            raise ServingError("workload needs >= 1 tenant, request and query")
        if self.base_rate <= 0 or self.diurnal_period_s <= 0:
            raise ServingError("workload rates and periods must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServingError("diurnal_amplitude must be in [0, 1)")
        if self.burst_count < 0 or self.burst_factor < 1:
            raise ServingError("bursts must be non-negative and >= 1x")
        if not 0.0 <= self.batch_fraction <= 1.0:
            raise ServingError("batch_fraction must be in [0, 1]")

    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(f"tenant-{i}" for i in range(self.tenants))

    def horizon_s(self) -> float:
        """Rough arrival horizon used to place bursts."""
        return self.requests / self.base_rate


@dataclass(frozen=True)
class Arrival:
    """One generated request: when, who, what, which class."""

    at_s: float
    tenant: int
    query: int
    priority: int


def burst_windows(config: WorkloadConfig) -> Tuple[Tuple[float, float], ...]:
    """The seeded flash-crowd windows (start, end), sorted by start."""
    rng = random.Random(stream_seed(config.seed, "workload-bursts"))
    horizon = config.horizon_s()
    windows = []
    for _ in range(config.burst_count):
        start = rng.uniform(
            0.0, max(horizon - config.burst_duration_s, 0.1)
        )
        windows.append((start, start + config.burst_duration_s))
    return tuple(sorted(windows))


def rate_at(config: WorkloadConfig, windows, at_s: float) -> float:
    """Instantaneous offered rate: diurnal sinusoid times burst factor."""
    rate = config.base_rate * (
        1.0
        + config.diurnal_amplitude
        * math.sin(2.0 * math.pi * at_s / config.diurnal_period_s)
    )
    for start, end in windows:
        if start <= at_s < end:
            rate *= config.burst_factor
            break
    return rate


def generate_arrivals(config: WorkloadConfig) -> List[Arrival]:
    """The full seeded arrival list, time-ordered."""
    windows = burst_windows(config)
    peak = (
        config.base_rate
        * (1.0 + config.diurnal_amplitude)
        * max(config.burst_factor, 1.0)
    )
    time_rng = random.Random(stream_seed(config.seed, "workload-arrivals"))
    tenant_picker = _ZipfPicker(
        config.tenants, config.zipf_s,
        random.Random(stream_seed(config.seed, "workload-tenants")),
    )
    query_picker = _ZipfPicker(
        config.query_pool, config.query_zipf_s,
        random.Random(stream_seed(config.seed, "workload-queries")),
    )
    class_rng = random.Random(stream_seed(config.seed, "workload-classes"))
    arrivals: List[Arrival] = []
    now = 0.0
    while len(arrivals) < config.requests:
        now += time_rng.expovariate(peak)
        # Thinning: accept with probability rate(t)/peak.
        if time_rng.random() >= rate_at(config, windows, now) / peak:
            continue
        arrivals.append(
            Arrival(
                at_s=now,
                tenant=tenant_picker.pick(),
                query=query_picker.pick(),
                priority=(
                    PRIORITY_BATCH
                    if class_rng.random() < config.batch_fraction
                    else PRIORITY_INTERACTIVE
                ),
            )
        )
    return arrivals
