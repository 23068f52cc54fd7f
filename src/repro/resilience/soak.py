"""Deterministic chaos soak: the resilience layer under sustained abuse.

A self-contained serving simulation — ``servers`` workers draining a FIFO
queue of requests against named backends — driven for a long, seeded
schedule of misbehaviour from an extended :class:`~repro.faults.FaultPlan`:

* **endpoint flaps** (:class:`~repro.faults.EndpointFlap`) take backends
  down for sim-time windows; an unprotected server burns the full request
  timeout discovering this, a protected one trips the backend's circuit
  breaker and fails the rest of the window fast;
* **overload bursts** (:class:`~repro.faults.OverloadBurst`) multiply the
  arrival rate; an unprotected queue grows without bound and every request
  in it goes stale, a protected admission controller sheds the excess
  (batch traffic first) at the door;
* per-request **deadlines** (:class:`~repro.resilience.Deadline` on the
  sim clock) let the protected side drop queued work that already expired
  instead of serving answers nobody is waiting for.

Everything is deterministic: arrivals, priorities and backend choices come
from seeded streams, the fault schedule is a pure function of the seed, and
the discrete-event clock (:class:`~repro.cluster.simclock.Simulation`)
replaces wall time. Running the same :class:`SoakConfig` twice yields the
same :class:`SoakReport`, bit for bit — which is what lets CI run a short
soak as a regression gate.

The report's :meth:`SoakReport.verify` checks the liveness and accounting
invariants the soak exists to prove: every arrival is accounted for in
exactly one terminal state, no admission ticket leaks, the queue drains,
and the simulation terminates. :func:`verify_comparison` holds the E18
acceptance thresholds and :func:`snapshot_meta` the headline numbers, once,
for ``python -m repro.resilience.soak`` (whose exit code is the gate) and
``benchmarks/bench_e18_overload_resilience.py`` alike.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.simclock import Simulation
from repro.errors import CircuitOpen, FaultError
from repro.faults.injector import (
    EndpointFlap,
    FaultInjector,
    FaultPlan,
    OverloadBurst,
)
from repro.obs import Observability
from repro.resilience.admission import (
    AdmissionController,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
)
from repro.resilience.breaker import CircuitBreakerSet
from repro.resilience.deadline import Deadline
from repro.soak import Gate, ServerPool, percentile, run_cli, stream_seed

#: The chaos shape (consumed by :func:`soak_plan`).
FLAPS_PER_BACKEND = 3
FLAP_DOWN_S = 2.0
BURST_COUNT = 3
BURST_DURATION_S = 3.0
BURST_FACTOR = 5.0

#: Metrics a ``BENCH_E18.json`` must carry (checked where it is written).
REQUIRED_METRICS = ("resilience.shed", "resilience.breaker_opens")


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's knobs. The defaults describe a cluster that is
    healthy at the base arrival rate and melts under the chaos plan."""

    seed: int = 0
    requests: int = 1200
    backends: int = 4
    servers: int = 8
    arrival_rate: float = 60.0  #: base requests/s, before burst multipliers
    service_time_s: float = 0.1  #: a healthy backend's service time
    timeout_s: float = 1.0  #: time burned discovering a dead backend
    deadline_s: float = 0.5  #: per-request latency target
    batch_fraction: float = 0.4  #: share of arrivals in the batch class

    def __post_init__(self) -> None:
        if self.requests < 1 or self.backends < 1 or self.servers < 1:
            raise FaultError("soak needs >= 1 request, backend and server")
        if min(self.arrival_rate, self.service_time_s, self.timeout_s,
               self.deadline_s) <= 0:
            raise FaultError("soak rates and times must be positive")
        if not 0.0 <= self.batch_fraction <= 1.0:
            raise FaultError("batch_fraction must be in [0, 1]")

    def backend_names(self) -> Tuple[str, ...]:
        return tuple(f"backend-{i}" for i in range(self.backends))


def soak_plan(config: SoakConfig) -> FaultPlan:
    """The seeded chaos schedule: flapping backends + demand bursts.

    A pure function of the config — the soak's one source of randomness
    besides the workload streams, fully consumed here.
    """
    rng = random.Random(stream_seed(config.seed, "soak-plan"))
    horizon = config.requests / config.arrival_rate
    flaps = []
    for name in config.backend_names():
        for _ in range(FLAPS_PER_BACKEND):
            down = rng.uniform(0.0, max(horizon - FLAP_DOWN_S, 0.1))
            flaps.append(EndpointFlap(name, down, down + FLAP_DOWN_S))
    bursts = []
    for _ in range(BURST_COUNT):
        start = rng.uniform(0.0, max(horizon - BURST_DURATION_S, 0.1))
        bursts.append(OverloadBurst(start, BURST_DURATION_S, BURST_FACTOR))
    return FaultPlan(
        seed=config.seed,
        endpoint_flaps=tuple(flaps),
        overload_bursts=tuple(bursts),
    )


@dataclass
class SoakReport:
    """Outcome of one soak run; every arrival lands in exactly one bucket."""

    protected: bool
    arrivals: int = 0
    ok: int = 0  #: completed within the deadline (goodput)
    late: int = 0  #: completed, but past the deadline
    failed: int = 0  #: backend down (burned timeout) or breaker fast-fail
    shed: int = 0  #: rejected at admission
    expired: int = 0  #: dropped from the queue, deadline already gone
    fast_failures: int = 0  #: the failed subset rejected by an open breaker
    duration_s: float = 0.0
    events_processed: int = 0
    breaker_opens: int = 0
    breaker_rejections: int = 0
    admission_high_water: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: set by verify(): leftover queue/servers/tickets at the end of the run
    residual: Dict[str, int] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Requests served within deadline per second of simulated time."""
        if self.duration_s <= 0:
            return 0.0
        return self.ok / self.duration_s

    @property
    def p99_latency_s(self) -> float:
        """p99 over *completed* request latencies (ok + late)."""
        return percentile(self.latencies_s, 0.99)

    def verify(self) -> None:
        """Raise :class:`FaultError` on any liveness/accounting violation."""
        with Gate(FaultError) as check:
            check("soak accounting leak: terminal outcomes vs arrivals",
                  self.ok + self.late + self.failed + self.shed + self.expired,
                  "==", self.arrivals)
            check("latency samples vs completions",
                  len(self.latencies_s), "==", self.ok + self.late)
            check.drained(self.residual)
            check("events processed vs arrivals",
                  self.events_processed, ">=", self.arrivals)

    def summary(self) -> Dict[str, float]:
        return {
            "protected": float(self.protected),
            "arrivals": float(self.arrivals),
            "ok": float(self.ok),
            "late": float(self.late),
            "failed": float(self.failed),
            "shed": float(self.shed),
            "expired": float(self.expired),
            "goodput_rps": self.goodput,
            "p99_latency_s": self.p99_latency_s,
            "breaker_opens": float(self.breaker_opens),
            "duration_s": self.duration_s,
        }


@dataclass
class _Request:
    index: int
    arrived_at: float
    backend: str
    priority: int
    deadline: Optional[Deadline]
    ticket: object = None


class _Soak:
    """One run of the serving simulation (protected or bare)."""

    def __init__(self, config: SoakConfig, protected: bool,
                 obs: Optional[Observability] = None):
        self.config = config
        self.sim = Simulation()
        self.injector = FaultInjector(soak_plan(config))
        self.queue: Deque[_Request] = deque()
        self.pool = ServerPool(
            self.sim, config.servers,
            take=self._next_servable, start=self._start, finish=self._finish,
        )
        self.report = SoakReport(protected=protected)
        self.admission: Optional[AdmissionController] = None
        self.breakers: Optional[CircuitBreakerSet] = None
        if protected:
            self.admission = AdmissionController(
                max_in_flight=config.servers,
                max_queue=4 * config.servers,
                priority_floor=PRIORITY_INTERACTIVE,
                scope="soak",
                obs=obs,
            )
            self.breakers = CircuitBreakerSet(
                clock=lambda: self.sim.now,
                seed=stream_seed(config.seed, "soak-breakers"),
                obs=obs,
                failure_threshold=3,
                window=8,
                recovery_time_s=FLAP_DOWN_S / 2.0,
                half_open_probes=1,
                probe_admit=0.5,
            )

    # ------------------------------------------------------------------
    # Workload generation
    # ------------------------------------------------------------------

    def _arrival_times(self) -> List[float]:
        """Exponential interarrivals, inflated inside overload bursts."""
        rng = random.Random(stream_seed(self.config.seed, "soak-arrivals"))
        times: List[float] = []
        now = 0.0
        for _ in range(self.config.requests):
            rate = self.config.arrival_rate * self.injector.arrival_multiplier(
                now
            )
            now += rng.expovariate(rate)
            times.append(now)
        return times

    def _requests(self) -> List[_Request]:
        rng = random.Random(stream_seed(self.config.seed, "soak-requests"))
        backends = self.config.backend_names()
        requests = []
        for index, at_s in enumerate(self._arrival_times()):
            requests.append(
                _Request(
                    index=index,
                    arrived_at=at_s,
                    backend=backends[rng.randrange(len(backends))],
                    priority=(
                        PRIORITY_BATCH
                        if rng.random() < self.config.batch_fraction
                        else PRIORITY_INTERACTIVE
                    ),
                    deadline=None,
                )
            )
        return requests

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def run(self) -> SoakReport:
        report = self.report
        self.pool.run(
            ((request.arrived_at, request) for request in self._requests()),
            self._arrive, report,
        )
        if self.breakers is not None:
            report.breaker_opens = self.breakers.total_opens()
            report.breaker_rejections = self.breakers.total_rejections()
        if self.admission is not None:
            report.admission_high_water = self.admission.high_water
            report.residual["admission_in_flight"] = self.admission.in_flight
        report.residual["queued"] = len(self.queue)
        return report

    def _arrive(self, request: _Request) -> None:
        self.report.arrivals += 1
        if self.admission is not None:
            request.ticket = self.admission.try_admit(request.priority)
            if request.ticket is None:
                self.report.shed += 1
                return
            request.deadline = Deadline(
                self.config.deadline_s,
                clock=lambda: self.sim.now,
                label=f"request-{request.index}",
            )
        self.queue.append(request)
        self.pool.pump()

    def _next_servable(self) -> Optional[_Request]:
        """Pop the queue up to the first request worth a server."""
        while self.queue:
            request = self.queue.popleft()
            if request.deadline is not None and request.deadline.expired:
                # Stale before service even began: drop it for free instead
                # of burning a server on an answer nobody is waiting for.
                self.report.expired += 1
                self._settle(request)
                continue
            if self.breakers is not None:
                breaker = self.breakers.for_key(request.backend)
                try:
                    breaker.before_call()
                except CircuitOpen:
                    self.report.failed += 1
                    self.report.fast_failures += 1
                    self._settle(request)
                    continue
            return request
        return None

    def _start(self, request: _Request) -> Tuple[float, bool]:
        down = self.injector.endpoint_down_at(request.backend, self.sim.now)
        busy = self.config.timeout_s if down else self.config.service_time_s
        return busy, down

    def _finish(self, request: _Request, failed: bool) -> None:
        if self.breakers is not None:
            breaker = self.breakers.for_key(request.backend)
            if failed:
                breaker.record_failure()
            else:
                breaker.record_success()
        if failed:
            self.report.failed += 1
        else:
            latency = self.sim.now - request.arrived_at
            self.report.latencies_s.append(latency)
            if latency <= self.config.deadline_s:
                self.report.ok += 1
            else:
                self.report.late += 1
        self._settle(request)

    def _settle(self, request: _Request) -> None:
        if request.ticket is not None:
            request.ticket.release()
            request.ticket = None


def run_soak(
    config: SoakConfig,
    protected: bool = True,
    obs: Optional[Observability] = None,
) -> SoakReport:
    """Run one deterministic soak; returns its verified-able report."""
    return _Soak(config, protected, obs=obs).run()


def verify_comparison(bare: SoakReport, protected: SoakReport) -> None:
    """The E18 acceptance thresholds — strictly better on both axes."""
    with Gate(FaultError) as check:
        check("protected goodput vs unprotected (rps)",
              protected.goodput, ">", bare.goodput)
        check("protected p99 vs unprotected (s)",
              protected.p99_latency_s, "<", bare.p99_latency_s)
        # The mechanisms actually engaged (not a vacuous comparison).
        check("requests shed", protected.shed, ">", 0)
        check("breaker opens", protected.breaker_opens, ">", 0)


def snapshot_meta(bare: SoakReport, protected: SoakReport) -> Dict[str, float]:
    """The headline numbers that ride in ``BENCH_E18.json``'s meta."""
    return {
        "goodput_protected_rps": protected.goodput,
        "goodput_unprotected_rps": bare.goodput,
        "p99_protected_s": protected.p99_latency_s,
        "p99_unprotected_s": bare.p99_latency_s,
    }


def _scenario(smoke: bool, seed: int, _size: None):
    config = SoakConfig(seed=seed, requests=1200 if smoke else 12_000)
    obs = Observability(clock=lambda: 0.0)
    bare = run_soak(config, protected=False)
    protected = run_soak(config, protected=True, obs=obs)
    bare.verify()
    protected.verify()
    verify_comparison(bare, protected)
    summaries = [
        ("unprotected", bare.summary()), ("protected", protected.summary()),
    ]
    return obs, summaries, snapshot_meta(bare, protected)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.resilience.soak [--smoke] [--seed N]``"""
    return run_cli(
        "E18", "chaos soak: resilience stack on vs off", _scenario,
        seed=0, require=REQUIRED_METRICS, argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
