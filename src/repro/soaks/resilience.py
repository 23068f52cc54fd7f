"""Deterministic chaos soak: the resilience layer under sustained abuse.

E18's workload for the shared gateway soak arm
(:func:`repro.soaks.serving.run_arm`): ``SERVERS`` workers serve requests
against named backends for a long, seeded schedule of misbehaviour from an
extended :class:`~repro.faults.FaultPlan`:

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

The protected arm is the real :class:`~repro.serving.Gateway` — the same
admission, deadline, queue and ticket path E21, E23 and the bench drive —
with one :class:`~repro.resilience.CircuitBreakerSet` breaker per backend
consulted at dispatch; the unprotected arm is E21's direct FIFO. Every
request is unique, so nothing coalesces. The gateway never delivers a late
answer: a request still queued or in service when its deadline passes is
settled ``expired``, and an open breaker reaches the tenant as a typed
:class:`~repro.errors.Shed` (``reason="breaker_open"``).

Everything is deterministic: arrivals, priorities and backend choices come
from seeded streams, the fault schedule is a pure function of the seed, and
the discrete-event clock (:class:`~repro.cluster.simclock.Simulation`)
replaces wall time. Running the same :class:`SoakConfig` twice yields the
same :class:`SoakReport`, bit for bit — which is what lets CI run a short
soak as a regression gate.

The report's :meth:`SoakReport.verify` checks the liveness and accounting
invariants the soak exists to prove: every arrival is accounted for in
exactly one terminal state, the gateway's drain and ticket audit comes
back zero, and the simulation terminates. :func:`verify_comparison` holds
the E18 acceptance thresholds and :func:`snapshot_meta` the headline
numbers, once, for ``python -m repro.soaks.resilience`` (whose exit code is
the gate) and ``benchmarks/bench_e18_overload_resilience.py`` alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError, TimeoutExceeded
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
from repro.soak import Gate, percentile, run_cli, stream_seed
from repro.soaks.serving import GatewayWorkload, run_arm

#: The system and its traffic: a cluster that is healthy at the base
#: arrival rate and melts under the chaos plan.
BACKENDS = tuple(f"backend-{i}" for i in range(4))
SERVERS = 8
ARRIVAL_RATE = 60.0  #: base requests/s, before burst multipliers
SERVICE_TIME_S = 0.1  #: a healthy backend's service time
TIMEOUT_S = 1.0  #: time burned discovering a dead backend
DEADLINE_S = 0.5  #: per-request latency target
BATCH_FRACTION = 0.4  #: share of arrivals in the batch class
TENANT = "soak"  #: the one tenant, with no quota

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
    """One soak run: the seed and how many requests arrive."""

    seed: int = 0
    requests: int = 1200

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise FaultError("soak needs >= 1 request")


def soak_plan(config: SoakConfig) -> FaultPlan:
    """The seeded chaos schedule: flapping backends + demand bursts.

    A pure function of the config — the soak's one source of randomness
    besides the workload streams, fully consumed here.
    """
    rng = random.Random(stream_seed(config.seed, "soak-plan"))
    horizon = config.requests / ARRIVAL_RATE
    flaps = []
    for name in BACKENDS:
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
    late: int = 0  #: completed past the deadline (unprotected only)
    failed: int = 0  #: backend down (unprotected) or breaker fast-fail
    shed: int = 0  #: rejected at admission
    expired: int = 0  #: deadline ran out while queued or in service
    fast_failures: int = 0  #: the failed subset rejected by an open breaker
    duration_s: float = 0.0
    events_processed: int = 0
    breaker_opens: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: set by the run: leftover queue/servers/tickets, all zero when drained
    residual: Dict[str, int] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Requests served within deadline per second of simulated time."""
        if self.duration_s <= 0:
            return 0.0
        return self.ok / self.duration_s

    @property
    def p99_latency_s(self) -> float:
        """p99 over *delivered* answers (ok + late; the gateway delivers
        no late answer, so the protected arm's is over ok alone)."""
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


class _Workload(GatewayWorkload):
    """E18's traffic and system, in the shape the soak driver plays."""

    servers = SERVERS
    deadline_s = DEADLINE_S
    tenants = (TENANT,)
    kinds = BACKENDS

    def __init__(self, config: SoakConfig):
        self.config = config
        self.injector = FaultInjector(soak_plan(config))

    def jobs(self):
        """Exponential interarrivals, inflated inside overload bursts; each
        request picks a backend and a priority class from its own stream."""
        arrivals = random.Random(stream_seed(self.config.seed, "soak-arrivals"))
        choices = random.Random(stream_seed(self.config.seed, "soak-requests"))
        now = 0.0
        for index in range(self.config.requests):
            rate = ARRIVAL_RATE * self.injector.arrival_multiplier(now)
            now += arrivals.expovariate(rate)
            backend = BACKENDS[choices.randrange(len(BACKENDS))]
            priority = (
                PRIORITY_BATCH
                if choices.random() < BATCH_FRACTION
                else PRIORITY_INTERACTIVE
            )
            yield now, TENANT, f"r{index}", backend, priority

    def admission(self, obs: Optional[Observability]) -> AdmissionController:
        return AdmissionController(
            max_in_flight=SERVERS,
            max_queue=4 * SERVERS,
            priority_floor=PRIORITY_INTERACTIVE,
            scope="soak",
            obs=obs,
        )

    def breakers(self, clock, obs: Optional[Observability]) -> CircuitBreakerSet:
        return CircuitBreakerSet(
            clock=clock,
            seed=stream_seed(self.config.seed, "soak-breakers"),
            obs=obs,
            failure_threshold=3,
            window=8,
            recovery_time_s=FLAP_DOWN_S / 2.0,
            half_open_probes=1,
            probe_admit=0.5,
        )

    def service(self, kind: str, query: str,
                now: float) -> Tuple[float, Optional[TimeoutExceeded]]:
        if self.injector.endpoint_down_at(kind, now):
            return TIMEOUT_S, TimeoutExceeded(f"{kind} is down")
        return SERVICE_TIME_S, None


def run_soak(
    config: SoakConfig,
    protected: bool = True,
    obs: Optional[Observability] = None,
) -> SoakReport:
    """Run one deterministic soak; returns its verify()-able report."""
    arm = run_arm(_Workload(config), protected, obs)
    served = arm.report
    report = SoakReport(
        protected=protected,
        arrivals=served.arrivals,
        ok=served.ok,
        late=served.total("late"),
        failed=served.total("failed"),
        shed=served.total("shed"),
        expired=served.total("expired"),
        duration_s=served.duration_s,
        events_processed=served.events_processed,
        latencies_s=served.latencies_s,
        residual=served.residual,
    )
    if arm.breakers is not None:
        report.breaker_opens = arm.breakers.total_opens()
        report.fast_failures = arm.breakers.total_rejections()
    return report


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
    """``python -m repro.soaks.resilience [--smoke] [--seed N]``"""
    return run_cli(
        "E18", "chaos soak: resilience stack on vs off", _scenario,
        seed=0, require=REQUIRED_METRICS, argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
