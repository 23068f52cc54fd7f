"""The E21 serving soak: one abusive tenant vs everyone, with and without
the gateway.

The same seeded open-loop workload (:mod:`repro.serving.workload` — Zipf
tenant skew, diurnal swell, flash bursts; several times the backend's
capacity at the peaks) is played twice against the same simulated backend
pool on the same discrete-event clock:

* **unprotected** — requests hit the backends directly through one FIFO
  queue: nothing is ever refused, the backlog during overload grows
  without bound, and the heavy tenant's flood inflates every tenant's
  latency equally — the few answers that still make their deadline are
  distributed like the *offered* load, i.e. almost all to the abuser;
* **protected** — requests go through the :class:`~repro.serving.Gateway`:
  per-tenant token buckets clip each tenant near its fair share,
  weighted-fair queueing keeps burst service even, the E18 bulkhead bounds
  the in-gateway population (so queue wait stays under the deadline), and
  coalescing lets concurrent identical queries share executions.

The report measures what the issue asks for: per-tenant goodput and its
Jain fairness index (``(sum x)^2 / (n * sum x^2)`` over per-tenant
within-deadline completions — 1.0 is perfectly even, ``1/n`` is one tenant
taking everything), p99 latency, and duplicate executions avoided by
coalescing. :meth:`ServingSoakReport.verify` enforces the accounting and
**ticket-leak** invariants: every arrival lands in exactly one terminal
bucket, and at the end of the run the gateway must be fully drained — no
queued entry, no live coalesce key, no tenant in-flight residue, and
``tickets_issued == tickets_released`` (a ticket outliving its request
fails the soak).

Everything is a pure function of the seed. :func:`verify_comparison` holds
the E21 acceptance thresholds and :func:`snapshot_meta` the headline
numbers, once, for the CLI and ``benchmarks/bench_e21_serving.py`` alike;
``python -m repro.serving.soak --smoke`` runs a short comparison, writes
``BENCH_E21.json`` and exits non-zero if the gate is violated. The server
loop, statistics and CLI plumbing are :mod:`repro.soak`'s.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.simclock import Simulation
from repro.errors import QuotaExceeded, ServingError, Shed
from repro.obs import Observability
from repro.resilience.admission import AdmissionController, PRIORITY_INTERACTIVE
from repro.resilience.deadline import Deadline
from repro.serving.backends import CallableBackend
from repro.serving.gateway import Gateway, GatewayRequest, OK
from repro.serving.tenant import TenantConfig
from repro.serving.workload import Arrival, WorkloadConfig, generate_arrivals
from repro.soak import (
    Gate,
    ServerPool,
    gateway_residual,
    jain_index,
    percentile,
    run_cli,
    stream_seed,
)

#: The offered traffic, spelled out so that a change to
#: :class:`~repro.serving.workload.WorkloadConfig`'s defaults cannot move
#: the experiment: ~6x capacity at the diurnal mean, the heaviest of 8
#: Zipf(1.5) tenants alone offering ~3x capacity.
TRAFFIC = dict(
    base_rate=6000.0,  #: aggregate offered requests/s (mean)
    zipf_s=1.5,
    diurnal_amplitude=0.4,
    diurnal_period_s=10.0,
    burst_count=3,
    burst_factor=3.0,
    burst_duration_s=2.0,
    query_zipf_s=1.1,
    batch_fraction=0.25,
)

SERVICE_SPREAD = 0.25  #: per-query service-time multiplier in [1-s, 1+s]
QUOTA_HEADROOM = 1.12  #: tenant rate = fair share * headroom
QUOTA_BURST = 32.0
ADMISSION_QUEUE_FACTOR = 8  #: bulkhead queue = factor * servers

#: Metrics a ``BENCH_E21.json`` must carry (checked where it is written).
REQUIRED_METRICS = (
    "serving.ok", "serving.quota_rejected", "serving.shed",
    "serving.coalesced",
)


@dataclass(frozen=True)
class ServingSoakConfig:
    """One soak run: the system under test and how much of :data:`TRAFFIC`
    it is offered."""

    seed: int = 21
    requests: int = 20_000
    tenants: int = 8
    servers: int = 8
    service_time_s: float = 0.008  #: base per-query service time
    deadline_s: float = 0.5
    query_pool: int = 32
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ServingError("soak needs >= 1 server")
        if self.service_time_s <= 0 or self.deadline_s <= 0:
            raise ServingError("soak times must be positive")

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            seed=self.seed, tenants=self.tenants, requests=self.requests,
            query_pool=self.query_pool, **TRAFFIC,
        )

    def capacity_rps(self) -> float:
        """Backend pool throughput at the mean service time."""
        return self.servers / self.service_time_s

    def tenant_rate_quota(self) -> float:
        return self.capacity_rps() / self.tenants * QUOTA_HEADROOM

    def service_times(self) -> List[float]:
        """Deterministic per-query service times (same in both modes)."""
        rng = random.Random(stream_seed(self.seed, "serving-service"))
        return [
            self.service_time_s
            * rng.uniform(1.0 - SERVICE_SPREAD, 1.0 + SERVICE_SPREAD)
            for _ in range(self.query_pool)
        ]


@dataclass
class TenantOutcome:
    """One tenant's ledger; every arrival lands in exactly one bucket."""

    name: str
    arrivals: int = 0
    ok: int = 0  #: result delivered within the deadline
    late: int = 0  #: result delivered past the deadline (unprotected only)
    expired: int = 0  #: deadline ran out while queued/coalesced
    shed: int = 0  #: typed Shed (bulkhead full)
    quota_rejected: int = 0  #: typed QuotaExceeded (tenant's own limits)
    coalesced: int = 0  #: rode another request's execution as a follower

    @property
    def accounted(self) -> int:
        return self.ok + self.late + self.expired + self.shed + self.quota_rejected


@dataclass
class ServingSoakReport:
    """Outcome of one soak run (one mode)."""

    protected: bool
    per_tenant: Dict[str, TenantOutcome] = field(default_factory=dict)
    executions: int = 0  #: backend executions actually run
    duration_s: float = 0.0
    events_processed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: leftover state at the end of the run; verify() requires all zeros
    residual: Dict[str, int] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------

    def total(self, bucket: str) -> int:
        return sum(getattr(t, bucket) for t in self.per_tenant.values())

    @property
    def arrivals(self) -> int:
        return self.total("arrivals")

    @property
    def ok(self) -> int:
        return self.total("ok")

    @property
    def served(self) -> int:
        """Requests that received a result (within deadline or late)."""
        return self.total("ok") + self.total("late")

    @property
    def coalesced(self) -> int:
        return self.total("coalesced")

    @property
    def duplicate_executions_avoided(self) -> int:
        """Requests served without their own backend execution."""
        return self.served - self.executions if self.protected else 0

    @property
    def jain_goodput(self) -> float:
        """Jain's index over per-tenant within-deadline completions."""
        return jain_index(t.ok for t in self.per_tenant.values())

    @property
    def p99_latency_s(self) -> float:
        return percentile(self.latencies_s, 0.99)

    # -- invariants ----------------------------------------------------

    def verify(self) -> None:
        """Raise :class:`ServingError` on any accounting/leak violation."""
        with Gate(ServingError) as check:
            for outcome in self.per_tenant.values():
                check(f"tenant {outcome.name!r} accounting leak: outcomes vs "
                      "arrivals", outcome.accounted, "==", outcome.arrivals)
            check("latency samples vs completions",
                  len(self.latencies_s), "==", self.served)
            check.drained(self.residual)
            check("events processed vs arrivals",
                  self.events_processed, ">=", self.arrivals)

    def summary(self) -> Dict[str, float]:
        return {
            "protected": float(self.protected),
            "arrivals": float(self.arrivals),
            "ok": float(self.ok),
            "late": float(self.total("late")),
            "expired": float(self.total("expired")),
            "shed": float(self.total("shed")),
            "quota_rejected": float(self.total("quota_rejected")),
            "coalesced": float(self.coalesced),
            "executions": float(self.executions),
            "duplicate_executions_avoided": float(
                self.duplicate_executions_avoided
            ),
            "jain_goodput": self.jain_goodput,
            "p99_latency_s": self.p99_latency_s,
            "duration_s": self.duration_s,
        }

    def tenant_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "tenant": t.name, "arrivals": t.arrivals, "ok": t.ok,
                "late": t.late, "expired": t.expired, "shed": t.shed,
                "quota": t.quota_rejected, "coalesced": t.coalesced,
            }
            for _, t in sorted(self.per_tenant.items())
        ]


# ---------------------------------------------------------------------------
# Protected mode: through the gateway
# ---------------------------------------------------------------------------

def _new_report(
    config: ServingSoakConfig, protected: bool
) -> ServingSoakReport:
    return ServingSoakReport(
        protected=protected,
        per_tenant={
            name: TenantOutcome(name)
            for name in config.workload().tenant_names()
        },
    )


class _ProtectedSoak:
    def __init__(self, config: ServingSoakConfig,
                 obs: Optional[Observability] = None):
        self.config = config
        self.sim = Simulation()
        self.service_times = config.service_times()
        self.gateway = Gateway(
            CallableBackend(lambda q: f"result:{q}", kind="store"),
            clock=lambda: self.sim.now,
            admission=AdmissionController(
                max_in_flight=config.servers,
                max_queue=ADMISSION_QUEUE_FACTOR * config.servers,
                priority_floor=PRIORITY_INTERACTIVE,
                scope="serving",
                obs=obs,
            ),
            coalesce=config.coalesce,
            obs=obs,
        )
        rate = config.tenant_rate_quota()
        for name in config.workload().tenant_names():
            self.gateway.register_tenant(
                TenantConfig(
                    name=name,
                    api_key=f"key-{name}",
                    weight=1.0,
                    rate=rate,
                    burst=QUOTA_BURST,
                )
            )
        self.pool = ServerPool(
            self.sim, config.servers,
            take=self.gateway.next_dispatch,
            start=self._start,
            finish=self._finish,
        )
        self.report = _new_report(config, protected=True)

    def run(self) -> ServingSoakReport:
        names = self.config.workload().tenant_names()
        gateway, report = self.gateway, self.report
        self.pool.run(
            ((arrival.at_s, arrival, names[arrival.tenant])
             for arrival in generate_arrivals(self.config.workload())),
            self._arrive, report,
        )
        # Ticket-leak / drain invariant first: a leak is a hard fail.
        report.residual.update(gateway_residual(gateway))
        for name, session in gateway.tenants.sessions.items():
            outcome = report.per_tenant[name]
            outcome.ok = session.ok
            outcome.expired = session.expired
            outcome.shed = session.shed
            outcome.quota_rejected = session.quota_rejected
            outcome.coalesced = session.coalesced
            # session.failed stays 0: the synthetic backend never errors.
            if session.failed:
                raise ServingError(
                    f"unexpected backend failures for {name}: {session.failed}"
                )
        report.executions = gateway.executions
        return report

    def _arrive(self, arrival: Arrival, tenant_name: str) -> None:
        self.report.per_tenant[tenant_name].arrivals += 1
        request = GatewayRequest(
            api_key=f"key-{tenant_name}",
            query=f"q{arrival.query}",
            kind="store",
            priority=arrival.priority,
            deadline=Deadline(
                self.config.deadline_s,
                clock=lambda: self.sim.now,
                label=tenant_name,
            ),
        )
        try:
            self.gateway.submit(request)
        except (QuotaExceeded, Shed):
            return  # counted per-tenant by the gateway's sessions
        self.pool.pump()

    def _start(self, entry) -> Tuple[float]:
        return (self.service_times[int(entry.leader.query[1:])],)

    def _finish(self, entry) -> None:
        query = entry.leader.query
        settled = self.gateway.complete(entry, result=f"result:{query}")
        now = self.sim.now
        for member in settled:
            if member.category == OK:
                self.report.latencies_s.append(now - member.submitted_at)


# ---------------------------------------------------------------------------
# Unprotected mode: straight to the backends, one FIFO
# ---------------------------------------------------------------------------

@dataclass
class _DirectRequest:
    arrived_at: float
    tenant: str
    query: int


class _UnprotectedSoak:
    def __init__(self, config: ServingSoakConfig):
        self.config = config
        self.sim = Simulation()
        self.service_times = config.service_times()
        self.queue: Deque[_DirectRequest] = deque()
        self.pool = ServerPool(
            self.sim, config.servers,
            take=lambda: self.queue.popleft() if self.queue else None,
            start=lambda request: (self.service_times[request.query],),
            finish=self._finish,
        )
        self.report = _new_report(config, protected=False)

    def run(self) -> ServingSoakReport:
        names = self.config.workload().tenant_names()
        self.pool.run(
            ((arrival.at_s, _DirectRequest(
                arrival.at_s, names[arrival.tenant], arrival.query))
             for arrival in generate_arrivals(self.config.workload())),
            self._arrive, self.report,
        )
        self.report.residual["queued"] = len(self.queue)
        return self.report

    def _arrive(self, request: _DirectRequest) -> None:
        self.report.per_tenant[request.tenant].arrivals += 1
        self.queue.append(request)
        self.pool.pump()

    def _finish(self, request: _DirectRequest) -> None:
        self.report.executions += 1
        latency = self.sim.now - request.arrived_at
        self.report.latencies_s.append(latency)
        outcome = self.report.per_tenant[request.tenant]
        if latency <= self.config.deadline_s:
            outcome.ok += 1
        else:
            outcome.late += 1


def run_serving_soak(
    config: ServingSoakConfig,
    protected: bool = True,
    obs: Optional[Observability] = None,
) -> ServingSoakReport:
    """Run one deterministic soak; the report is verify()-able."""
    if protected:
        return _ProtectedSoak(config, obs=obs).run()
    return _UnprotectedSoak(config).run()


def run_comparison(
    config: ServingSoakConfig, obs: Optional[Observability] = None
) -> Tuple[ServingSoakReport, ServingSoakReport]:
    """(unprotected, protected) under the same workload; both verified."""
    bare = run_serving_soak(config, protected=False)
    guarded = run_serving_soak(config, protected=True, obs=obs)
    bare.verify()
    guarded.verify()
    return bare, guarded


def verify_comparison(
    bare: ServingSoakReport, guarded: ServingSoakReport
) -> None:
    """The E21 acceptance thresholds; any violation fails the experiment."""
    with Gate(ServingError) as check:
        check("protected Jain index", guarded.jain_goodput, ">=", 0.9)
        # Below this the workload is not abusive enough to gate on.
        check("unprotected Jain index", bare.jain_goodput, "<", 0.5)
        check("protected p99 vs unprotected (s)",
              guarded.p99_latency_s, "<", bare.p99_latency_s)
        # Coalescing engaged and saved real backend work.
        check("duplicate executions avoided",
              guarded.duplicate_executions_avoided, ">", 0)
        check("protected executions vs unprotected",
              guarded.executions, "<", bare.executions)
        # The controls actually fired (this is not a vacuous comparison).
        check("requests quota-rejected",
              guarded.total("quota_rejected"), ">", 0)
        check("requests shed", guarded.total("shed"), ">", 0)


def snapshot_meta(
    config: ServingSoakConfig,
    bare: ServingSoakReport,
    guarded: ServingSoakReport,
) -> Dict[str, object]:
    """The headline numbers that ride in ``BENCH_E21.json``'s meta."""
    return {
        "experiment": "E21",
        "seed": config.seed,
        "requests": config.requests,
        "tenants": config.tenants,
        "jain_protected": guarded.jain_goodput,
        "jain_unprotected": bare.jain_goodput,
        "p99_protected_s": guarded.p99_latency_s,
        "p99_unprotected_s": bare.p99_latency_s,
        "duplicate_executions_avoided": guarded.duplicate_executions_avoided,
        "executions_protected": guarded.executions,
        "executions_unprotected": bare.executions,
    }


def _scenario(smoke: bool, seed: int, requests: int):
    config = ServingSoakConfig(seed=seed, requests=requests)
    obs = Observability(clock=lambda: 0.0)
    bare, guarded = run_comparison(config, obs=obs)
    verify_comparison(bare, guarded)
    summaries = [
        ("unprotected", bare.summary()), ("protected", guarded.summary()),
    ]
    return obs, summaries, snapshot_meta(config, bare, guarded)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serving.soak [--smoke] [--seed N] [--requests N]``"""
    return run_cli(
        "E21", "serving-gateway soak: protected vs unprotected", _scenario,
        seed=21, require=REQUIRED_METRICS,
        size=("--requests", 12_000, 120_000), argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
