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
``python -m repro.soaks.serving --smoke`` runs a short comparison, writes
``BENCH_E21.json`` and exits non-zero if the gate is violated. The server
loop, statistics and CLI plumbing are :mod:`repro.soak`'s.

The two arms are one driver, :func:`run_arm`, over a *workload*: E21's
tenant traffic here, E18's flapping backends and overload bursts
(:mod:`repro.soaks.resilience`), which also reach the backends through the
real gateway when protected and through the direct FIFO when not, and
E23's runaway cross products against a real store
(:mod:`repro.soaks.governor`), which only ever run protected.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.simclock import Simulation
from repro.errors import CircuitOpen, QuotaExceeded, ServingError, Shed
from repro.obs import Observability
from repro.resilience.admission import AdmissionController, PRIORITY_INTERACTIVE
from repro.resilience.deadline import Deadline
from repro.serving.backends import CallableBackend
from repro.serving.gateway import Gateway, GatewayRequest, OK
from repro.serving.tenant import TenantConfig
from repro.serving.workload import WorkloadConfig, generate_arrivals
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

TENANTS = 8
SERVERS = 8
SERVICE_TIME_S = 0.008  #: base per-query service time
DEADLINE_S = 0.5
QUERY_POOL = 32
SERVICE_SPREAD = 0.25  #: per-query service-time multiplier in [1-s, 1+s]
QUOTA_HEADROOM = 1.12  #: tenant rate = fair share * headroom
QUOTA_BURST = 32.0
#: Each tenant's rate quota: its fair share of the pool's capacity at the
#: mean service time, with :data:`QUOTA_HEADROOM`.
TENANT_RATE = SERVERS / SERVICE_TIME_S / TENANTS * QUOTA_HEADROOM
ADMISSION_QUEUE_FACTOR = 8  #: bulkhead queue = factor * servers

#: Metrics a ``BENCH_E21.json`` must carry (checked where it is written).
REQUIRED_METRICS = (
    "serving.ok", "serving.quota_rejected", "serving.shed",
    "serving.coalesced",
)


@dataclass(frozen=True)
class ServingSoakConfig:
    """One soak run: how much of :data:`TRAFFIC` the :data:`SERVERS`
    backends are offered."""

    seed: int = 21
    requests: int = 20_000
    coalesce: bool = True

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            seed=self.seed, tenants=TENANTS, requests=self.requests,
            query_pool=QUERY_POOL, **TRAFFIC,
        )


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
    failed: int = 0  #: backend error delivered (E18: dead backend, open breaker)
    coalesced: int = 0  #: rode another request's execution as a follower
    #: latency of every delivered answer (ok or late), in settle order
    latencies_s: List[float] = field(default_factory=list)

    @property
    def accounted(self) -> int:
        return (self.ok + self.late + self.expired + self.shed
                + self.quota_rejected + self.failed)


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
# The driver: one workload, two arms
# ---------------------------------------------------------------------------
#
# A workload is what differs between the soaks that drive it (E21 below,
# E18 in repro.soaks.resilience, E23 in repro.soaks.governor). The arms
# call only these, never asking which workload they play:
#
#   servers, deadline_s    the server pool and every request's deadline
#   tenants, tenant_rate   tenant names and their rate quota (None: none)
#   coalesce, budget_policy  the gateway's coalescing switch and E23 policy
#   jobs()                 (at_s, tenant, query, kind, priority[, options])
#                          in time order
#   backends()             the gateway's backends
#   admission(obs)         the protected arm's AdmissionController, or None
#   breakers(clock, obs)   its CircuitBreakerSet per backend, or None
#   execute(gateway, entry, now) -> (service_s, result, error, *extra)
#   finished(gateway, entry, settled, error, *extra)  what a finish records
#   service(kind, query, now) -> (service_s, error or None), the bare arm's
#
# GatewayWorkload holds the defaults E18 and E21 share.


def _answer(query: str) -> str:
    return f"result:{query}"


class GatewayWorkload:
    """The hooks' defaults: one callable backend per kind, answering after
    :meth:`service`'s modelled time; no rate quota, no admission, no
    breakers, no budget policy, nothing recorded beside the ledger."""

    kinds: Tuple[str, ...] = ()
    tenant_rate: Optional[float] = None
    coalesce = True
    budget_policy = None

    def backends(self):
        return {kind: CallableBackend(_answer, kind=kind)
                for kind in self.kinds}

    def admission(self, obs: Optional[Observability]):
        return None

    def breakers(self, clock, obs: Optional[Observability]):
        return None

    def execute(self, gateway: Gateway, entry, now: float) -> tuple:
        query = entry.leader.query
        service_s, error = self.service(entry.key[0], query, now)
        return service_s, _answer(query), error

    def finished(self, gateway: Gateway, entry, settled, error,
                 *extra) -> None:
        return None


class _Arm:
    """One arm on its own simulation clock: ``servers`` workers, the
    workload's jobs arriving, and the ledger they fill."""

    breakers = None

    def __init__(self, workload, protected: bool):
        self.workload = workload
        self.sim = Simulation()
        self.pool = ServerPool(
            self.sim, workload.servers,
            take=self._take, start=self._start, finish=self._finish,
        )
        self.report = ServingSoakReport(
            protected=protected,
            per_tenant={name: TenantOutcome(name) for name in workload.tenants},
        )

    def run(self) -> ServingSoakReport:
        self.pool.run(self.workload.jobs(), self._arrive, self.report)
        self._drain()
        for outcome in self.report.per_tenant.values():
            self.report.latencies_s.extend(outcome.latencies_s)
        return self.report


class _GatewayArm(_Arm):
    """Protected: every job through ``Gateway.submit`` -> ``next_dispatch``
    -> the workload's ``execute`` -> ``complete``; a backend's open breaker
    fails its entry at dispatch, without taking a server."""

    def __init__(self, workload, obs: Optional[Observability] = None):
        super().__init__(workload, protected=True)
        self.breakers = workload.breakers(lambda: self.sim.now, obs)
        self.gateway = Gateway(
            workload.backends(),
            clock=lambda: self.sim.now,
            admission=workload.admission(obs),
            coalesce=workload.coalesce,
            obs=obs,
            budget_policy=workload.budget_policy,
        )
        for name in workload.tenants:
            self.gateway.register_tenant(
                TenantConfig(
                    name=name,
                    api_key=f"key-{name}",
                    rate=workload.tenant_rate,
                    burst=QUOTA_BURST,
                )
            )

    def _drain(self) -> None:
        gateway, report = self.gateway, self.report
        # Ticket-leak / drain invariant first: a leak is a hard fail.
        report.residual.update(gateway_residual(gateway))
        for name, session in gateway.tenants.sessions.items():
            outcome = report.per_tenant[name]
            outcome.ok = session.ok
            outcome.expired = session.expired
            outcome.shed = session.shed
            outcome.quota_rejected = session.quota_rejected
            outcome.failed = session.failed
            outcome.coalesced = session.coalesced
        report.executions = gateway.executions

    def _arrive(self, tenant: str, query: str, kind: str,
                priority: Optional[int], options=None) -> None:
        self.report.per_tenant[tenant].arrivals += 1
        request = GatewayRequest(
            api_key=f"key-{tenant}",
            query=query,
            kind=kind,
            options=options,
            priority=priority,
            deadline=Deadline(
                self.workload.deadline_s,
                clock=lambda: self.sim.now,
                label=tenant,
            ),
        )
        try:
            self.gateway.submit(request)
        except (QuotaExceeded, Shed):
            return  # counted per-tenant by the gateway's sessions
        self.pool.pump()

    def _take(self):
        while True:
            entry = self.gateway.next_dispatch()
            if entry is None or self.breakers is None:
                return entry
            try:
                self.breakers.for_key(entry.key[0]).before_call()
            except CircuitOpen as exc:
                self.gateway.complete(entry, error=exc)
                continue
            return entry

    def _start(self, entry) -> tuple:
        return self.workload.execute(self.gateway, entry, self.sim.now)

    def _finish(self, entry, result, error: Optional[Exception],
                *extra) -> None:
        if self.breakers is not None:
            breaker = self.breakers.for_key(entry.key[0])
            if error is None:
                breaker.record_success()
            else:
                breaker.record_failure()
        settled = self.gateway.complete(entry, result=result, error=error)
        now = self.sim.now
        for member in settled:
            if member.category == OK:
                self.report.per_tenant[member.session.name].latencies_s.append(
                    now - member.submitted_at
                )
        self.workload.finished(self.gateway, entry, settled, error, *extra)


class _DirectArm(_Arm):
    """Unprotected: straight to the backends through one FIFO that never
    refuses, sheds or expires anything."""

    def __init__(self, workload):
        super().__init__(workload, protected=False)
        self.queue: Deque[tuple] = deque()

    def _drain(self) -> None:
        self.report.residual["queued"] = len(self.queue)

    def _arrive(self, tenant: str, query: str, kind: str,
                priority: Optional[int], options=None) -> None:
        self.report.per_tenant[tenant].arrivals += 1
        self.queue.append((self.sim.now, tenant, query, kind))
        self.pool.pump()

    def _take(self):
        return self.queue.popleft() if self.queue else None

    def _start(self, job) -> Tuple[float, Optional[Exception]]:
        _, _, query, kind = job
        return self.workload.service(kind, query, self.sim.now)

    def _finish(self, job, error: Optional[Exception]) -> None:
        self.report.executions += 1
        arrived_at, tenant, _, _ = job
        outcome = self.report.per_tenant[tenant]
        if error is not None:
            outcome.failed += 1
            return
        latency = self.sim.now - arrived_at
        outcome.latencies_s.append(latency)
        if latency <= self.workload.deadline_s:
            outcome.ok += 1
        else:
            outcome.late += 1


def run_arm(workload, protected: bool, obs: Optional[Observability] = None):
    """Play *workload* through one arm; the arm's ``report`` is filled and
    its ``breakers`` (None unless the workload has some) are left to read."""
    arm = _GatewayArm(workload, obs) if protected else _DirectArm(workload)
    arm.run()
    return arm


# ---------------------------------------------------------------------------
# E21's workload
# ---------------------------------------------------------------------------

class _Workload(GatewayWorkload):
    """Zipf-skewed tenants on one pooled-query store, under quotas."""

    servers = SERVERS
    deadline_s = DEADLINE_S
    tenant_rate = TENANT_RATE
    kinds = ("store",)

    def __init__(self, config: ServingSoakConfig):
        self.config = config
        self.tenants = config.workload().tenant_names()
        self.coalesce = config.coalesce
        # Deterministic per-query service times, the same in both arms.
        rng = random.Random(stream_seed(config.seed, "serving-service"))
        self._service_times = [
            SERVICE_TIME_S
            * rng.uniform(1.0 - SERVICE_SPREAD, 1.0 + SERVICE_SPREAD)
            for _ in range(QUERY_POOL)
        ]

    def jobs(self):
        for arrival in generate_arrivals(self.config.workload()):
            yield (arrival.at_s, self.tenants[arrival.tenant],
                   f"q{arrival.query}", "store", arrival.priority)

    def admission(self, obs: Optional[Observability]) -> AdmissionController:
        return AdmissionController(
            max_in_flight=SERVERS,
            max_queue=ADMISSION_QUEUE_FACTOR * SERVERS,
            priority_floor=PRIORITY_INTERACTIVE,
            scope="serving",
            obs=obs,
        )

    def service(self, kind: str, query: str,
                now: float) -> Tuple[float, None]:
        return self._service_times[int(query[1:])], None


def run_serving_soak(
    config: ServingSoakConfig,
    protected: bool = True,
    obs: Optional[Observability] = None,
) -> ServingSoakReport:
    """Run one deterministic soak; the report is verify()-able."""
    return run_arm(_Workload(config), protected, obs).report


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
        "tenants": TENANTS,
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
    """``python -m repro.soaks.serving [--smoke] [--seed N] [--requests N]``"""
    return run_cli(
        "E21", "serving-gateway soak: protected vs unprotected", _scenario,
        seed=21, require=REQUIRED_METRICS,
        size=("--requests", 12_000, 120_000), argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
