"""The E23 governor soak: runaway cross-products vs everyone, governed and not.

A seeded open-loop workload of cheap tenant queries (alternating between the
interpreted and vector engines, half of them exercising the LIMIT
short-circuit) is mixed with an adversary tenant whose every query is a
textual variant of a two-pattern cross product — the classic runaway that,
pre-E23, monopolized a server for its full blow-up. The same traffic is
played three times against the same :class:`~repro.geosparql.store.GeoStore`
on the same discrete-event clock:

* **baseline** — governed, no adversary: the well-behaved p99 reference;
* **governed** — adversary present, gateway configured with a
  :class:`~repro.sparql.governor.BudgetPolicy`: every runaway must die at
  an engine checkpoint with a typed error (:class:`~repro.errors.Shed`
  with ``reason="query_budget"``, or a deadline timeout), its peak
  resident rows must never exceed the cap, and the well-behaved p99 must
  stay within 2x the no-adversary baseline;
* **ungoverned** — adversary present, no policy: executions carry a
  *metering-only* budget (no caps, no deadline, no cancel) so the soak can
  observe what enforcement would have seen — peak resident rows far past
  the cap, service times inflated by the full cross-product, unbounded
  failure for everyone behind the adversary.

Service time is modelled from the budget's own charge stream
(``base + charged_s``, with ``checkpoint_charge_s``/``row_charge_s`` as the
work model), so a query's simulated cost is exactly the work the governor
accounted — the run is a pure function of the seed.

``python -m repro.sparql.governor.soak --smoke`` runs a short three-way
comparison, verifies every invariant above (:func:`verify_comparison`, plus
the E21 drain/ticket audit), writes ``BENCH_E23.json`` and exits non-zero
on a violation. The server loop, statistics and CLI plumbing are
:mod:`repro.soak`'s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.simclock import Simulation
from repro.errors import QuotaExceeded, ServingError, Shed, TimeoutExceeded
from repro.obs import Observability
from repro.rdf.term import IRI, Literal
from repro.resilience.deadline import Deadline
from repro.serving.backends import StoreBackend
from repro.serving.gateway import EXPIRED, FAILED, Gateway, GatewayRequest, OK
from repro.serving.tenant import TenantConfig
from repro.sparql.algebra import CompileOptions
from repro.sparql.governor import BudgetPolicy, QueryBudget
from repro.soak import Gate, ServerPool, gateway_residual, percentile, run_cli

WELL_BEHAVED = "well_behaved"
RUNAWAY = "runaway"

RUNAWAY_VARIANTS = 8  #: distinct runaway texts (defeats coalescing)
BASE_SERVICE_S = 0.002  #: per-execution service time before budget charges
POOL_PREDICATES = 8  #: well-behaved query pool size
POOL_ROWS = 40  #: triples behind each well-behaved predicate

#: The governed policy beside the row cap, and the work model both modes
#: are charged by (``service = BASE_SERVICE_S + charged_s``).
CHARGES = dict(checkpoint_charge_s=2e-5, row_charge_s=2e-6)
MAX_SECONDS = 0.05  #: governed per-execution (charged) time cap

#: Metrics a ``BENCH_E23.json`` must carry (checked where it is written).
REQUIRED_METRICS = (
    "governor.queries", "governor.checkpoints", "governor.kills",
    "governor.peak_rows",
)


@dataclass(frozen=True)
class GovernorSoakConfig:
    """One three-way soak. Defaults: ~40% utilization from honest traffic,
    one adversary whose cross products offer several times the pool's
    capacity when left ungoverned."""

    seed: int = 23
    requests: int = 4000
    tenants: int = 4  #: well-behaved tenants (the adversary is extra)
    adversary_every: int = 40  #: every Nth arrival is a runaway (0 = none)
    servers: int = 4
    deadline_s: float = 2.0
    rate: float = 800.0  #: aggregate offered requests/s
    cross_entities: int = 96  #: rows per runaway scan (cross = n^2)
    max_rows: int = 2048  #: governed resident-row cap

    def __post_init__(self) -> None:
        if self.servers < 1 or self.tenants < 1:
            raise ServingError("soak needs >= 1 server and >= 1 tenant")
        if self.deadline_s <= 0:
            raise ServingError("soak times must be positive")
        if self.cross_entities * self.cross_entities <= self.max_rows:
            raise ServingError("runaway cross product must exceed max_rows")

    def policy(self) -> BudgetPolicy:
        return BudgetPolicy(
            max_rows=self.max_rows, max_seconds=MAX_SECONDS, **CHARGES
        )


def build_store(config: GovernorSoakConfig):
    """The shared dataset: dense cross-product bait plus the honest pool."""
    from repro.geosparql.store import GeoStore

    store = GeoStore()
    for side in ("a", "b"):
        predicate = IRI(f"urn:cross:{side}")
        for index in range(config.cross_entities):
            store.add(
                IRI(f"urn:e:{side}{index}"), predicate, Literal(str(index))
            )
    for pool in range(POOL_PREDICATES):
        predicate = IRI(f"urn:pool:{pool}")
        for index in range(POOL_ROWS):
            store.add(
                IRI(f"urn:s:{pool}:{index}"), predicate, Literal(str(index))
            )
    return store


def runaway_text(variant: int) -> str:
    """One cross-product variant; distinct variable names keep the texts —
    and so their coalescing keys — distinct."""
    return (
        f"SELECT ?x{variant} ?y{variant} WHERE {{ "
        f"?x{variant} <urn:cross:a> ?v{variant} . "
        f"?y{variant} <urn:cross:b> ?w{variant} }}"
    )


def pool_text(pool: int, limited: bool) -> str:
    suffix = " LIMIT 10" if limited else ""
    return f"SELECT ?s ?o WHERE {{ ?s <urn:pool:{pool}> ?o }}{suffix}"


@dataclass
class ClassOutcome:
    """One traffic class's ledger (honest traffic vs runaways)."""

    arrivals: int = 0
    ok: int = 0
    failed: int = 0  #: settled with a typed error
    expired: int = 0  #: deadline ran out while queued/coalesced
    coalesced: int = 0

    @property
    def accounted(self) -> int:
        return self.ok + self.failed + self.expired


@dataclass
class GovernorSoakReport:
    """Outcome of one soak run (one mode)."""

    governed: bool
    adversary: bool
    classes: Dict[str, ClassOutcome] = field(default_factory=dict)
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)
    executions: int = 0
    runaway_executions: int = 0
    #: executions whose peak resident rows exceeded the configured cap
    overruns: int = 0
    peak_rows_max: int = 0
    checkpoints: int = 0
    #: typed-error reasons runaway members settled with, by reason label
    runaway_errors: Dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0
    events_processed: int = 0
    residual: Dict[str, int] = field(default_factory=dict)

    def outcome(self, klass: str) -> ClassOutcome:
        return self.classes.setdefault(klass, ClassOutcome())

    def p99_s(self, klass: str = WELL_BEHAVED) -> float:
        return percentile(self.latencies_s.get(klass, []), 0.99)

    def verify(self) -> None:
        """Per-run accounting: every arrival in exactly one bucket, drained."""
        with Gate(ServingError) as check:
            for klass, outcome in self.classes.items():
                check(f"{klass} accounting leak: outcomes vs arrivals",
                      outcome.accounted, "==", outcome.arrivals)
            check.drained(self.residual)

    def summary(self) -> Dict[str, float]:
        honest = self.outcome(WELL_BEHAVED)
        runaway = self.outcome(RUNAWAY)
        return {
            "governed": float(self.governed),
            "adversary": float(self.adversary),
            "arrivals": float(honest.arrivals + runaway.arrivals),
            "ok": float(honest.ok + runaway.ok),
            "failed": float(honest.failed + runaway.failed),
            "expired": float(honest.expired + runaway.expired),
            "runaway_arrivals": float(runaway.arrivals),
            "runaway_ok": float(runaway.ok),
            "executions": float(self.executions),
            "overruns": float(self.overruns),
            "peak_rows_max": float(self.peak_rows_max),
            "p99_well_behaved_s": self.p99_s(WELL_BEHAVED),
            "duration_s": self.duration_s,
        }


class _GovernorSoak:
    """One mode on the sim clock: arrivals -> gateway -> simulated servers."""

    def __init__(
        self,
        config: GovernorSoakConfig,
        governed: bool,
        adversary: bool,
        obs: Optional[Observability] = None,
    ):
        self.config = config
        self.governed = governed
        self.adversary = adversary
        self.sim = Simulation()
        store = build_store(config)
        self.gateway = Gateway(
            StoreBackend(store),
            clock=lambda: self.sim.now,
            obs=obs,
            budget_policy=config.policy() if governed else None,
        )
        for name in self._tenant_names():
            self.gateway.register_tenant(
                TenantConfig(name=name, api_key=f"key-{name}")
            )
        self.pool = ServerPool(
            self.sim, config.servers,
            take=self.gateway.next_dispatch,
            start=self._execute,
            finish=self._finish,
        )
        self.report = GovernorSoakReport(governed=governed, adversary=adversary)
        self.runaway_texts = {
            runaway_text(v) for v in range(RUNAWAY_VARIANTS)
        }

    def _tenant_names(self) -> List[str]:
        return [f"tenant-{i}" for i in range(self.config.tenants)] + ["mallory"]

    # -- workload ------------------------------------------------------

    def _arrivals(self):
        """(at_s, tenant, query text, engine) — a pure function of the seed."""
        config = self.config
        rng = random.Random(config.seed)
        now = 0.0
        for index in range(config.requests):
            now += rng.expovariate(config.rate)
            adversarial = (
                self.adversary
                and config.adversary_every > 0
                and index % config.adversary_every == config.adversary_every - 1
            )
            engine = "vector" if index % 2 == 0 else "interpreted"
            if adversarial:
                variant = rng.randrange(RUNAWAY_VARIANTS)
                yield now, "mallory", runaway_text(variant), engine
            else:
                tenant = f"tenant-{rng.randrange(config.tenants)}"
                pool = rng.randrange(POOL_PREDICATES)
                yield now, tenant, pool_text(pool, limited=pool % 2 == 0), engine

    def run(self) -> GovernorSoakReport:
        report = self.report
        self.pool.run(self._arrivals(), self._arrive, report)
        # E21 drain/ticket audit first: a leak is a hard fail.
        report.residual.update(gateway_residual(self.gateway))
        report.executions = self.gateway.executions
        return report

    def _classify(self, text: str) -> str:
        return RUNAWAY if text in self.runaway_texts else WELL_BEHAVED

    def _arrive(self, tenant: str, text: str, engine: str) -> None:
        self.report.outcome(self._classify(text)).arrivals += 1
        request = GatewayRequest(
            api_key=f"key-{tenant}",
            query=text,
            kind="sparql",
            options=CompileOptions(engine=engine),
            deadline=Deadline(
                self.config.deadline_s,
                clock=lambda: self.sim.now,
                label=tenant,
            ),
        )
        try:
            self.gateway.submit(request)
        except (QuotaExceeded, Shed):  # pragma: no cover - quotas unlimited
            raise ServingError("soak tenants must never be rejected at intake")
        if request.follower:
            self.report.outcome(self._classify(text)).coalesced += 1
        self.pool.pump()

    # -- simulated execution -------------------------------------------

    def _execute(self, entry):
        """Run the leader's query at dispatch; the outcome lands at
        service-finish, ``base + charged_s`` later.

        Governed mode takes the gateway's own derived budget; ungoverned
        mode attaches a metering-only budget (no caps, no deadline) so both
        modes report the same counters from the same accounting code.
        """
        gateway = self.gateway
        budget = gateway.budget_for(entry)
        if budget is None:
            budget = QueryBudget(label="metered", **CHARGES)
        backend = gateway.backend(entry.key[0])
        leader = entry.leader
        result = error = None
        try:
            result = backend.execute(
                leader.query, options=leader.options, budget=budget
            )
        except Exception as exc:
            error = exc
        return BASE_SERVICE_S + budget.charged_s, result, error, budget

    def _finish(self, entry, result, error, budget) -> None:
        report = self.report
        klass = self._classify(entry.leader.query)
        if klass == RUNAWAY:
            report.runaway_executions += 1
            if budget.peak_rows > self.config.max_rows:
                report.overruns += 1
        report.peak_rows_max = max(report.peak_rows_max, budget.peak_rows)
        report.checkpoints += budget.checkpoints
        if self.governed:
            self.gateway.record_budget(budget, error)
        settled = self.gateway.complete(entry, result=result, error=error)
        now = self.sim.now
        for member in settled:
            klass = self._classify(member.query)
            outcome = report.outcome(klass)
            if member.category == OK:
                outcome.ok += 1
                report.latencies_s.setdefault(klass, []).append(
                    now - member.submitted_at
                )
            elif member.category == EXPIRED:
                outcome.expired += 1
            else:
                outcome.failed += 1
                if klass == RUNAWAY:
                    reason = getattr(member.error, "reason", None) or type(
                        member.error
                    ).__name__
                    report.runaway_errors[reason] = (
                        report.runaway_errors.get(reason, 0) + 1
                    )


def run_governor_soak(
    config: GovernorSoakConfig,
    governed: bool = True,
    adversary: bool = True,
    obs: Optional[Observability] = None,
) -> GovernorSoakReport:
    """Run one deterministic soak; the report is verify()-able."""
    return _GovernorSoak(config, governed, adversary, obs=obs).run()


def run_comparison(
    config: GovernorSoakConfig, obs: Optional[Observability] = None
):
    """(baseline, governed, ungoverned); each verified, invariants checked."""
    baseline = run_governor_soak(config, governed=True, adversary=False)
    governed = run_governor_soak(config, governed=True, adversary=True, obs=obs)
    ungoverned = run_governor_soak(config, governed=False, adversary=True)
    for report in (baseline, governed, ungoverned):
        report.verify()
    verify_comparison(baseline, governed, ungoverned, config)
    return baseline, governed, ungoverned


def verify_comparison(
    baseline: GovernorSoakReport,
    governed: GovernorSoakReport,
    ungoverned: GovernorSoakReport,
    config: GovernorSoakConfig,
) -> None:
    """The E23 acceptance invariants; any violation fails the soak."""
    runaway = governed.outcome(RUNAWAY)
    base_p99 = baseline.p99_s(WELL_BEHAVED)
    governed_p99 = governed.p99_s(WELL_BEHAVED)
    typed = {"rows", "bytes", "deadline", "TimeoutExceeded", "Shed"}
    with Gate(ServingError) as check:
        check("runaways the governed run saw", runaway.arrivals, ">", 0)
        check("runaways completed under governance", runaway.ok, "==", 0)
        check("governed resident-row overruns", governed.overruns, "==", 0)
        check("governed peak rows vs cap",
              governed.peak_rows_max, "<=", config.max_rows)
        # Every runaway that reached execution must have died with a typed
        # error whose reason names the enforcement that killed it.
        for reason in governed.runaway_errors:
            check.that(reason in typed or reason.startswith("query"),
                       f"untyped runaway error reason {reason!r}")
        check("governed engine checkpoints", governed.checkpoints, ">", 0)
        check("ungoverned overruns of the cap", ungoverned.overruns, ">", 0)
        check("ungoverned peak rows vs cap",
              ungoverned.peak_rows_max, ">", config.max_rows)
        if base_p99 > 0:
            check("governed well-behaved p99 (s) vs 2x no-adversary baseline",
                  governed_p99, "<=", 2.0 * base_p99)
        # Otherwise the adversary is not adversarial enough to gate on.
        check.that(
            ungoverned.p99_s(WELL_BEHAVED) > governed_p99
            or ungoverned.outcome(WELL_BEHAVED).expired
            > governed.outcome(WELL_BEHAVED).expired,
            "ungoverned run shows no well-behaved degradation",
        )


def snapshot_meta(
    config: GovernorSoakConfig,
    baseline: GovernorSoakReport,
    governed: GovernorSoakReport,
    ungoverned: GovernorSoakReport,
) -> Dict[str, object]:
    """The headline numbers that ride in ``BENCH_E23.json``'s meta."""
    return {
        "experiment": "E23",
        "seed": config.seed,
        "requests": config.requests,
        "cap_rows": config.max_rows,
        "runaway_arrivals": governed.outcome(RUNAWAY).arrivals,
        "runaway_ok_governed": governed.outcome(RUNAWAY).ok,
        "overruns_governed": governed.overruns,
        "overruns_ungoverned": ungoverned.overruns,
        "peak_rows_governed": governed.peak_rows_max,
        "peak_rows_ungoverned": ungoverned.peak_rows_max,
        "p99_baseline_s": baseline.p99_s(WELL_BEHAVED),
        "p99_governed_s": governed.p99_s(WELL_BEHAVED),
        "p99_ungoverned_s": ungoverned.p99_s(WELL_BEHAVED),
        "checkpoints_governed": governed.checkpoints,
    }


def _scenario(smoke: bool, seed: int, requests: int):
    config = GovernorSoakConfig(
        seed=seed, requests=requests, adversary_every=25 if smoke else 40
    )
    obs = Observability(clock=lambda: 0.0)
    reports = run_comparison(config, obs=obs)  # gates via verify_comparison
    labels = ("baseline", "governed", "ungoverned")
    summaries = [(l, report.summary()) for l, report in zip(labels, reports)]
    return obs, summaries, snapshot_meta(config, *reports)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sparql.governor.soak [--smoke] [--seed N]``"""
    return run_cli(
        "E23", "query-governor soak: governed vs ungoverned runaways",
        _scenario, seed=23, require=REQUIRED_METRICS,
        size=("--requests", 1200, 4000), argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
