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

Each mode is a workload of the gateway soak arm,
:func:`repro.soaks.serving.run_arm`, that E18 and E21 play too; the
per-class ledger is folded from its per-tenant one, since every runaway
comes from :data:`ADVERSARY` and every honest query from another tenant.
``python -m repro.soaks.governor --smoke`` runs a short three-way
comparison, verifies every invariant above (:func:`verify_comparison`, plus
the E21 drain/ticket audit), writes ``BENCH_E23.json`` and exits non-zero
on a violation. The server loop, statistics and CLI plumbing are
:mod:`repro.soak`'s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServingError
from repro.geosparql.store import GeoStore
from repro.obs import Observability
from repro.rdf.term import IRI, Literal
from repro.serving.backends import StoreBackend
from repro.serving.gateway import FAILED, Gateway
from repro.sparql.algebra import CompileOptions
from repro.sparql.governor import BudgetPolicy, QueryBudget
from repro.soak import Gate, percentile, run_cli
from repro.soaks.serving import GatewayWorkload, run_arm

WELL_BEHAVED = "well_behaved"
RUNAWAY = "runaway"
ADVERSARY = "mallory"  #: the tenant that sends runaways, and only runaways

#: The system and its honest traffic: ~40% utilization of the pool.
TENANTS = 4  #: well-behaved tenants (the adversary is extra)
SERVERS = 4
DEADLINE_S = 2.0
RATE = 800.0  #: aggregate offered requests/s

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
    """One three-way soak. Defaults: one adversary whose cross products
    offer several times the pool's capacity when left ungoverned."""

    seed: int = 23
    requests: int = 4000
    adversary_every: int = 40  #: every Nth arrival is a runaway (0 = none)
    cross_entities: int = 96  #: rows per runaway scan (cross = n^2)
    max_rows: int = 2048  #: governed resident-row cap

    def __post_init__(self) -> None:
        if self.cross_entities * self.cross_entities <= self.max_rows:
            raise ServingError("runaway cross product must exceed max_rows")

    def policy(self) -> BudgetPolicy:
        return BudgetPolicy(
            max_rows=self.max_rows, max_seconds=MAX_SECONDS, **CHARGES
        )


def build_store(config: GovernorSoakConfig) -> GeoStore:
    """The shared dataset: dense cross-product bait plus the honest pool."""
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
    rejected: int = 0  #: refused at intake; no tenant has a limit to hit

    @property
    def accounted(self) -> int:
        return self.ok + self.failed + self.expired + self.rejected


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
                check(f"{klass} requests rejected at intake",
                      outcome.rejected, "==", 0)
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


class _Workload(GatewayWorkload):
    """One mode's traffic against its own store, in the shape the soak
    driver plays; its finishes fill the mode's budget counters."""

    servers = SERVERS
    deadline_s = DEADLINE_S
    tenants = tuple(f"tenant-{i}" for i in range(TENANTS)) + (ADVERSARY,)

    def __init__(self, config: GovernorSoakConfig, governed: bool,
                 adversary: bool):
        self.config = config
        self.budget_policy = config.policy() if governed else None
        self.report = GovernorSoakReport(governed, adversary)

    def backends(self) -> StoreBackend:
        return StoreBackend(build_store(self.config))

    def jobs(self):
        """(at_s, tenant, text, kind, priority, options), a pure function of
        the seed."""
        config = self.config
        every = config.adversary_every
        rng = random.Random(config.seed)
        now = 0.0
        adversary = self.report.adversary and every > 0
        for index in range(config.requests):
            now += rng.expovariate(RATE)
            options = CompileOptions(
                engine="vector" if index % 2 == 0 else "interpreted"
            )
            if adversary and index % every == every - 1:
                text = runaway_text(rng.randrange(RUNAWAY_VARIANTS))
                yield now, ADVERSARY, text, "sparql", None, options
            else:
                tenant = f"tenant-{rng.randrange(TENANTS)}"
                pool = rng.randrange(POOL_PREDICATES)
                text = pool_text(pool, limited=pool % 2 == 0)
                yield now, tenant, text, "sparql", None, options

    def execute(self, gateway: Gateway, entry, now: float) -> tuple:
        """Run the leader's query at dispatch; the outcome lands at
        service-finish, ``base + charged_s`` later.

        Governed mode takes the gateway's own derived budget; ungoverned
        mode attaches a metering-only budget (no caps, no deadline) so both
        modes report the same counters from the same accounting code.
        """
        budget = gateway.budget_for(entry)
        if budget is None:
            budget = QueryBudget(label="metered", **CHARGES)
        leader = entry.leader
        result = error = None
        try:
            result = gateway.backend(entry.key[0]).execute(
                leader.query, options=leader.options, budget=budget
            )
        except Exception as exc:
            error = exc
        return BASE_SERVICE_S + budget.charged_s, result, error, budget

    def finished(self, gateway: Gateway, entry, settled, error,
                 budget: QueryBudget) -> None:
        report = self.report
        runaway = entry.leader.session.name == ADVERSARY
        if runaway:
            report.runaway_executions += 1
            if budget.peak_rows > self.config.max_rows:
                report.overruns += 1
        report.peak_rows_max = max(report.peak_rows_max, budget.peak_rows)
        report.checkpoints += budget.checkpoints
        if report.governed:
            gateway.record_budget(budget, error)
        for member in settled:
            if runaway and member.category == FAILED:
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
    workload = _Workload(config, governed, adversary)
    served = run_arm(workload, protected=True, obs=obs).report
    report = workload.report
    report.executions = served.executions
    report.duration_s = served.duration_s
    report.events_processed = served.events_processed
    report.residual = served.residual
    for name, tenant in served.per_tenant.items():
        klass = RUNAWAY if name == ADVERSARY else WELL_BEHAVED
        outcome = report.outcome(klass)
        outcome.arrivals += tenant.arrivals
        outcome.ok += tenant.ok
        outcome.failed += tenant.failed
        outcome.expired += tenant.expired
        outcome.coalesced += tenant.coalesced
        outcome.rejected += tenant.shed + tenant.quota_rejected
        report.latencies_s.setdefault(klass, []).extend(tenant.latencies_s)
    return report


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
    """``python -m repro.soaks.governor [--smoke] [--seed N]``"""
    return run_cli(
        "E23", "query-governor soak: governed vs ungoverned runaways",
        _scenario, seed=23, require=REQUIRED_METRICS,
        size=("--requests", 1200, 4000), argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
