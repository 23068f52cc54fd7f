"""The E25 distributed-chaos soak: correctness and scaling under fire.

One seeded campaign over one graph produces three verdicts:

* **scaling** — a fixed query pool runs clean (no faults) on a single
  partition and again range-partitioned across the cluster; the summed
  simulated makespan must shrink by at least ``MIN_SCALING_RATIO``, or the
  distribution layer is pure overhead;
* **chaos correctness** — ``chaos_queries`` runs execute under per-query
  seeded fault campaigns (node crashes, permanent node losses, stragglers,
  injected task failures, network partitions — horizon sized to ~1.5x the
  query's clean makespan so faults strike *mid-flight*, not before or
  after). Every run that completes must match the single-process vector
  engine exactly (multiset). Typed, retryable aborts
  (:class:`~repro.errors.PartitionUnavailable` when a partition loses every
  replica, :class:`~repro.errors.ClusterError` when the whole cluster
  dies) are tolerated and counted; a silently wrong answer or an
  unflagged partial result fails the soak outright. Every run — completed
  or aborted — must release its admission tickets exactly once;
* **recovery overhead** — chaos-vs-clean makespan over the runs that
  completed: what the retries, failovers and speculative twins cost.

The work model is deliberately row-dominated (``row_cost_s`` well above
``task_overhead_s``) so parallel fragments, not per-task constants, set
the makespan — the regime where range partitioning is supposed to pay.

``python -m repro.soaks.dist --smoke`` runs the CI-sized campaign,
verifies every invariant above (:meth:`DistSoakReport.verify`), writes
``BENCH_E25.json`` and exits non-zero on a violation; the CLI plumbing is
:mod:`repro.soak`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.errors import ClusterError, PartitionUnavailable
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability
from repro.rdf import Graph
from repro.rdf.term import IRI, Literal
from repro.resilience.admission import AdmissionController
from repro.sparql import CompileOptions, evaluate
from repro.sparql.dist import DistRuntime, PartialResult
from repro.soak import Gate, run_cli

MIN_COMPLETED = 100  #: the E25 acceptance floor on exact chaos completions
MIN_SCALING_RATIO = 1.5  #: below this partitioning is not paying for itself
MIN_LOCALITY_RATE = 0.5

#: The dataset and the cluster: large enough that every robustness path
#: fires, small enough to run in seconds.
TRIPLES = 360
SUBJECTS = 72
NODE_COUNT = 8
CPU_SLOTS_PER_NODE = 2
SCALE_PARTITIONS = 8  #: the scaled layout; the base layout has one
REPLICATION = 2  #: chaos with permanent node losses needs >= 2

#: Row-dominated work model: fragments, not task constants, set makespan.
WORK_MODEL = dict(
    row_cost_s=5e-5, task_overhead_s=2e-4, data_retry_backoff_s=2e-3,
)

#: Per-query chaos rates; the horizon is :data:`HORIZON_FACTOR` times the
#: query's clean makespan, so faults strike mid-flight.
HORIZON_FACTOR = 1.5
CHAOS_RATES = dict(
    node_crash_prob=0.3,
    node_loss_prob=0.15,
    straggler_prob=0.3,
    task_failure_rate=0.15,
    network_partition_prob=0.2,
)

#: Metrics a ``BENCH_E25.json`` must carry (checked where it is written).
REQUIRED_METRICS = (
    "dist.tasks", "dist.scan_stages", "dist.shuffle_joins",
    "dist.broadcast_joins", "dist.colocated_joins", "dist.aborts",
)


@dataclass(frozen=True)
class DistSoakConfig:
    """One campaign. Defaults are the CI smoke shape."""

    seed: int = 25
    chaos_queries: int = 160

    def __post_init__(self) -> None:
        if self.chaos_queries < MIN_COMPLETED:
            raise ClusterError("soak cannot complete more queries than it runs")


def build_graph(config: Optional[DistSoakConfig] = None) -> Graph:
    """The shared dataset, the same for every campaign: typed subjects,
    numeric values, a link cycle."""
    graph = Graph()
    for i in range(TRIPLES):
        s = IRI(f"http://ex/s{i % SUBJECTS}")
        graph.add(s, IRI("http://ex/p"), Literal(str(i)))
        graph.add(s, IRI("http://ex/type"), IRI(f"http://ex/C{i % 3}"))
        if i % 2 == 0:
            graph.add(
                s,
                IRI("http://ex/q"),
                IRI(f"http://ex/s{(i + 1) % SUBJECTS}"),
            )
    return graph


#: The pool covers every distributed operator: pruned and full scans,
#: broadcast and shuffle joins, OPTIONAL, UNION, BIND, FILTER, DISTINCT,
#: grouped aggregation, and ASK (whose partial results must be refused).
QUERY_POOL: Tuple[str, ...] = (
    "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }",
    "SELECT ?o WHERE { <http://ex/s3> <http://ex/p> ?o }",
    "SELECT ?s ?o WHERE { ?s <http://ex/type> <http://ex/C1> . "
    "?s <http://ex/p> ?o }",
    "SELECT ?a ?b ?c WHERE { ?a <http://ex/q> ?b . "
    "?b <http://ex/type> ?c }",
    "SELECT ?a ?o WHERE { ?a <http://ex/q> ?b . ?b <http://ex/q> ?c . "
    "?c <http://ex/p> ?o }",
    "SELECT ?s ?b WHERE { ?s <http://ex/type> ?c "
    "OPTIONAL { ?s <http://ex/q> ?b } }",
    "SELECT ?x WHERE { { ?x <http://ex/type> <http://ex/C0> } UNION "
    "{ ?x <http://ex/type> <http://ex/C2> } }",
    "SELECT ?s ?v WHERE { ?s <http://ex/p> ?o . BIND(?o AS ?v) }",
    "SELECT ?s WHERE { ?s <http://ex/p> ?o . "
    "FILTER(?s != <http://ex/s0>) }",
    "SELECT DISTINCT ?s WHERE { ?s <http://ex/p> ?o }",
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://ex/type> ?c } "
    "GROUP BY ?c",
    "ASK { ?s <http://ex/q> ?o }",
)

#: Chaos runs cycle layouts so both join strategies and several partition
#: counts see faults: (partitions, broadcast_threshold_rows).
CHAOS_LAYOUTS: Tuple[Tuple[int, float], ...] = (
    (8, 64.0),
    (4, 1.0),
    (5, 64.0),
    (8, 1.0),
    (3, 64.0),
)


def canonical(result) -> object:
    """Order-free comparison key: ASK booleans stay booleans, SELECT rows
    become a sorted multiset of sorted (variable, term) pairs."""
    if isinstance(result, bool):
        return result
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in row.items()))
        for row in result
    )


@dataclass
class DistSoakReport:
    """The campaign ledger; :meth:`verify` is the E25 acceptance gate."""

    config: DistSoakConfig
    # scaling (clean runs over the whole pool)
    base_makespan_s: float = 0.0  #: single-partition total
    scaled_makespan_s: float = 0.0  #: SCALE_PARTITIONS total
    locality_rate: float = 0.0  #: mean clean locality at scale
    # chaos
    chaos_runs: int = 0
    completed: int = 0
    typed_aborts: int = 0  #: PartitionUnavailable (retryable, per-partition)
    stranded_aborts: int = 0  #: ClusterError (whole cluster died)
    wrong_answers: int = 0
    unflagged_partials: int = 0
    ticket_leaks: int = 0
    chaos_makespan_s: float = 0.0  #: completed chaos runs only
    chaos_reference_s: float = 0.0  #: same queries' clean makespans
    # fault/recovery evidence, summed over every chaos run
    fault_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def scaling_ratio(self) -> float:
        if self.scaled_makespan_s <= 0:
            return 0.0
        return self.base_makespan_s / self.scaled_makespan_s

    @property
    def recovery_overhead(self) -> float:
        """Chaos-vs-clean makespan on the runs that completed (>= 1.0-ish;
        speculation can occasionally win races and land below 1)."""
        if self.chaos_reference_s <= 0:
            return 0.0
        return self.chaos_makespan_s / self.chaos_reference_s

    def count(self, name: str, amount: float) -> None:
        if amount:
            self.fault_counters[name] = (
                self.fault_counters.get(name, 0) + amount
            )

    def verify(self) -> None:
        """Every E25 acceptance invariant; any violation fails the soak."""
        with Gate(ClusterError) as check:
            check("wrong_answers (runs, clean or chaos, whose result the "
                  "single-process engine does not return)",
                  self.wrong_answers, "==", 0)
            check("partial results that escaped without the caller opting in",
                  self.unflagged_partials, "==", 0)
            check("runs that leaked or double-released admission tickets",
                  self.ticket_leaks, "==", 0)
            check(f"completed chaos runs of {self.chaos_runs} vs the floor",
                  self.completed, ">=", MIN_COMPLETED)
            check("accounting leak: outcomes vs chaos runs",
                  self.completed + self.typed_aborts + self.stranded_aborts,
                  "==", self.chaos_runs)
            check("scaling ratio", self.scaling_ratio, ">=", MIN_SCALING_RATIO)
            check("clean locality rate",
                  self.locality_rate, ">=", MIN_LOCALITY_RATE)
            # The chaos must demonstrably bite, or the correctness verdict
            # is vacuous: both injected fault kinds, and the idempotent-commit
            # recovery path zombie attempts and speculative twins exercise.
            for name in ("node_crashes", "task_failures",
                         "dist.duplicate_publishes"):
                check(f"{name} over the campaign",
                      self.fault_counters.get(name, 0), ">", 0)

    def summary(self) -> Dict[str, float]:
        return {
            "chaos_runs": float(self.chaos_runs),
            "completed": float(self.completed),
            "typed_aborts": float(self.typed_aborts),
            "stranded_aborts": float(self.stranded_aborts),
            "wrong_answers": float(self.wrong_answers),
            "unflagged_partials": float(self.unflagged_partials),
            "ticket_leaks": float(self.ticket_leaks),
            "scaling_ratio": self.scaling_ratio,
            "locality_rate": self.locality_rate,
            "recovery_overhead": self.recovery_overhead,
            "base_makespan_s": self.base_makespan_s,
            "scaled_makespan_s": self.scaled_makespan_s,
        }


class _DistSoak:
    def __init__(
        self, config: DistSoakConfig, obs: Optional[Observability] = None
    ):
        self.config = config
        self.obs = obs
        self.graph = build_graph()
        self.report = DistSoakReport(config=config)
        self.expected = {
            text: canonical(
                evaluate(
                    self.graph,
                    text,
                    options=CompileOptions(engine="vector"),
                )
            )
            for text in QUERY_POOL
        }
        self.clean_makespans: Dict[str, float] = {}

    def _runtime(self, partitions: int, threshold: float = 64.0,
                 injector=None, admission=None) -> DistRuntime:
        return DistRuntime(
            self.graph,
            spec=ClusterSpec(
                node_count=NODE_COUNT, cpu_slots_per_node=CPU_SLOTS_PER_NODE
            ),
            partitions=partitions,
            replication=REPLICATION,
            broadcast_threshold_rows=threshold,
            speculation=True,
            blacklist_after=3,
            **WORK_MODEL,
            injector=injector,
            admission=admission,
            obs=self.obs,
        )

    def _run(self, text: str, runtime: DistRuntime):
        return runtime.query(text, obs=self.obs), runtime.last_report

    def _exact(self, text: str, result) -> bool:
        """Parity with the single-process engine; a mismatch is counted,
        never asserted, so it reaches :meth:`DistSoakReport.verify`."""
        if canonical(result) == self.expected[text]:
            return True
        self.report.wrong_answers += 1
        return False

    # -- phase 1: clean scaling ----------------------------------------

    def run_scaling(self) -> None:
        report = self.report
        locality: List[float] = []
        for text in QUERY_POOL:
            result, base = self._run(text, self._runtime(partitions=1))
            self._exact(text, result)
            report.base_makespan_s += base.makespan_s
            result, scaled = self._run(
                text, self._runtime(partitions=SCALE_PARTITIONS)
            )
            self._exact(text, result)
            report.scaled_makespan_s += scaled.makespan_s
            self.clean_makespans[text] = scaled.makespan_s
            locality.append(scaled.locality_rate)
        report.locality_rate = sum(locality) / len(locality)

    # -- phase 2: seeded chaos -----------------------------------------

    def _chaos_injector(self, index: int, horizon_s: float) -> FaultInjector:
        plan = FaultPlan.chaos(
            seed=self.config.seed * 100003 + index,
            node_count=NODE_COUNT,
            **CHAOS_RATES,
            network_partition_duration_s=horizon_s / 4.0,
            horizon_s=horizon_s,
        )
        return FaultInjector(plan)

    def run_chaos(self) -> None:
        config = self.config
        report = self.report
        for index in range(config.chaos_queries):
            text = QUERY_POOL[index % len(QUERY_POOL)]
            partitions, threshold = CHAOS_LAYOUTS[index % len(CHAOS_LAYOUTS)]
            horizon = HORIZON_FACTOR * self.clean_makespans[text]
            admission = AdmissionController(max_in_flight=256, max_queue=1024)
            runtime = self._runtime(
                partitions,
                threshold,
                injector=self._chaos_injector(index, horizon),
                admission=admission,
            )
            report.chaos_runs += 1
            try:
                result, run = self._run(text, runtime)
            except PartitionUnavailable as fault:
                if not fault.retryable:
                    raise ClusterError(
                        f"PartitionUnavailable must be retryable: {fault}"
                    )
                report.typed_aborts += 1
            except ClusterError:
                report.stranded_aborts += 1
            else:
                if isinstance(result, PartialResult):
                    report.unflagged_partials += 1
                elif self._exact(text, result):
                    report.completed += 1
                    report.chaos_makespan_s += run.makespan_s
                    report.chaos_reference_s += self.clean_makespans[text]
            # Every run is audited, whichever way it ended: a ticket leaked
            # on the way to a wrong answer is still a leak.
            self._audit(runtime.last_report)

    def _audit(self, run) -> None:
        """Per-run bookkeeping: exactly-once tickets, fault evidence."""
        report = self.report
        if run is None:
            return
        if run.tickets_issued != run.tickets_released:
            report.ticket_leaks += 1
        report.count("node_crashes", run.node_crashes)
        report.count("task_failures", run.task_failures)
        report.count("speculative_launches", run.speculative_launches)
        for name in (
            "dist.duplicate_publishes",
            "dist.recovered_outputs",
            "dist.replica_failovers",
            "dist.data_retries",
            "dist.unreachable_reads",
            "dist.remote_reads",
            "dist.partitions_unavailable",
            "dist.aborts",
        ):
            report.count(name, run.counters.get(name, 0))

    def run(self) -> DistSoakReport:
        self.run_scaling()
        self.run_chaos()
        return self.report


def run_dist_soak(
    config: DistSoakConfig, obs: Optional[Observability] = None
) -> DistSoakReport:
    """Run one deterministic campaign; the report is verify()-able."""
    return _DistSoak(config, obs=obs).run()


def snapshot_meta(report: DistSoakReport) -> Dict[str, object]:
    """The headline numbers that ride in ``BENCH_E25.json``'s meta."""
    config = report.config
    meta = {
        "experiment": "E25",
        "seed": config.seed,
        "partitions": SCALE_PARTITIONS,
        "replication": REPLICATION,
        "node_count": NODE_COUNT,
        "min_completed": MIN_COMPLETED,
        "recovery_overhead": report.recovery_overhead,
    }
    for name in ("dist.replica_failovers", "dist.duplicate_publishes",
                 "dist.recovered_outputs", "node_crashes", "task_failures",
                 "speculative_launches"):
        meta[name.replace("dist.", "")] = report.fault_counters.get(name, 0)
    meta.update(report.summary())
    return meta


def _scenario(smoke: bool, seed: int, queries: int):
    obs = Observability(clock=lambda: 0.0)
    report = run_dist_soak(
        DistSoakConfig(seed=seed, chaos_queries=queries), obs=obs
    )
    report.verify()
    summaries = [
        ("soak", report.summary()),
        ("faults", dict(sorted(report.fault_counters.items()))),
    ]
    return obs, summaries, snapshot_meta(report)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.soaks.dist [--smoke] [--seed N]``"""
    return run_cli(
        "E25", "distributed-chaos soak: scaling + chaos correctness",
        _scenario, seed=25, require=REQUIRED_METRICS,
        size=("--queries", 160, 240), argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
