"""Distributed SPARQL engine (E25): partitioning, planning, robustness.

The equivalence property suite lives in ``test_dist_equivalence.py``; this
file pins the mechanisms — partition disjointness, physical plan shapes,
replica failover, partial-result opt-in, budget kill with exactly-once
ticket release, idempotent output commit under injected failures, and the
serving-gateway translation of :class:`PartitionUnavailable` to ``Shed``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.cluster.scheduler import Scheduler
from repro.errors import (
    PartitionUnavailable,
    QueryBudgetExceeded,
    Shed,
    SPARQLError,
)
from repro.faults import FaultInjector, FaultPlan, NodeLoss
from repro.rdf import Graph
from repro.rdf.term import IRI, Literal
from repro.resilience.admission import AdmissionController
from repro.sparql import CompileOptions, QueryBudget, evaluate
from repro.sparql.algebra import JoinOp, ScanOp
from repro.sparql.dist import (
    DistRuntime,
    Exchange,
    PartialResult,
    PartitionedTripleStore,
    RangePartitioner,
    ShuffleStore,
    bucket_codes,
    build_plan,
    estimate_rows,
    plan_shape,
)
from repro.soaks.dist import QUERY_POOL, DistSoakConfig
from repro.soaks.dist import build_graph as soak_graph
from repro.sparql.ast import Variable
from repro.sparql.evaluator import _EMPTY_REGISTRY
from repro.sparql.parser import parse_query
from repro.sparql.vector.engine import compile_vector_plan, execute_tree
from repro.sparql.vector.ops import scan_batch

from tests.sparql.test_engine_equivalence import (
    PREFIX,
    aggregate_queries,
    correlated_selects,
    dense_graphs,
    graphs,
    select_queries,
)
from tests.sparql.test_vector_kernels import bench_store


def build_graph(n=300, subjects=60):
    graph = Graph()
    for i in range(n):
        s = IRI(f"http://ex/s{i % subjects}")
        graph.add(s, IRI("http://ex/p"), Literal(str(i)))
        graph.add(s, IRI("http://ex/type"), IRI(f"http://ex/C{i % 3}"))
        if i % 2 == 0:
            graph.add(s, IRI("http://ex/q"), IRI(f"http://ex/s{(i + 1) % subjects}"))
    return graph


def canonical(rows):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in row.items())) for row in rows
    )


def run_dist(graph, text, runtime, budget=None):
    assert runtime.graph is graph
    return runtime.query(text, budget=budget)


def run_vector(graph, text):
    return evaluate(graph, text, options=CompileOptions(engine="vector"))


class TestRangePartitioner:
    def test_every_id_has_exactly_one_partition(self):
        partitioner = RangePartitioner(term_count=97, partitions=4)
        pids = [partitioner.partition_of(i) for i in range(97)]
        assert set(pids) <= {0, 1, 2, 3}
        assert pids == sorted(pids)  # ranges are contiguous and ordered
        cuts = np.searchsorted(pids, np.arange(5)).tolist()
        assert cuts == partitioner.bounds()[:4] + [97]

    @pytest.mark.parametrize("term_count,partitions", [(97, 4), (10, 4), (3, 8), (64, 8), (1, 1)])
    def test_bounds_hold_exactly_the_ids_of_each_partition(self, term_count, partitions):
        partitioner = RangePartitioner(term_count, partitions)
        bounds = partitioner.bounds()
        assert len(bounds) == partitions + 1 and bounds[0] == 0
        for subject_id in range(term_count + 5):
            pid = partitioner.partition_of(subject_id)
            assert bounds[pid] <= subject_id < bounds[pid + 1]

    def test_out_of_span_ids_clamp(self):
        partitioner = RangePartitioner(term_count=10, partitions=4)
        assert partitioner.partition_of(-5) == 0
        assert partitioner.partition_of(10_000) == 3

    def test_validation(self):
        with pytest.raises(SPARQLError):
            RangePartitioner(term_count=10, partitions=0)


class TestPartitionedStore:
    def test_fragments_are_disjoint_cover(self):
        graph = build_graph()
        store = PartitionedTripleStore(
            graph, ClusterSpec(node_count=4), partitions=4, replication=2
        )
        pattern = parse_query(
            "SELECT * WHERE { ?s <http://ex/p> ?v }"
        ).where.children[0].patterns[0]
        whole = scan_batch(graph, pattern)
        parts = [
            scan_batch(graph, pattern, store.subject_range(pid)) for pid in range(4)
        ]
        assert sum(p.nrows for p in parts) == whole.nrows
        # Disjoint: each subject id appears in exactly one partition.
        seen = {}
        for pid, part in enumerate(parts):
            for variable, column in part.columns.items():
                if variable.name != "s":
                    continue
                for sid in np.unique(column):
                    assert seen.setdefault(int(sid), pid) == pid

    def test_constant_subject_pins_one_partition(self):
        graph = build_graph()
        store = PartitionedTripleStore(
            graph, ClusterSpec(node_count=4), partitions=4, replication=2
        )
        pattern = parse_query(
            "SELECT * WHERE { <http://ex/s7> <http://ex/p> ?v }"
        ).where.children[0].patterns[0]
        (pid,) = store.partitions_of(pattern.subject)
        rows = [
            scan_batch(graph, pattern, store.subject_range(p)).nrows
            for p in range(4)
        ]
        assert rows[pid] == sum(rows) == scan_batch(graph, pattern).nrows > 0
        unknown = parse_query(
            "SELECT * WHERE { <http://nowhere/x> <http://ex/p> ?v }"
        ).where.children[0].patterns[0]
        assert store.partitions_of(unknown.subject) == []

    def test_sync_tracks_graph_version(self):
        graph = build_graph(n=10)
        store = PartitionedTripleStore(
            graph, ClusterSpec(node_count=4), partitions=2, replication=1
        )
        before = sum(store.partition_rows(p) for p in range(2))
        graph.add(IRI("http://ex/new"), IRI("http://ex/p"), Literal("z"))
        store.sync()
        assert sum(store.partition_rows(p) for p in range(2)) == before + 1

    def test_replication_validation(self):
        graph = build_graph(n=10)
        with pytest.raises(SPARQLError):
            PartitionedTripleStore(
                graph, ClusterSpec(node_count=2), partitions=2, replication=3
            )


def vector_tree(graph, text):
    return compile_vector_plan(
        parse_query(text).where, graph, CompileOptions(engine="vector")
    )


def shape_of(graph, text, threshold=64.0):
    return plan_shape(build_plan(vector_tree(graph, text), graph, threshold, 4))


class TestPlanShapes:
    def test_scan_and_map(self):
        """A FILTER rides inside its scan's stage: no map stage."""
        graph = build_graph()
        assert shape_of(graph, "SELECT * WHERE { ?s <http://ex/p> ?v }") == "scan"
        shape = shape_of(
            graph,
            "SELECT * WHERE { ?s <http://ex/p> ?v FILTER(?v != 3) }",
        )
        assert shape == "stage[?s]"

    def test_join_is_shuffle_above_threshold(self):
        """An object-key join is not co-located: it shuffles above the
        threshold and gathers its small side below it."""
        graph = build_graph()
        text = "SELECT * WHERE { ?a <http://ex/q> ?b . ?b <http://ex/type> ?c }"
        assert shape_of(graph, text, threshold=1.0) == "shuffle[?b](scan, scan)"
        assert shape_of(graph, text, threshold=1e9) == "stage[?b](scan)"

    def test_optional_always_broadcasts(self):
        """An OPTIONAL off the subject key broadcasts its optional side
        whatever its size: padding needs the whole right relation."""
        graph = build_graph()
        text = (
            "SELECT * WHERE { ?s <http://ex/q> ?o "
            "OPTIONAL { ?o <http://ex/p> ?v } }"
        )
        assert shape_of(graph, text, threshold=1.0) == "bcast-outer(scan, scan)"
        assert shape_of(graph, text, threshold=1e9) == "stage[?s](scan)"

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 64.0, 1e9])
    def test_subject_star_is_one_stage_at_every_threshold(self, threshold):
        graph = build_graph()
        text = (
            "SELECT * WHERE { ?s <http://ex/p> ?v . ?s <http://ex/type> ?t . "
            "?s <http://ex/q> ?o FILTER(?v != 3) BIND(?t AS ?u) }"
        )
        assert shape_of(graph, text, threshold) == "stage[?s]"

    def test_colocated_optional_pads_exactly(self):
        graph = build_graph()
        text = (
            "SELECT ?s ?v ?o WHERE { ?s <http://ex/p> ?v "
            "OPTIONAL { ?s <http://ex/q> ?o } }"
        )
        assert shape_of(graph, text, threshold=1.0) == "stage[?s]"
        runtime = DistRuntime(
            graph, partitions=4, replication=2, broadcast_threshold_rows=1.0
        )
        rows = run_dist(graph, text, runtime)
        assert canonical(rows) == canonical(run_vector(graph, text))
        padded = [row for row in rows if Variable("o") not in row]
        assert 0 < len(padded) < len(rows)
        counters = runtime.last_report.counters
        assert counters["dist.colocated_joins"] == 1
        assert "dist.broadcast_joins" not in counters

    def test_constant_subject_join_is_one_task_on_its_partition(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        subject = IRI("http://ex/s7")
        text = (
            f"SELECT ?v ?t WHERE {{ {subject.n3()} <http://ex/p> ?v . "
            f"{subject.n3()} <http://ex/type> ?t }}"
        )
        assert shape_of(graph, text) == f"stage[{subject.n3()}]"
        assert canonical(run_dist(graph, text, runtime)) == canonical(
            run_vector(graph, text)
        )
        report = runtime.last_report
        assert report.tasks_completed == 1
        assert report.locality_rate == 1.0  # on a node holding the partition

    def test_uninterned_constant_subject_runs_no_task(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        text = (
            "SELECT ?v ?t WHERE { <http://nowhere/x> <http://ex/p> ?v . "
            "<http://nowhere/x> <http://ex/type> ?t }"
        )
        assert run_dist(graph, text, runtime) == []
        assert runtime.last_report.tasks_completed == 0

    def test_union_concatenates(self):
        graph = build_graph()
        shape = shape_of(
            graph,
            "SELECT * WHERE { { ?s <http://ex/p> ?v } "
            "UNION { ?s <http://ex/q> ?v } }",
        )
        assert shape == "union(scan, scan)"

    def test_values_runs_local(self):
        graph = build_graph()
        shape = shape_of(
            graph,
            "SELECT * WHERE { VALUES ?s { <http://ex/s1> } "
            "?s <http://ex/p> ?v }",
            threshold=1.0,
        )
        # The VALUES table is tiny: it is the broadcast (or local) side,
        # never a shuffle key source (its ?s could be UNDEF in general).
        assert "shuffle" not in shape


class TestPlanPins:
    """Plans recorded before the planner moved to stages and exchanges; a
    refactor of the planner or of ``plan_shape`` must reproduce them."""

    #: E25's ``QUERY_POOL`` on the soak graph, at thresholds 1.0 and 64.0.
    POOL = (
        ("scan", "scan"),
        ("scan", "scan"),
        ("stage[?s]", "stage[?s]"),
        ("shuffle[?b](scan, scan)", "stage[?b](scan)"),
        (
            "shuffle[?c](shuffle[?b](scan, scan), scan)",
            "stage[?c](stage[?a](scan))",
        ),
        ("stage[?s]", "stage[?s]"),
        ("union(scan, scan)", "union(scan, scan)"),
        ("stage[?s]", "stage[?s]"),
        ("stage[?s]", "stage[?s]"),
        ("scan", "scan"),
        ("scan", "scan"),
        ("scan", "scan"),
    )

    #: The ``sparql_dist`` shapes on ``bench_store(500)`` at 1, 64 and 1e9.
    BENCH = {
        "join5": (
            "shuffle[?s](shuffle[?p](shuffle[?p](shuffle[?c](scan, scan), "
            "stage[?p]), scan), scan)",
            "stage[?p](scan, scan)",
            "stage[?p](scan, scan)",
        ),
        "group": ("stage[?p]", "stage[?p]", "stage[?p]"),
        "topk": ("stage[?p]", "stage[?p]", "stage[?p]"),
        "lookup": ("stage[<http://ex.org/prod82>]",) * 3,
        "optional": ("local[LeftJoinOp]",) * 3,
    }

    def test_soak_pool(self):
        graph = soak_graph(DistSoakConfig())
        assert len(QUERY_POOL) == len(self.POOL)
        for text, pinned in zip(QUERY_POOL, self.POOL):
            shapes = tuple(shape_of(graph, text, t) for t in (1.0, 64.0))
            assert shapes == pinned, text

    def test_bench_shapes(self):
        store, texts = bench_store(500)
        for name, pinned in self.BENCH.items():
            shapes = tuple(
                shape_of(store.graph, texts[name], t) for t in (1.0, 64.0, 1e9)
            )
            assert shapes == pinned, name


def algebra_children(op):
    for name in ("left", "right", "operand"):
        if hasattr(op, name):
            yield getattr(op, name)
    yield from getattr(op, "operands", ())


def assert_inputs_planted(stage):
    """Every input's ``stage.op`` sits inside ``stage.op`` by identity, and
    not inside another input's: a task plants its inputs by ``id``, so an
    operator the planner copied would silently run instead of being
    planted. A UNION runs no task and plants nothing (a FILTER or BIND
    above it is copied into each branch), so only its branches recurse."""
    if stage.kinds != {"split"}:
        wanted = {id(exchange.stage.op) for exchange in stage.inputs}
        found = []
        pending = [stage.op]
        while pending:
            op = pending.pop()
            if id(op) in wanted:
                found.append(id(op))
            else:
                pending += algebra_children(op)
        assert sorted(found) == sorted(wanted), plan_shape(stage)
    for exchange in stage.inputs:
        assert isinstance(exchange, Exchange)
        assert exchange.kind in ("gather", "split", "shuffle")
        assert_inputs_planted(exchange.stage)


@given(
    graph=graphs | dense_graphs,
    query=st.one_of(select_queries(), correlated_selects(), aggregate_queries()),
    threshold=st.sampled_from([0.0, 1.0, 4.0, 64.0, 1e9]),
)
@settings(max_examples=60, deadline=None)
def test_exchange_inputs_are_planted_by_identity(graph, query, threshold):
    tree = vector_tree(graph, PREFIX + query)
    assert_inputs_planted(build_plan(tree, graph, threshold, 4))


class TestBucketCodes:
    def test_deterministic_and_in_range(self):
        matrix = np.arange(60, dtype=np.int64).reshape(20, 3)
        a = bucket_codes(matrix, 7)
        b = bucket_codes(matrix.copy(), 7)
        assert (a == b).all()
        assert a.min() >= 0 and a.max() < 7

    def test_row_order_independent(self):
        matrix = np.arange(40, dtype=np.int64).reshape(20, 2)
        shuffled = matrix[::-1]
        assert (bucket_codes(matrix, 5)[::-1] == bucket_codes(shuffled, 5)).all()


class TestShuffleStore:
    def test_first_write_wins(self):
        store = ShuffleStore()
        assert store.publish(("a", 0), 1) is True
        assert store.publish(("a", 0), 2) is False
        assert store.get(("a", 0)) == 1
        assert store.publishes == 1
        assert store.duplicate_publishes == 1
        store.register_duplicate(("a", 0))
        assert store.duplicate_publishes == 2


class TestDistExecution:
    QUERIES = [
        "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }",
        "SELECT ?s ?v ?t WHERE { ?s <http://ex/p> ?v . ?s <http://ex/type> ?t }",
        "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v FILTER(?v != 3) }",
        "SELECT ?s ?w WHERE { ?s <http://ex/p> ?v BIND(?v AS ?w) }",
        "SELECT ?s WHERE { { ?s <http://ex/q> ?o } UNION "
        "{ ?s <http://ex/type> <http://ex/C1> } }",
        "SELECT ?s ?v ?o WHERE { ?s <http://ex/p> ?v "
        "OPTIONAL { ?s <http://ex/q> ?o } }",
        "SELECT (COUNT(?v) AS ?n) WHERE { ?s <http://ex/p> ?v }",
        "SELECT ?x WHERE { <http://nowhere/z> <http://ex/p> ?x }",
    ]

    @pytest.mark.parametrize("partitions,replication", [(1, 1), (4, 2), (7, 3)])
    def test_parity_across_layouts(self, partitions, replication):
        graph = build_graph()
        runtime = DistRuntime(
            graph, partitions=partitions, replication=replication
        )
        for text in self.QUERIES:
            assert canonical(run_dist(graph, text, runtime)) == canonical(
                run_vector(graph, text)
            ), text

    def test_shuffle_path_parity(self):
        graph = build_graph()
        runtime = DistRuntime(
            graph, partitions=4, replication=2, broadcast_threshold_rows=1.0
        )
        text = (
            "SELECT ?a ?b ?c WHERE { ?a <http://ex/q> ?b . "
            "?b <http://ex/type> ?c }"
        )
        assert canonical(run_dist(graph, text, runtime)) == canonical(
            run_vector(graph, text)
        )
        assert runtime.last_report.counters.get("dist.shuffle_joins") == 1

    def test_ask_queries(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        assert run_dist(graph, "ASK { ?s <http://ex/p> ?v }", runtime) is True
        assert (
            run_dist(graph, "ASK { ?s <http://nowhere/p> ?v }", runtime) is False
        )

    def test_empty_graph(self):
        graph = Graph()
        runtime = DistRuntime(graph, partitions=4, replication=1)
        assert run_dist(graph, "SELECT * WHERE { ?s ?p ?o }", runtime) == []

    def test_requires_runtime(self):
        """The distributed engine is entered through its runtime; it is not
        a label a caller can select without one."""
        with pytest.raises(SPARQLError, match="unknown engine 'dist'"):
            CompileOptions(engine="dist")

    def test_options_engine_label_is_ignored(self):
        """The runtime is the engine: whatever label the options carry, the
        query runs distributed, on cost-ordered vector plans."""
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        text = self.QUERIES[1]
        reports = []
        for options in (None, CompileOptions(), CompileOptions(engine="vector")):
            rows = runtime.query(text, options=options)
            assert canonical(rows) == canonical(run_vector(graph, text))
            reports.append(runtime.last_report)
        assert len({r.tasks_completed for r in reports}) == 1
        assert len({r.makespan_s for r in reports}) == 1

    def test_graph_mutation_resyncs(self):
        graph = build_graph(n=20)
        runtime = DistRuntime(graph, partitions=4, replication=2)
        text = "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }"
        before = len(run_dist(graph, text, runtime))
        graph.add(IRI("http://ex/added"), IRI("http://ex/p"), Literal("new"))
        assert len(run_dist(graph, text, runtime)) == before + 1

    def test_locality_dominates_clean_runs(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        run_dist(graph, "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }", runtime)
        assert runtime.last_report.locality_rate >= 0.75


class TestReplicaFailover:
    TEXT = "SELECT ?s ?v ?t WHERE { ?s <http://ex/p> ?v . ?s <http://ex/type> ?t }"

    def loss_plan(self, *node_ids, at_s=0.0):
        return FaultPlan(
            node_losses=tuple(NodeLoss(node_id=n, at_s=at_s) for n in node_ids)
        )

    def test_replicated_store_survives_node_loss(self):
        graph = build_graph()
        expected = canonical(run_vector(graph, self.TEXT))
        runtime = DistRuntime(graph, partitions=4, replication=2)
        runtime.injector = FaultInjector(self.loss_plan(0))
        assert canonical(run_dist(graph, self.TEXT, runtime)) == expected

    def test_unreplicated_store_raises_typed_error(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=1)
        runtime.injector = FaultInjector(self.loss_plan(0))
        with pytest.raises(PartitionUnavailable) as excinfo:
            run_dist(graph, self.TEXT, runtime)
        assert excinfo.value.retryable
        assert excinfo.value.partition is not None

    def test_partial_result_requires_opt_in(self):
        graph = build_graph()
        full = run_vector(graph, self.TEXT)
        runtime = DistRuntime(
            graph, partitions=4, replication=1, allow_partial=True
        )
        runtime.injector = FaultInjector(self.loss_plan(0))
        result = run_dist(graph, self.TEXT, runtime)
        assert isinstance(result, PartialResult)
        assert result.complete is False
        assert result.missing_partitions
        assert len(result) < len(full)
        # Every returned row is a true row of the full answer.
        full_set = set(canonical(full))
        assert set(canonical(result)) <= full_set

    def test_ask_refuses_inconclusive_partial(self):
        graph = build_graph()
        runtime = DistRuntime(
            graph, partitions=4, replication=1, allow_partial=True
        )
        runtime.injector = FaultInjector(self.loss_plan(0, 1, 2, 3))
        with pytest.raises(PartitionUnavailable):
            run_dist(graph, "ASK { ?s <http://nowhere/p> ?v }", runtime)


class TestStageFaultsAndIds:
    """Failover, typed loss, partial results, budget kills and computed
    term ids inside a fused stage: one task per partition runs the whole
    subject-star join."""

    TEXT = TestReplicaFailover.TEXT

    def runtime(self, graph, lost, **kwargs):
        # One slot per node and ~30 ms stage tasks: a loss at 5 ms strikes
        # mid-stage, and the retried task cannot wait out the surviving
        # replica's busy slot.
        runtime = DistRuntime(
            graph,
            spec=ClusterSpec(node_count=4, cpu_slots_per_node=1),
            partitions=4,
            replication=2,
            row_cost_s=1e-4,
            **kwargs,
        )
        runtime.injector = FaultInjector(
            FaultPlan(
                node_losses=tuple(NodeLoss(node_id=n, at_s=0.005) for n in lost)
            )
        )
        return runtime

    def lost_partition(self, runtime, lost):
        placement = runtime.store.place(Scheduler(runtime.spec).nodes)
        (pid,) = [p for p, owners in placement.items() if set(owners) <= set(lost)]
        return pid

    def test_one_replica_lost_mid_stage_reads_a_survivor(self):
        graph = build_graph()
        runtime = self.runtime(graph, lost=(0,))
        assert canonical(run_dist(graph, self.TEXT, runtime)) == canonical(
            run_vector(graph, self.TEXT)
        )
        counters = runtime.last_report.counters
        assert counters["dist.scan_stages"] == 1
        assert counters["dist.remote_reads"] > 0

    def test_every_replica_lost_names_that_partition(self):
        graph = build_graph()
        runtime = self.runtime(graph, lost=(0, 1))
        with pytest.raises(PartitionUnavailable) as excinfo:
            run_dist(graph, self.TEXT, runtime)
        assert excinfo.value.partition == self.lost_partition(runtime, (0, 1))
        report = runtime.last_report
        assert report.tickets_issued == report.tickets_released

    def test_partial_result_misses_exactly_that_partition(self):
        graph = build_graph()
        runtime = self.runtime(graph, lost=(0, 1), allow_partial=True)
        result = run_dist(graph, self.TEXT, runtime)
        pid = self.lost_partition(runtime, (0, 1))
        assert isinstance(result, PartialResult)
        assert result.missing_partitions == (pid,)
        owner = runtime.store.partitioner.partition_of
        kept = [
            row
            for row in run_vector(graph, self.TEXT)
            if owner(graph.term_id(row[Variable("s")])) != pid
        ]
        assert 0 < len(kept) and canonical(result) == canonical(kept)

    def test_budget_kill_inside_a_stage_releases_every_ticket(self):
        graph = build_graph()
        admission = AdmissionController(max_in_flight=256, max_queue=256)
        runtime = DistRuntime(
            graph, partitions=4, replication=2, admission=admission
        )
        with pytest.raises(QueryBudgetExceeded):
            run_dist(graph, self.TEXT, runtime, budget=QueryBudget(max_rows=50))
        report = runtime.last_report
        assert report.counters["dist.scan_stages"] == 1
        assert report.counters["dist.aborts"] == 1
        assert report.tickets_issued == report.tickets_released > 0
        assert admission._in_flight == 0

    def test_bind_computed_key_has_one_id_across_partitions(self):
        """Every partition computes the same three literals, none of them in
        the graph; grouping on them is right only if all tasks share the
        query's encoder."""
        graph = build_graph()
        text = (
            "SELECT ?k (COUNT(?s) AS ?n) WHERE { ?s <http://ex/type> ?t "
            "BIND(UCASE(STR(?t)) AS ?k) } GROUP BY ?k"
        )
        runtime = DistRuntime(graph, partitions=4, replication=2)
        rows = run_dist(graph, text, runtime)
        assert canonical(rows) == canonical(run_vector(graph, text))
        assert len(rows) == 3
        assert runtime.last_report.counters["dist.scan_stages"] == 1
        assert runtime.last_report.tasks_completed == 4


def algebra_subtrees(op):
    yield op
    for name in ("left", "right", "operand"):
        if hasattr(op, name):
            yield from algebra_subtrees(getattr(op, name))
    for operand in getattr(op, "operands", ()):
        yield from algebra_subtrees(operand)


def gathered_sides(stage):
    """Every stage whose relation is gathered whole and shipped."""
    for exchange in stage.inputs:
        if exchange.kind == "gather":
            yield exchange.stage
        yield from gathered_sides(exchange.stage)


class TestBenchShapes:
    """The bench's ``sparql_dist`` shapes on its product graph, small."""

    #: (tasks_completed, bytes_transferred) at 8 partitions x 2 replicas.
    COSTS = {
        "join5": (24, 14528.0),
        "group": (8, 12000.0),
        "topk": (8, 600.0),
        "lookup": (1, 16.0),
        "optional": (1, 240.0),
    }

    def test_dist_cost_pin(self):
        store, texts = bench_store(500)  # 2k triples
        runtime = DistRuntime(store.graph, partitions=8, replication=2)
        for shape, cost in self.COSTS.items():
            rows = runtime.query(texts[shape], store.registry)
            assert canonical(rows) == canonical(
                evaluate(
                    store.graph,
                    texts[shape],
                    store.registry,
                    options=CompileOptions(engine="vector"),
                )
            ), shape
            report = runtime.last_report
            assert (report.tasks_completed, report.bytes_transferred) == cost, shape

    def test_key_join_estimate_is_never_the_gathered_side(self):
        """``?c ex:region ?r . ?p ex:cat ?c`` joins 20 regions to every
        product: estimated at left*right/|G| it looked tiny and was shipped
        to every task."""
        store, texts = bench_store(500)
        graph = store.graph
        tree = compile_vector_plan(
            parse_query(texts["join5"]).where, graph, CompileOptions(engine="vector")
        )
        (subtree,) = [
            op
            for op in algebra_subtrees(tree)
            if isinstance(op, JoinOp)
            and isinstance(op.left, ScanOp)
            and isinstance(op.right, ScanOp)
            and {op.left.pattern.predicate.value, op.right.pattern.predicate.value}
            == {"http://ex.org/region", "http://ex.org/cat"}
        ]
        real = execute_tree(subtree, graph, store.registry)[0].nrows
        assert real == 500
        assert estimate_rows(subtree, graph) >= real
        for threshold in (1.0, 64.0, 1e9):
            plan = build_plan(tree, graph, threshold, 8)
            for side in gathered_sides(plan):
                assert all(op is not subtree for op in algebra_subtrees(side.op))


class TestBudgetIntegration:
    TEXT = "SELECT ?s ?v ?t WHERE { ?s <http://ex/p> ?v . ?s <http://ex/type> ?t }"

    def test_budget_kill_cancels_dag(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        with pytest.raises(QueryBudgetExceeded):
            run_dist(graph, self.TEXT, runtime, budget=QueryBudget(max_rows=50))
        report = runtime.last_report
        assert report.tickets_issued == report.tickets_released
        assert report.counters.get("dist.aborts") == 1

    def test_budget_kill_releases_admission_exactly_once(self):
        graph = build_graph()
        admission = AdmissionController(max_in_flight=256, max_queue=256)
        runtime = DistRuntime(
            graph, partitions=4, replication=2, admission=admission
        )
        with pytest.raises(QueryBudgetExceeded):
            run_dist(graph, self.TEXT, runtime, budget=QueryBudget(max_rows=50))
        report = runtime.last_report
        assert report.tickets_issued > 0
        assert report.tickets_issued == report.tickets_released
        assert admission._in_flight == 0
        # And the runtime is reusable afterwards: clean run, clean audit.
        rows = run_dist(graph, self.TEXT, runtime)
        assert len(rows) == len(run_vector(graph, self.TEXT))
        report = runtime.last_report
        assert report.tickets_issued == report.tickets_released
        assert admission._in_flight == 0

    def test_generous_budget_unchanged_result(self):
        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        governed = run_dist(
            graph, self.TEXT, runtime, budget=QueryBudget(max_rows=1_000_000)
        )
        assert canonical(governed) == canonical(run_vector(graph, self.TEXT))


class TestIdempotentCommit:
    def test_injected_failures_never_double_count(self):
        """Zombie attempts commit, die unreported, and get re-executed: the
        first-write-wins store must keep the answer an exact multiset."""
        graph = build_graph()
        text = (
            "SELECT ?s ?v ?t WHERE { ?s <http://ex/p> ?v . "
            "?s <http://ex/type> ?t }"
        )
        expected = canonical(run_vector(graph, text))
        runtime = DistRuntime(
            graph, partitions=4, replication=2, broadcast_threshold_rows=1.0
        )
        duplicates = 0
        for seed in range(8):
            runtime.injector = FaultInjector(
                FaultPlan.chaos(
                    seed=seed,
                    node_count=4,
                    task_failure_rate=0.3,
                    straggler_prob=0.3,
                    horizon_s=0.01,
                )
            )
            assert canonical(run_dist(graph, text, runtime)) == expected
            report = runtime.last_report
            duplicates += report.duplicate_publishes
            assert report.tickets_issued == report.tickets_released
        # With a 30% per-attempt failure rate the retried attempts MUST have
        # hit the duplicate-commit path somewhere across eight runs.
        assert duplicates > 0


class TestCacheKeyStability:
    def test_dist_field_is_not_plan_state(self):
        """A runtime cannot ride on the options object (which is the plan
        cache key): the old spelling is a constructor error, not a silently
        different engine."""
        runtime = DistRuntime(build_graph(n=10))
        with pytest.raises(TypeError):
            CompileOptions(dist=runtime)

    def test_engines_do_not_share_cache_keys(self):
        from repro.cache import PlanCache

        graph = build_graph(n=10)
        runtime = DistRuntime(graph, partitions=2, replication=1)
        cache = PlanCache()
        text = "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }"
        evaluate(graph, text, options=CompileOptions(), cache=cache)
        evaluate(graph, text, options=CompileOptions(engine="vector"), cache=cache)
        runtime.query(text, cache=cache)
        assert cache.stats["plans"]["misses"] == 3
        assert cache.stats["plans"]["hits"] == 0


class TestGatewayIntegration:
    def test_dist_backend_round_trip(self):
        from repro.serving import DistBackend, Gateway, TenantConfig

        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=2)
        gateway = Gateway(DistBackend(graph, runtime))
        gateway.register_tenant(TenantConfig(name="a", api_key="key-a"))
        text = "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }"
        rows = gateway.query("key-a", text, kind="sparql")
        assert canonical(rows) == canonical(run_vector(graph, text))
        gateway.assert_drained()

    def test_partition_unavailable_sheds(self):
        from repro.serving import DistBackend, Gateway, TenantConfig

        graph = build_graph()
        runtime = DistRuntime(graph, partitions=4, replication=1)
        runtime.injector = FaultInjector(
            FaultPlan(node_losses=(NodeLoss(node_id=0, at_s=0.0),))
        )
        gateway = Gateway(DistBackend(graph, runtime))
        gateway.register_tenant(TenantConfig(name="a", api_key="key-a"))
        with pytest.raises(Shed) as excinfo:
            gateway.query(
                "key-a",
                "SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }",
                kind="sparql",
            )
        assert excinfo.value.reason == "partition_unavailable"
        assert excinfo.value.retryable
        gateway.assert_drained()
