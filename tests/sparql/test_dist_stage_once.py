"""A keyed dist stage computes once (E25).

A keyed stage's operator tree runs once, over the subject range of every
partition its key reaches, and each partition task commits its cut of that
run. The oracle is the computation the cut replaces: the stage's ``op`` run
over one partition's subject range alone, with the same planted inputs and
the query's encoder as it stood before the stage ran. Every committed
fragment must equal it: the same columns, the same id in every graph-term
cell, the same decoded rows, in the same order.

The oracle runs on a copy of the encoder. A term a BIND computes gets its id
when the stage first meets it: now in the stage's row order, as the
single-process vector engine does, where one task per partition minted it in
whichever order the tasks happened to finish. ``TestComputedTerms`` pins the
new order through ``finish_select``.
"""

import copy
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.sparql_workloads import product_triples, shape_texts
from repro.cluster import ClusterSpec
from repro.errors import ClusterError, PartitionUnavailable, SPARQLError
from repro.faults import FaultInjector, FaultPlan, NodeLoss
from repro.geosparql import GeoStore
from repro.sparql import CompileOptions, evaluate
from repro.sparql.algebra import ExtendOp, JoinOp
from repro.sparql.dist import DistRuntime, PartialResult, build_plan
from repro.sparql.dist import engine as dist_engine
from repro.sparql.dist.engine import _DistRun
from repro.sparql.vector.engine import _execute, compile_vector_plan
from repro.sparql.parser import parse_query

from tests.sparql.test_dist_equivalence import layouts
from tests.sparql.test_engine_equivalence import (
    PREFIX,
    aggregate_queries,
    canonical,
    correlated_selects,
    dense_graphs,
    graphs,
    select_queries,
    where_clauses,
)

VECTOR = CompileOptions(engine="vector")
_RUN_KEYED = _DistRun._run_keyed


def per_partition(ctx, store, stage, planted, pids):
    """The oracle: each partition's fragment, the stage's ``op`` run with
    *ctx* over that partition's subject range alone."""
    return {
        pid: _execute(stage.op, ctx.reading(store.subject_range(pid), planted))
        for pid in pids
    }


def encoder_copy(encoder):
    twin = copy.copy(encoder)
    twin._local_ids = dict(encoder._local_ids)
    twin._local_terms = list(encoder._local_terms)
    return twin


def assert_same_fragment(got, got_encoder, want, want_encoder):
    assert list(got.columns) == list(want.columns)
    assert got.nrows == want.nrows
    base = want_encoder.base
    for variable, column in want.columns.items():
        ids = got.columns[variable]
        graph_cells = column < base
        assert np.array_equal(ids[graph_cells], column[graph_cells]), variable
        assert got_encoder.decode_column(ids) == want_encoder.decode_column(column)


@contextmanager
def checked_stages():
    """Every keyed stage run in the block is checked against the oracle;
    yields the list of checked stages' ``op``s."""
    checked = []

    def run_keyed(run, stage, planted, pids):
        # The oracle runs ungoverned and on its own encoder, so the run it
        # checks sees the same budget and ids as an unchecked one.
        oracle = run.ctx.reading(None, planted)
        oracle.budget = None
        oracle.encoder = oracle_encoder = encoder_copy(run.ctx.encoder)
        try:
            want = per_partition(oracle, run.store, stage, planted, pids)
        except SPARQLError as error:  # e.g. a BIND rebinding a variable
            with pytest.raises(type(error)):
                _RUN_KEYED(run, stage, planted, pids)
            raise
        got = _RUN_KEYED(run, stage, planted, pids)
        assert list(got) == list(pids)
        for pid in pids:
            assert_same_fragment(got[pid], run.ctx.encoder, want[pid], oracle_encoder)
        checked.append(stage.op)
        return got

    with mock.patch.object(_DistRun, "_run_keyed", run_keyed):
        yield checked


@contextmanager
def per_partition_stages():
    """Keyed stages computed as one run per partition, in partition order:
    the computation a single run replaced."""

    def run_keyed(run, stage, planted, pids):
        return per_partition(run.ctx, run.store, stage, planted, pids)

    with mock.patch.object(_DistRun, "_run_keyed", run_keyed):
        yield


@pytest.fixture(scope="module")
def bench():
    rng = random.Random(11)
    store = GeoStore()
    store.bulk_load(product_triples(rng, 500, 400))
    return store, shape_texts(rng, 500)


#: Keyed stages per bench shape: join5 gathers two keyed scans into its
#: stage, and OPTIONAL runs on the driver.
KEYED_STAGES = {"join5": 3, "group": 1, "topk": 1, "lookup": 1, "optional": 0, "spatial": 1}


def keyed_ops(tree, graph, partitions=8):
    """The ``op`` of every keyed stage of *tree*'s plan."""
    pending = [build_plan(tree, graph, 64.0, partitions)]
    while pending:
        stage = pending.pop()
        if stage.key is not None:
            yield stage.op
        pending += [exchange.stage for exchange in stage.inputs]


class TestFragmentsEqualTheOracle:
    @pytest.mark.parametrize("shape", sorted(KEYED_STAGES))
    def test_bench_shapes(self, bench, shape):
        store, texts = bench
        runtime = DistRuntime(store.graph, partitions=8, replication=2)
        with checked_stages() as checked:
            rows = runtime.query(texts[shape], store.registry)
        tree = compile_vector_plan(parse_query(texts[shape]).where, store.graph, VECTOR)
        assert len(checked) == len(list(keyed_ops(tree, store.graph)))
        assert len(checked) == KEYED_STAGES[shape]
        with per_partition_stages():
            assert rows == runtime.query(texts[shape], store.registry)

    @given(
        graph=graphs | dense_graphs,
        query=st.one_of(
            select_queries(),
            aggregate_queries(),
            correlated_selects(),
            where_clauses().map(lambda where: f"ASK {{ {where} }}"),
        ),
        layout=layouts,
        seed=st.none() | st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_strategies(self, graph, query, layout, seed):
        partitions, replication, threshold = layout
        runtime = DistRuntime(
            graph,
            partitions=partitions,
            replication=replication,
            broadcast_threshold_rows=threshold,
        )
        if seed is not None:
            runtime.injector = FaultInjector(FaultPlan.chaos(
                seed=seed,
                node_count=4,
                node_crash_prob=0.25,
                straggler_prob=0.3,
                task_failure_rate=0.15,
                node_loss_prob=0.2,
                network_partition_prob=0.2,
                network_partition_duration_s=0.01,
                horizon_s=0.03,
            ))
        with checked_stages():
            try:
                runtime.query(PREFIX + query)
            except (PartitionUnavailable, ClusterError):
                assert seed is not None
            except SPARQLError:
                pass


class TestComputedTerms:
    #: Four categories lead the join; the BIND computes one new term per
    #: product, and the groups come out in their ids' order.
    TEXT = (
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?k (COUNT(*) AS ?n) WHERE { ?c ex:region ex:region1 . "
        "?p ex:cat ?c . ?p ex:price ?v . BIND(UCASE(STR(?p)) AS ?k) } "
        "GROUP BY ?k"
    )

    def test_the_gathered_side_leads_a_bind_stage(self, bench):
        store, _ = bench
        tree = compile_vector_plan(parse_query(self.TEXT).where, store.graph, VECTOR)
        plan = build_plan(tree, store.graph, 64.0, 8)
        assert isinstance(plan.op, ExtendOp) and plan.key is not None
        (gathered,) = plan.inputs
        join = plan.op.operand
        while isinstance(join.left, JoinOp):
            join = join.left
        assert join.left is gathered.stage.op

    def test_groups_follow_the_stage_row_order(self, bench):
        store, _ = bench
        vector = evaluate(store.graph, self.TEXT, store.registry, options=VECTOR)
        runtime = DistRuntime(store.graph, partitions=8, replication=2)
        with checked_stages() as checked:
            rows = runtime.query(self.TEXT, store.registry)
        # The gathered scan is a keyed stage of its own.
        assert len(checked) == 2 and len(rows) == 100
        # Ids minted in the stage's row order: the single process's groups,
        # in its order.
        assert rows == vector


class TestOncePerStage:
    #: Node 0 loses its replicas 12 ms in, so later tasks read a surviving
    #: replica; stragglers draw speculative twins and injected failures
    #: retry tasks.
    CHAOS = FaultPlan.chaos(
        seed=3,
        node_count=4,
        straggler_prob=0.5,
        task_failure_rate=0.3,
        node_loss_prob=0.3,
        horizon_s=0.05,
    )

    def test_each_keyed_tree_runs_at_most_once_under_chaos(self, bench):
        store, texts = bench
        assert self.CHAOS.node_losses
        totals = {"speculative": 0, "failures": 0, "remote_reads": 0}
        for shape in ("join5", "group", "topk", "lookup", "spatial"):
            runtime = DistRuntime(
                store.graph,
                spec=ClusterSpec(node_count=4, cpu_slots_per_node=2),
                partitions=8,
                replication=2,
                row_cost_s=1e-4,
            )
            runtime.injector = FaultInjector(self.CHAOS)
            runs, keyed = [], []

            def execute(op, ctx):
                runs.append(id(op))
                return _execute(op, ctx)

            def run_keyed(run, stage, planted, pids):
                keyed.append(id(stage.op))
                return _RUN_KEYED(run, stage, planted, pids)

            with mock.patch.object(dist_engine, "_execute", execute), \
                    mock.patch.object(_DistRun, "_run_keyed", run_keyed):
                rows = runtime.query(texts[shape], store.registry)
            vector = evaluate(store.graph, texts[shape], store.registry, options=VECTOR)
            assert canonical(rows) == canonical(vector), shape
            assert len(set(keyed)) == len(keyed) == KEYED_STAGES[shape]
            assert [runs.count(op) for op in keyed] == [1] * len(keyed), shape
            report = runtime.last_report
            totals["speculative"] += report.speculative_launches
            totals["failures"] += report.task_failures
            totals["remote_reads"] += report.counters.get("dist.remote_reads", 0)
        # The chaos reaches every path that runs a task's compute again.
        assert all(totals.values()), totals


class TestPartialResult:
    def test_a_lost_partition_commits_the_empty_fragment(self, bench):
        store, texts = bench

        def query():
            runtime = DistRuntime(
                store.graph,
                spec=ClusterSpec(node_count=4, cpu_slots_per_node=1),
                partitions=8,
                replication=2,
                row_cost_s=1e-4,
                allow_partial=True,
            )
            runtime.injector = FaultInjector(FaultPlan(
                node_losses=(NodeLoss(node_id=0, at_s=0.005),
                             NodeLoss(node_id=1, at_s=0.005)),
            ))
            return runtime.query(texts["group"], store.registry)

        got = query()
        with per_partition_stages():
            want = query()
        assert isinstance(got, PartialResult) and got.missing_partitions
        assert got.missing_partitions == want.missing_partitions
        assert list(got) == list(want) and len(got) > 0
