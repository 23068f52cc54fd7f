"""Property test: the distributed engine matches both single-process
engines — E25.

Reuses the E22 equivalence generators (random graphs, joins, OPTIONAL,
UNION, VALUES with UNDEF, error-producing FILTERs, BIND, DISTINCT,
aggregates) and adds the E25 degrees of freedom: partition count,
replication factor, broadcast-vs-shuffle threshold, and a seeded chaos
plan. Clean runs must agree exactly; chaotic runs must *either* agree
exactly or abort with a typed, retryable fault — a wrong answer is never
acceptable, and every run must release its admission tickets exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusterError, FaultError, PartitionUnavailable, SPARQLError
from repro.faults import FaultInjector, FaultPlan
from repro.sparql import CompileOptions, evaluate
from repro.sparql.dist import DistRuntime, PartialResult

from tests.sparql.test_engine_equivalence import (
    PREFIX,
    aggregate_queries,
    canonical,
    correlated_selects,
    dense_graphs,
    graphs,
    outcome,
    select_queries,
    where_clauses,
)

layouts = st.tuples(
    st.integers(min_value=1, max_value=6),  # partitions
    st.integers(min_value=1, max_value=3),  # replication
    st.sampled_from([1.0, 64.0]),           # broadcast threshold (rows)
)


def run_dist(graph, text, layout, injector=None, seed=0):
    partitions, replication, threshold = layout
    runtime = DistRuntime(
        graph,
        partitions=partitions,
        replication=replication,
        broadcast_threshold_rows=threshold,
    )
    runtime.injector = injector
    result = runtime.query(text)
    report = runtime.last_report
    assert report.tickets_issued == report.tickets_released, text
    return result


@given(graph=graphs, query=select_queries(), layout=layouts)
@settings(max_examples=120, deadline=None)
def test_select_multiset_equivalence(graph, query, layout):
    text = PREFIX + query
    interpreted = evaluate(graph, text, options=CompileOptions())
    vector = evaluate(graph, text, options=CompileOptions(engine="vector"))
    dist = run_dist(graph, text, layout)
    assert not isinstance(dist, PartialResult)
    assert canonical(dist) == canonical(vector) == canonical(interpreted), text


@given(graph=graphs, query=aggregate_queries(), layout=layouts)
@settings(max_examples=60, deadline=None)
def test_aggregate_multiset_equivalence(graph, query, layout):
    text = PREFIX + query
    vector = evaluate(graph, text, options=CompileOptions(engine="vector"))
    dist = run_dist(graph, text, layout)
    assert canonical(dist) == canonical(vector), text


@given(graph=graphs | dense_graphs, query=correlated_selects(), layout=layouts)
@settings(max_examples=80, deadline=None)
def test_correlated_multiset_equivalence(graph, query, layout):
    """Correlated OPTIONAL, FILTER and BIND groups: the dependent joins run
    as driver-side stages, the uncorrelated parts around them distributed."""
    text = PREFIX + query
    partitions, replication, threshold = layout
    runtime = DistRuntime(
        graph,
        partitions=partitions,
        replication=replication,
        broadcast_threshold_rows=threshold,
    )
    try:
        dist = canonical(runtime.query(text))
    except SPARQLError:
        dist = SPARQLError
    assert dist == outcome(graph, text, "vector"), text
    report = runtime.last_report
    assert report.tickets_issued == report.tickets_released, text


@given(graph=graphs, query=where_clauses(), layout=layouts)
@settings(max_examples=40, deadline=None)
def test_ask_equivalence(graph, query, layout):
    text = PREFIX + f"ASK {{ {query} }}"
    vector = evaluate(graph, text, options=CompileOptions(engine="vector"))
    assert run_dist(graph, text, layout) == vector, text


@given(
    graph=graphs,
    query=select_queries(),
    layout=layouts,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100, deadline=None)
def test_chaos_never_wrong(graph, query, layout, seed):
    """Under seeded crashes, losses, stragglers, injected task failures and
    network partitions: exact parity or a typed retryable abort — never a
    silently wrong or unflagged-partial answer."""
    text = PREFIX + query
    expected = canonical(
        evaluate(graph, text, options=CompileOptions(engine="vector"))
    )
    plan = FaultPlan.chaos(
        seed=seed,
        node_count=4,
        node_crash_prob=0.25,
        straggler_prob=0.3,
        task_failure_rate=0.15,
        node_loss_prob=0.2,
        network_partition_prob=0.2,
        network_partition_duration_s=0.01,
        horizon_s=0.03,
    )
    try:
        dist = run_dist(graph, text, layout, injector=FaultInjector(plan))
    except PartitionUnavailable as fault:
        assert fault.retryable
        return
    except ClusterError:
        # The run was stranded without a specific partition to blame
        # (e.g. every node died mid-flight): typed, diagnosable, acceptable.
        return
    assert not isinstance(dist, PartialResult)
    assert canonical(dist) == expected, (text, seed)
