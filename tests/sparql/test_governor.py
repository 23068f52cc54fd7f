"""The E23 query resource governor: budgets, cancellation, caps, parity.

Covers the :mod:`repro.sparql.governor` primitives, enforcement inside both
engines (row/byte caps, charge-driven deadlines, cooperative cancellation),
the disabled-path parity contract (``budget=None`` changes nothing; a budget
is an argument beside the compile options, never a field of them — the
plan-cache side is pinned in ``test_query_pipeline.py``), the
LIMIT-without-ORDER-BY
short-circuit (bounded work, pinned via the governor's own row counter),
and a miniature three-way soak asserting the E23 acceptance invariants.
"""

import pytest

from repro.errors import (
    QueryBudgetExceeded,
    QueryCancelled,
    SPARQLError,
    TimeoutExceeded,
)
from repro.rdf import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.resilience.deadline import NO_DEADLINE, Deadline
from repro.sparql import (
    BudgetPolicy,
    CancelToken,
    CompileOptions,
    QueryBudget,
    evaluate,
)
from repro.sparql.governor import BYTES_PER_CELL
from repro.soaks.governor import (
    RUNAWAY,
    WELL_BEHAVED,
    GovernorSoakConfig,
    run_comparison,
)

ENGINES = ["interpreted", "vector"]


def build_graph(pairs=8):
    """Two disjoint predicates: the cross-product bait used throughout."""
    lines = []
    for index in range(pairs):
        lines.append(f'<urn:a{index}> <urn:p> "{index}" .')
        lines.append(f'<urn:b{index}> <urn:q> "{index}" .')
    graph = Graph()
    for triple in parse_ntriples("\n".join(lines)):
        graph.add(*triple)
    return graph


CROSS = "SELECT ?x ?y WHERE { ?x <urn:p> ?v . ?y <urn:q> ?w }"
SINGLE = "SELECT ?x ?v WHERE { ?x <urn:p> ?v }"


def run(graph, query, engine, budget=None):
    return evaluate(
        graph, query, options=CompileOptions(engine=engine), budget=budget
    )


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("operator kill")
        token.cancel("too late")
        assert token.cancelled
        assert token.reason == "operator kill"

    def test_checkpoint_raises_with_reason(self):
        budget = QueryBudget(cancel=CancelToken(), label="q1")
        budget.cancel.cancel("tenant hung up")
        with pytest.raises(QueryCancelled) as info:
            budget.checkpoint("JoinOp")
        assert info.value.reason == "tenant hung up"
        assert info.value.retryable
        assert "JoinOp" in str(info.value)


class TestQueryBudget:
    def test_cap_validation(self):
        with pytest.raises(SPARQLError):
            QueryBudget(max_rows=0)
        with pytest.raises(SPARQLError):
            QueryBudget(max_bytes=-1)
        with pytest.raises(SPARQLError):
            QueryBudget(checkpoint_charge_s=-0.1)

    def test_row_cap_admission(self):
        budget = QueryBudget(max_rows=10)
        budget.charge_rows(8, 2)
        with pytest.raises(QueryBudgetExceeded) as info:
            budget.admit_rows(3)
        assert info.value.resource == "rows"
        assert info.value.observed == 11
        assert info.value.limit == 10
        assert not info.value.retryable
        budget.admit_rows(2)  # exactly at the cap is allowed

    def test_byte_cap_uses_modelled_cells(self):
        budget = QueryBudget(max_bytes=10 * 3 * BYTES_PER_CELL)
        budget.charge_rows(10, 3)
        with pytest.raises(QueryBudgetExceeded) as info:
            budget.admit_rows(1, 3)
        assert info.value.resource == "bytes"

    def test_mark_release_keeps_peaks(self):
        budget = QueryBudget()
        mark = budget.mark()
        budget.charge_rows(100, 2)
        budget.release_to(mark)
        assert budget.resident_rows == 0
        assert budget.resident_bytes == 0
        assert budget.peak_rows == 100
        assert budget.peak_bytes == 100 * 2 * BYTES_PER_CELL

    def test_charge_driven_deadline_expires(self):
        budget = QueryBudget(
            deadline=Deadline(0.01, label="q"), checkpoint_charge_s=0.004
        )
        budget.checkpoint("a")
        budget.checkpoint("b")
        with pytest.raises(TimeoutExceeded):
            budget.checkpoint("c")
        assert budget.charged_s == pytest.approx(0.012)

    def test_row_charges_consume_deadline(self):
        budget = QueryBudget(
            deadline=Deadline(0.01, label="q"), row_charge_s=0.001
        )
        budget.charge_rows(11)
        with pytest.raises(TimeoutExceeded):
            budget.checkpoint("after rows")


class TestDeadlineDerive:
    def test_never_widens(self):
        parent = Deadline(10.0)
        parent.charge(9.5)
        child = parent.derive(5.0, label="execution")
        assert child.budget_s == pytest.approx(0.5)
        assert child.label == "execution"

    def test_narrows_to_cap(self):
        assert Deadline(10.0).derive(2.0).budget_s == pytest.approx(2.0)

    def test_shares_clock(self):
        now = [0.0]
        parent = Deadline(10.0, clock=lambda: now[0])
        child = parent.derive(1.0)
        now[0] = 2.0
        assert child.expired

    def test_no_deadline_derives_finite(self):
        assert NO_DEADLINE.derive(3.0).budget_s == pytest.approx(3.0)


class TestPolicyAndOptions:
    def test_policy_enabled(self):
        assert not BudgetPolicy().enabled
        assert BudgetPolicy(max_rows=10).enabled
        assert BudgetPolicy(max_seconds=1.0).enabled
        assert BudgetPolicy(row_charge_s=0.1).enabled


# ----------------------------------------------------------------------
# Enforcement inside both engines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
class TestEngineEnforcement:
    def test_row_cap_kills_cross_product(self, engine):
        graph = build_graph(pairs=12)  # cross product = 144 rows
        budget = QueryBudget(max_rows=40)
        with pytest.raises(QueryBudgetExceeded) as info:
            run(graph, CROSS, engine, budget)
        assert info.value.resource == "rows"
        assert budget.peak_rows <= 40

    def test_byte_cap_kills_cross_product(self, engine):
        graph = build_graph(pairs=12)
        budget = QueryBudget(max_bytes=40 * BYTES_PER_CELL)
        with pytest.raises(QueryBudgetExceeded) as info:
            run(graph, CROSS, engine, budget)
        assert info.value.resource == "bytes"
        assert budget.peak_bytes <= 40 * BYTES_PER_CELL

    def test_peak_never_exceeds_cap(self, engine):
        """Pre-admission: the cap trips before the memory is accounted."""
        for cap in (8, 64, 512):
            graph = build_graph(pairs=24)  # cross product = 576
            budget = QueryBudget(max_rows=cap)
            with pytest.raises(QueryBudgetExceeded):
                run(graph, CROSS, engine, budget)
            assert budget.peak_rows <= cap

    def test_pre_cancelled_token_stops_query(self, engine):
        graph = build_graph()
        budget = QueryBudget(cancel=CancelToken())
        budget.cancel.cancel("kill test")
        with pytest.raises(QueryCancelled) as info:
            run(graph, CROSS, engine, budget)
        assert info.value.reason == "kill test"

    def test_charge_driven_deadline_stops_query(self, engine):
        graph = build_graph(pairs=12)
        budget = QueryBudget(
            deadline=Deadline(1e-4, label="q"),
            checkpoint_charge_s=1e-5,
            row_charge_s=1e-5,
        )
        with pytest.raises(TimeoutExceeded):
            run(graph, CROSS, engine, budget)
        assert budget.charged_s > 1e-4

    def test_generous_budget_changes_nothing(self, engine):
        graph = build_graph(pairs=6)
        queries = [
            CROSS,
            SINGLE,
            SINGLE + " ORDER BY ?v LIMIT 3",
            "SELECT ?x WHERE { ?x <urn:p> ?v OPTIONAL { ?x <urn:q> ?w } }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x <urn:p> ?v }",
            "ASK { ?x <urn:p> ?v }",
        ]
        for query in queries:
            plain = run(graph, query, engine)
            budget = QueryBudget(
                deadline=Deadline(1e9),
                max_rows=1_000_000,
                max_bytes=1 << 40,
                checkpoint_charge_s=1e-9,
            )
            governed = run(graph, query, engine, budget)
            assert governed == plain, query
            assert budget.checkpoints > 0
            if not query.startswith("ASK"):
                assert budget.rows_produced > 0

    def test_counters_track_work(self, engine):
        graph = build_graph(pairs=4)
        budget = QueryBudget()
        result = run(graph, CROSS, engine, budget)
        assert len(result) == 16
        assert budget.peak_rows >= 16
        assert budget.checkpoints > 0


# ----------------------------------------------------------------------
# Satellite 1: LIMIT-without-ORDER-BY short-circuits (bounded work)
# ----------------------------------------------------------------------

class TestLimitShortCircuit:
    def big_graph(self, rows=400):
        graph = Graph()
        text = "\n".join(
            f'<urn:s{i}> <urn:p> "{i:04d}" .' for i in range(rows)
        )
        for triple in parse_ntriples(text):
            graph.add(*triple)
        return graph

    def test_limit_does_bounded_work(self):
        graph = self.big_graph(400)
        budget = QueryBudget()  # pure meter: no caps
        result = run(graph, SINGLE + " LIMIT 5", "interpreted", budget)
        assert len(result) == 5
        # The old path materialized all 400 solutions; the short-circuit
        # pulls exactly LIMIT worth of root rows.
        assert budget.peak_rows <= 5

    def test_offset_limit_matches_full_pipeline(self):
        graph = self.big_graph(50)
        full = run(graph, SINGLE, "interpreted")
        sliced = run(graph, SINGLE + " LIMIT 7 OFFSET 4", "interpreted")
        assert sliced == full[4:11]

    def test_distinct_limit_incremental(self):
        graph = Graph()
        text = "\n".join(
            f'<urn:s{i}> <urn:p> "{i % 3}" .' for i in range(30)
        )
        for triple in parse_ntriples(text):
            graph.add(*triple)
        query = "SELECT DISTINCT ?v WHERE { ?s <urn:p> ?v } LIMIT 2"
        budget = QueryBudget()
        result = run(graph, query, "interpreted", budget)
        assert len(result) == 2
        full = run(graph, "SELECT DISTINCT ?v WHERE { ?s <urn:p> ?v }",
                   "interpreted")
        assert result == full[:2]
        assert budget.peak_rows <= 2

    def test_order_by_still_materializes(self):
        graph = self.big_graph(40)
        query = SINGLE + " ORDER BY DESC(?v) LIMIT 3"
        result = run(graph, query, "interpreted")
        values = [row_v.lexical for row in result
                  for var, row_v in row.items() if var.name == "v"]
        assert values == ["0039", "0038", "0037"]

    def test_limit_zero(self):
        graph = self.big_graph(10)
        budget = QueryBudget()
        assert run(graph, SINGLE + " LIMIT 0", "interpreted", budget) == []
        assert budget.rows_produced == 0

    def test_geostore_limit_bounded(self):
        from repro.geosparql import GeoStore

        store = GeoStore()
        for triple in parse_ntriples("\n".join(
            f'<urn:s{i}> <urn:p> "{i}" .' for i in range(200)
        )):
            store.add(*triple)
        budget = QueryBudget()
        result = store.query(SINGLE + " LIMIT 4", budget=budget)
        assert len(result) == 4
        assert budget.peak_rows <= 4


# ----------------------------------------------------------------------
# Disabled-path parity
# ----------------------------------------------------------------------

class TestDisabledParity:
    def test_default_options_have_no_budget(self):
        assert not hasattr(CompileOptions(), "budget")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_none_budget_identical_results(self, engine):
        graph = build_graph(pairs=8)
        for query in (CROSS, SINGLE, SINGLE + " ORDER BY ?v LIMIT 3"):
            assert run(graph, query, engine) == run(
                graph, query, engine, None
            ), query


# ----------------------------------------------------------------------
# The adversarial soak, miniature
# ----------------------------------------------------------------------

def test_soak_invariants_small():
    config = GovernorSoakConfig(
        seed=7, requests=400, adversary_every=20, cross_entities=48,
        max_rows=512,
    )
    baseline, governed, ungoverned = run_comparison(config)
    assert governed.outcome(RUNAWAY).arrivals > 0
    assert governed.outcome(RUNAWAY).ok == 0
    assert governed.overruns == 0
    assert governed.peak_rows_max <= config.max_rows
    assert ungoverned.overruns > 0
    assert ungoverned.peak_rows_max > config.max_rows
    base = baseline.p99_s(WELL_BEHAVED)
    assert governed.p99_s(WELL_BEHAVED) <= 2.0 * base
    assert sum(governed.runaway_errors.values()) > 0
