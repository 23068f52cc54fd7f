"""SlowOperator faults (E23): injected per-checkpoint charge in the engines.

The E17 chaos grid gains a SPARQL-shaped fault: a named operator costs
extra modelled seconds at every governor checkpoint it passes. These tests
pin the matching rules, the append-only ``chaos()`` draw convention (a
seed's pre-E23 fault schedule must not move when the new knobs appear),
and end-to-end deadline enforcement in both engines under injection.
"""

import pytest

from repro.errors import FaultError, TimeoutExceeded
from repro.faults import FaultInjector, FaultPlan, SlowOperator
from repro.rdf import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.resilience.deadline import Deadline
from repro.sparql import CompileOptions, QueryBudget, evaluate

CROSS = "SELECT ?x ?y WHERE { ?x <urn:p> ?v . ?y <urn:q> ?w }"


def build_graph(pairs=8):
    lines = []
    for index in range(pairs):
        lines.append(f'<urn:a{index}> <urn:p> "{index}" .')
        lines.append(f'<urn:b{index}> <urn:q> "{index}" .')
    graph = Graph()
    for triple in parse_ntriples("\n".join(lines)):
        graph.add(*triple)
    return graph


class TestSlowOperator:
    def test_negative_charge_rejected(self):
        with pytest.raises(FaultError):
            SlowOperator(op="ScanOp", charge_s=-0.1)

    def test_plan_not_empty(self):
        plan = FaultPlan(slow_operators=(SlowOperator(op="*", charge_s=0.1),))
        assert not plan.empty
        assert FaultPlan.none().empty


class TestOperatorCharge:
    def injector(self, *faults):
        return FaultInjector(FaultPlan(slow_operators=tuple(faults)))

    def test_no_faults_is_free(self):
        assert FaultInjector(FaultPlan.none()).operator_charge("JoinOp") == 0.0

    def test_exact_match(self):
        injector = self.injector(SlowOperator(op="JoinOp", charge_s=0.25))
        assert injector.operator_charge("JoinOp") == 0.25
        assert injector.operator_charge("ScanOp") == 0.0

    def test_prefix_match(self):
        injector = self.injector(SlowOperator(op="hash_join", charge_s=0.1))
        assert injector.operator_charge("hash_join.probe") == 0.1
        assert injector.operator_charge("hash_join") == 0.1
        assert injector.operator_charge("materialize") == 0.0

    def test_wildcard_matches_everything(self):
        injector = self.injector(SlowOperator(op="*", charge_s=0.05))
        assert injector.operator_charge("anything") == 0.05

    def test_strongest_matching_fault_wins(self):
        injector = self.injector(
            SlowOperator(op="*", charge_s=0.01),
            SlowOperator(op="JoinOp", charge_s=0.5),
        )
        assert injector.operator_charge("JoinOp") == 0.5
        assert injector.operator_charge("ScanOp") == 0.01


class TestChaosDraws:
    """The append-only convention: E23 knobs never move pre-E23 draws."""

    BASE = dict(
        node_count=8,
        node_crash_prob=0.4,
        straggler_prob=0.3,
        datanode_count=6,
        datanode_crash_prob=0.3,
        shard_count=4,
        shard_outage_prob=0.5,
        endpoints=("a", "b", "c"),
        endpoint_error_rate=0.2,
        block_count=4,
        bit_flip_prob=0.2,
        stale_replica_prob=0.2,
    )

    def test_same_seed_same_pre_e23_schedule(self):
        for seed in range(5):
            plain = FaultPlan.chaos(seed, **self.BASE)
            with_slow = FaultPlan.chaos(
                seed,
                **self.BASE,
                slow_operator_ops=("JoinOp", "hash_join", "ScanOp"),
                slow_operator_prob=1.0,
                slow_operator_charge_s=0.2,
            )
            assert with_slow.node_crashes == plain.node_crashes
            assert with_slow.stragglers == plain.stragglers
            assert with_slow.datanode_crashes == plain.datanode_crashes
            assert with_slow.shard_outages == plain.shard_outages
            assert with_slow.endpoint_faults == plain.endpoint_faults
            assert with_slow.bit_flips == plain.bit_flips
            assert with_slow.stale_replicas == plain.stale_replicas
            assert plain.slow_operators == ()
            assert with_slow.slow_operators == tuple(
                SlowOperator(op=op, charge_s=0.2)
                for op in ("JoinOp", "hash_join", "ScanOp")
            )

    def test_probability_zero_draws_nothing(self):
        plan = FaultPlan.chaos(
            3, slow_operator_ops=("JoinOp",), slow_operator_prob=0.0
        )
        assert plan.slow_operators == ()


class TestBudgetUnderInjection:
    def test_checkpoint_consumes_injected_charge(self):
        injector = FaultInjector(
            FaultPlan(slow_operators=(SlowOperator(op="ScanOp", charge_s=0.4),))
        )
        budget = QueryBudget(deadline=Deadline(1.0), injector=injector)
        budget.checkpoint("ScanOp")
        budget.checkpoint("JoinOp")  # unmatched: free
        assert budget.charged_s == pytest.approx(0.4)
        budget.checkpoint("ScanOp")
        with pytest.raises(TimeoutExceeded):
            budget.checkpoint("ScanOp")

    @pytest.mark.parametrize("engine", ["interpreted", "vector"])
    def test_wildcard_slowness_kills_query(self, engine):
        graph = build_graph(pairs=10)
        injector = FaultInjector(
            FaultPlan(slow_operators=(SlowOperator(op="*", charge_s=0.02),))
        )
        budget = QueryBudget(
            deadline=Deadline(0.05, label="chaos"), injector=injector
        )
        with pytest.raises(TimeoutExceeded):
            evaluate(
                graph,
                CROSS,
                options=CompileOptions(engine=engine),
                budget=budget,
            )
        assert budget.charged_s > 0.05

    def test_vector_join_prefix_fault(self):
        """op="hash_join" must slow the join loops the vector engine runs."""
        graph = build_graph(pairs=10)
        injector = FaultInjector(
            FaultPlan(slow_operators=(SlowOperator(op="hash_join", charge_s=0.2),))
        )
        budget = QueryBudget(
            deadline=Deadline(0.1, label="chaos"), injector=injector
        )
        with pytest.raises(TimeoutExceeded):
            evaluate(
                graph,
                CROSS,
                options=CompileOptions(engine="vector"),
                budget=budget,
            )

    @pytest.mark.parametrize("engine", ["interpreted", "vector"])
    def test_unmatched_fault_is_harmless(self, engine):
        graph = build_graph(pairs=4)
        injector = FaultInjector(
            FaultPlan(
                slow_operators=(SlowOperator(op="NoSuchOp", charge_s=9.0),)
            )
        )
        budget = QueryBudget(
            deadline=Deadline(0.5, label="chaos"), injector=injector
        )
        plain = evaluate(graph, CROSS, options=CompileOptions(engine=engine))
        governed = evaluate(
            graph, CROSS, options=CompileOptions(engine=engine), budget=budget
        )
        assert governed == plain
