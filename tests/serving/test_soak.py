"""The E21 soak harness: invariants, thresholds, determinism."""

import pytest

from repro.errors import ServingError
from repro.soaks.serving import (
    ServingSoakConfig,
    ServingSoakReport,
    TenantOutcome,
    jain_index,
    run_comparison,
    run_serving_soak,
)
from repro.soaks.serving import DEADLINE_S

# Small but fully-loaded run: overload, bursts and coalescing all engage.
CONFIG = ServingSoakConfig(seed=21, requests=6000)


@pytest.fixture(scope="module")
def comparison():
    return run_comparison(CONFIG)


class TestJainIndex:
    def test_even_is_one(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_winner_take_all_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 0.0
        assert jain_index([0, 0]) == 0.0


class TestInvariants:
    def test_reports_verify(self, comparison):
        bare, guarded = comparison
        bare.verify()
        guarded.verify()

    def test_every_arrival_accounted(self, comparison):
        bare, guarded = comparison
        for report in comparison:
            assert report.arrivals == CONFIG.requests
            for outcome in report.per_tenant.values():
                assert outcome.accounted == outcome.arrivals

    def test_no_ticket_leak(self, comparison):
        _, guarded = comparison
        assert guarded.residual["ticket_leak"] == 0
        assert guarded.residual["queued"] == 0
        assert guarded.residual["coalesce_in_flight"] == 0

    def test_verify_catches_accounting_leak(self):
        report = ServingSoakReport(protected=True)
        report.per_tenant["t"] = TenantOutcome("t", arrivals=5, ok=3)
        with pytest.raises(ServingError, match="accounting leak"):
            report.verify()

    def test_verify_catches_residual(self):
        report = ServingSoakReport(protected=True)
        report.residual["ticket_leak"] = 1
        with pytest.raises(ServingError, match="did not drain"):
            report.verify()


class TestThresholds:
    """The issue's acceptance bar, on the scaled-down in-tree run."""

    def test_gateway_restores_fairness(self, comparison):
        bare, guarded = comparison
        assert guarded.jain_goodput >= 0.9
        assert bare.jain_goodput < 0.5

    def test_gateway_cuts_tail_latency(self, comparison):
        bare, guarded = comparison
        assert guarded.p99_latency_s <= DEADLINE_S
        assert guarded.p99_latency_s < bare.p99_latency_s

    def test_coalescing_cuts_duplicate_executions(self, comparison):
        bare, guarded = comparison
        assert guarded.duplicate_executions_avoided > 0
        assert guarded.executions < guarded.served

    def test_unprotected_serves_everything_late(self, comparison):
        bare, _ = comparison
        # FIFO never refuses: everything is eventually served, mostly late.
        assert bare.served == CONFIG.requests
        assert bare.total("late") > bare.ok


class TestCoalescingKnob:
    def test_disabled_coalescing_means_no_sharing(self):
        config = ServingSoakConfig(seed=21, requests=2000, coalesce=False)
        report = run_serving_soak(config, protected=True)
        report.verify()
        assert report.coalesced == 0
        assert report.duplicate_executions_avoided == 0


class TestDeterminism:
    def test_same_seed_same_report(self, comparison):
        bare, guarded = comparison
        bare2, guarded2 = run_comparison(CONFIG)
        assert bare.summary() == bare2.summary()
        assert guarded.summary() == guarded2.summary()
        assert guarded.latencies_s == guarded2.latencies_s
        assert guarded.tenant_rows() == guarded2.tenant_rows()

    def test_different_seed_differs(self, comparison):
        _, guarded = comparison
        other = run_serving_soak(
            ServingSoakConfig(seed=22, requests=6000), protected=True
        )
        assert other.summary() != guarded.summary()
