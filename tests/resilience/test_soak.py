"""Chaos-soak tests: liveness, accounting invariants, determinism, shape."""

import pytest

from repro.errors import FaultError, Shed
from repro.soaks.resilience import SoakConfig, run_soak, soak_plan
from repro.soaks.resilience import (
    BACKENDS,
    BURST_COUNT,
    FLAPS_PER_BACKEND,
    SoakReport,
)
from repro.serving import Gateway
from repro.serving.gateway import FAILED


def short_config(**kwargs):
    defaults = dict(seed=18, requests=300)
    defaults.update(kwargs)
    return SoakConfig(**defaults)


class TestSoakPlan:
    def test_plan_is_deterministic(self):
        config = short_config()
        assert soak_plan(config) == soak_plan(config)

    def test_plan_varies_with_seed(self):
        assert soak_plan(short_config(seed=1)) != soak_plan(
            short_config(seed=2)
        )

    def test_plan_has_flaps_and_bursts(self):
        plan = soak_plan(short_config())
        assert len(plan.endpoint_flaps) == len(BACKENDS) * FLAPS_PER_BACKEND
        assert len(plan.overload_bursts) == BURST_COUNT


class TestInvariants:
    @pytest.mark.parametrize("protected", [False, True])
    def test_every_arrival_is_accounted_for(self, protected):
        report = run_soak(short_config(), protected=protected)
        report.verify()
        assert report.arrivals == 300
        assert (
            report.ok + report.late + report.failed + report.shed
            + report.expired
            == report.arrivals
        )

    def test_unprotected_run_never_sheds_or_expires(self):
        report = run_soak(short_config(), protected=False)
        assert report.shed == 0
        assert report.expired == 0
        assert report.breaker_opens == 0

    def test_default_schedule_is_a_real_soak(self):
        # The acceptance bar: >= 1000 scheduled events, zero hangs, and
        # the invariant check green on both sides.
        config = SoakConfig()
        for protected in (False, True):
            report = run_soak(config, protected=protected)
            report.verify()
            assert report.arrivals >= 1000
            assert report.events_processed >= 1000

    def test_verify_catches_accounting_leaks(self):
        report = run_soak(short_config(), protected=True)
        report.ok += 1  # corrupt the books
        with pytest.raises(FaultError):
            report.verify()

    def test_verify_catches_residual_state(self):
        report = SoakReport(protected=True)
        report.residual["queued"] = 3
        with pytest.raises(FaultError):
            report.verify()


class TestDeterminism:
    @pytest.mark.parametrize("protected", [False, True])
    def test_same_config_same_report(self, protected):
        first = run_soak(short_config(), protected=protected)
        second = run_soak(short_config(), protected=protected)
        assert first.summary() == second.summary()
        assert first.latencies_s == second.latencies_s

    def test_different_seeds_differ(self):
        assert (
            run_soak(short_config(seed=1)).summary()
            != run_soak(short_config(seed=2)).summary()
        )


class TestShape:
    def test_protection_wins_on_goodput_and_tail(self):
        config = SoakConfig(seed=18)
        bare = run_soak(config, protected=False)
        protected = run_soak(config, protected=True)
        assert protected.goodput > bare.goodput
        assert protected.p99_latency_s < bare.p99_latency_s
        # All three mechanisms engaged.
        assert protected.shed > 0
        assert protected.breaker_opens > 0
        assert protected.fast_failures > 0


class TestThroughTheGateway:
    """The protected arm is the real Gateway, audit and typed errors too."""

    def test_residual_is_the_gateway_drain_audit(self):
        report = run_soak(short_config(), protected=True)
        assert report.residual["ticket_leak"] == 0
        assert report.residual["coalesce_in_flight"] == 0
        assert report.residual["queued"] == 0
        report.verify()

    def test_breaker_fast_fail_reaches_the_tenant_as_shed(self, monkeypatch):
        failures = []
        complete = Gateway.complete

        def spy(self, entry, result=None, error=None):
            settled = complete(self, entry, result=result, error=error)
            failures.extend(m.error for m in settled if m.category == FAILED)
            return settled

        monkeypatch.setattr(Gateway, "complete", spy)
        report = run_soak(SoakConfig(seed=18), protected=True)
        assert report.fast_failures > 0
        assert len(failures) == report.failed == report.fast_failures
        for error in failures:
            assert isinstance(error, Shed)
            assert error.reason == "breaker_open"

    def test_fast_fails_are_not_executions(self, monkeypatch):
        """An entry an open breaker fails at dispatch never reached the
        backend: the gateway counts only the entries the arm started."""
        from repro.soaks import serving as serving_soak
        from repro.soaks.resilience import _Workload

        starts = []
        start = serving_soak._GatewayArm._start

        def spy(self, entry):
            starts.append(entry)
            return start(self, entry)

        monkeypatch.setattr(serving_soak._GatewayArm, "_start", spy)
        arm = serving_soak.run_arm(
            _Workload(SoakConfig(seed=18, requests=1200)), protected=True
        )
        assert arm.breakers.total_rejections() > 0
        assert arm.report.executions == arm.gateway.executions == len(starts)
        assert len(starts) == 444
