"""Chaos-soak tests: liveness, accounting invariants, determinism, shape."""

import pytest

from repro.errors import FaultError
from repro.resilience import SoakConfig, run_soak, soak_plan
from repro.resilience.soak import BURST_COUNT, FLAPS_PER_BACKEND, SoakReport


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
        config = short_config()
        assert len(plan.endpoint_flaps) == config.backends * FLAPS_PER_BACKEND
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
