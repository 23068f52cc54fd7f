"""Gateway pipeline: auth, quotas, shedding, fairness, ticket discipline."""

import pytest

from repro.errors import (
    AuthFailed,
    CircuitOpen,
    Overloaded,
    PartitionUnavailable,
    QueryBudgetExceeded,
    QueryCancelled,
    QuotaExceeded,
    ServingError,
    Shed,
)
from repro.obs import Observability
from repro.resilience.admission import (
    AdmissionController,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
)
from repro.serving import (
    CallableBackend,
    Gateway,
    GatewayRequest,
    TenantConfig,
)
from repro.serving.gateway import FAILED, OK


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_gateway(clock=None, fn=lambda q: f"r:{q}", **gateway_kwargs):
    gateway = Gateway(
        CallableBackend(fn), clock=clock, **gateway_kwargs
    )
    gateway.register_tenant(TenantConfig(name="a", api_key="key-a"))
    return gateway


class TestIntake:
    def test_sync_query_round_trip(self):
        gateway = make_gateway()
        assert gateway.query("key-a", "hello") == "r:hello"
        session = gateway.tenants.session("a")
        assert session.submitted == session.ok == 1
        gateway.assert_drained()

    def test_bad_api_key(self):
        gateway = make_gateway()
        with pytest.raises(AuthFailed):
            gateway.query("wrong-key", "q")
        assert gateway.tenants.auth_failures == 1
        gateway.assert_drained()

    def test_unknown_backend_kind(self):
        gateway = make_gateway()
        with pytest.raises(ServingError, match="no backend"):
            gateway.query("key-a", "q", kind="nope")
        # The failed submit unwound its own state: nothing leaked.
        gateway.assert_drained()

    def test_rate_quota_enforced_with_hint(self):
        clock = Clock()
        gateway = Gateway(CallableBackend(lambda q: q), clock=clock)
        gateway.register_tenant(
            TenantConfig(name="t", api_key="k", rate=1.0, burst=1.0)
        )
        assert gateway.query("k", "q1") == "q1"
        with pytest.raises(QuotaExceeded) as excinfo:
            gateway.query("k", "q2")
        assert excinfo.value.retry_after_s == pytest.approx(1.0)
        clock.now = 1.0  # waiting out the hint restores service
        assert gateway.query("k", "q2") == "q2"
        gateway.assert_drained()


class TestShedding:
    def test_overloaded_becomes_typed_shed(self):
        admission = AdmissionController(max_in_flight=1, max_queue=0)
        gateway = make_gateway(admission=admission, shed_retry_after_s=0.25)
        blocker = admission.admit()  # someone else holds the only slot
        with pytest.raises(Shed) as excinfo:
            gateway.query("key-a", "q")
        error = excinfo.value
        assert error.tenant == "a"
        assert error.reason == "overloaded"
        assert error.retry_after_s == 0.25
        assert error.retryable
        blocker.release()
        assert gateway.query("key-a", "q") == "r:q"
        gateway.assert_drained()

    def test_batch_priority_shed_under_pressure(self):
        admission = AdmissionController(max_in_flight=1, max_queue=4)
        gateway = Gateway(CallableBackend(lambda q: q), admission=admission)
        gateway.register_tenant(
            TenantConfig(
                name="batch", api_key="kb", priority=PRIORITY_BATCH
            )
        )
        gateway.register_tenant(
            TenantConfig(
                name="live", api_key="kl", priority=PRIORITY_INTERACTIVE
            )
        )
        blocker = admission.admit()  # fast region full -> under pressure
        with pytest.raises(Shed):
            gateway.query("kb", "q")  # batch class is shed at the queue
        assert gateway.query("kl", "q") == "q"  # interactive still queues
        blocker.release()
        gateway.assert_drained()

    def test_backend_overload_translated_not_leaked(self):
        def exploding(query):
            raise Overloaded("internal bulkhead detail", scope="kvstore")

        gateway = make_gateway(fn=exploding)
        with pytest.raises(Shed) as excinfo:
            gateway.query("key-a", "q")
        assert excinfo.value.tenant == "a"
        assert excinfo.value.reason == "overloaded"
        gateway.assert_drained()

    def test_breaker_open_translated(self):
        def broken(query):
            raise CircuitOpen("endpoint x breaker", breaker="x")

        gateway = make_gateway(fn=broken)
        with pytest.raises(Shed) as excinfo:
            gateway.query("key-a", "q")
        assert excinfo.value.reason == "breaker_open"
        gateway.assert_drained()

    @pytest.mark.parametrize(
        "internal, reason, message",
        [
            (
                QueryBudgetExceeded("detail", resource="bytes"),
                "query_budget",
                "query exceeded its resource budget (bytes); retry after 0.25s",
            ),
            (
                QueryCancelled("detail", reason="killed"),
                "cancelled",
                "query cancelled; retry after 0.25s",
            ),
            (
                PartitionUnavailable("detail", partition=3, replicas=(0, 1)),
                "partition_unavailable",
                "store partition unavailable (3); retry after 0.25s",
            ),
            (
                Overloaded("detail", scope="kvstore"),
                "overloaded",
                "backend overloaded; retry after 0.25s",
            ),
            (
                CircuitOpen("detail", breaker="x"),
                "breaker_open",
                "backend circuit open; retry after 0.25s",
            ),
        ],
    )
    def test_every_shed_reason_and_message(self, internal, reason, message):
        def exploding(query):
            raise internal

        gateway = make_gateway(fn=exploding, shed_retry_after_s=0.25)
        with pytest.raises(Shed) as excinfo:
            gateway.query("key-a", "q")
        assert excinfo.value.reason == reason
        assert str(excinfo.value) == message
        assert excinfo.value.tenant == "a"
        assert excinfo.value.retry_after_s == 0.25
        gateway.assert_drained()

    def test_ordinary_backend_error_passes_through(self):
        def failing(query):
            raise ValueError("malformed query")

        gateway = make_gateway(fn=failing)
        with pytest.raises(ValueError, match="malformed query"):
            gateway.query("key-a", "q")
        assert gateway.tenants.session("a").failed == 1
        gateway.assert_drained()


class TestTicketDiscipline:
    """The audited exactly-once release, path by path."""

    def test_success_path_releases(self):
        admission = AdmissionController(max_in_flight=4)
        gateway = make_gateway(admission=admission)
        gateway.query("key-a", "q")
        assert gateway.tickets_issued == gateway.tickets_released == 1
        assert admission.in_flight == 0

    def test_backend_error_path_releases(self):
        admission = AdmissionController(max_in_flight=4)

        def failing(query):
            raise RuntimeError("boom")

        gateway = make_gateway(fn=failing, admission=admission)
        with pytest.raises(RuntimeError):
            gateway.query("key-a", "q")
        assert gateway.tickets_issued == gateway.tickets_released == 1
        assert admission.in_flight == 0

    def test_submit_exception_path_releases(self):
        admission = AdmissionController(max_in_flight=4)
        gateway = make_gateway(admission=admission)
        # An unknown backend kind fails *after* the ticket was issued.
        with pytest.raises(ServingError):
            gateway.submit(GatewayRequest("key-a", "q", kind="nope"))
        assert gateway.tickets_issued == gateway.tickets_released == 1
        assert admission.in_flight == 0
        assert gateway.tenants.session("a").in_flight == 0

    def test_coalesced_followers_each_release_their_own(self):
        admission = AdmissionController(max_in_flight=8)
        clock = Clock()
        gateway = make_gateway(clock=clock, admission=admission)
        gateway.register_tenant(TenantConfig(name="b", api_key="key-b"))
        gateway.submit(GatewayRequest("key-a", "q"))
        gateway.submit(GatewayRequest("key-b", "q"))  # follower
        assert gateway.tickets_issued == 2
        entry = gateway.next_dispatch()
        gateway.complete(entry, result="r")
        assert gateway.tickets_released == 2
        assert admission.in_flight == 0
        gateway.assert_drained()

    def test_double_settle_is_an_error(self):
        gateway = make_gateway()
        request = gateway.submit(GatewayRequest("key-a", "q"))
        entry = gateway.next_dispatch()
        gateway.complete(entry, result="r")
        with pytest.raises(ServingError, match="settled twice"):
            gateway._settle(request, OK, result="again")

    def test_assert_drained_reports_leaks(self):
        gateway = make_gateway()
        gateway.submit(GatewayRequest("key-a", "q"))  # left queued
        with pytest.raises(ServingError, match="not drained"):
            gateway.assert_drained()


class TestFairDispatch:
    def test_cross_tenant_weighted_order(self):
        gateway = Gateway(CallableBackend(lambda q: q))
        gateway.register_tenant(
            TenantConfig(name="heavy", api_key="kh", weight=2.0)
        )
        gateway.register_tenant(
            TenantConfig(name="light", api_key="kl", weight=1.0)
        )
        for i in range(12):
            gateway.submit(GatewayRequest("kh", f"h{i}"))
            gateway.submit(GatewayRequest("kl", f"l{i}"))
        order = []
        for _ in range(9):
            entry = gateway.next_dispatch()
            order.append(entry.leader.session.name)
            gateway.complete(entry, result=None)
        # Weight 2 tenant gets ~2/3 of early dispatches.
        assert order.count("heavy") == pytest.approx(6, abs=1)

    def test_metrics_emitted(self):
        obs = Observability()
        gateway = Gateway(CallableBackend(lambda q: q), obs=obs)
        gateway.register_tenant(TenantConfig(name="a", api_key="key-a"))
        gateway.query("key-a", "q")
        snapshot = obs.metrics.snapshot()
        counter_names = {series["name"] for series in snapshot["counters"]}
        assert {"serving.requests", "serving.ok",
                "serving.executions"} <= counter_names
        histogram_names = {
            series["name"] for series in snapshot["histograms"]
        }
        assert "serving.latency_s" in histogram_names
