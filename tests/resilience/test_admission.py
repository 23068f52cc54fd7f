"""Admission controller tests: the two-tier bulkhead and its null object."""

import pytest

from repro.errors import FaultError, Overloaded
from repro.obs import Observability
from repro.resilience import (
    AdmissionController,
    NULL_ADMISSION,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
)


def make_controller(**kwargs):
    defaults = dict(max_in_flight=2, max_queue=2, scope="test")
    defaults.update(kwargs)
    return AdmissionController(**defaults)


class TestAdmission:
    def test_fast_region_admits_all_priorities(self):
        controller = make_controller()
        controller.admit(PRIORITY_BATCH)
        controller.admit(PRIORITY_INTERACTIVE)
        assert controller.in_flight == 2
        assert controller.admitted == 2
        assert controller.shed == 0

    def test_pressure_region_sheds_batch_keeps_interactive(self):
        controller = make_controller()
        controller.admit(PRIORITY_BATCH)
        controller.admit(PRIORITY_BATCH)
        assert controller.under_pressure
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(PRIORITY_BATCH)
        assert excinfo.value.reason == "pressure"
        assert excinfo.value.scope == "test"
        assert excinfo.value.retryable
        controller.admit(PRIORITY_INTERACTIVE)  # queue is for the worthy
        assert controller.in_flight == 3

    def test_full_capacity_sheds_everything(self):
        controller = make_controller()
        for _ in range(4):
            controller.admit(PRIORITY_INTERACTIVE)
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(PRIORITY_INTERACTIVE)
        assert excinfo.value.reason == "capacity"
        assert controller.shed == 1

    def test_release_frees_capacity(self):
        controller = make_controller(max_in_flight=1, max_queue=0)
        ticket = controller.admit()
        with pytest.raises(Overloaded):
            controller.admit()
        ticket.release()
        assert controller.in_flight == 0
        controller.admit()  # capacity is back

    def test_ticket_release_is_idempotent(self):
        controller = make_controller()
        ticket = controller.admit()
        ticket.release()
        ticket.release()
        assert controller.in_flight == 0

    def test_ticket_context_manager(self):
        controller = make_controller()
        with controller.admit() as ticket:
            assert ticket.priority == PRIORITY_INTERACTIVE
            assert controller.in_flight == 1
        assert controller.in_flight == 0

    def test_unmatched_release_is_an_error(self):
        controller = make_controller()
        ticket = controller.admit()
        ticket.release()
        with pytest.raises(FaultError):
            controller._release(ticket)

    def test_high_water_tracks_peak(self):
        controller = make_controller()
        tickets = [controller.admit() for _ in range(3)]
        for ticket in tickets:
            ticket.release()
        assert controller.high_water == 3
        assert controller.in_flight == 0

    def test_validation(self):
        with pytest.raises(FaultError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(FaultError):
            AdmissionController(max_queue=-1)


class TestObservability:
    def test_gauge_and_shed_counter(self):
        obs = Observability()
        controller = make_controller(max_in_flight=1, max_queue=0, obs=obs)
        ticket = controller.admit(PRIORITY_BATCH)
        assert obs.metrics.gauge("resilience.in_flight", scope="test").value == 1
        with pytest.raises(Overloaded):
            controller.admit(PRIORITY_BATCH)
        shed = obs.metrics.counter(
            "resilience.shed", scope="test", priority=PRIORITY_BATCH,
            reason="capacity",
        )
        assert shed.value == 1
        ticket.release()
        assert obs.metrics.gauge("resilience.in_flight", scope="test").value == 0


class TestNullAdmission:
    def test_admits_everything_for_free(self):
        tickets = [NULL_ADMISSION.admit(PRIORITY_BATCH) for _ in range(1000)]
        assert NULL_ADMISSION.in_flight == 0
        for ticket in tickets:
            ticket.release()
