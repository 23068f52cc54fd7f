"""Admission control: a bulkhead with priority-classed load shedding.

An :class:`AdmissionController` bounds how much work a serving component
(the catalog service, the federation executor, the scheduler's submission
path) accepts at once. Capacity has two tiers:

* up to ``max_in_flight`` admissions run in the *fast* region — everything
  is admitted;
* between ``max_in_flight`` and ``max_in_flight + max_queue`` the
  controller is *under pressure*: only requests whose priority class is at
  least ``priority_floor`` are admitted (the queue is reserved for traffic
  worth waiting for), lower classes are shed with a retryable
  :class:`~repro.errors.Overloaded`;
* at full capacity everything is shed.

Shedding early and cheaply is the point: a shed request costs microseconds
and tells the client to back off, while an admitted-then-timed-out request
burns a server for its whole deadline — the metastable-overload failure
mode this layer exists to prevent.

Priorities are small ints, higher = more important; the conventional
classes are :data:`PRIORITY_BATCH` (0) and :data:`PRIORITY_INTERACTIVE`
(1). The controller is deliberately clock-free and deterministic: it is a
pair of counters plus a policy, usable both from synchronous code (nested
``with controller.admit():`` blocks) and from discrete-event simulations
(admit at the arrival event, release at the terminal event).

:data:`NULL_ADMISSION` is the shared disabled default — it admits
everything and keeps no state, so subsystems accepting
``admission: Optional[AdmissionController] = None`` stay byte-identical
when the argument is unset.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FaultError, Overloaded
from repro.obs import Observability, resolve

PRIORITY_BATCH = 0
PRIORITY_INTERACTIVE = 1


class AdmissionTicket:
    """Proof of admission; release it exactly once (context manager)."""

    __slots__ = ("_controller", "priority", "_released")

    def __init__(self, controller: Optional["AdmissionController"], priority: int):
        self._controller = controller
        self.priority = priority
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        if self._controller is not None:
            self._controller._release(self)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


#: Shared pre-released ticket handed out by the null controller.
_NULL_TICKET = AdmissionTicket(None, PRIORITY_INTERACTIVE)


class AdmissionController:
    """The bulkhead guarding one serving component."""

    def __init__(
        self,
        max_in_flight: int = 64,
        max_queue: int = 64,
        priority_floor: int = PRIORITY_INTERACTIVE,
        scope: str = "default",
        obs: Optional[Observability] = None,
    ):
        if max_in_flight < 1:
            raise FaultError("max_in_flight must be >= 1")
        if max_queue < 0:
            raise FaultError("max_queue must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.priority_floor = priority_floor
        self.scope = scope
        self._obs = resolve(obs)
        self._in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.high_water = 0
        self._gauge = self._obs.metrics.gauge(
            "resilience.in_flight", scope=scope
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def capacity(self) -> int:
        return self.max_in_flight + self.max_queue

    @property
    def under_pressure(self) -> bool:
        return self._in_flight >= self.max_in_flight

    def admit(self, priority: int = PRIORITY_INTERACTIVE) -> AdmissionTicket:
        """Admit one request or raise :class:`Overloaded` (shed)."""
        if self._in_flight >= self.capacity:
            self._shed(priority, "capacity")
        if self.under_pressure and priority < self.priority_floor:
            self._shed(priority, "pressure")
        self._in_flight += 1
        self.admitted += 1
        self.high_water = max(self.high_water, self._in_flight)
        self._gauge.set(self._in_flight)
        self._obs.metrics.counter(
            "resilience.admitted", scope=self.scope, priority=priority
        ).inc()
        return AdmissionTicket(self, priority)

    def _shed(self, priority: int, reason: str) -> None:
        self.shed += 1
        self._obs.metrics.counter(
            "resilience.shed", scope=self.scope, priority=priority,
            reason=reason,
        ).inc()
        raise Overloaded(
            f"{self.scope} overloaded ({reason}): {self._in_flight} in flight "
            f"of {self.capacity} capacity",
            scope=self.scope,
            priority=priority,
            reason=reason,
        )

    def _release(self, ticket: AdmissionTicket) -> None:
        if self._in_flight <= 0:
            raise FaultError(
                f"{self.scope}: release without a matching admission"
            )
        self._in_flight -= 1
        self._gauge.set(self._in_flight)

    def __repr__(self) -> str:
        return (
            f"AdmissionController({self.scope!r}, in_flight={self._in_flight}/"
            f"{self.max_in_flight}+{self.max_queue}, admitted={self.admitted}, "
            f"shed={self.shed})"
        )


class _NullAdmission(AdmissionController):
    """The shared disabled controller: everything is admitted for free."""

    def __init__(self):
        super().__init__(scope="null")

    def admit(self, priority: int = PRIORITY_INTERACTIVE) -> AdmissionTicket:
        return _NULL_TICKET

    def _release(self, ticket: AdmissionTicket) -> None:
        pass


#: Shared null controller — admits everything, sheds nothing.
NULL_ADMISSION = _NullAdmission()
