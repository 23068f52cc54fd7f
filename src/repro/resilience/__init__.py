"""Overload resilience: deadlines, circuit breakers, admission control (E18).

The fault layer (:mod:`repro.faults`, experiment E17) makes individual
failures survivable; this package makes *overload* survivable — the regime
where nothing is broken but demand exceeds capacity and naive systems melt
into metastable failure (every request admitted, every request too late).
Three cooperating mechanisms, each following the repo's disabled-by-default
contract (optional argument, shared null object, byte-identical path when
unset):

* :class:`~repro.resilience.deadline.Deadline` — one end-to-end time
  budget per request, propagated catalog -> federation executor ->
  endpoint and HopsFS filesystem -> kvstore; clocked (watches a clock
  callable) or charge-driven (advanced by simulated costs). Expiry raises
  the stack's existing :class:`~repro.errors.TimeoutExceeded`.
* :class:`~repro.resilience.breaker.CircuitBreaker` /
  :class:`~repro.resilience.breaker.CircuitBreakerSet` — deterministic
  three-state breakers (closed/open/half-open, rolling failure window,
  seeded half-open probes) per federation endpoint and per kvstore shard,
  failing fast with :class:`~repro.errors.CircuitOpen`.
* :class:`~repro.resilience.admission.AdmissionController` — a bulkhead
  with priority-classed load shedding
  (:class:`~repro.errors.Overloaded`) guarding the catalog service, the
  federation executor, and scheduler submission.

:mod:`repro.soaks.resilience` (above this package) drives all three
through a long, seeded chaos schedule (flapping backends, overload
bursts): its protected arm is the real :class:`~repro.serving.Gateway`
with this package's admission controller, deadlines and a breaker per
backend, its unprotected arm a bare FIFO, both played by
:func:`repro.soaks.serving.run_arm`. It checks the liveness, accounting
and ticket-audit invariants; ``python -m repro.soaks.resilience`` prints
the protected-vs-unprotected comparison and exits non-zero unless the E18
acceptance gate holds, and benchmark E18 measures it.
"""

from repro.errors import CircuitOpen, Overloaded
from repro.resilience.admission import (
    NULL_ADMISSION,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    AdmissionTicket,
)
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    NULL_BREAKER,
    OPEN,
    STATE_CODES,
    CircuitBreaker,
    CircuitBreakerSet,
)
from repro.resilience.deadline import NO_DEADLINE, Deadline

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "CLOSED",
    "CircuitBreaker",
    "CircuitBreakerSet",
    "CircuitOpen",
    "Deadline",
    "HALF_OPEN",
    "NO_DEADLINE",
    "NULL_ADMISSION",
    "NULL_BREAKER",
    "OPEN",
    "Overloaded",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "STATE_CODES",
]
