"""Deterministic circuit breakers: fail fast instead of hammering.

A :class:`CircuitBreaker` guards one dependency (a federation endpoint, a
metadata shard) with the classic three-state machine:

* **closed** — calls flow through; outcomes land in a rolling window, and
  ``failure_threshold`` failures within the last ``window`` calls trip the
  breaker open;
* **open** — every call raises :class:`~repro.errors.CircuitOpen`
  immediately (microseconds, not a burned timeout). After the recovery
  window — ``recovery_time_s`` on a clocked breaker, ``recovery_calls``
  rejected calls on an unclocked one — the breaker moves to half-open;
* **half-open** — a *seeded* trickle of probe calls is admitted (each
  arriving call is admitted with probability ``probe_admit``, drawn from
  the breaker's own ``random.Random(seed)`` stream, so two runs replay the
  same probe schedule). ``half_open_probes`` consecutive probe successes
  close the breaker; one probe failure re-opens it.

Determinism mirrors :mod:`repro.faults`: no wall-clock unless the caller
provides one, and every random draw comes from a seeded per-breaker stream.
:class:`CircuitBreakerSet` stamps out one breaker per key (endpoint name,
shard id) with stable per-key seeds derived from its base seed.

The disabled path is the usual null object: :data:`NULL_BREAKER` admits
everything and records nothing, and subsystems accept
``breakers: Optional[CircuitBreakerSet] = None``, skipping all breaker
logic when unset.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, Type, TypeVar

from repro.errors import CircuitOpen, FaultError
from repro.faults.injector import derive_seed
from repro.obs import Observability, resolve

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of breaker state (resilience.breaker_state).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """One dependency's three-state breaker."""

    def __init__(
        self,
        name: str = "default",
        failure_threshold: int = 5,
        window: int = 16,
        recovery_time_s: float = 30.0,
        recovery_calls: int = 16,
        half_open_probes: int = 2,
        probe_admit: float = 0.5,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        failure_types: Tuple[Type[BaseException], ...] = (FaultError,),
        obs: Optional[Observability] = None,
    ):
        if failure_threshold < 1:
            raise FaultError("failure_threshold must be >= 1")
        if window < failure_threshold:
            raise FaultError("window must be >= failure_threshold")
        if recovery_time_s < 0 or recovery_calls < 1:
            raise FaultError("recovery window must be positive")
        if half_open_probes < 1:
            raise FaultError("half_open_probes must be >= 1")
        if not 0.0 < probe_admit <= 1.0:
            raise FaultError("probe_admit must be in (0, 1]")
        self.name = name
        self.failure_threshold = failure_threshold
        self.window = window
        self.recovery_time_s = recovery_time_s
        self.recovery_calls = recovery_calls
        self.half_open_probes = half_open_probes
        self.probe_admit = probe_admit
        self.failure_types = failure_types
        self._clock = clock
        self._rng = random.Random(seed)
        self._obs = resolve(obs)
        self._state = CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._rejections_while_open = 0
        self._probe_successes = 0
        self.opens = 0
        self.closes = 0
        self.rejections = 0
        self.probes = 0
        self._state_gauge = self._obs.metrics.gauge(
            "resilience.breaker_state", breaker=name
        )

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        # Unclocked breakers measure recovery in rejected calls instead.
        return float(self._rejections_while_open)

    def _transition(self, state: str) -> None:
        self._state = state
        self._state_gauge.set(STATE_CODES[state])

    def _trip_open(self) -> None:
        self.opens += 1
        self._opened_at = self._now()
        self._rejections_while_open = 0
        self._probe_successes = 0
        self._outcomes.clear()
        self._transition(OPEN)
        self._obs.metrics.counter(
            "resilience.breaker_opens", breaker=self.name
        ).inc()

    def _recovery_elapsed(self) -> bool:
        if self._clock is not None:
            return self._now() - self._opened_at >= self.recovery_time_s
        return self._rejections_while_open >= self.recovery_calls

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpen` when the breaker says no."""
        if self._state == OPEN:
            if self._recovery_elapsed():
                self._transition(HALF_OPEN)
                self._probe_successes = 0
            else:
                self._rejections_while_open += 1
                self._reject()
        if self._state == HALF_OPEN:
            if self._rng.random() < self.probe_admit:
                self.probes += 1
                self._obs.metrics.counter(
                    "resilience.breaker_probes", breaker=self.name
                ).inc()
                return
            self._reject()

    def _reject(self) -> None:
        self.rejections += 1
        self._obs.metrics.counter(
            "resilience.breaker_rejections", breaker=self.name
        ).inc()
        raise CircuitOpen(
            f"circuit breaker {self.name!r} is {self._state}", breaker=self.name
        )

    def record_success(self) -> None:
        if self._state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self.closes += 1
                self._outcomes.clear()
                self._transition(CLOSED)
                self._obs.metrics.counter(
                    "resilience.breaker_closes", breaker=self.name
                ).inc()
            return
        if self._state == CLOSED:
            self._outcomes.append(False)

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            # One failed probe is proof enough: back to open, new window.
            self._trip_open()
            return
        if self._state == CLOSED:
            self._outcomes.append(True)
            if sum(self._outcomes) >= self.failure_threshold:
                self._trip_open()

    # ------------------------------------------------------------------
    # Convenience wrapper
    # ------------------------------------------------------------------

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker; failures of ``failure_types`` count."""
        self.before_call()
        try:
            result = fn()
        except self.failure_types:
            self.record_failure()
            raise
        self.record_success()
        return result

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self._state}, "
            f"opens={self.opens}, rejections={self.rejections})"
        )


class _NullBreaker(CircuitBreaker):
    """The shared disabled breaker: admits everything, records nothing."""

    def __init__(self):
        super().__init__(name="null")

    def before_call(self) -> None:
        pass

    def record_success(self) -> None:
        pass

    def record_failure(self) -> None:
        pass

    def call(self, fn: Callable[[], T]) -> T:
        return fn()


#: Shared null breaker — always closed, never trips.
NULL_BREAKER = _NullBreaker()


class CircuitBreakerSet:
    """A family of breakers, one per dependency key, sharing configuration.

    ``for_key(key)`` lazily creates (and memoises) the key's breaker with a
    stable derived seed, so endpoint "weather" probes on the same schedule
    in every run regardless of which other breakers exist.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
        **breaker_kwargs,
    ):
        self._clock = clock
        self._seed = seed
        self._obs = obs
        self._kwargs = breaker_kwargs
        self._breakers: Dict[object, CircuitBreaker] = {}

    def for_key(self, key: object) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                name=str(key),
                clock=self._clock,
                seed=derive_seed(self._seed, "breaker", key),
                obs=self._obs,
                **self._kwargs,
            )
            self._breakers[key] = breaker
        return breaker

    def items(self):
        return self._breakers.items()

    def __len__(self) -> int:
        return len(self._breakers)

    def open_count(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state == OPEN)

    def total_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    def total_rejections(self) -> int:
        return sum(b.rejections for b in self._breakers.values())
