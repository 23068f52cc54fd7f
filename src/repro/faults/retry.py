"""Shared retry policy: exponential backoff + jitter + deadline.

Every subsystem that survives transient faults does it through one
:class:`RetryPolicy` instead of ad-hoc loops, so attempt accounting and
backoff behaviour are uniform and testable. The policy never sleeps real
time — callers pass a ``sleep`` callable that charges simulated time (or
nothing), which keeps chaos experiments deterministic and fast.

Jitter is on by default and *deterministic*: each policy owns a
``random.Random(jitter_seed)`` stream, so two policies built with the same
parameters replay the same backoff sequence, while the documented
``jitter=0.1`` actually de-synchronises concurrent retriers. Callers that
need a shared stream can still pass an explicit ``rng``.

An exception is retried when it is an instance of one of ``retryable_types``
*and* its ``retryable`` attribute (see :class:`repro.errors.FaultError`) is
not False — permanent faults like a dead endpoint short-circuit the loop.
Two whole families are deliberately outside the net (experiment E20):
:class:`~repro.errors.DataCorruption` is not a :class:`FaultError` at all
(re-reading the same corrupt bytes can never succeed — replica failover,
scrubbing or WAL replay are the fix), and :class:`~repro.errors.SimulatedCrash`
sets ``retryable = False`` (the process is dead; only ``recover()`` helps).

Attempt/backoff accounting lands in two places: the per-call
:class:`RetryState`, and (when an :class:`~repro.obs.Observability` bundle
is attached) the ``retry.*`` metrics — attempts, recovered retries,
give-ups, and a backoff-delay histogram, labelled by the policy's ``scope``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type, TypeVar, TYPE_CHECKING

from repro.errors import FaultError, RetryExhausted, TimeoutExceeded
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.deadline import Deadline

T = TypeVar("T")


@dataclass
class RetryState:
    """Attempt accounting for one retried call (filled in by ``call``)."""

    attempts: int = 0
    retries: int = 0
    waited_s: float = 0.0
    last_error: Optional[BaseException] = None


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter and an overall deadline.

    ``max_attempts`` counts *all* attempts including the first, so
    ``max_attempts=1`` means no retries. ``deadline_s`` bounds cumulative
    backoff wait — or, when ``call`` is given a ``clock``, total elapsed
    time including attempt durations: a retry whose wait would cross the
    bound raises :class:`TimeoutExceeded` instead of waiting. ``call`` also
    accepts an end-to-end :class:`~repro.resilience.Deadline` to charge.

    ``scope`` names the policy in metrics (``retry.*`` series are labelled
    with it), so one Observability bundle can tell the KV store's retries
    from the federation executor's.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    deadline_s: Optional[float] = None
    retryable_types: Tuple[Type[BaseException], ...] = (FaultError,)
    jitter_seed: int = 0
    scope: str = "default"
    obs: Optional["Observability"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise FaultError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise FaultError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise FaultError("jitter must be in [0, 1)")
        # The policy's own jitter stream: deterministic under jitter_seed,
        # used whenever the caller does not supply an rng.
        self._rng = random.Random(self.jitter_seed)

    def backoff_s(self, retry_index: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before the ``retry_index``-th retry (1-based), jittered.

        With no explicit ``rng`` the policy's seeded stream applies the
        configured jitter (the stream advances per call, so consecutive
        delays differ but the whole sequence replays under the same seed).
        """
        if retry_index < 1:
            raise FaultError("retry_index is 1-based")
        delay = min(
            self.base_delay_s * self.multiplier ** (retry_index - 1),
            self.max_delay_s,
        )
        if self.jitter:
            stream = rng if rng is not None else self._rng
            delay *= 1.0 + self.jitter * (2.0 * stream.random() - 1.0)
        return delay

    def _is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable_types) and getattr(
            error, "retryable", True
        )

    def call(
        self,
        fn: Callable[[], T],
        *,
        state: Optional[RetryState] = None,
        rng: Optional[random.Random] = None,
        sleep: Optional[Callable[[float], None]] = None,
        obs: Optional["Observability"] = None,
        clock: Optional[Callable[[], float]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> T:
        """Invoke ``fn`` under this policy.

        Raises :class:`RetryExhausted` (carrying the attempt count and last
        error) when attempts run out, and :class:`TimeoutExceeded` when the
        deadline would be crossed. Non-retryable exceptions propagate
        unchanged on first occurrence.

        Deadline accounting comes in two strengths:

        * with no ``clock``, ``deadline_s`` bounds *cumulative backoff*
          only (``state.waited_s``) — the historical behaviour;
        * with a ``clock`` (wall or simulated), ``deadline_s`` bounds total
          elapsed time since the call started, so slow attempts are charged
          too — a retry whose backoff would land past the deadline raises
          :class:`TimeoutExceeded` without waiting.

        An end-to-end :class:`~repro.resilience.Deadline` can be passed as
        ``deadline``: the loop refuses to start an attempt on an expired
        budget, refuses backoffs that don't fit the remaining budget, and
        charges backoff waits to unclocked (charge-driven) deadlines.
        """
        metrics = resolve(obs if obs is not None else self.obs).metrics
        attempts_total = metrics.counter("retry.attempts", scope=self.scope)
        state = state if state is not None else RetryState()
        started_at = clock() if clock is not None else 0.0
        while True:
            if deadline is not None:
                # Never launch an attempt whose result nobody can wait for.
                deadline.check(f"retry[{self.scope}]")
            state.attempts += 1
            attempts_total.inc()
            try:
                result = fn()
            except BaseException as error:  # noqa: BLE001 - filtered below
                state.last_error = error
                if not self._is_retryable(error):
                    metrics.counter(
                        "retry.giveups", scope=self.scope, reason="permanent"
                    ).inc()
                    raise
                if state.attempts >= self.max_attempts:
                    metrics.counter(
                        "retry.giveups", scope=self.scope, reason="exhausted"
                    ).inc()
                    raise RetryExhausted(
                        f"gave up after {state.attempts} attempts: {error}",
                        attempts=state.attempts,
                        last_error=error,
                    ) from error
                delay = self.backoff_s(state.retries + 1, rng)
                if self.deadline_s is not None:
                    # With a clock, attempts count against the deadline too;
                    # without one, only cumulative backoff does (legacy).
                    elapsed = (
                        clock() - started_at if clock is not None
                        else state.waited_s
                    )
                    if elapsed + delay > self.deadline_s:
                        metrics.counter(
                            "retry.giveups", scope=self.scope, reason="deadline"
                        ).inc()
                        raise TimeoutExceeded(
                            f"retry deadline {self.deadline_s}s exceeded after "
                            f"{state.attempts} attempts: {error}"
                        ) from error
                if deadline is not None and not deadline.allows(delay):
                    metrics.counter(
                        "retry.giveups", scope=self.scope, reason="deadline"
                    ).inc()
                    raise TimeoutExceeded(
                        f"deadline for {deadline.label} leaves no room for a "
                        f"{delay:.6g}s backoff after {state.attempts} "
                        f"attempts: {error}"
                    ) from error
                state.retries += 1
                state.waited_s += delay
                metrics.counter("retry.retries", scope=self.scope).inc()
                metrics.histogram("retry.backoff_s", scope=self.scope).observe(
                    delay
                )
                if deadline is not None and not deadline.clocked:
                    # Charge-driven deadlines don't see sleeps; bill them.
                    deadline.charge(delay)
                if sleep is not None:
                    sleep(delay)
            else:
                if state.retries:
                    metrics.counter("retry.recoveries", scope=self.scope).inc()
                return result
