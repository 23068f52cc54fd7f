"""The multi-tenant serving gateway: one front door for every query path.

A :class:`Gateway` sits in front of the catalogue, the SPARQL store and the
federation executor and applies, in order, the controls a shared platform
owes its tenants:

1. **authentication** — the API key resolves to a
   :class:`~repro.serving.tenant.TenantSession` or fails with the
   non-retryable :class:`~repro.errors.AuthFailed`;
2. **per-tenant quotas** — the tenant's token bucket and in-flight cap
   reject excess with :class:`~repro.errors.QuotaExceeded` and an exact
   ``retry_after_s`` hint, before the request costs the platform anything;
3. **platform admission** — an optional shared E18
   :class:`~repro.resilience.AdmissionController` bulkhead; an internal
   :class:`~repro.errors.Overloaded` is translated into the typed
   per-tenant :class:`~repro.errors.Shed`, never leaked raw;
4. **coalescing** — an identical in-flight query (same backend, text,
   options and content version; see :mod:`repro.serving.coalesce`) absorbs
   the request as a follower: no new execution, outcome fanned out once;
5. **weighted-fair queueing** — fresh executions enter a
   :class:`~repro.serving.wfq.WeightedFairQueue` keyed by tenant weight,
   so a bursty tenant queues behind its own backlog, not everyone else's.

The gateway is execution-agnostic: callers drain it. The synchronous path
(:meth:`query`) dispatches and executes inline and is byte-identical to
direct backend access when every knob is at its default (no quotas, no
admission, one tenant) — the parity suite pins this. The event-driven path
(:meth:`submit` / :meth:`next_dispatch` / :meth:`complete`) lets a
simulation own timing: the E21 soak harness dispatches entries onto
simulated servers and completes them at service-finish events.

Ticket discipline (audited, and asserted leak-free by the soak): every
admitted request holds exactly one admission ticket from admit to
settlement and releases it exactly once — on result delivery, on typed
rejection, on deadline expiry while queued or coalesced, and on every
exception path (submit unwinds its own ticket before re-raising).
Deadlines are never shared: each coalesced member keeps its own
:class:`~repro.resilience.Deadline`, checked at dispatch and again at
fan-out, so a follower that ran out of time gets
:class:`~repro.errors.TimeoutExceeded`, never a late result.

With a :class:`~repro.sparql.governor.BudgetPolicy` attached (E23), every
execution on a budget-capable backend carries a derived
:class:`~repro.sparql.governor.QueryBudget` — the member deadline narrowed
to the per-query cap, row/byte ceilings, and the coalesce entry's
:class:`~repro.sparql.governor.CancelToken` so :meth:`Gateway.kill` stops a
runaway mid-flight. The engine's typed
:class:`~repro.errors.QueryBudgetExceeded` / :class:`~repro.errors.QueryCancelled`
never leak: both translate to per-tenant :class:`~repro.errors.Shed` at
fan-out, exactly like the E18 overload signals.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.errors import (
    CircuitOpen,
    Overloaded,
    PartitionUnavailable,
    QueryBudgetExceeded,
    QueryCancelled,
    ServingError,
    Shed,
    TimeoutExceeded,
)
from repro.obs import Observability, resolve
from repro.resilience.admission import AdmissionController, AdmissionTicket
from repro.resilience.deadline import Deadline
from repro.serving.coalesce import Coalescer, CoalesceEntry, RUNNING
from repro.serving.tenant import TenantConfig, TenantRegistry, TenantSession
from repro.serving.wfq import WeightedFairQueue
from repro.sparql.governor import BudgetPolicy, QueryBudget

#: Outcome categories a settled request lands in (exactly one each).
OK = "ok"
FAILED = "failed"
EXPIRED = "expired"

#: Internal overload signal -> (``Shed.reason``, message before the retry
#: hint), first match wins. A lost partition (E25) is transient by design —
#: replicas get re-placed — so it sheds rather than failing the tenant.
_SHED_TABLE = {
    QueryBudgetExceeded: (
        "query_budget", "query exceeded its resource budget ({error.resource})"
    ),
    QueryCancelled: ("cancelled", "query cancelled"),
    PartitionUnavailable: (
        "partition_unavailable",
        "store partition unavailable ({error.partition})",
    ),
    Overloaded: ("overloaded", "backend overloaded"),
    CircuitOpen: ("breaker_open", "backend circuit open"),
}


class GatewayRequest:
    """One tenant request travelling through the gateway."""

    __slots__ = (
        "api_key", "kind", "query", "options", "priority", "deadline",
        "cost", "session", "ticket", "submitted_at", "settled", "category",
        "result", "error", "entry", "follower",
    )

    def __init__(
        self,
        api_key: str,
        query: str,
        kind: str = "default",
        options=None,
        priority: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        cost: float = 1.0,
    ):
        self.api_key = api_key
        self.kind = kind
        self.query = query
        self.options = options
        self.priority = priority
        self.deadline = deadline
        self.cost = cost
        # Filled in by the gateway:
        self.session: Optional[TenantSession] = None
        self.ticket: Optional[AdmissionTicket] = None
        self.submitted_at = 0.0
        self.settled = False
        self.category: Optional[str] = None
        self.result = None
        self.error: Optional[BaseException] = None
        self.entry: Optional[CoalesceEntry] = None
        self.follower = False

    def __repr__(self) -> str:
        state = self.category if self.settled else "in-flight"
        tenant = self.session.name if self.session is not None else "?"
        return f"GatewayRequest({tenant!r}, kind={self.kind!r}, {state})"


class Backend:
    """One query path behind the gateway. Subclasses adapt real engines."""

    kind = "default"

    #: Set True in adapters whose ``execute`` accepts a ``budget=`` kwarg
    #: (an E23 :class:`~repro.sparql.governor.QueryBudget`). The gateway
    #: only passes one when this is set, so pre-E23 adapters — and test
    #: doubles with the old signature — keep working unchanged.
    supports_budget = False

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1):
        raise NotImplementedError

    def version(self):
        """Content-version component of the coalescing key (hashable)."""
        return 0


class Gateway:
    """The front door. See the module docstring for the control pipeline."""

    def __init__(
        self,
        backends,
        clock: Optional[Callable[[], float]] = None,
        admission: Optional[AdmissionController] = None,
        coalesce: bool = True,
        shed_retry_after_s: float = 0.1,
        obs: Optional[Observability] = None,
        budget_policy: Optional[BudgetPolicy] = None,
    ):
        if isinstance(backends, Backend):
            backends = {backends.kind: backends}
        if not backends:
            raise ServingError("gateway needs at least one backend")
        self._backends: Dict[str, Backend] = dict(backends)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._admission = admission
        self._coalesce_enabled = coalesce
        self._shed_retry_after_s = shed_retry_after_s
        self._budget_policy = budget_policy
        self._obs = resolve(obs)
        self.tenants = TenantRegistry(clock=self._clock)
        self.queue = WeightedFairQueue()
        self.coalescer = Coalescer()
        self._solo_keys = itertools.count()
        # Ticket audit: every issued ticket must be released exactly once.
        self.tickets_issued = 0
        self.tickets_released = 0
        self.executions = 0
        self._depth_gauge = self._obs.metrics.gauge("serving.queue_depth")

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def register_tenant(self, config: TenantConfig) -> TenantSession:
        return self.tenants.register(config)

    def backend(self, kind: str) -> Backend:
        try:
            return self._backends[kind]
        except KeyError:
            raise ServingError(
                f"no backend {kind!r}; have {sorted(self._backends)}"
            ) from None

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    def submit(self, request: GatewayRequest) -> GatewayRequest:
        """Admit one request: auth -> quota -> bulkhead -> coalesce/queue.

        On return the request is in flight (queued leader or attached
        follower). Typed rejections raise before the request holds any
        platform state; once a ticket is held, every exit path releases it
        exactly once.
        """
        now = self._clock()
        metrics = self._obs.metrics
        try:
            session = self.tenants.authenticate(request.api_key)
        except Exception:
            metrics.counter("serving.auth_failures").inc()
            raise
        request.session = session
        session.submitted += 1
        metrics.counter("serving.requests", tenant=session.name).inc()
        try:
            session.check_quota(now)
        except Exception as exc:
            metrics.counter(
                "serving.quota_rejected", tenant=session.name,
                reason=getattr(exc, "reason", "rate"),
            ).inc()
            raise
        ticket: Optional[AdmissionTicket] = None
        if self._admission is not None:
            try:
                priority = (
                    request.priority
                    if request.priority is not None
                    else session.config.priority
                )
                ticket = self._admission.admit(priority)
                self.tickets_issued += 1
            except Overloaded as exc:
                session.shed += 1
                metrics.counter(
                    "serving.shed", tenant=session.name, reason="overloaded"
                ).inc()
                raise Shed(
                    f"platform overloaded; retry after "
                    f"{self._shed_retry_after_s}s",
                    tenant=session.name,
                    retry_after_s=self._shed_retry_after_s,
                    reason="overloaded",
                ) from exc
        request.ticket = ticket
        request.submitted_at = now
        session.in_flight += 1
        try:
            backend = self.backend(request.kind)
            if self._coalesce_enabled:
                key = (
                    request.kind,
                    request.query,
                    request.options,
                    backend.version(),
                )
                entry = self.coalescer.lookup(key)
            else:
                key = (request.kind, "", None, next(self._solo_keys))
                entry = None
            if entry is not None:
                self.coalescer.attach(entry, request)
                request.follower = True
                session.coalesced += 1
                metrics.counter(
                    "serving.coalesced", tenant=session.name
                ).inc()
            else:
                entry = self.coalescer.open(key, request)
                self.queue.push(
                    session.name, session.weight, entry, cost=request.cost
                )
            request.entry = entry
            self._depth_gauge.set(len(self.queue))
        except BaseException:
            # Exception path of the ticket audit: unwind our own state so
            # the ticket (and the tenant's in-flight slot) cannot leak.
            session.in_flight -= 1
            if request.ticket is not None:
                request.ticket.release()
                self.tickets_released += 1
                request.ticket = None
            raise
        return request

    # ------------------------------------------------------------------
    # Dispatch / completion (event-driven path)
    # ------------------------------------------------------------------

    def next_dispatch(self) -> Optional[CoalesceEntry]:
        """Pop the next entry to execute, per weighted-fair order.

        Members whose deadline already ran out are settled here with
        :class:`~repro.errors.TimeoutExceeded` (fail fast — no server time
        for answers nobody is waiting for); an entry whose members *all*
        expired is dropped and the next one considered. Returns None when
        the queue is empty.
        """
        while True:
            popped = self.queue.pop()
            if popped is None:
                self._depth_gauge.set(0)
                return None
            _, entry = popped
            alive = False
            for member in list(entry.members):
                if member.settled:
                    continue
                if member.deadline is not None and member.deadline.expired:
                    self._settle_expired(member, "dispatch")
                else:
                    alive = True
            if alive:
                entry.state = RUNNING
                self._depth_gauge.set(len(self.queue))
                return entry
            self.coalescer.close(entry)

    def execution_deadline(self, entry: CoalesceEntry) -> Optional[Deadline]:
        """The deadline to hand the backend: the first live member's own."""
        for member in entry.members:
            if not member.settled:
                return member.deadline
        return None

    # ------------------------------------------------------------------
    # Query governance (experiment E23)
    # ------------------------------------------------------------------

    def budget_for(self, entry: CoalesceEntry) -> Optional[QueryBudget]:
        """Derive the E23 :class:`QueryBudget` for one execution, or None.

        The budget wires the entry's :class:`CancelToken` (so :meth:`kill`
        reaches inside the engine) and narrows the dispatching member's own
        deadline down to ``policy.max_seconds`` via
        :meth:`~repro.resilience.Deadline.derive` — a generous per-query cap
        never widens an almost-expired request, and an execution with no
        member deadline gets a fresh charge-driven one.
        """
        policy = self._budget_policy
        if policy is None or not policy.enabled:
            return None
        deadline = self.execution_deadline(entry)
        if policy.max_seconds is not None:
            if deadline is not None:
                deadline = deadline.derive(policy.max_seconds, label="execution")
            else:
                deadline = Deadline(policy.max_seconds, label="execution")
        leader = entry.leader
        tenant = leader.session.name if leader.session is not None else "?"
        return QueryBudget(
            deadline=deadline,
            max_rows=policy.max_rows,
            max_bytes=policy.max_bytes,
            cancel=entry.cancel,
            label=f"{entry.key[0]}:{tenant}",
            checkpoint_charge_s=policy.checkpoint_charge_s,
            row_charge_s=policy.row_charge_s,
        )

    def kill(self, entry: CoalesceEntry, reason: str = "killed by operator") -> None:
        """Request cooperative cancellation of an in-flight entry.

        Only the token flips here — the entry is *not* settled or closed:
        a running execution raises :class:`~repro.errors.QueryCancelled` at
        its next engine checkpoint and settles through the normal
        :meth:`complete` fan-out, so followers get typed errors and every
        ticket releases exactly once. Killing a queued entry makes its
        eventual execution fail at the first checkpoint.
        """
        entry.cancel.cancel(reason)
        self._obs.metrics.counter("governor.kill_requests").inc()

    def complete(
        self,
        entry: CoalesceEntry,
        result=None,
        error: Optional[BaseException] = None,
    ) -> List[GatewayRequest]:
        """Fan one execution's outcome out to every member, exactly once.

        Followers inherit the leader's outcome — result or (translated)
        error — unless their own deadline expired while the execution ran,
        in which case they get :class:`~repro.errors.TimeoutExceeded`
        instead of a late answer. Returns the members settled here.
        """
        if entry.state != RUNNING:
            raise ServingError("complete() on an entry that is not running")
        # An open breaker fails an entry before the backend is called: that
        # is a fast-fail, not an execution.
        if not isinstance(error, CircuitOpen):
            self.executions += 1
            self._obs.metrics.counter(
                "serving.executions", kind=entry.key[0]
            ).inc()
        settled = []
        for member in entry.members:
            if member.settled:
                continue
            if member.deadline is not None and member.deadline.expired:
                self._settle_expired(member, "fan-out")
            elif error is not None:
                self._settle(
                    member, FAILED, error=self._translate(error, member)
                )
            else:
                self._settle(member, OK, result=result)
            settled.append(member)
        self.coalescer.close(entry)
        return settled

    # ------------------------------------------------------------------
    # Synchronous convenience path
    # ------------------------------------------------------------------

    def query(
        self,
        api_key: str,
        query: str,
        kind: str = "default",
        options=None,
        priority: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        cost: float = 1.0,
    ):
        """Submit, execute and settle one request inline.

        Returns the backend result or raises the request's settled error.
        Identical queries cannot overlap on this single-threaded path, so
        coalescing never engages here — which is exactly why the default
        gateway is byte-identical to direct backend access.
        """
        request = GatewayRequest(
            api_key, query, kind=kind, options=options,
            priority=priority, deadline=deadline, cost=cost,
        )
        self.submit(request)
        while not request.settled:
            entry = self.next_dispatch()
            if entry is None:
                raise ServingError(
                    "request neither settled nor queued"
                )  # pragma: no cover - internal invariant
            self.execute(entry)
        if request.error is not None:
            raise request.error
        return request.result

    def execute(self, entry: CoalesceEntry) -> List[GatewayRequest]:
        """Run a dispatched entry on its backend and fan out the outcome.

        With a budget policy set and a budget-capable backend, the derived
        :class:`QueryBudget` rides along and its enforcement counters are
        recorded as ``governor.*`` metrics whichever way the execution ends.
        """
        backend = self.backend(entry.key[0])
        leader = entry.leader
        budget = self.budget_for(entry)
        kwargs = {}
        if budget is not None and backend.supports_budget:
            kwargs["budget"] = budget
        try:
            result = backend.execute(
                leader.query,
                options=leader.options,
                deadline=self.execution_deadline(entry),
                priority=(
                    leader.priority
                    if leader.priority is not None
                    else leader.session.config.priority
                ),
                **kwargs,
            )
        except Exception as exc:
            self.record_budget(budget, exc)
            return self.complete(entry, error=exc)
        self.record_budget(budget, None)
        return self.complete(entry, result=result)

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def _settle(
        self,
        request: GatewayRequest,
        category: str,
        result=None,
        error: Optional[BaseException] = None,
    ) -> None:
        if request.settled:
            raise ServingError(
                f"request settled twice: {request!r}"
            )
        request.settled = True
        request.category = category
        request.result = result
        request.error = error
        session = request.session
        session.in_flight -= 1
        if request.ticket is not None:
            request.ticket.release()
            self.tickets_released += 1
            request.ticket = None
        metrics = self._obs.metrics
        if category == OK:
            session.ok += 1
            metrics.counter("serving.ok", tenant=session.name).inc()
            metrics.histogram(
                "serving.latency_s", tenant=session.name
            ).observe(self._clock() - request.submitted_at)
        elif category == EXPIRED:
            session.expired += 1
            metrics.counter("serving.expired", tenant=session.name).inc()
        else:
            session.failed += 1
            metrics.counter("serving.failed", tenant=session.name).inc()

    def _settle_expired(self, request: GatewayRequest, where: str) -> None:
        self._settle(
            request,
            EXPIRED,
            error=TimeoutExceeded(
                f"deadline expired at {where} for tenant "
                f"{request.session.name!r}"
            ),
        )

    def record_budget(
        self, budget: Optional[QueryBudget], error: Optional[BaseException]
    ) -> None:
        """Emit one execution's ``governor.*`` metrics (kills by reason)."""
        if budget is None:
            return
        if isinstance(error, QueryBudgetExceeded):
            outcome, kill_reason = "budget", error.resource
        elif isinstance(error, QueryCancelled):
            outcome, kill_reason = "cancelled", "cancelled"
        elif isinstance(error, TimeoutExceeded):
            outcome, kill_reason = "deadline", "deadline"
        elif error is not None:
            outcome, kill_reason = "failed", None
        else:
            outcome, kill_reason = "ok", None
        budget.record(self._obs, outcome=outcome)
        if kill_reason is not None:
            self._obs.metrics.counter(
                "governor.kills", reason=kill_reason
            ).inc()

    def _translate(
        self, error: BaseException, request: GatewayRequest
    ) -> BaseException:
        """Internal overload signals become typed per-tenant errors."""
        for error_type, (reason, message) in _SHED_TABLE.items():
            if isinstance(error, error_type):
                return Shed(
                    f"{message.format(error=error)}; retry after "
                    f"{self._shed_retry_after_s}s",
                    tenant=request.session.name,
                    retry_after_s=self._shed_retry_after_s,
                    reason=reason,
                )
        return error

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def assert_drained(self) -> None:
        """Raise :class:`ServingError` unless the gateway is fully idle.

        The soak harness calls this after every run: any queued entry,
        live coalesce key, tenant in-flight count, unreleased ticket or
        bulkhead residue is a leak, and leaks fail the run.
        """
        problems = []
        if len(self.queue):
            problems.append(f"queue depth {len(self.queue)}")
        if self.coalescer.in_flight:
            problems.append(
                f"{self.coalescer.in_flight} coalesce entries in flight"
            )
        for name, session in sorted(self.tenants.sessions.items()):
            if session.in_flight:
                problems.append(f"tenant {name!r} in_flight={session.in_flight}")
        if self.tickets_issued != self.tickets_released:
            problems.append(
                f"ticket leak: issued={self.tickets_issued} "
                f"released={self.tickets_released}"
            )
        if self._admission is not None and self._admission.in_flight:
            problems.append(
                f"admission in_flight={self._admission.in_flight}"
            )
        if problems:
            raise ServingError("gateway not drained: " + "; ".join(problems))

    def __repr__(self) -> str:
        return (
            f"Gateway(backends={sorted(self._backends)}, "
            f"tenants={len(self.tenants)}, queue={len(self.queue)}, "
            f"executions={self.executions})"
        )
