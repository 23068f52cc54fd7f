"""Per-query resource governance for both SPARQL engines (experiment E23).

The E21 gateway enforces deadlines only at admission and settlement: once a
query enters the interpreted evaluator or the E22 vector engine, nothing can
stop it — one adversarial cross-product monopolizes memory and its WFQ slot
while expired followers queue behind it. This package closes that gap with
the discipline production SPARQL endpoints treat as table stakes: per-query
timeouts, memory caps and kill switches, enforced *inside* the engines.

A :class:`QueryBudget` travels with one execution (the ``budget=``
argument of ``evaluate`` / ``GeoStore.query`` / ``DistRuntime.query``, carried
in the :class:`~repro.sparql.evaluator.ExecContext`) and bundles three
controls:

* **deadline** — the existing dual-mode
  :class:`~repro.resilience.Deadline` (clocked, or charge-driven: each
  checkpoint can charge a modelled per-operator cost, and
  :class:`~repro.faults.SlowOperator` faults inject extra sim-clock charge);
* **memory caps** — ``max_rows``/``max_bytes`` bound the *resident*
  intermediate state: batch-level accounting in the vector engine (operator
  results charge, consumed children release), solution-count accounting in
  the interpreted one. The vector join pre-admits its output size *before*
  allocating the pair arrays, so a cross-product dies at the checkpoint,
  not in the allocator. Bytes are modelled (8 per binding cell — the id
  width) rather than measured, keeping the accounting deterministic;
* **cancellation** — a :class:`CancelToken` the gateway (or any owner) can
  flip; the engine notices at its next checkpoint and unwinds cleanly.

Checkpoints raise the typed, non-leaking errors
:class:`~repro.errors.QueryCancelled` (cancel observed),
:class:`~repro.errors.TimeoutExceeded` (deadline gone) and
:class:`~repro.errors.QueryBudgetExceeded` (cap hit) — the gateway
translates all of them into per-tenant :class:`~repro.errors.Shed` /
timeout errors, exactly like the E18 ``Overloaded``/``CircuitOpen``
translation.

``budget=None`` (the default everywhere) keeps the disabled path
byte-identical to pre-governor code, pinned by the parity suite, matching
the E17–E22 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import QueryBudgetExceeded, QueryCancelled, SPARQLError

#: Modelled bytes per resident binding cell (the vector engine's id width).
BYTES_PER_CELL = 8


class CancelToken:
    """A cooperative kill switch shared between an owner and one execution.

    The owner calls :meth:`cancel`; the engine polls :attr:`cancelled` at
    every :meth:`QueryBudget.checkpoint` and raises
    :class:`~repro.errors.QueryCancelled`. Idempotent — the first reason
    wins, later cancels are no-ops.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        if not self._cancelled:
            self._cancelled = True
            self.reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self._cancelled else "live"
        return f"CancelToken({state})"


class QueryBudget:
    """One query's resource envelope plus its enforcement counters.

    Engines call :meth:`checkpoint` at operator boundaries and inside their
    tight loops (join build/probe, aggregate groups), :meth:`admit_rows` *before* a sized allocation, and
    :meth:`charge_rows`/:meth:`release_to` around operator results so
    ``resident_rows``/``resident_bytes`` track live intermediate state and
    ``peak_rows``/``peak_bytes`` record the high-water mark.

    ``checkpoint_charge_s`` and ``row_charge_s`` turn checkpoints and
    produced rows into charge-driven deadline consumption — the soak's
    deterministic service-time model, and the only way a charge-driven
    deadline can expire inside an engine. A
    :class:`~repro.faults.FaultInjector` adds :class:`SlowOperator` charge
    on top, keyed by the operator name the checkpoint reports.
    """

    __slots__ = (
        "deadline", "max_rows", "max_bytes", "cancel", "label", "injector",
        "checkpoint_charge_s", "row_charge_s", "checkpoints",
        "rows_produced", "resident_rows", "resident_bytes", "peak_rows",
        "peak_bytes", "charged_s",
    )

    def __init__(
        self,
        deadline=None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
        label: str = "query",
        injector=None,
        checkpoint_charge_s: float = 0.0,
        row_charge_s: float = 0.0,
    ):
        if max_rows is not None and max_rows < 1:
            raise SPARQLError(f"max_rows must be >= 1, got {max_rows}")
        if max_bytes is not None and max_bytes < 1:
            raise SPARQLError(f"max_bytes must be >= 1, got {max_bytes}")
        if checkpoint_charge_s < 0 or row_charge_s < 0:
            raise SPARQLError("budget charges must be >= 0")
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.cancel = cancel if cancel is not None else CancelToken()
        self.label = label
        self.injector = injector
        self.checkpoint_charge_s = checkpoint_charge_s
        self.row_charge_s = row_charge_s
        self.checkpoints = 0
        self.rows_produced = 0
        self.resident_rows = 0
        self.resident_bytes = 0
        self.peak_rows = 0
        self.peak_bytes = 0
        self.charged_s = 0.0

    # ------------------------------------------------------------------
    # Checkpoints: cancellation, injected slowness, deadline
    # ------------------------------------------------------------------

    def checkpoint(self, where: str = "") -> None:
        """One cooperative enforcement point; engines call this before a
        unit of work. Order matters: a kill is honoured even when the
        deadline also ran out, so the owner's reason survives."""
        self.checkpoints += 1
        if self.cancel.cancelled:
            raise QueryCancelled(
                f"query {self.label!r} cancelled at {where or 'checkpoint'}: "
                f"{self.cancel.reason}",
                reason=self.cancel.reason,
            )
        charge = self.checkpoint_charge_s
        if self.injector is not None:
            charge += self.injector.operator_charge(where)
        if charge:
            self.charge_cost(charge)
        if self.deadline is not None:
            self.deadline.check(where or self.label)

    def charge_cost(self, seconds: float) -> None:
        """Consume modelled execution time (and the deadline, if any)."""
        self.charged_s += seconds
        if self.deadline is not None:
            self.deadline.charge(seconds)

    def produced(self, rows: int) -> None:
        """Account rows an operator produced (a work counter, not memory)."""
        self.rows_produced += rows

    # ------------------------------------------------------------------
    # Resident-memory accounting
    # ------------------------------------------------------------------

    def admit_rows(self, rows: int, columns: int = 1, where: str = "") -> None:
        """Refuse an allocation of ``rows x columns`` cells that would
        exceed a cap — called *before* the memory exists, so the peak
        counters can never read past the configured limit."""
        if self.max_rows is not None and self.resident_rows + rows > self.max_rows:
            raise QueryBudgetExceeded(
                f"query {self.label!r} would hold "
                f"{self.resident_rows + rows} rows at "
                f"{where or 'admit'} (cap {self.max_rows})",
                resource="rows",
                observed=self.resident_rows + rows,
                limit=self.max_rows,
            )
        if self.max_bytes is not None:
            projected = self.resident_bytes + rows * columns * BYTES_PER_CELL
            if projected > self.max_bytes:
                raise QueryBudgetExceeded(
                    f"query {self.label!r} would hold {projected} bytes at "
                    f"{where or 'admit'} (cap {self.max_bytes})",
                    resource="bytes",
                    observed=projected,
                    limit=self.max_bytes,
                )

    def charge_rows(self, rows: int, columns: int = 1, where: str = "") -> None:
        """Admit, then account ``rows`` as produced *and* resident."""
        self.admit_rows(rows, columns, where)
        self.rows_produced += rows
        self.resident_rows += rows
        self.resident_bytes += rows * columns * BYTES_PER_CELL
        if self.resident_rows > self.peak_rows:
            self.peak_rows = self.resident_rows
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes
        if self.row_charge_s:
            self.charge_cost(rows * self.row_charge_s)

    def mark(self) -> Tuple[int, int]:
        """Snapshot of resident state, for :meth:`release_to`."""
        return (self.resident_rows, self.resident_bytes)

    def release_to(self, mark: Tuple[int, int]) -> None:
        """Roll resident accounting back to a :meth:`mark` — an operator's
        inputs are garbage once its output batch exists. Peaks keep the
        high-water mark."""
        self.resident_rows, self.resident_bytes = mark

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def record(self, obs, outcome: str = "ok") -> None:
        """Emit the ``governor.*`` metrics for one finished execution."""
        metrics = obs.metrics
        metrics.counter("governor.queries", outcome=outcome).inc()
        metrics.counter("governor.checkpoints").inc(self.checkpoints)
        metrics.histogram("governor.peak_rows").observe(float(self.peak_rows))

    def __repr__(self) -> str:
        caps = []
        if self.max_rows is not None:
            caps.append(f"max_rows={self.max_rows}")
        if self.max_bytes is not None:
            caps.append(f"max_bytes={self.max_bytes}")
        if self.deadline is not None:
            caps.append(f"deadline={self.deadline!r}")
        return (
            f"QueryBudget({self.label!r}, {', '.join(caps) or 'unlimited'}, "
            f"checkpoints={self.checkpoints}, peak_rows={self.peak_rows})"
        )


@dataclass(frozen=True)
class BudgetPolicy:
    """The gateway's recipe for deriving one :class:`QueryBudget` per
    execution (see :meth:`repro.serving.Gateway.budget_for`).

    ``max_seconds`` caps the execution deadline: the member's own deadline
    is narrowed via :meth:`~repro.resilience.Deadline.derive` (never
    widened), and an execution with no member deadline gets a fresh
    charge-driven one. ``checkpoint_charge_s``/``row_charge_s`` make that
    deadline consume modelled engine work, so a time cap binds even on a
    simulated clock that does not advance mid-execution.
    """

    max_rows: Optional[int] = None
    max_bytes: Optional[int] = None
    max_seconds: Optional[float] = None
    checkpoint_charge_s: float = 0.0
    row_charge_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < 1:
            raise SPARQLError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise SPARQLError(f"max_bytes must be >= 1, got {self.max_bytes}")

    @property
    def enabled(self) -> bool:
        return (
            self.max_rows is not None
            or self.max_bytes is not None
            or self.max_seconds is not None
            or self.checkpoint_charge_s > 0
            or self.row_charge_s > 0
        )


__all__ = [
    "BYTES_PER_CELL",
    "BudgetPolicy",
    "CancelToken",
    "QueryBudget",
]
