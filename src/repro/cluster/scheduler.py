"""Locality-aware task scheduling (delay scheduling) with fault tolerance.

The paper's platform "provides services to move the processing to where the
data is". The mechanism that realises this in Spark-land is *delay
scheduling*: when a slot frees on node N, prefer a queued task whose input is
local to N; a task waits up to ``locality_wait_s`` of simulated time for a
local slot before it accepts a remote one and pays the input transfer.

Experiment E13's ablation compares ``locality_wait_s = 0`` (no locality) with
the default.

Fault tolerance (experiment E17) threads through a
:class:`~repro.faults.injector.FaultInjector`:

* **node crashes** — the node's slots disappear and its running tasks are
  re-queued (``crash_recovery=True``) or lost (``tasks_lost``);
* **stragglers** — slowed nodes trigger *speculative execution*: a second
  copy of a late task launches on a healthy node, first finish wins;
* **blacklisting** — nodes that repeatedly fail tasks stop receiving work.

With no injector and the tolerance knobs at their defaults the scheduler is
byte-identical to the fault-free implementation.

Overload resilience (experiment E18): an optional
:class:`~repro.resilience.AdmissionController` guards submission — each
submitted task takes an admission ticket (classed by ``Task.priority``),
held until the task reaches a terminal state (completed, abandoned, or
lost in a crash), so queue depth is bounded and batch work is shed first
under pressure with the retryable :class:`~repro.errors.Overloaded`.

Distributed query execution (experiment E25) adds DAG scheduling: tasks may
declare ``depends_on`` (dispatch waits for those completions; terminal
non-completion cascades abandonment), an ``on_attempt_end`` hook that fires
per *attempt* (the idempotent-output commit point for shuffle writes), an
``on_abandon`` hook for tasks that will never complete, and a public
:meth:`Scheduler.cancel_task` (budget kills withdraw whole query DAGs with
their admission tickets released exactly once — audited by
``tickets_issued``/``tickets_released``).

Retry accounting semantics (pinned by the regression suite): a failed
attempt that *will be retried* counts toward ``task_failures``; the final
failed attempt of a task that exhausts ``max_retries`` counts as exactly one
``tasks_abandoned`` (not also a failure). A task abandoned after N retries
therefore contributes N failures and 1 abandonment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.errors import ClusterError
from repro.cluster.resources import ClusterSpec, Node
from repro.cluster.simclock import Event, Simulation
from repro.obs import MetricsRegistry, Observability, resolve
from repro.obs.tracing import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector
    from repro.resilience.admission import AdmissionController, AdmissionTicket


@dataclass
class Task:
    """A unit of work.

    ``work_s`` is the compute time on a speed-1.0 slot; the input is
    ``input_bytes`` stored on ``preferred_nodes`` (empty = no locality
    preference). ``priority`` is the admission class (0 = batch, 1 =
    interactive) consulted only when the scheduler has an admission
    controller attached.

    ``depends_on`` names task ids that must **complete** before this task
    may dispatch (E25 DAG stages: shuffle reducers wait for their mappers).
    A task whose dependency is abandoned, lost, or cancelled can never run
    and is abandoned in cascade.

    Completion hooks: ``on_complete`` fires exactly once, when the task
    settles successfully (speculative copies race; the first finisher wins
    and the losers are cancelled). ``on_attempt_end`` fires for *every*
    attempt that runs to the end of its slot — including attempts the fault
    injector then marks failed, modelling a worker that finished its work
    and wrote its output but died before reporting. Side effects in
    ``on_attempt_end`` must therefore be idempotent: a retried task commits
    its output twice. ``on_abandon`` fires exactly once if the task reaches
    a terminal state *without* completing (retries exhausted, lost in a
    crash without recovery, or dependency-cascaded).
    """

    task_id: int
    work_s: float
    kind: str = "cpu"
    input_bytes: float = 0.0
    preferred_nodes: Set[int] = field(default_factory=set)
    on_complete: Optional[Callable[["Task"], None]] = None
    priority: int = 1
    depends_on: Set[int] = field(default_factory=set)
    on_attempt_end: Optional[Callable[["Task", bool], None]] = None
    on_abandon: Optional[Callable[["Task"], None]] = None

    submitted_at: float = field(default=0.0, init=False)
    started_at: Optional[float] = field(default=None, init=False)
    finished_at: Optional[float] = field(default=None, init=False)
    ran_local: Optional[bool] = field(default=None, init=False)
    ran_on: Optional[int] = field(default=None, init=False)
    attempts: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.work_s < 0:
            raise ClusterError("task work must be non-negative")
        if self.kind not in ("cpu", "gpu"):
            raise ClusterError(f"unknown task kind {self.kind!r}")


@dataclass
class _Execution:
    """One running copy of a task (speculation can run several)."""

    task: Task
    node_id: int
    event: Event
    local: bool
    speculative: bool = False
    span: Optional[Span] = None


class SchedulerMetrics:
    """Aggregate outcomes of a scheduling run.

    The same attribute API as the original dataclass (``tasks_completed``,
    ``locality_hits``, ...), but every field is now backed by a counter in
    a :class:`~repro.obs.MetricsRegistry` — the scheduler's own private
    registry by default, or a shared Observability registry when one is
    attached, where the series appear as ``scheduler.<field>``. Counts are
    exact integers either way, so runs are byte-identical to the bespoke
    fields they replace.
    """

    _COUNT_FIELDS = (
        "tasks_completed",
        "locality_hits",
        "locality_misses",
        "task_failures",
        "tasks_abandoned",
        "node_crashes",
        "speculative_launches",
        "tasks_lost",
        "nodes_blacklisted",
        "tasks_cancelled",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self._registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self._registry.counter(f"scheduler.{name}")
            for name in self._COUNT_FIELDS
        }
        self._bytes = self._registry.counter("scheduler.bytes_transferred")
        self._makespan = self._registry.gauge("scheduler.makespan_s")

    def inc(self, name: str, amount: float = 1) -> None:
        if name == "bytes_transferred":
            self._bytes.inc(amount)
            return
        self._counters[name].inc(amount)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    @property
    def bytes_transferred(self) -> float:
        return self._bytes.value

    @property
    def makespan_s(self) -> float:
        return self._makespan.value

    @makespan_s.setter
    def makespan_s(self, value: float) -> None:
        self._makespan.set(value)

    @property
    def locality_rate(self) -> float:
        total = self.locality_hits + self.locality_misses
        if total == 0:
            return 1.0
        return self.locality_hits / total

    def as_dict(self) -> Dict[str, float]:
        summary: Dict[str, float] = {
            name: getattr(self, name) for name in self._COUNT_FIELDS
        }
        summary["bytes_transferred"] = self.bytes_transferred
        summary["makespan_s"] = self.makespan_s
        summary["locality_rate"] = self.locality_rate
        return summary

    def __repr__(self) -> str:  # keeps the old dataclass-style debugging
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SchedulerMetrics({fields})"


class Scheduler:
    """FIFO scheduler with delay scheduling over a simulated cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        simulation: Optional[Simulation] = None,
        locality_wait_s: float = 3.0,
        max_retries: int = 3,
        injector: Optional["FaultInjector"] = None,
        crash_recovery: bool = True,
        speculation: bool = False,
        speculation_factor: float = 2.0,
        blacklist_after: Optional[int] = None,
        obs: Optional[Observability] = None,
        admission: Optional["AdmissionController"] = None,
    ):
        if locality_wait_s < 0:
            raise ClusterError("locality_wait_s must be non-negative")
        if max_retries < 0:
            raise ClusterError("max_retries must be non-negative")
        if speculation_factor <= 1.0:
            raise ClusterError("speculation_factor must be > 1")
        if blacklist_after is not None and blacklist_after < 1:
            raise ClusterError("blacklist_after must be >= 1")
        self.spec = spec
        self.simulation = simulation if simulation is not None else Simulation()
        self.locality_wait_s = locality_wait_s
        self.max_retries = max_retries
        self.injector = injector
        self.crash_recovery = crash_recovery
        self.speculation = speculation
        self.speculation_factor = speculation_factor
        self.blacklist_after = blacklist_after
        self.nodes: List[Node] = spec.build_nodes()
        self.obs = resolve(obs)
        # Task lifecycle spans run on *simulated* time: claim an unclocked
        # tracer for the sim-clock (wall-clock tracers keep their clock).
        if self.obs.enabled and self.obs.tracer.clock is None:
            self.obs.tracer.clock = lambda: self.simulation.now
        self.metrics = SchedulerMetrics(
            registry=self.obs.metrics if self.obs.enabled else None
        )
        self._queue: List[Task] = []
        self._free_slots: Dict[str, Dict[int, int]] = {
            "cpu": {n.node_id: n.cpu_slots for n in self.nodes},
            "gpu": {n.node_id: n.gpu_slots for n in self.nodes},
        }
        self._task_counter = itertools.count()
        self._next_wakeup: Optional[float] = None
        self._last_finish_s = 0.0
        self._admission = admission
        self._tickets: Dict[int, "AdmissionTicket"] = {}
        #: Exactly-once admission audit (mirrors the gateway's): every ticket
        #: taken must be released by the time the run drains.
        self.tickets_issued = 0
        self.tickets_released = 0
        self._running: Dict[int, List[_Execution]] = {}
        self._completed_tasks: Set[int] = set()
        self._dependents: Dict[int, List[Task]] = {}
        self._dead_nodes: Set[int] = set()
        self._blacklisted: Set[int] = set()
        self._node_failures: Dict[int, int] = {}
        if injector is not None:
            self._apply_plan(injector)

    def _apply_plan(self, injector: "FaultInjector") -> None:
        """Install stragglers and schedule the plan's node crashes.

        E25 node *losses* kill the node's compute slots through the same
        crash path (the storage side — replica death — is the distributed
        store layer's business, consulted via ``injector.node_losses()``).
        """
        for node in self.nodes:
            factor = injector.straggler_factor(node.node_id)
            if factor != 1.0:
                node.speed = node.speed / factor
            down_times = [
                at
                for at in (
                    injector.node_crash_time(node.node_id),
                    getattr(injector, "node_loss_time", lambda _n: None)(
                        node.node_id
                    ),
                )
                if at is not None
            ]
            if down_times:
                self.simulation.schedule_at(
                    max(min(down_times), self.simulation.now),
                    lambda node_id=node.node_id: self._crash_node(node_id),
                )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def make_task(
        self,
        work_s: float,
        kind: str = "cpu",
        input_bytes: float = 0.0,
        preferred_nodes: Optional[Set[int]] = None,
        on_complete: Optional[Callable[[Task], None]] = None,
        priority: int = 1,
    ) -> Task:
        return Task(
            task_id=next(self._task_counter),
            work_s=work_s,
            kind=kind,
            input_bytes=input_bytes,
            preferred_nodes=set(preferred_nodes or ()),
            on_complete=on_complete,
            priority=priority,
        )

    def _admit(self, task: Task) -> None:
        """Take an admission ticket for *task*; raises ``Overloaded`` when
        the controller sheds it (the task is then not queued)."""
        if self._admission is None:
            return
        self._tickets[task.task_id] = self._admission.admit(
            priority=task.priority
        )
        self.tickets_issued += 1

    def _release_ticket(self, task: Task) -> None:
        ticket = self._tickets.pop(task.task_id, None)
        if ticket is not None:
            ticket.release()
            self.tickets_released += 1

    def _enqueue(self, task: Task) -> None:
        task.submitted_at = self.simulation.now
        for dependency in task.depends_on:
            if dependency not in self._completed_tasks:
                self._dependents.setdefault(dependency, []).append(task)
        self._queue.append(task)

    def submit(self, task: Task) -> None:
        self._admit(task)
        self._enqueue(task)
        self._dispatch()

    def submit_all(self, tasks: List[Task]) -> None:
        for task in tasks:
            self._admit(task)
            self._enqueue(task)
        self._dispatch()

    def run(self) -> SchedulerMetrics:
        """Run the simulation until all submitted tasks complete."""
        self.simulation.run()
        if self._queue:
            raise ClusterError(
                f"{len(self._queue)} tasks still queued after simulation drain "
                "(no capacity for their kind?)"
            )
        # Makespan is the last task completion; pending locality wake-ups may
        # have pushed the simulation clock further with no work happening.
        self.metrics.makespan_s = self._last_finish_s
        return self.metrics

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        # Repeatedly match queued tasks to free slots.
        progress = True
        while progress:
            progress = False
            for task in list(self._queue):
                node_id = self._pick_node(task)
                if node_id is None:
                    continue
                self._queue.remove(task)
                self._launch(task, node_id)
                progress = True
        self._schedule_locality_wakeup()

    def _schedule_locality_wakeup(self) -> None:
        """Wake the dispatcher when the earliest locality wait expires, so
        tasks don't stall while remote slots sit free."""
        expiries = [
            t.submitted_at + self.locality_wait_s
            for t in self._queue
            if t.preferred_nodes and self._deps_met(t)
        ]
        if not expiries:
            return
        earliest = min(expiries)
        if earliest <= self.simulation.now:
            return
        if (
            self._next_wakeup is not None
            and self.simulation.now < self._next_wakeup <= earliest
        ):
            return
        self._next_wakeup = earliest
        self.simulation.schedule_at(earliest, self._dispatch)

    def _schedulable(self, node_id: int) -> bool:
        return node_id not in self._blacklisted

    def _deps_met(self, task: Task) -> bool:
        if not task.depends_on:
            return True
        return task.depends_on <= self._completed_tasks

    def _pick_node(self, task: Task) -> Optional[int]:
        if not self._deps_met(task):
            return None
        free = self._free_slots[task.kind]
        local_candidates = [
            n
            for n in task.preferred_nodes
            if free.get(n, 0) > 0 and self._schedulable(n)
        ]
        if local_candidates:
            return min(local_candidates)
        waited = self.simulation.now - task.submitted_at
        if task.preferred_nodes and waited < self.locality_wait_s:
            # Keep waiting for a local slot.
            return None
        candidates = [
            n for n, slots in free.items() if slots > 0 and self._schedulable(n)
        ]
        if not candidates:
            return None
        return min(candidates)

    def _launch(self, task: Task, node_id: int, speculative: bool = False) -> None:
        node = self.nodes[node_id]
        self._free_slots[task.kind][node_id] -= 1
        task.started_at = self.simulation.now
        task.ran_on = node_id
        local = not task.preferred_nodes or node_id in task.preferred_nodes
        task.ran_local = local
        duration = task.work_s / node.speed
        if not local and task.input_bytes:
            duration += self.spec.transfer_time_s(task.input_bytes)
            self.metrics.inc("bytes_transferred", task.input_bytes)
        if local:
            self.metrics.inc("locality_hits")
        else:
            self.metrics.inc("locality_misses")

        execution = _Execution(
            task=task, node_id=node_id, event=None, local=local,  # type: ignore[arg-type]
            speculative=speculative,
            span=self.obs.tracer.start_span(
                "scheduler.task",
                task=task.task_id,
                node=node_id,
                kind=task.kind,
                local=local,
                speculative=speculative,
            ),
        )

        def finish() -> None:
            self._finish(execution)

        execution.event = self.simulation.schedule(duration, finish)
        self._running.setdefault(task.task_id, []).append(execution)

        if self.speculation and not speculative:
            nominal = task.work_s / self.spec.node_speed
            if nominal > 0 and duration > self.speculation_factor * nominal:
                # The copy is visibly late the moment a healthy node would
                # have finished it; check for a speculative slot then.
                self.simulation.schedule(
                    self.speculation_factor * nominal,
                    lambda: self._maybe_speculate(task),
                )

    def _maybe_speculate(self, task: Task) -> None:
        """Launch a backup copy of a straggling task on a healthy free node.

        If every candidate slot is busy, the check re-arms itself — the
        straggler may hold its copy for many multiples of the nominal
        runtime, and a slot freeing up later is still worth taking.
        """
        if task.finished_at is not None:
            return
        executions = self._running.get(task.task_id)
        if not executions:
            return  # queued for retry; the queue is its backup path
        if any(e.speculative for e in executions):
            return  # one backup copy at a time
        busy = {e.node_id for e in executions}
        free = self._free_slots[task.kind]
        candidates = [
            n
            for n, slots in free.items()
            if slots > 0
            and n not in busy
            and self._schedulable(n)
            and self.nodes[n].speed > self.nodes[executions[0].node_id].speed
        ]
        if not candidates:
            retry_in = task.work_s / self.spec.node_speed
            if retry_in > 0:
                self.simulation.schedule(
                    retry_in, lambda: self._maybe_speculate(task)
                )
            return
        # Prefer the fastest free node; break ties toward the lowest id.
        best = max(candidates, key=lambda n: (self.nodes[n].speed, -n))
        self.metrics.inc("speculative_launches")
        self._launch(task, best, speculative=True)

    # ------------------------------------------------------------------
    # Completion, failure, and crash handling
    # ------------------------------------------------------------------

    def _retire(self, execution: _Execution) -> None:
        """Remove a finished/cancelled execution and free its slot."""
        executions = self._running.get(execution.task.task_id)
        if executions and execution in executions:
            executions.remove(execution)
            if not executions:
                del self._running[execution.task.task_id]
        if execution.node_id not in self._dead_nodes:
            self._free_slots[execution.task.kind][execution.node_id] += 1

    def _cancel_siblings(self, execution: _Execution) -> None:
        """A copy won (or the task was abandoned): kill the other copies."""
        for sibling in list(self._running.get(execution.task.task_id, ())):
            if sibling is execution:
                continue
            Simulation.cancel(sibling.event)
            if sibling.span is not None:
                sibling.span.end("cancelled")
            self._retire(sibling)

    def _finish(self, execution: _Execution) -> None:
        task = execution.task
        self._last_finish_s = max(self._last_finish_s, self.simulation.now)
        self._retire(execution)
        # Injected failure: the attempt burned its slot time, then died.
        failed = self.injector is not None and self.injector.task_fails(
            task.task_id
        )
        if task.on_attempt_end is not None:
            # Every attempt that burned its full slot reports — even one the
            # injector fails (it finished the work, then died unreported).
            # A retry re-runs the hook, so its effects must be idempotent.
            task.ran_on = execution.node_id
            task.ran_local = execution.local
            task.on_attempt_end(task, failed)
        if failed:
            if execution.span is not None:
                execution.span.end("failed")
            task.attempts += 1
            self._record_node_failure(execution.node_id)
            if self._running.get(task.task_id):
                # A speculative copy is still in flight; it is the retry.
                self.metrics.inc("task_failures")
            elif task.attempts > self.max_retries:
                self.metrics.inc("tasks_abandoned")
                self._release_ticket(task)
                if task.on_abandon is not None:
                    task.on_abandon(task)
                self._fail_dependents(task)
            else:
                self.metrics.inc("task_failures")
                task.submitted_at = self.simulation.now
                self._queue.append(task)
            self._dispatch()
            return
        task.finished_at = self.simulation.now
        task.ran_on = execution.node_id
        task.ran_local = execution.local
        if execution.span is not None:
            execution.span.end("ok")
        self._cancel_siblings(execution)
        self.metrics.inc("tasks_completed")
        self._completed_tasks.add(task.task_id)
        for dependent in self._dependents.pop(task.task_id, ()):
            if self._deps_met(dependent):
                # The dependent only now became runnable: restart its
                # locality-wait clock so it still gets a fair local window.
                dependent.submitted_at = self.simulation.now
        self._release_ticket(task)
        if task.on_complete is not None:
            task.on_complete(task)
        self._dispatch()

    def _fail_dependents(self, task: Task) -> None:
        """A task reached a terminal state without completing: every queued
        task that depends on it can never run — abandon them in cascade
        (releasing their tickets) rather than deadlock the drain."""
        for dependent in self._dependents.pop(task.task_id, ()):
            if dependent not in self._queue:
                continue  # already terminal via another path
            self._queue.remove(dependent)
            self.metrics.inc("tasks_abandoned")
            self._release_ticket(dependent)
            if dependent.on_abandon is not None:
                dependent.on_abandon(dependent)
            self._fail_dependents(dependent)

    def cancel_task(self, task: Task) -> bool:
        """Withdraw a task: dequeue it and kill any running copies (E25's
        budget-kill path). The admission ticket is released exactly once; no
        completion callback fires; queued dependents are abandoned. Returns
        True if anything was actually cancelled — completed tasks and tasks
        unknown to the scheduler are a no-op.
        """
        if task.finished_at is not None:
            return False
        cancelled = False
        if task in self._queue:
            self._queue.remove(task)
            cancelled = True
        for execution in list(self._running.get(task.task_id, ())):
            Simulation.cancel(execution.event)
            if execution.span is not None:
                execution.span.end("cancelled")
            self._retire(execution)
            cancelled = True
        if cancelled:
            self.metrics.inc("tasks_cancelled")
            self._release_ticket(task)
            self._fail_dependents(task)
            self._dispatch()
        return cancelled

    @property
    def dead_nodes(self) -> Set[int]:
        """Node ids that have crashed (or been lost) so far, as a copy."""
        return set(self._dead_nodes)

    def _record_node_failure(self, node_id: int) -> None:
        if self.blacklist_after is None or node_id in self._dead_nodes:
            return
        count = self._node_failures.get(node_id, 0) + 1
        self._node_failures[node_id] = count
        if count < self.blacklist_after or node_id in self._blacklisted:
            return
        usable = [
            n.node_id
            for n in self.nodes
            if n.node_id not in self._dead_nodes
            and n.node_id not in self._blacklisted
            and n.node_id != node_id
        ]
        if not usable:
            return  # never blacklist the last schedulable node
        self._blacklisted.add(node_id)
        self.metrics.inc("nodes_blacklisted")

    def _crash_node(self, node_id: int) -> None:
        """The node dies: slots vanish; running work is re-queued or lost."""
        if node_id in self._dead_nodes:
            return
        self._dead_nodes.add(node_id)
        self.metrics.inc("node_crashes")
        self._free_slots["cpu"].pop(node_id, None)
        self._free_slots["gpu"].pop(node_id, None)
        victims = [
            execution
            for executions in self._running.values()
            for execution in executions
            if execution.node_id == node_id
        ]
        for execution in victims:
            Simulation.cancel(execution.event)
            if execution.span is not None:
                execution.span.end("killed")
            self._retire(execution)
            task = execution.task
            if task.finished_at is not None or self._running.get(task.task_id):
                continue  # another copy survives elsewhere
            if self.crash_recovery:
                task.submitted_at = self.simulation.now
                self._queue.append(task)
            else:
                self.metrics.inc("tasks_lost")
                self._release_ticket(task)
                if task.on_abandon is not None:
                    task.on_abandon(task)
                self._fail_dependents(task)
        self._dispatch()
