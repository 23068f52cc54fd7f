"""Fault-tolerant distributed execution of vector plans (experiment E25).

:class:`DistRuntime` owns the partitioned store and the knobs; each query
gets a fresh deterministic :class:`~repro.cluster.scheduler.Scheduler` run
(:class:`_DistRun`) that turns the physical plan into a DAG of tasks and
drives it to a settled answer — or a typed failure — under whatever the
fault injector throws at it.

Tasks run the vector engine's own ``_execute`` on their
:class:`~repro.sparql.dist.plan.Stage`'s ``op`` (:meth:`ExecContext.reading`)
with its exchange inputs — gathered relations, a ``split`` fragment, a
shuffle bucket — planted. A keyed stage runs ``op`` once, when its first
partition task reaches a live replica, over the subject range its partitions
cover; each partition's task commits its cut of that run on the key. All
tasks share the query's term encoder, so a term a BIND computes gets one id.

Robustness model
----------------

* **Idempotent output commit.** Every task publishes its result into a
  :class:`ShuffleStore` under a stable ``(stage, index)`` key;
  first-write-wins. The scheduler's ``on_attempt_end`` hook fires for every
  attempt that burned its slot — including attempts the injector then fails
  (a worker that finished the work, wrote its output, and died before
  reporting) and speculative twins — so re-execution *will* try to commit
  twice; the store refuses the duplicate and counts it. Rows are therefore
  never double-counted, and budget charging (done at first commit) stays
  exactly-once.
* **Replica failover.** A stage task reads its partition from its own node
  when that node holds a live replica, otherwise from the lowest-id live,
  reachable replica (paying the transfer). A live-but-partitioned replica
  set is *transient*: the driver resubmits a fresh task after a backoff,
  up to ``MAX_DATA_RETRIES``. No live replica at all is *permanent*:
  :class:`~repro.errors.PartitionUnavailable` (typed, retryable), or — only
  with ``allow_partial=True`` — an explicitly flagged
  :class:`PartialResult` missing that partition.
* **Committed-output recovery.** A task abandoned by the scheduler (retries
  exhausted, dependency cascade) whose output *was* committed settles from
  the store; one with no output is resubmitted fresh (its compute is
  deterministic and side-effect-free until commit), bounded by
  ``MAX_DATA_RETRIES``.
* **Budget kill.** Every task's compute starts at a
  :class:`~repro.sparql.governor.QueryBudget` checkpoint (``_execute``'s
  own governance, or the shuffle map's); the first
  budget/cancel error aborts the run, which cancels all in-flight tasks
  through :meth:`Scheduler.cancel_task` — admission tickets are released
  exactly once, audited by ``tickets_issued == tickets_released``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.resources import ClusterSpec
from repro.cluster.scheduler import Scheduler, Task
from repro.errors import ClusterError, PartitionUnavailable
from repro.sparql.algebra import (
    AlgebraOp,
    CompileOptions,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    operator_variables,
)
from repro.sparql.ast import AskQuery, SelectQuery
from repro.sparql.evaluator import ExecContext
from repro.sparql.pipeline import Engine, run_query
from repro.sparql.vector.batch import Batch
from repro.sparql.vector.cost import cost_score
from repro.sparql.vector.engine import _execute, finish_select
from repro.sparql.dist.partition import PartitionedTripleStore
from repro.sparql.dist.plan import Stage, build_plan, stage_ops

#: Modelled bytes per binding cell, matching the governor's accounting.
BYTES_PER_CELL = 8

#: Simulated seconds a task waits for a slot on a node holding its data.
LOCALITY_WAIT_S = 0.002

#: A running attempt this many times over its nominal duration gets a twin.
SPECULATION_FACTOR = 2.0

#: Scheduler retries of one task before it is abandoned to the driver.
MAX_RETRIES = 3

#: Fresh resubmissions of one stage unit (replicas unreachable, or abandoned
#: with no committed output) before the driver gives up on it.
MAX_DATA_RETRIES = 8

#: Fixed odd radix for the shuffle's polynomial key packing: the
#: repartitioning analogue of the join's mixed-radix ``pack_keys``, but with
#: a radix agreed up front so every map task — on any node, any attempt —
#: sends equal keys to the same bucket.
_HASH_RADIX = np.uint64(0x9E3779B97F4A7C15)

#: Sentinel a compute returns for "no output this attempt, retry data-plane".
_RETRY = object()


def bucket_codes(matrix: np.ndarray, buckets: int) -> np.ndarray:
    """Repartition bucket per row of an (n, k) key-id matrix.

    Fixed-radix polynomial over uint64 (wraparound is the modulus), so the
    mapping is a pure function of the key ids: deterministic across nodes,
    attempts, and fragment boundaries.
    """
    codes = np.zeros(len(matrix), dtype=np.uint64)
    for column in range(matrix.shape[1]):
        codes = codes * _HASH_RADIX + matrix[:, column].astype(np.uint64)
    return (codes % np.uint64(buckets)).astype(np.int64)


class ShuffleStore:
    """Idempotent, append-only task-output store (first write wins).

    Models durable shuffle/broadcast output files with a commit protocol:
    a second commit under the same key — a retried or speculative attempt —
    is refused and counted, never merged.
    """

    def __init__(self) -> None:
        self._outputs: Dict[Tuple, Any] = {}
        self.publishes = 0
        self.duplicate_publishes = 0

    def publish(self, key: Tuple, payload: Any) -> bool:
        if key in self._outputs:
            self.duplicate_publishes += 1
            return False
        self._outputs[key] = payload
        self.publishes += 1
        return True

    def register_duplicate(self, key: Tuple) -> None:
        """A re-attempt arrived with the output already committed."""
        self.duplicate_publishes += 1

    def has(self, key: Tuple) -> bool:
        return key in self._outputs

    def get(self, key: Tuple) -> Any:
        return self._outputs[key]


@dataclass
class Fragment:
    """One settled piece of a stage's output.

    ``payload`` is a :class:`Batch` for most stages, or a tuple of per-bucket
    batches for shuffle map outputs. ``home`` is the node that produced it
    (None for driver-side inline fragments), feeding downstream locality.
    """

    payload: Any
    home: Optional[int] = None

    @property
    def batch(self) -> Batch:
        return self.payload


def _payload_batches(payload: Any) -> List[Batch]:
    if isinstance(payload, Batch):
        return [payload]
    return list(payload)


class PartialResult(list):
    """SELECT solutions computed with some partitions missing.

    Only ever returned when the caller opted in with ``allow_partial=True``
    (federation's ``complete=False`` convention): ``complete`` is False and
    ``missing_partitions`` names the ranges that had no live replica.
    """

    complete = False

    def __init__(self, rows: Sequence, missing_partitions: Sequence[int]):
        super().__init__(rows)
        self.missing_partitions = tuple(sorted(set(missing_partitions)))


@dataclass
class DistReport:
    """Per-query execution summary (the soak's raw material)."""

    makespan_s: float = 0.0
    locality_rate: float = 1.0
    tasks_completed: int = 0
    task_failures: int = 0
    tasks_cancelled: int = 0
    speculative_launches: int = 0
    node_crashes: int = 0
    bytes_transferred: float = 0.0
    publishes: int = 0
    duplicate_publishes: int = 0
    tickets_issued: int = 0
    tickets_released: int = 0
    missing_partitions: Tuple[int, ...] = ()
    counters: Dict[str, float] = field(default_factory=dict)


class DistRuntime:
    """The distributed engine's long-lived state and configuration.

    The engine is entered through :meth:`query`, which runs the shared
    pipeline (:func:`repro.sparql.pipeline.run_query`) with this runtime's
    own engine row: vector plans, executed as scheduler DAGs.
    """

    def __init__(
        self,
        graph,
        spec: Optional[ClusterSpec] = None,
        partitions: int = 4,
        replication: int = 2,
        broadcast_threshold_rows: float = 64.0,
        speculation: bool = True,
        blacklist_after: Optional[int] = None,
        data_retry_backoff_s: float = 0.05,
        task_overhead_s: float = 1e-3,
        row_cost_s: float = 2e-6,
        injector=None,
        admission=None,
        obs=None,
        allow_partial: bool = False,
    ):
        self.graph = graph
        self.spec = spec if spec is not None else ClusterSpec()
        self.store = PartitionedTripleStore(
            graph, self.spec, partitions=partitions, replication=replication
        )
        self.broadcast_threshold_rows = broadcast_threshold_rows
        #: A shuffle repartitions into as many buckets as the store has
        #: partitions.
        self.shuffle_buckets = partitions
        self.speculation = speculation
        self.blacklist_after = blacklist_after
        self.data_retry_backoff_s = data_retry_backoff_s
        self.task_overhead_s = task_overhead_s
        self.row_cost_s = row_cost_s
        self.injector = injector
        self.admission = admission
        self.obs = obs
        self.allow_partial = allow_partial
        self.last_report: Optional[DistReport] = None
        self._engine = Engine(cost_score, self._execute, _ask, _select)

    def query(
        self,
        query: Union[str, SelectQuery, AskQuery],
        registry=None,
        options: Optional[CompileOptions] = None,
        *,
        budget=None,
        obs=None,
        cache=None,
    ) -> Union[List, bool]:
        """Evaluate a query on the distributed engine.

        Plans are the E22 cost-ordered vector trees whatever
        ``options.engine`` says (the runtime *is* the engine); with a plan
        cache they are keyed under this runtime, not the graph, so they
        never alias another engine's entry for the same text.
        """
        return run_query(
            self.graph,
            query,
            registry,
            options,
            budget=budget,
            obs=obs,
            cache=cache,
            owner=self,
            engine=self._engine,
        )

    def _execute(self, tree: AlgebraOp, ctx: ExecContext) -> "_DistRun":
        """Run a vector tree as one settled scheduler run."""
        self.store.sync()
        plan = build_plan(
            tree,
            self.graph,
            self.broadcast_threshold_rows,
            self.shuffle_buckets,
        )
        run = _DistRun(self, ctx)
        try:
            run.execute(plan)
        finally:
            self.last_report = run.report()
        return run


def _ask(run: "_DistRun") -> bool:
    answer = run.result_batch.nrows > 0
    if run.missing and not answer:
        # A missing partition could hold the witness: a bare False
        # cannot carry a partial-result flag, so refuse it.
        pid = sorted(run.missing)[0]
        raise PartitionUnavailable(
            f"ASK is inconclusive with partition {pid} unavailable",
            partition=pid,
            replicas=run.placement.get(pid, ()),
        )
    return answer


def _select(query: SelectQuery, run: "_DistRun", ctx: ExecContext) -> List:
    rows = finish_select(query, run.result_batch, ctx)
    if run.missing:
        return PartialResult(rows, run.missing)
    return rows


class _DistRun:
    """One query's scheduler run: stage wiring, failover, settlement."""

    def __init__(self, runtime: DistRuntime, ctx: ExecContext):
        self.runtime = runtime
        self.store = runtime.store
        self.ctx = ctx
        self.budget = ctx.budget
        self.scheduler = Scheduler(
            runtime.spec,
            locality_wait_s=LOCALITY_WAIT_S,
            injector=runtime.injector,
            crash_recovery=True,
            speculation=runtime.speculation,
            speculation_factor=SPECULATION_FACTOR,
            blacklist_after=runtime.blacklist_after,
            max_retries=MAX_RETRIES,
            admission=runtime.admission,
        )
        self.placement = self.store.place(self.scheduler.nodes)
        self.shuffle = ShuffleStore()
        self.live: Dict[int, Task] = {}
        self.error: Optional[BaseException] = None
        self.missing: List[int] = []
        self.result_batch: Optional[Batch] = None
        self.counters: Dict[str, float] = {}
        self._stage_seq = 0

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------

    def _label(self, kind: str) -> str:
        self._stage_seq += 1
        return f"{kind}.{self._stage_seq}"

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        obs = self.runtime.obs
        if obs is not None and getattr(obs, "enabled", False):
            obs.metrics.counter(name).inc(amount)

    def _reachable(self, a: int, b: int) -> bool:
        injector = self.runtime.injector
        if injector is None:
            return True
        return injector.reachable(a, b, self.scheduler.simulation.now)

    def _account_comm(self, nbytes: float) -> None:
        if nbytes > 0:
            self.scheduler.metrics.inc("bytes_transferred", nbytes)
            self._count("dist.comm_bytes", nbytes)

    def _charge_payload(self, payload: Any, where: str) -> None:
        if self.budget is None:
            return
        for batch in _payload_batches(payload):
            if batch.nrows:
                self.budget.charge_rows(
                    batch.nrows, max(1, len(batch.columns)), where
                )

    def _release_fragments(self, fragments: Sequence[Fragment]) -> None:
        if self.budget is None:
            return
        rows = 0
        nbytes = 0
        for fragment in fragments:
            for batch in _payload_batches(fragment.payload):
                rows += batch.nrows
                nbytes += batch.nrows * max(1, len(batch.columns)) * BYTES_PER_CELL
        if rows or nbytes:
            self.budget.release_to(
                (
                    max(0, self.budget.resident_rows - rows),
                    max(0, self.budget.resident_bytes - nbytes),
                )
            )

    @staticmethod
    def _fragment_bytes(batch: Batch) -> float:
        return float(batch.nrows * max(1, len(batch.columns)) * BYTES_PER_CELL)

    def _placed_at(self, fragment: Fragment) -> Dict[str, Any]:
        """A task reading *fragment*: its input bytes, placed where it is."""
        return {
            "input_bytes": self._fragment_bytes(fragment.batch),
            "preferred": set() if fragment.home is None else {fragment.home},
        }

    def _ship_s(self, nbytes: float) -> float:
        """Modelled time to ship *nbytes* to a task (nothing to ship: 0)."""
        return self.runtime.spec.transfer_time_s(nbytes) if nbytes else 0.0

    # ------------------------------------------------------------------
    # Abort path
    # ------------------------------------------------------------------

    def _abort(self, error: BaseException) -> None:
        """First error wins: cancel every in-flight task (their admission
        tickets are released exactly once through the scheduler's terminal
        paths) and let the drain settle."""
        if self.error is not None:
            return
        self.error = error
        self._count("dist.aborts")
        for task in list(self.live.values()):
            self.scheduler.cancel_task(task)
        self.live.clear()

    # ------------------------------------------------------------------
    # Unit submission: the idempotent-commit task wrapper
    # ------------------------------------------------------------------

    def _submit_unit(
        self,
        label: str,
        index: int,
        spec: Dict[str, Any],
        settled: Callable[[int, Any, Optional[int]], None],
    ) -> Task:
        key = (label, index)
        state: Dict[str, Any] = {"retry": None, "attempts": 0}
        compute = spec["compute"]

        def attempt_end(task: Task, failed: bool) -> None:
            if self.error is not None:
                return
            if self.shuffle.has(key):
                # A previous attempt (or a zombie twin) already committed:
                # the commit protocol refuses the duplicate output.
                self.shuffle.register_duplicate(key)
                self._count("dist.duplicate_publishes")
                return
            state["retry"] = None
            try:
                payload = compute(task, state)
            except Exception as exc:  # typed engine errors abort the query
                self._abort(exc)
                return
            if payload is not _RETRY:
                self.shuffle.publish(key, payload)

        def settle(task: Task, abandoned: bool) -> None:
            self.live.pop(task.task_id, None)
            if self.error is not None:
                return
            if self.shuffle.has(key):
                # Committed — possibly by an attempt the scheduler gave up
                # on: recover from the durable output either way.
                if abandoned:
                    self._count("dist.recovered_outputs")
                settled(index, self.shuffle.get(key), task.ran_on)
                return
            reason = state["retry"]
            if reason == "lost":
                self._fragment_lost(spec, index, settled)
                return
            if state["attempts"] >= MAX_DATA_RETRIES:
                if spec.get("pid") is not None:
                    self._fragment_lost(spec, index, settled)
                else:
                    self._abort(
                        ClusterError(
                            f"distributed stage {label!r} unit {index} gave "
                            f"up after {state['attempts']} data-plane retries"
                        )
                    )
                return
            state["attempts"] += 1
            self._count("dist.data_retries")
            delay = self.runtime.data_retry_backoff_s * state["attempts"]

            def relaunch() -> None:
                if self.error is not None:
                    return
                if self.shuffle.has(key):
                    settled(index, self.shuffle.get(key), None)
                    return
                launch(())

            self.scheduler.simulation.schedule(delay, relaunch)

        def launch(depends_on: Sequence[int]) -> Task:
            task = self.scheduler.make_task(
                work_s=spec["work_s"],
                input_bytes=float(spec.get("input_bytes", 0.0)),
                preferred_nodes=set(spec.get("preferred") or ()),
            )
            if depends_on:
                task.depends_on = set(depends_on)
            task.on_attempt_end = attempt_end
            task.on_complete = lambda t: settle(t, False)
            task.on_abandon = lambda t: settle(t, True)
            self.live[task.task_id] = task
            self._count("dist.tasks")
            try:
                self.scheduler.submit(task)
            except Exception as exc:  # admission shed, etc.
                self.live.pop(task.task_id, None)
                self._abort(exc)
            return task

        return launch(spec.get("depends_on") or ())

    def _fragment_lost(self, spec, index, settled) -> None:
        """Every replica of a stage unit's partition is gone (or stayed
        unreachable past the retry budget): partial result or typed error."""
        pid = spec.get("pid")
        owners = self.placement.get(pid, [])
        self._count("dist.partitions_unavailable")
        if self.runtime.allow_partial:
            self.missing.append(pid)
            settled(index, Batch.empty(spec.get("variables", ())), None)
            return
        self._abort(
            PartitionUnavailable(
                f"partition {pid} has no usable replica "
                f"(placement {sorted(owners)})",
                partition=pid,
                replicas=owners,
            )
        )

    def _barrier(self, count: int, done: Callable[[List[Any]], None]):
        """``done`` gets *count* indexed arrivals in order once all are in (at
        once, for none); repeats, and arrivals after an abort, are dropped."""
        results: List[Any] = [None] * count
        remaining = [count]

        def arrive(index: int, value: Any) -> None:
            if self.error is not None or results[index] is not None:
                return
            results[index] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                done(results)

        if not count:
            done(results)
        return arrive

    def _run_stage(
        self,
        label: str,
        specs: List[Dict[str, Any]],
        done: Callable[[List[Fragment]], None],
    ) -> List[Task]:
        """Submit one task per spec; fire ``done`` when every unit settles."""
        arrive = self._barrier(len(specs), done)

        def settled(index: int, payload: Any, home: Optional[int]) -> None:
            arrive(index, Fragment(payload, home))

        return [
            self._submit_unit(label, index, spec, settled)
            for index, spec in enumerate(specs)
        ]

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _start(self, stage: Stage, done: Callable[[List[Fragment]], None]) -> None:
        """Run *stage* once its inputs have settled; ``done`` gets its
        fragments. Its units are the partitions of its key, the fragments
        of its ``split`` input, or one driver-side task (a UNION has none:
        its fragments are its inputs'); each unit's task runs ``op`` with
        the gathered inputs planted."""
        if stage.key is not None:
            pids = self.store.partitions_of(stage.key)
            if not pids:
                # A constant subject the graph never interned: empty, inline.
                done([Fragment(Batch.empty(operator_variables(stage.op)), None)])
                return

        def ready(sides: List[List[Fragment]]) -> None:
            if stage.kinds == {"split"}:
                done([fragment for fragments in sides for fragment in fragments])
                return
            if "shuffle" in stage.kinds:
                self._shuffle(stage, sides, done)
                return
            planted = {
                id(exchange.stage.op): Batch.concat([f.batch for f in fragments])
                for exchange, fragments in zip(stage.inputs, sides)
                if exchange.kind == "gather"
            }
            if planted:
                self._count("dist.broadcast_joins", len(planted))
            rows = sum(batch.nrows for batch in planted.values())
            nbytes = sum(map(self._fragment_bytes, planted.values()))
            ship_s = self._ship_s(nbytes)
            overhead = self.runtime.task_overhead_s
            row_cost = self.runtime.row_cost_s
            specs = []
            cut: Dict[int, Batch] = {}  # a keyed stage's one run, by partition
            if stage.key is not None:
                own = list(stage_ops(stage))
                scans = sum(isinstance(op, ScanOp) for op in own)
                joins = sum(isinstance(op, (JoinOp, LeftJoinOp)) for op in own)
                if joins > len(planted):  # one gathered side per fused join
                    self._count("dist.colocated_joins", joins - len(planted))
                self._count("dist.scan_stages")
                label = "stage"
                variables = operator_variables(stage.op)

                def cut_for(pid: int) -> Batch:
                    if not cut:
                        cut.update(self._run_keyed(stage, planted, pids))
                    return cut[pid]

                for pid in pids:
                    # A gathered subtree's scans are its own stage's work.
                    unit_rows = scans * self.store.partition_rows(pid) + rows
                    specs.append({
                        "pid": pid,
                        "variables": variables,
                        "compute": self._make_compute(partial(cut_for, pid), pid),
                        "work_s": overhead + unit_rows * row_cost + ship_s,
                        "input_bytes": float(self.store.partition_bytes(pid)),
                        "preferred": set(self.placement[pid]),
                    })
            else:
                split = [
                    (id(exchange.stage.op), fragments)
                    for exchange, fragments in zip(stage.inputs, sides)
                    if exchange.kind == "split"
                ]
                if split:
                    label, ((split_id, fragments),) = "bjoin", split
                else:
                    self._count("dist.local_stages")
                    label, split_id = "local", None
                    fragments = [Fragment(Batch.empty())]  # one unit of no rows
                for fragment in fragments:
                    batch = fragment.batch
                    unit = planted if split_id is None else {**planted, split_id: batch}
                    run = partial(_execute, stage.op, self.ctx.reading(None, unit))
                    specs.append({
                        "compute": self._make_compute(run),
                        "work_s": overhead + ship_s + (batch.nrows + rows) * row_cost,
                        **self._placed_at(fragment),
                    })
            for _ in specs:  # the gathered relations ship to every task
                self._account_comm(nbytes)

            def stage_done(out: List[Fragment]) -> None:
                cut.clear()
                for fragments in sides:
                    self._release_fragments(fragments)
                done(out)

            self._run_stage(self._label(label), specs, stage_done)

        arrive = self._barrier(len(stage.inputs), ready)
        for index, exchange in enumerate(stage.inputs):
            self._start(exchange.stage, partial(arrive, index))

    def _make_compute(self, run: Callable[[], Batch], pid: Optional[int] = None):
        """A task computing its unit with *run* — partition *pid*'s fragment,
        once a live replica of it can be read, or, with no *pid*, its rows."""

        def compute(task: Task, state: Dict[str, Any]):
            if pid is None:
                return run()
            owners = self.placement[pid]
            live_owners = [n for n in owners if n not in self.scheduler.dead_nodes]
            if not live_owners:
                state["retry"] = "lost"
                return _RETRY
            node_id = task.ran_on
            if node_id not in live_owners:
                if not any(self._reachable(node_id, n) for n in live_owners):
                    # Live replicas exist but the network keeps them away:
                    # transient — back off and try again.
                    state["retry"] = "unreachable"
                    self._count("dist.unreachable_reads")
                    return _RETRY
                self._count("dist.remote_reads")
                if node_id in owners:
                    # This node's own copy died under the task: failover to
                    # a surviving replica, paying the transfer again.
                    self._count("dist.replica_failovers")
                    self._account_comm(float(self.store.partition_bytes(pid)))
            return run()

        return compute

    def _run_keyed(self, stage: Stage, planted, pids: List[int]) -> Dict[int, Batch]:
        """A keyed stage's ``op`` run once over its partitions' subject
        range — contiguous, so one ``[first, last)`` — and cut on the key
        into each partition's fragment. Every row carries its key, and the
        kernels keep rows in left-major, stable order, so a fragment is the
        rows, in the order, that the op computes over that partition alone."""
        ranges = [self.store.subject_range(pid) for pid in pids]
        whole = (ranges[0][0], ranges[-1][1])
        batch = _execute(stage.op, self.ctx.reading(whole, planted))
        if len(pids) == 1:  # one partition, or a constant subject's one
            return {pids[0]: batch}
        firsts = np.array([first for first, _ in ranges[1:]], dtype=np.int64)
        keys = batch.column(stage.key)
        if (keys[1:] < keys[:-1]).any():
            # Not in subject order (a gathered side leads a join): one stable
            # grouping by partition keeps each partition's rows in order.
            order = np.argsort(np.searchsorted(firsts, keys, "right"), kind="stable")
            batch, keys = batch.take(order), keys[order]
        # Every key of a partition lies below the next one's first id, so
        # one binary search per boundary cuts grouped keys as sorted ones.
        cuts = [0, *np.searchsorted(keys, firsts).tolist(), batch.nrows]
        return {
            pid: batch.slice(start, stop - start)
            for pid, start, stop in zip(pids, cuts, cuts[1:])
        }

    def _shuffle(self, stage: Stage, sides: List[List[Fragment]], done) -> None:
        """A shuffle join: one map task per input fragment splits it into
        hash buckets on the exchange keys, then one reduce task per bucket
        runs ``op`` with every input's bucket planted."""
        buckets = max(1, stage.inputs[0].buckets)
        keys = list(stage.inputs[0].keys)
        self._count("dist.shuffle_joins")
        map_label = self._label("shuffle-map")
        reduce_label = self._label("shuffle-reduce")
        overhead = self.runtime.task_overhead_s
        row_cost = self.runtime.row_cost_s

        all_inputs = [fragment for fragments in sides for fragment in fragments]
        map_specs = [
            {
                "compute": self._make_shuffle_map_compute(fragment, keys, buckets),
                "work_s": overhead + fragment.batch.nrows * row_cost,
                **self._placed_at(fragment),
            }
            for fragment in all_inputs
        ]

        def maps_done(map_frags: List[Fragment]) -> None:
            # Map outputs are the resident state now; the inputs retire.
            for fragments in sides:
                self._release_fragments(fragments)

        map_tasks = self._run_stage(map_label, map_specs, maps_done)
        dependency_ids = [t.task_id for t in map_tasks]
        # Each input's map output keys, in fragment order.
        index = iter(range(len(all_inputs)))
        outputs = [
            (exchange, [(map_label, next(index)) for _ in fragments])
            for exchange, fragments in zip(stage.inputs, sides)
        ]
        per_bucket_rows = sum(f.batch.nrows for f in all_inputs) / buckets
        per_bucket_bytes = sum(self._fragment_bytes(f.batch) for f in all_inputs)
        per_bucket_bytes /= buckets
        reduce_specs = [
            {
                "compute": self._make_reduce_compute(stage.op, outputs, bucket),
                "work_s": overhead
                + self.runtime.spec.transfer_time_s(per_bucket_bytes)
                + per_bucket_rows * row_cost,
                "input_bytes": per_bucket_bytes,
                "preferred": set(),
                "depends_on": dependency_ids,
            }
            for bucket in range(buckets)
        ]
        for _ in reduce_specs:
            # All-remote assumption: each reducer pulls its bucket over the
            # network from every mapper.
            self._account_comm(per_bucket_bytes)

        def reduces_done(out: List[Fragment]) -> None:
            # Retire the map outputs (the reducers consumed them).
            self._release_fragments(
                [
                    Fragment(self.shuffle.get(key))
                    for _, map_keys in outputs
                    for key in map_keys
                    if self.shuffle.has(key)
                ]
            )
            done(out)

        self._run_stage(reduce_label, reduce_specs, reduces_done)

    def _make_shuffle_map_compute(self, fragment: Fragment, keys, buckets: int):
        def compute(task: Task, state):
            if self.budget is not None:
                self.budget.checkpoint("dist.shuffle_map")
            batch = fragment.batch
            if batch.nrows == 0:
                splits = tuple(batch for _ in range(buckets))
            else:
                codes = bucket_codes(batch.key_matrix(keys), buckets)
                splits = tuple(
                    batch.mask(codes == bucket) for bucket in range(buckets)
                )
            self._charge_payload(splits, "dist.shuffle_map")
            return splits

        return compute

    def _make_reduce_compute(self, op: AlgebraOp, outputs, bucket: int):
        def compute(task: Task, state):
            for _, map_keys in outputs:
                if not all(self.shuffle.has(key) for key in map_keys):
                    # A mapper's output is not committed yet (it is being
                    # resubmitted): transient, retry.
                    state["retry"] = "inputs"
                    return _RETRY
            planted = {
                id(exchange.stage.op): Batch.concat(
                    [self.shuffle.get(key)[bucket] for key in map_keys]
                )
                for exchange, map_keys in outputs
            }
            return _execute(op, self.ctx.reading(None, planted))

        return compute

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def execute(self, plan: Stage) -> Batch:
        def root_done(fragments: List[Fragment]) -> None:
            for fragment in fragments:
                if fragment.home is not None:
                    self._account_comm(self._fragment_bytes(fragment.batch))
            batch = Batch.concat([f.batch for f in fragments])
            self._release_fragments(fragments)
            self._charge_payload(batch, "dist.gather")
            self.result_batch = batch

        self._start(plan, root_done)
        try:
            self.scheduler.run()
        except ClusterError as exc:
            if self.error is None:
                dead = self.scheduler.dead_nodes
                lost = sorted(
                    pid
                    for pid, owners in self.placement.items()
                    if all(owner in dead for owner in owners)
                )
                if lost:
                    self._abort(
                        PartitionUnavailable(
                            f"distributed query stranded: partitions {lost} "
                            "lost every replica",
                            partition=lost[0],
                            replicas=self.placement[lost[0]],
                        )
                    )
                else:
                    self._abort(exc)
            self.scheduler.simulation.run()  # settle the cancellations
        if self.error is not None:
            raise self.error
        if self.result_batch is None:
            raise ClusterError(
                "distributed query drained without settling a result"
            )
        return self.result_batch

    def report(self) -> DistReport:
        metrics = self.scheduler.metrics
        return DistReport(
            makespan_s=metrics.makespan_s,
            locality_rate=metrics.locality_rate,
            tasks_completed=metrics.tasks_completed,
            task_failures=metrics.task_failures,
            tasks_cancelled=metrics.tasks_cancelled,
            speculative_launches=metrics.speculative_launches,
            node_crashes=metrics.node_crashes,
            bytes_transferred=metrics.bytes_transferred,
            publishes=self.shuffle.publishes,
            duplicate_publishes=self.shuffle.duplicate_publishes,
            tickets_issued=self.scheduler.tickets_issued,
            tickets_released=self.scheduler.tickets_released,
            missing_partitions=tuple(sorted(set(self.missing))),
            counters=dict(self.counters),
        )
