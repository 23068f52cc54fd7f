"""Transactional metadata stores with cost accounting.

Both store variants keep real Python dictionaries (operations actually happen)
*and* a simulated-time model: every transaction adds latency to the resources
it touches. Throughput is derived from the accumulated busy time — shards
work in parallel, so the makespan of a workload is the busiest shard's total,
which is exactly how NDB-style metadata scaling behaves.

Cost model (milliseconds, configurable):

* single-shard transaction: ``base_latency``
* multi-shard transaction: ``base_latency + two_phase_surcharge`` on every
  participating shard (prepare + commit rounds)
* the single-leader store pays ``base_latency`` on its one resource for
  everything, which is why it cannot scale.

Fault injection (experiment E17): a :class:`~repro.faults.FaultInjector`
with shard outages makes operations touching a down shard raise
:class:`ShardUnavailable` — a retryable :class:`~repro.errors.StorageError`.
Passing a :class:`~repro.faults.RetryPolicy` makes the store ride out
transient outages itself; multi-shard transactions abort atomically (the
prepare phase checks every participant before a single write lands).

Observability: with a :class:`~repro.obs.Observability` bundle attached the
store reports per-shard op-latency histograms (``hopsfs.shard_op_ms``),
single-vs-2PC op counters (``hopsfs.ops``), 2PC abort counters
(``hopsfs.2pc_aborts``), and the shared ``retry.*`` series for rode-out
outages. The disabled default is a shared no-op.

Overload resilience (experiment E18): every transaction accepts an optional
:class:`~repro.resilience.Deadline` — the op's simulated cost is charged
against the request budget (the store has no clock, so deadlines here are
charge-driven), and an exhausted budget fails the op with
:class:`~repro.errors.TimeoutExceeded` before any shard is touched. A
:class:`~repro.resilience.CircuitBreakerSet` keyed by shard id fails ops
fast with :class:`~repro.errors.CircuitOpen` while a shard's outage window
keeps tripping its breaker. Both default to disabled (byte-identical path).

Durability (experiment E20): with a
:class:`~repro.durability.DurabilityLayer` attached, every mutation appends
a typed record to the owning shard's write-ahead log *before* touching
volatile state — single-shard puts/deletes directly, multi-shard
transactions as per-participant ``txn-prepare`` records followed by
``txn-commit`` markers. :meth:`crash` then models power loss (the
dictionaries vanish, the logs survive) and :meth:`recover` rebuilds every
shard from its latest checksummed snapshot plus WAL replay, applying a 2PC
transaction iff a commit marker survives anywhere. Defaulted off: without a
layer the store runs the exact pre-E20 path.

Storage layout: a shard is ``{partition_key: {key: value}}`` — every key of
one partition sits in one inner dictionary, the way HopsFS keeps all
children of a directory in the partition keyed by the parent inode id. A
point op is two dict probes and :meth:`ShardedKVStore.scan` is a
*partition-pruned index scan*: it reads the one inner dictionary, so its
cost follows the partition's size, not the shard's. A partition that loses
its last key is dropped, so an emptied shard is ``{}`` again. The live
store, WAL replay and snapshots all hold this one shape and all mutate it
through :func:`raw_put` / :func:`raw_pop`.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING,
)

from repro.errors import FaultError, StorageError
from repro.faults.retry import RetryPolicy, RetryState
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.snapshot import ShardSnapshot
    from repro.durability.wal import DurabilityLayer, RecoveryReport
    from repro.faults.injector import FaultInjector
    from repro.resilience.breaker import CircuitBreakerSet
    from repro.resilience.deadline import Deadline


#: One shard's state: partition key -> {key: value}; never an empty partition.
Shard = Dict[Any, Dict[Any, Any]]


def raw_put(shard: Shard, partition_key: Any, key: Any, value: Any) -> None:
    """Write one key straight into a shard's state: no routing, no cost,
    no WAL. The one write primitive under transaction bodies and replay."""
    partition = shard.get(partition_key)
    if partition is None:
        shard[partition_key] = {key: value}
    else:
        partition[key] = value


def raw_pop(shard: Shard, partition_key: Any, key: Any) -> Any:
    """Remove one key straight from a shard's state; returns its value or
    None. Dropping the last key of a partition drops the partition."""
    partition = shard.get(partition_key)
    if partition is None:
        return None
    value = partition.pop(key, None)
    if not partition:
        del shard[partition_key]
    return value


def shard_triples(shard: Shard) -> Iterator[Tuple[Any, Any, Any]]:
    """(partition_key, key, value) for every entry of one shard's state."""
    for partition_key, partition in shard.items():
        for key, value in partition.items():
            yield partition_key, key, value


class ShardUnavailable(StorageError, FaultError):
    """A metadata shard is down (injected outage).

    Transient outages are retryable; permanent ones are not, so a
    :class:`~repro.faults.RetryPolicy` gives up on them immediately.
    """

    def __init__(self, shard: int, permanent: bool = False):
        kind = "permanently" if permanent else "transiently"
        super().__init__(f"shard {shard} {kind} unavailable")
        self.shard = shard
        self.permanent = permanent
        self.retryable = not permanent


class ShardedKVStore:
    """A hash-sharded transactional KV store (the NewSQL metadata layer)."""

    def __init__(
        self,
        shard_count: int = 4,
        base_latency_ms: float = 0.05,
        two_phase_surcharge_ms: float = 0.08,
        injector: Optional["FaultInjector"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
        breakers: Optional["CircuitBreakerSet"] = None,
        durability: Optional["DurabilityLayer"] = None,
    ):
        if shard_count < 1:
            raise StorageError(f"shard_count must be >= 1, got {shard_count}")
        if base_latency_ms <= 0:
            raise StorageError("base_latency_ms must be positive")
        self.shard_count = shard_count
        self.base_latency_ms = base_latency_ms
        self.two_phase_surcharge_ms = two_phase_surcharge_ms
        self._injector = injector
        self._retry_policy = retry_policy
        self._breakers = breakers
        self._durability = durability
        if durability is not None:
            durability.bind(shard_count)
        self._obs = resolve(obs)
        self._shards: List[Shard] = [{} for _ in range(shard_count)]
        self._busy_ms: List[float] = [0.0] * shard_count
        self._op_count = 0
        self._multi_shard_ops = 0
        self._attempted_ops = 0
        self.retries = 0
        self.retry_wait_ms = 0.0

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def shard_of(self, partition_key: Any) -> int:
        return hash(partition_key) % self.shard_count

    def _charge(
        self, participants: Tuple[int, ...],
        deadline: Optional["Deadline"] = None,
    ) -> None:
        self._op_count += 1
        multi = len(participants) > 1
        if multi:
            self._multi_shard_ops += 1
            cost = self.base_latency_ms + self.two_phase_surcharge_ms
        else:
            cost = self.base_latency_ms
        metrics = self._obs.metrics
        metrics.counter("hopsfs.ops", kind="2pc" if multi else "single").inc()
        for shard in participants:
            self._busy_ms[shard] += cost
            metrics.histogram("hopsfs.shard_op_ms", shard=shard).observe(cost)
        if deadline is not None:
            # The op's simulated latency comes out of the request budget —
            # the store has no clock, so the deadline is charge-driven here.
            deadline.charge(cost / 1000.0)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def _prepare(self, participants: Tuple[int, ...]) -> None:
        """2PC prepare: every participating shard must be reachable.

        Runs before any state mutates, so a shard outage aborts the whole
        transaction with no partial writes. The attempted-op counter advances
        on every try, which is what moves transient outage windows along.
        """
        if self._injector is None:
            return
        op_index = self._attempted_ops
        self._attempted_ops += 1
        for shard in participants:
            outage = self._injector.shard_outage(shard, op_index)
            if outage is not None:
                self._obs.metrics.counter(
                    "hopsfs.2pc_aborts",
                    shard=shard,
                    permanent=outage.permanent,
                    multi=len(participants) > 1,
                ).inc()
                raise ShardUnavailable(shard, permanent=outage.permanent)

    def _run(
        self, op: Callable[[], Any], deadline: Optional["Deadline"] = None
    ) -> Any:
        """Execute one transaction body under the retry policy, if any."""
        if self._retry_policy is None:
            return op()
        state = RetryState()
        try:
            return self._retry_policy.call(
                op,
                state=state,
                sleep=self._note_wait,
                obs=self._obs if self._obs.enabled else None,
                deadline=deadline,
            )
        finally:
            self.retries += state.retries

    def _note_wait(self, delay_s: float) -> None:
        self.retry_wait_ms += delay_s * 1000.0

    def _execute(
        self,
        participants: Tuple[int, ...],
        body: Callable[[], Any],
        deadline: Optional["Deadline"],
    ) -> Any:
        """One transaction: deadline gate -> breaker gate -> prepare ->
        charge -> body, all under the retry policy.

        ``participants`` are the distinct shard ids in ascending order; the
        caller normalises them once and every gate below reads them as is.
        With no deadline and no breakers this collapses to exactly the
        prepare/charge/body sequence the pre-E18 store ran.
        """
        def op() -> Any:
            if deadline is not None:
                deadline.check("hopsfs.kvstore")
            if self._breakers is not None:
                for shard in participants:
                    self._breakers.for_key(shard).before_call()
            try:
                self._prepare(participants)
            except ShardUnavailable as error:
                if self._breakers is not None:
                    self._breakers.for_key(error.shard).record_failure()
                raise
            self._charge(participants, deadline)
            result = body()
            if self._breakers is not None:
                for shard in participants:
                    self._breakers.for_key(shard).record_success()
            return result

        return self._run(op, deadline)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def get(
        self, partition_key: Any, key: Any,
        deadline: Optional["Deadline"] = None,
    ) -> Any:
        """Read one key (a single-shard transaction)."""
        shard = self.shard_of(partition_key)

        def body() -> Any:
            partition = self._shards[shard].get(partition_key)
            return None if partition is None else partition.get(key)

        return self._execute((shard,), body, deadline)

    def put(
        self, partition_key: Any, key: Any, value: Any,
        deadline: Optional["Deadline"] = None,
    ) -> None:
        """Write one key (a single-shard transaction)."""
        shard = self.shard_of(partition_key)

        def body() -> None:
            if self._durability is not None:
                # WAL first: the record must be durable before the state
                # changes, or a crash loses an acknowledged write.
                self._durability.log_put(shard, partition_key, key, value)
            raw_put(self._shards[shard], partition_key, key, value)

        self._execute((shard,), body, deadline)

    def delete(
        self, partition_key: Any, key: Any,
        deadline: Optional["Deadline"] = None,
    ) -> bool:
        shard = self.shard_of(partition_key)

        def body() -> bool:
            if self._durability is not None:
                self._durability.log_delete(shard, partition_key, key)
            return raw_pop(self._shards[shard], partition_key, key) is not None

        return self._execute((shard,), body, deadline)

    def scan(
        self, partition_key: Any, deadline: Optional["Deadline"] = None
    ) -> List[Tuple[Any, Any]]:
        """All (key, value) pairs under one partition, in insertion order.

        A partition-pruned index scan on the owning shard: it reads the one
        partition, whatever else the shard holds.
        """
        shard = self.shard_of(partition_key)

        def body() -> List[Tuple[Any, Any]]:
            return list(self._shards[shard].get(partition_key, {}).items())

        return self._execute((shard,), body, deadline)

    def transact(
        self,
        writes: List[Tuple[Any, Any, Any]],
        deletes: Optional[List[Tuple[Any, Any]]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> None:
        """Atomically apply writes/deletes that may span shards (2PC cost).

        An unreachable participant fails the prepare phase and aborts the
        transaction before any shard is written — no partial state survives.
        """
        # Route every row once; the participant tuple, the WAL slices and
        # the mutation below all read these.
        routed_writes = [(self.shard_of(pk), pk, key, value)
                         for pk, key, value in writes]
        routed_deletes = [(self.shard_of(pk), pk, key)
                          for pk, key in deletes or ()]
        participants = tuple(sorted(
            {row[0] for row in routed_writes}
            | {row[0] for row in routed_deletes}
        ))
        if not participants:
            return

        def body() -> None:
            if self._durability is not None:
                # Stage per-participant prepare records, then the commit
                # markers — all durable before any dictionary mutates, so a
                # crash anywhere in between recovers all-or-nothing.
                by_shard: Dict[int, Tuple[List, List]] = {
                    shard: ([], []) for shard in participants
                }
                for shard, pk, key, value in routed_writes:
                    by_shard[shard][0].append((pk, key, value))
                for shard, pk, key in routed_deletes:
                    by_shard[shard][1].append((pk, key))
                self._durability.log_transaction(by_shard)
            for shard, pk, key, value in routed_writes:
                raw_put(self._shards[shard], pk, key, value)
            for shard, pk, key in routed_deletes:
                raw_pop(self._shards[shard], pk, key)

        self._execute(participants, body, deadline)

    # ------------------------------------------------------------------
    # Durability: crash, recovery, checkpoints (experiment E20)
    # ------------------------------------------------------------------

    @property
    def durability(self) -> Optional["DurabilityLayer"]:
        return self._durability

    def _require_durability(self) -> "DurabilityLayer":
        if self._durability is None:
            raise StorageError(
                "store has no durability layer: crash/recover/checkpoint "
                "need a DurabilityLayer attached at construction"
            )
        return self._durability

    def crash(self) -> None:
        """Power loss: volatile dictionaries vanish, WAL and snapshots stay.

        Only meaningful with a durability layer — without one a crash is
        unrecoverable data loss, which the store refuses to simulate.
        """
        self._require_durability()
        self._shards = [{} for _ in range(self.shard_count)]

    def recover(self) -> "RecoveryReport":
        """Rebuild every shard from snapshot + WAL replay; returns a report.

        Replay rebuilds state without re-charging per-op latency: recovery
        is a local scan of the log, not a stream of client transactions.
        """
        durability = self._require_durability()
        shards, report = durability.recover()
        self._shards = shards
        return report

    def checkpoint(self, shard: Optional[int] = None,
                   truncate: bool = False) -> List["ShardSnapshot"]:
        """Snapshot one shard (or all) at the current WAL offset."""
        durability = self._require_durability()
        targets = range(self.shard_count) if shard is None else (shard,)
        return [
            durability.checkpoint(s, self._shards[s], truncate=truncate)
            for s in targets
        ]

    # ------------------------------------------------------------------
    # Simulated performance accounting
    # ------------------------------------------------------------------

    @property
    def op_count(self) -> int:
        return self._op_count

    @property
    def multi_shard_fraction(self) -> float:
        if self._op_count == 0:
            return 0.0
        return self._multi_shard_ops / self._op_count

    def makespan_ms(self) -> float:
        """Simulated wall-clock time: the busiest shard's accumulated work."""
        return max(self._busy_ms)

    def total_work_ms(self) -> float:
        return sum(self._busy_ms)

    def ops_per_second(self) -> float:
        """Simulated throughput of the workload executed so far."""
        makespan = self.makespan_ms()
        if makespan == 0.0:
            return 0.0
        return self._op_count / (makespan / 1000.0)

    def reset_accounting(self) -> None:
        self._busy_ms = [0.0] * self.shard_count
        self._op_count = 0
        self._multi_shard_ops = 0

    def storage_entries(self) -> int:
        return sum(len(partition) for shard in self._shards
                   for partition in shard.values())

    def shard_items(self, shard: int) -> List[Tuple[Any, Any, Any]]:
        """(partition_key, key, value) triples on one shard.

        An offline inspection for fsck and recovery oracles — charges no
        simulated latency and bypasses fault injection.
        """
        if not 0 <= shard < self.shard_count:
            raise StorageError(f"unknown shard {shard}")
        return list(shard_triples(self._shards[shard]))


class SingleLeaderStore(ShardedKVStore):
    """The HDFS-namenode baseline: one resource serialises every transaction."""

    def __init__(self, base_latency_ms: float = 0.05,
                 obs: Optional[Observability] = None):
        super().__init__(shard_count=1, base_latency_ms=base_latency_ms,
                         two_phase_surcharge_ms=0.0, obs=obs)
