"""Deterministic, seeded fault injection (experiment E17).

A :class:`FaultPlan` *declares* what goes wrong — node crashes at absolute
simulated times, straggler slowdowns, transient/permanent metadata-shard
outages, per-call endpoint error/timeout probabilities, ML worker crashes —
and a :class:`FaultInjector` answers the runtime questions each subsystem
asks ("does this call fail?", "when does node 3 die?") reproducibly.

Determinism has two layers:

* scheduled faults (crashes, outages) are explicit in the plan, so the
  failure timeline is the plan;
* probabilistic faults (task failures, endpoint errors) are drawn from
  per-key random streams derived from ``(plan.seed, domain, key)`` with a
  stable hash, so two runs of the same workload see byte-identical fault
  sequences — and adding chaos to one subsystem never perturbs the draws
  another subsystem sees.

``FaultPlan.none()`` is the empty plan; subsystems accept
``injector: Optional[FaultInjector] = None`` and skip all fault logic when
unset, so the default path is exactly the pre-chaos code.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import FaultError


@dataclass(frozen=True)
class NodeCrash:
    """Compute/datanode ``node_id`` dies permanently at ``at_s`` (sim time)."""

    node_id: int
    at_s: float


@dataclass(frozen=True)
class Straggler:
    """Node ``node_id`` runs ``factor``x slower than its nominal speed."""

    node_id: int
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultError(f"straggler factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class ShardOutage:
    """Metadata shard ``shard`` is down for an operation-count window.

    The window is measured in the store's *attempted* operation counter:
    ``[start_op, start_op + duration_ops)``; ``duration_ops=None`` makes the
    outage permanent. Operation counts stand in for time because the KV store
    has no clock — its simulated time is derived from per-shard busy work.
    """

    shard: int
    start_op: int = 0
    duration_ops: Optional[int] = None

    @property
    def permanent(self) -> bool:
        return self.duration_ops is None

    def covers(self, op_index: int) -> bool:
        if op_index < self.start_op:
            return False
        return self.duration_ops is None or op_index < self.start_op + self.duration_ops


@dataclass(frozen=True)
class EndpointFault:
    """Per-call fault profile of one federation endpoint.

    ``error_rate``/``timeout_rate`` are independent per-call probabilities of
    a transient (retryable) failure; ``dead_after_calls`` makes the endpoint
    permanently unreachable from that call index on (0 = down from the start).
    """

    name: str
    error_rate: float = 0.0
    timeout_rate: float = 0.0
    dead_after_calls: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0 or not 0.0 <= self.timeout_rate <= 1.0:
            raise FaultError("endpoint fault rates must be in [0, 1]")
        if self.error_rate + self.timeout_rate > 1.0:
            raise FaultError("error_rate + timeout_rate must not exceed 1")


@dataclass(frozen=True)
class WorkerCrash:
    """Training worker ``worker`` dies permanently before step ``at_step``."""

    worker: int
    at_step: int


@dataclass(frozen=True)
class EndpointFlap:
    """Endpoint ``name`` is down for the sim-time window [down_s, up_s).

    Unlike :class:`EndpointFault` (per-call probabilities and call-count
    death), a flap is a *time-windowed* total outage — the shape a circuit
    breaker exists for. Several flaps on one endpoint model flapping proper.
    """

    name: str
    down_s: float
    up_s: float

    def __post_init__(self) -> None:
        if self.down_s < 0 or self.up_s <= self.down_s:
            raise FaultError(
                f"flap window must satisfy 0 <= down_s < up_s, got "
                f"[{self.down_s}, {self.up_s})"
            )

    def covers(self, at_s: float) -> bool:
        return self.down_s <= at_s < self.up_s


@dataclass(frozen=True)
class OverloadBurst:
    """Demand multiplier over a sim-time window (experiment E18).

    During [start_s, start_s + duration_s) the client arrival rate is
    multiplied by ``factor`` — the flash-crowd shape that drives the
    admission-control experiments.
    """

    start_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise FaultError("burst window must be non-negative and non-empty")
        if self.factor < 1.0:
            raise FaultError(f"burst factor must be >= 1, got {self.factor}")

    def covers(self, at_s: float) -> bool:
        return self.start_s <= at_s < self.start_s + self.duration_s


@dataclass(frozen=True)
class BitFlip:
    """Replica of ``block_id`` on datanode ``node_id`` silently rots (E20).

    The replica gets its own copy of the block with one data byte flipped,
    which no longer matches the block's write-time CRC32; only checksum
    verification (or the scrubber) can tell — reads without it happily
    serve the garbage.
    """

    node_id: int
    block_id: int


@dataclass(frozen=True)
class TornWrite:
    """WAL record ``record_index`` on ``shard`` lands only partially (E20).

    Models a crash mid-``write()``: the record's header-and-prefix reach disk
    but the tail doesn't, so recovery must recognise and discard it. The
    append that tears also kills the process (a torn write *is* a crash
    artifact — there is no torn write the writer survives).
    """

    shard: int
    record_index: int

    def __post_init__(self) -> None:
        if self.record_index < 0:
            raise FaultError("record_index must be >= 0")


@dataclass(frozen=True)
class StaleReplica:
    """Replica of ``block_id`` on ``node_id`` missed the latest write (E20).

    The replica's generation stamp falls back one generation while its
    bytes still checksum fine — the silent failure mode of an interrupted
    replica update. Detectable only because the stamp is checked too.
    """

    node_id: int
    block_id: int


@dataclass(frozen=True)
class SnapshotCorruption:
    """The ``snapshot_index``-th checkpoint of ``shard`` rots on disk (E20).

    Detected at recovery by the snapshot checksum; with the full WAL still
    present recovery falls back to a from-scratch replay, otherwise the
    shard is genuinely lost.
    """

    shard: int
    snapshot_index: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_index < 0:
            raise FaultError("snapshot_index must be >= 0")


@dataclass(frozen=True)
class SlowOperator:
    """SPARQL operator ``op`` costs ``charge_s`` extra seconds per checkpoint (E23).

    Injected into a :class:`~repro.sparql.governor.QueryBudget`'s charge
    stream: every engine checkpoint whose operator name matches ``op``
    (exact, prefix, or ``"*"`` for all) charges the query's deadline an
    extra ``charge_s`` of modelled time — the chaos shape that makes
    in-engine deadline enforcement observable on a simulated clock.
    """

    op: str
    charge_s: float

    def __post_init__(self) -> None:
        if self.charge_s < 0:
            raise FaultError(f"charge_s must be >= 0, got {self.charge_s}")


@dataclass(frozen=True)
class NodeLoss:
    """Storage-bearing node ``node_id`` dies permanently at ``at_s`` (E25).

    Unlike :class:`NodeCrash` (a pure compute failure the scheduler re-queues
    around), a node *loss* also takes the store-partition replicas the node
    holds: the distributed SPARQL engine must fail scans over to a surviving
    replica, and a partition whose last replica is lost becomes
    :class:`~repro.errors.PartitionUnavailable`.
    """

    node_id: int
    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise FaultError(f"loss time must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class NetworkPartition:
    """Nodes in ``island`` are unreachable from the rest for a window (E25).

    During ``[down_s, up_s)`` any data-plane fetch that crosses the island
    boundary fails; fetches with both ends on the same side still work.
    Transient by construction — the window heals — so the correct response
    is deterministic retry/failover, not abandonment.
    """

    island: Tuple[int, ...]
    down_s: float
    up_s: float

    def __post_init__(self) -> None:
        if not self.island:
            raise FaultError("partition island must name at least one node")
        if self.down_s < 0 or self.up_s <= self.down_s:
            raise FaultError(
                f"partition window must satisfy 0 <= down_s < up_s, got "
                f"[{self.down_s}, {self.up_s})"
            )

    def covers(self, at_s: float) -> bool:
        return self.down_s <= at_s < self.up_s

    def separates(self, a: int, b: int) -> bool:
        return (a in self.island) != (b in self.island)


@dataclass(frozen=True)
class FaultPlan:
    """The full chaos declaration for one experiment run."""

    seed: int = 0
    node_crashes: Tuple[NodeCrash, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    task_failure_rate: float = 0.0
    datanode_crashes: Tuple[int, ...] = ()
    shard_outages: Tuple[ShardOutage, ...] = ()
    endpoint_faults: Tuple[EndpointFault, ...] = ()
    worker_crashes: Tuple[WorkerCrash, ...] = ()
    endpoint_flaps: Tuple[EndpointFlap, ...] = ()
    overload_bursts: Tuple[OverloadBurst, ...] = ()
    bit_flips: Tuple[BitFlip, ...] = ()
    torn_writes: Tuple[TornWrite, ...] = ()
    stale_replicas: Tuple[StaleReplica, ...] = ()
    snapshot_corruptions: Tuple[SnapshotCorruption, ...] = ()
    slow_operators: Tuple[SlowOperator, ...] = ()
    node_losses: Tuple[NodeLoss, ...] = ()
    network_partitions: Tuple[NetworkPartition, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.task_failure_rate < 1.0:
            raise FaultError("task_failure_rate must be in [0, 1)")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: injecting it is a no-op everywhere."""
        return cls()

    @property
    def empty(self) -> bool:
        return all(
            not getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("seed",)
        )

    @classmethod
    def chaos(
        cls,
        seed: int,
        *,
        node_count: int = 0,
        node_crash_prob: float = 0.0,
        horizon_s: float = 100.0,
        straggler_prob: float = 0.0,
        straggler_factor: float = 4.0,
        task_failure_rate: float = 0.0,
        datanode_count: int = 0,
        datanode_crash_prob: float = 0.0,
        shard_count: int = 0,
        shard_outage_prob: float = 0.0,
        outage_start_ops: int = 0,
        outage_duration_ops: Optional[int] = 50,
        endpoints: Sequence[str] = (),
        endpoint_error_rate: float = 0.0,
        endpoint_timeout_rate: float = 0.0,
        endpoint_death_prob: float = 0.0,
        endpoint_death_after: int = 0,
        workers: int = 0,
        worker_crash_prob: float = 0.0,
        max_step: int = 100,
        block_count: int = 0,
        bit_flip_prob: float = 0.0,
        stale_replica_prob: float = 0.0,
        slow_operator_ops: Sequence[str] = (),
        slow_operator_prob: float = 0.0,
        slow_operator_charge_s: float = 0.05,
        node_loss_prob: float = 0.0,
        network_partition_prob: float = 0.0,
        network_partition_duration_s: float = 30.0,
    ) -> "FaultPlan":
        """Generate a concrete plan from a seed and per-subsystem rates.

        The same arguments and seed always yield the same plan — this is the
        one place randomness enters, and it is fully consumed here.
        """
        rng = random.Random(seed)
        node_crashes = tuple(
            NodeCrash(node_id=n, at_s=rng.uniform(0.0, horizon_s))
            for n in range(node_count)
            if rng.random() < node_crash_prob
        )
        crashed = {c.node_id for c in node_crashes}
        stragglers = tuple(
            Straggler(node_id=n, factor=straggler_factor)
            for n in range(node_count)
            if n not in crashed and rng.random() < straggler_prob
        )
        datanode_crashes = tuple(
            n for n in range(datanode_count) if rng.random() < datanode_crash_prob
        )
        shard_outages = tuple(
            ShardOutage(
                shard=s,
                start_op=outage_start_ops,
                duration_ops=outage_duration_ops,
            )
            for s in range(shard_count)
            if rng.random() < shard_outage_prob
        )
        endpoint_faults = tuple(
            EndpointFault(
                name=name,
                error_rate=endpoint_error_rate,
                timeout_rate=endpoint_timeout_rate,
                dead_after_calls=(
                    endpoint_death_after
                    if rng.random() < endpoint_death_prob
                    else None
                ),
            )
            for name in endpoints
        )
        worker_crashes = tuple(
            WorkerCrash(worker=w, at_step=rng.randrange(1, max(2, max_step)))
            for w in range(workers)
            if rng.random() < worker_crash_prob
        )
        # Silent storage faults (E20): independent draws over the
        # (datanode, block) grid, appended after every pre-E20 draw so a
        # given seed's crash/outage schedule is unchanged by the new knobs.
        bit_flips = tuple(
            BitFlip(node_id=n, block_id=b)
            for n in range(datanode_count)
            for b in range(block_count)
            if rng.random() < bit_flip_prob
        )
        flipped = {(f.node_id, f.block_id) for f in bit_flips}
        stale_replicas = tuple(
            StaleReplica(node_id=n, block_id=b)
            for n in range(datanode_count)
            for b in range(block_count)
            if (n, b) not in flipped and rng.random() < stale_replica_prob
        )
        # Slow operators (E23): drawn last, after every pre-E23 draw, so a
        # given seed's existing fault schedule is unchanged by the new knobs.
        slow_operators = tuple(
            SlowOperator(op=op, charge_s=slow_operator_charge_s)
            for op in slow_operator_ops
            if rng.random() < slow_operator_prob
        )
        # Node losses + network partitions (E25): drawn last, after every
        # pre-E25 draw, so a given seed's existing schedule is unchanged.
        # Nodes the plan already crashes are skipped — a loss on a dead node
        # would be unobservable and only muddy the plan's story.
        node_losses = tuple(
            NodeLoss(node_id=n, at_s=rng.uniform(0.0, horizon_s))
            for n in range(node_count)
            if n not in crashed and rng.random() < node_loss_prob
        )
        network_partitions: Tuple[NetworkPartition, ...] = ()
        if node_count >= 2 and rng.random() < network_partition_prob:
            island_size = max(1, node_count // 3)
            island = tuple(sorted(rng.sample(range(node_count), island_size)))
            down_s = rng.uniform(0.0, horizon_s)
            network_partitions = (
                NetworkPartition(
                    island=island,
                    down_s=down_s,
                    up_s=down_s + network_partition_duration_s,
                ),
            )
        return cls(
            seed=seed,
            node_crashes=node_crashes,
            stragglers=stragglers,
            task_failure_rate=task_failure_rate,
            datanode_crashes=datanode_crashes,
            shard_outages=shard_outages,
            endpoint_faults=endpoint_faults,
            worker_crashes=worker_crashes,
            bit_flips=bit_flips,
            stale_replicas=stale_replicas,
            slow_operators=slow_operators,
            node_losses=node_losses,
            network_partitions=network_partitions,
        )


def derive_seed(seed: int, domain: str, key: object) -> int:
    """Stable (across processes) stream seed for (base seed, domain, key).

    The one seed-derivation recipe of the repo: every per-purpose random
    stream (fault verdicts, breaker probes, soak workloads) hashes its
    coordinates with blake2b, never with the per-process ``hash()``.
    """
    digest = hashlib.blake2b(
        f"{seed}:{domain}:{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# Endpoint call outcomes.
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
DEAD = "dead"


class FaultInjector:
    """Runtime oracle over a :class:`FaultPlan`.

    One injector can serve several subsystems at once; its probabilistic
    streams are keyed per (domain, entity) so subsystems never perturb each
    other's draws.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._streams: Dict[Tuple[str, object], random.Random] = {}
        self._node_crash_at = {c.node_id: c.at_s for c in plan.node_crashes}
        self._straggler = {s.node_id: s.factor for s in plan.stragglers}
        self._endpoint = {f.name: f for f in plan.endpoint_faults}
        self._worker_crash_at = {c.worker: c.at_step for c in plan.worker_crashes}
        self._node_loss_at = {l.node_id: l.at_s for l in plan.node_losses}

    def _stream(self, domain: str, key: object) -> random.Random:
        stream = self._streams.get((domain, key))
        if stream is None:
            stream = random.Random(derive_seed(self.plan.seed, domain, key))
            self._streams[(domain, key)] = stream
        return stream

    # ------------------------------------------------------------------
    # Cluster
    # ------------------------------------------------------------------

    def node_crash_time(self, node_id: int) -> Optional[float]:
        """Simulated time at which the compute node dies, or None."""
        return self._node_crash_at.get(node_id)

    def straggler_factor(self, node_id: int) -> float:
        """Slowdown multiplier for the node (1.0 = healthy)."""
        return self._straggler.get(node_id, 1.0)

    def node_loss_time(self, node_id: int) -> Optional[float]:
        """Simulated time at which the *storage-bearing* node dies, or None.

        A loss implies a crash (the node's compute slots vanish too) but is
        reported separately so the scheduler can tell the distributed store
        layer that the node's partition replicas went with it (E25).
        """
        return self._node_loss_at.get(node_id)

    def node_losses(self) -> Tuple[NodeLoss, ...]:
        """The plan's storage-node losses (applied once by the store layer)."""
        return self.plan.node_losses

    def reachable(self, a: int, b: int, at_s: float) -> bool:
        """Can node *a* fetch from node *b* at sim time? (E25 data plane.)

        False only while an active :class:`NetworkPartition` window puts the
        two nodes on opposite sides of an island boundary; a node can always
        reach itself.
        """
        if a == b:
            return True
        return not any(
            p.covers(at_s) and p.separates(a, b)
            for p in self.plan.network_partitions
        )

    def task_fails(self, task_id: int) -> bool:
        """Does the task's current attempt fail? One draw per attempt, from
        a per-task stream, so the verdict sequence is independent of how
        tasks interleave on the cluster."""
        rate = self.plan.task_failure_rate
        if rate <= 0.0:
            return False
        return self._stream("task", task_id).random() < rate

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def shard_outage(self, shard: int, op_index: int) -> Optional[ShardOutage]:
        """The outage covering this shard at this attempted-op index, if any."""
        for outage in self.plan.shard_outages:
            if outage.shard == shard and outage.covers(op_index):
                return outage
        return None

    def datanode_crashes(self) -> Tuple[int, ...]:
        """Datanode ids the plan kills (applied once by the BlockManager)."""
        return self.plan.datanode_crashes

    # ------------------------------------------------------------------
    # Silent storage faults (experiment E20)
    # ------------------------------------------------------------------

    def wal_torn(self, shard: int, record_index: int) -> bool:
        """Is this shard's ``record_index``-th WAL append torn mid-write?"""
        return any(
            torn.shard == shard and torn.record_index == record_index
            for torn in self.plan.torn_writes
        )

    def snapshot_corrupted(self, shard: int, snapshot_index: int) -> bool:
        """Does this shard's ``snapshot_index``-th checkpoint rot on disk?"""
        return any(
            rot.shard == shard and rot.snapshot_index == snapshot_index
            for rot in self.plan.snapshot_corruptions
        )

    def block_bit_flips(self) -> Tuple[BitFlip, ...]:
        """Replica corruptions to apply (once) to block storage."""
        return self.plan.bit_flips

    def block_stale_replicas(self) -> Tuple[StaleReplica, ...]:
        """Replicas that silently revert to their previous generation."""
        return self.plan.stale_replicas

    # ------------------------------------------------------------------
    # Federation
    # ------------------------------------------------------------------

    def endpoint_outcome(self, name: str, call_index: int) -> str:
        """Outcome of one remote call: ``ok``/``error``/``timeout``/``dead``.

        Permanent death dominates; transient error/timeout are drawn from the
        endpoint's private stream.
        """
        fault = self._endpoint.get(name)
        if fault is None:
            return OK
        if fault.dead_after_calls is not None and call_index >= fault.dead_after_calls:
            return DEAD
        if fault.error_rate == 0.0 and fault.timeout_rate == 0.0:
            return OK
        draw = self._stream("endpoint", name).random()
        if draw < fault.error_rate:
            return ERROR
        if draw < fault.error_rate + fault.timeout_rate:
            return TIMEOUT
        return OK

    def endpoint_down_at(self, name: str, at_s: float) -> bool:
        """Is the endpoint inside one of its flap windows at sim time?"""
        return any(
            flap.name == name and flap.covers(at_s)
            for flap in self.plan.endpoint_flaps
        )

    # ------------------------------------------------------------------
    # Query governance (experiment E23)
    # ------------------------------------------------------------------

    def operator_charge(self, op_name: str) -> float:
        """Extra modelled seconds a checkpoint in *op_name* must charge.

        Matches a :class:`SlowOperator` by exact name, prefix (so
        ``op="hash_join"`` also slows ``hash_join.probe``) or the ``"*"``
        wildcard; the strongest matching fault wins, mirroring
        :meth:`arrival_multiplier`'s no-stacking rule.
        """
        if not self.plan.slow_operators:
            return 0.0
        charges = [
            fault.charge_s
            for fault in self.plan.slow_operators
            if fault.op == "*" or op_name == fault.op or op_name.startswith(fault.op)
        ]
        return max(charges) if charges else 0.0

    # ------------------------------------------------------------------
    # Overload (experiment E18)
    # ------------------------------------------------------------------

    def arrival_multiplier(self, at_s: float) -> float:
        """Client demand multiplier at sim time (1.0 outside every burst).

        Overlapping bursts don't stack — the strongest one wins, so a plan
        stays interpretable as "the worst flash crowd active right now".
        """
        factors = [
            burst.factor
            for burst in self.plan.overload_bursts
            if burst.covers(at_s)
        ]
        return max(factors) if factors else 1.0

    # ------------------------------------------------------------------
    # ML
    # ------------------------------------------------------------------

    def worker_crashed(self, worker: int, step: int) -> bool:
        """Is the training worker dead at (the start of) this step?"""
        at = self._worker_crash_at.get(worker)
        return at is not None and step >= at
