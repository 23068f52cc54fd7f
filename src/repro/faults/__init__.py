"""Deterministic fault injection and fault tolerance (experiment E17).

At the scale the paper targets — petabytes of Copernicus data on a shared
platform — node crashes, stragglers and flaky endpoints are the steady
state, not the exception. This package provides the chaos layer that lets
every scaling experiment be re-measured *under failure*:

* :class:`~repro.faults.injector.FaultPlan` — a declarative, seeded
  description of what goes wrong (node/datanode crashes, stragglers,
  shard outages, endpoint error/timeout/death, ML worker crashes,
  E18's time-windowed endpoint flaps and client overload bursts, plus
  E20's *silent* storage faults: replica bit flips, torn WAL writes,
  stale replicas and snapshot corruption — failures nothing notices
  until a checksum looks — and E23's per-operator slowdowns charged
  against in-engine query deadlines, and E25's storage-node losses and
  time-windowed network partitions for the distributed SPARQL engine);
  ``FaultPlan.none()`` is the guaranteed no-op plan and
  ``FaultPlan.chaos(seed, ...)`` generates one from failure rates.
* :class:`~repro.faults.injector.FaultInjector` — the runtime oracle the
  subsystems consult; per-key random streams keep verdicts reproducible
  and mutually independent.
* :class:`~repro.faults.retry.RetryPolicy` — the shared exponential
  backoff + jitter + deadline loop with attempt accounting
  (:class:`~repro.faults.retry.RetryState`), used by the KV store and the
  federation executor instead of ad-hoc retries.

Tolerance mechanisms live with their subsystems: task re-queue/speculation/
blacklisting in :mod:`repro.cluster.scheduler`, re-replication and replica
fallback in :mod:`repro.hopsfs.blocks`, retryable shard outages in
:mod:`repro.hopsfs.kvstore`, graceful degradation in
:mod:`repro.federation.executor`, checkpoint/restore and elastic recovery in
:mod:`repro.ml.distributed`, and WAL crash recovery / checksum verification /
scrub-and-repair for the silent-fault kinds in :mod:`repro.durability`.
"""

from repro.faults.injector import (
    BitFlip,
    EndpointFault,
    EndpointFlap,
    FaultInjector,
    FaultPlan,
    NetworkPartition,
    NodeCrash,
    NodeLoss,
    OverloadBurst,
    ShardOutage,
    SlowOperator,
    SnapshotCorruption,
    StaleReplica,
    Straggler,
    TornWrite,
    WorkerCrash,
    derive_seed,
)
from repro.faults.retry import RetryPolicy, RetryState

__all__ = [
    "BitFlip",
    "EndpointFault",
    "EndpointFlap",
    "FaultInjector",
    "FaultPlan",
    "NetworkPartition",
    "NodeCrash",
    "NodeLoss",
    "OverloadBurst",
    "RetryPolicy",
    "RetryState",
    "ShardOutage",
    "SlowOperator",
    "SnapshotCorruption",
    "StaleReplica",
    "Straggler",
    "TornWrite",
    "WorkerCrash",
    "derive_seed",
]
