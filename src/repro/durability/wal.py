"""Per-shard write-ahead logging for the metadata store (experiment E20).

Real framing, real serialisation, real checksums: every record is pickled,
length-prefixed and CRC-protected in a flat byte buffer per shard — the
buffer *is* the simulated disk, and it survives a :meth:`crash` that wipes
the store's volatile dictionaries. Because the bytes are real, the silent
faults are too: a :class:`~repro.faults.TornWrite` leaves a genuine partial
record that replay must recognise by its failing CRC, and a mid-log flip
is indistinguishable from rot — :class:`~repro.errors.WALCorrupted`.

Record kinds::

    put         {pk, key, value}            single-shard write
    delete      {pk, key}                   single-shard delete
    txn-prepare {txn, writes, deletes}      this shard's slice of a 2PC txn
    txn-commit  {txn}                       the commit marker

2PC ordering is the crux: a transaction appends its ``txn-prepare`` record
to *every* participant's log before the first ``txn-commit`` marker lands
anywhere. Recovery therefore decides commit globally — a transaction is
committed iff its marker survives in **any** participant's log (the
coordinator's decision is durable once written once), and a prepare with no
marker anywhere is an abort and replays as nothing. That single rule is
what makes the crash-point sweep in :mod:`repro.durability.harness` come
out clean at every record boundary.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING,
)

from repro.errors import (
    SimulatedCrash, SnapshotCorrupted, StorageError, WALCorrupted,
)
from repro.durability.snapshot import ShardSnapshot
from repro.hopsfs.kvstore import Shard, raw_pop, raw_put
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

#: Record framing: big-endian (payload length, payload CRC32).
_HEADER = struct.Struct(">II")

PUT = "put"
DELETE = "delete"
TXN_PREPARE = "txn-prepare"
TXN_COMMIT = "txn-commit"


def encode_record(record: Dict[str, Any]) -> bytes:
    """Frame one record: header(length, crc32) + pickled payload."""
    payload = pickle.dumps(record, protocol=4)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """One shard's append-only log over a flat byte buffer."""

    def __init__(self, shard: int):
        self.shard = shard
        self.buffer = bytearray()
        self.record_count = 0
        #: byte offset the retained buffer starts at (>0 after truncation)
        self.base_offset = 0

    @property
    def size(self) -> int:
        """Total log length in bytes, counting any truncated prefix."""
        return self.base_offset + len(self.buffer)

    def append(self, record: Dict[str, Any], torn: bool = False) -> int:
        """Append one record; returns the log size after the append.

        ``torn=True`` writes only a prefix of the frame — the crash-mid-write
        artifact replay must discard.
        """
        frame = encode_record(record)
        if torn:
            # Header plus half the payload: enough to look like a record,
            # not enough to checksum. Always at least one byte short.
            keep = _HEADER.size + (len(frame) - _HEADER.size) // 2
            frame = frame[: min(keep, len(frame) - 1)]
        self.buffer.extend(frame)
        if not torn:
            self.record_count += 1
        return self.size

    def records(self, from_offset: int = 0) -> Tuple[List[Dict[str, Any]], bool]:
        """Decode records from byte offset ``from_offset`` to the tail.

        Returns ``(records, torn_tail)``. A short or CRC-failing *final*
        frame is the expected crash artifact and is discarded
        (``torn_tail=True``); a bad frame with valid data after it cannot be
        explained by a crash and raises :class:`WALCorrupted`.
        """
        records: List[Dict[str, Any]] = []
        end = from_offset
        for _, end, record in self.scan(from_offset):
            records.append(record)
        return records, end < self.size

    def scan(
        self, from_offset: int
    ) -> Iterator[Tuple[int, int, Dict[str, Any]]]:
        """Decode whole records from ``from_offset``, one at a time.

        Yields ``(start offset, end offset, record)`` and stops at a torn
        tail, so the last ``end`` yielded (``from_offset`` if nothing was)
        is where the valid log ends: short of :attr:`size` means torn.
        Recovery walks each log through this exactly once and keeps only
        what it needs, so a long covered prefix is never held in memory.
        """
        self.require_retained(from_offset)
        base = self.base_offset
        position = from_offset - base
        data = self.buffer
        index = 0
        while position + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, position)
            start = position + _HEADER.size
            end = start + length
            if end > len(data):
                return  # torn payload at the tail
            payload = bytes(data[start:end])
            if zlib.crc32(payload) != crc:
                if end == len(data):
                    return  # torn final frame
                raise WALCorrupted(
                    f"WAL record {index} on shard {self.shard} failed its "
                    "CRC with valid records after it",
                    shard=self.shard,
                    record_index=index,
                )
            yield base + position, base + end, pickle.loads(payload)
            position = end
            index += 1
        # Fewer than a header's worth of bytes left: a clean end, or a torn
        # header at the tail.

    def require_retained(self, from_offset: int) -> None:
        """Raise unless the log still holds everything from ``from_offset``."""
        if from_offset < self.base_offset:
            raise StorageError(
                f"WAL prefix before offset {self.base_offset} was truncated; "
                f"cannot replay from {from_offset}"
            )

    def repair_tail(self) -> int:
        """Drop a torn tail so post-recovery appends frame cleanly.

        Returns the number of garbage bytes discarded (0 for a clean log).
        """
        end = self.base_offset
        for _, end, _ in self.scan(self.base_offset):
            pass
        return self.drop_tail(end)

    def drop_tail(self, valid_end: int) -> int:
        """Cut the log at byte offset ``valid_end`` (an ``end`` that
        :meth:`scan` yielded); returns the number of bytes discarded."""
        dropped = self.size - valid_end
        del self.buffer[valid_end - self.base_offset:]
        return dropped

    def truncate_before(self, offset: int) -> int:
        """Drop the prefix below byte ``offset`` (post-checkpoint cleanup).

        Returns the number of bytes released. After truncation a recovery
        that cannot use the covering snapshot has nothing to replay from.
        """
        if offset < self.base_offset or offset > self.size:
            raise StorageError(
                f"cannot truncate WAL to offset {offset}: retained range is "
                f"[{self.base_offset}, {self.size}]"
            )
        dropped = offset - self.base_offset
        del self.buffer[:dropped]
        self.base_offset = offset
        return dropped


@dataclass
class RecoveryReport:
    """What one :meth:`DurabilityLayer.recover` run found and did."""

    shards: int = 0
    records_replayed: int = 0
    torn_tails_discarded: int = 0
    committed_txns: int = 0
    aborted_txns: int = 0
    snapshots_used: int = 0
    snapshot_fallbacks: int = 0
    markers_healed: int = 0

    def merge_shard(self, replayed: int, torn: bool) -> None:
        self.shards += 1
        self.records_replayed += replayed
        if torn:
            self.torn_tails_discarded += 1


class DurabilityLayer:
    """The WAL set + snapshot store one :class:`ShardedKVStore` writes through.

    Optional collaborator following the ``repro.faults`` null-object
    pattern: a store built without one runs the exact pre-E20 byte path.
    ``crash_after_records`` arms a crash point for the recovery harness —
    the append that would make the durable record count exceed it raises
    :class:`~repro.errors.SimulatedCrash` instead (``torn_crash=True``
    additionally leaves that record's torn prefix on disk first).
    """

    def __init__(
        self,
        injector: Optional["FaultInjector"] = None,
        obs: Optional[Observability] = None,
        crash_after_records: Optional[int] = None,
        torn_crash: bool = False,
    ):
        self._injector = injector
        self._obs = resolve(obs)
        self.crash_after_records = crash_after_records
        self.torn_crash = torn_crash
        self.logs: List[WriteAheadLog] = []
        self.snapshots: List[Optional["ShardSnapshot"]] = []
        self._snapshots_taken: List[int] = []
        self.appended_records = 0
        self._next_txn = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def bind(self, shard_count: int) -> None:
        """Attach to a store; one WAL per shard. Idempotent per store."""
        if self.logs:
            if len(self.logs) != shard_count:
                raise StorageError(
                    f"durability layer already bound to {len(self.logs)} "
                    f"shards; cannot rebind to {shard_count}"
                )
            return
        self.logs = [WriteAheadLog(shard) for shard in range(shard_count)]
        self.snapshots = [None] * shard_count
        self._snapshots_taken = [0] * shard_count

    def _require_bound(self) -> None:
        if not self.logs:
            raise StorageError("durability layer is not bound to a store")

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def _append(self, shard: int, record: Dict[str, Any]) -> None:
        """One durable append, honouring torn-write faults + crash points."""
        log = self.logs[shard]
        torn = False
        if self._injector is not None and self._injector.wal_torn(
            shard, log.record_count
        ):
            torn = True
        crash_here = (
            self.crash_after_records is not None
            and self.appended_records >= self.crash_after_records
        )
        if crash_here and self.torn_crash:
            torn = True
        if crash_here and not torn:
            raise SimulatedCrash(
                f"crash point: {self.appended_records} records durable, "
                f"append to shard {shard} never started",
                records_durable=self.appended_records,
            )
        log.append(record, torn=torn)
        metrics = self._obs.metrics
        metrics.counter("durability.wal_appends", shard=shard,
                        kind=record["kind"], torn=torn).inc()
        if torn:
            # A torn write *is* a crash: no writer survives one.
            raise SimulatedCrash(
                f"torn append on shard {shard}: "
                f"{self.appended_records} records durable",
                records_durable=self.appended_records,
            )
        self.appended_records += 1

    def log_put(self, shard: int, pk: Any, key: Any, value: Any) -> None:
        self._append(shard, {"kind": PUT, "pk": pk, "key": key, "value": value})

    def log_delete(self, shard: int, pk: Any, key: Any) -> None:
        self._append(shard, {"kind": DELETE, "pk": pk, "key": key})

    def log_transaction(
        self,
        by_shard: Dict[int, Tuple[List[Tuple[Any, Any, Any]],
                                  List[Tuple[Any, Any]]]],
    ) -> int:
        """Durably stage one 2PC transaction; returns its txn id.

        Prepares land on every participant before any commit marker does —
        the ordering recovery's any-marker-means-committed rule depends on.
        """
        self._require_bound()
        txn = self._next_txn
        self._next_txn += 1
        participants = sorted(by_shard)
        for shard in participants:
            writes, deletes = by_shard[shard]
            self._append(shard, {
                "kind": TXN_PREPARE, "txn": txn,
                "writes": list(writes), "deletes": list(deletes),
            })
        for shard in participants:
            self._append(shard, {"kind": TXN_COMMIT, "txn": txn})
        return txn

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, shard: int, state: Shard,
                   truncate: bool = False) -> "ShardSnapshot":
        """Snapshot one shard's state at its current WAL offset.

        ``truncate=True`` releases the covered log prefix — cheaper disk,
        but a corrupt snapshot then has no full-replay fallback.
        """
        self._require_bound()
        index = self._snapshots_taken[shard]
        self._snapshots_taken[shard] += 1
        snapshot = ShardSnapshot.capture(
            shard, state, wal_offset=self.logs[shard].size, index=index
        )
        if self._injector is not None and self._injector.snapshot_corrupted(
            shard, index
        ):
            snapshot.rot()
        self.snapshots[shard] = snapshot
        self._obs.metrics.counter("durability.snapshots", shard=shard).inc()
        if truncate:
            self.logs[shard].truncate_before(snapshot.wal_offset)
        return snapshot

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> Tuple[List[Shard], RecoveryReport]:
        """Rebuild every shard from snapshot + WAL replay.

        Each log is decoded once. That one pass yields the torn-tail
        position, the shard's commit markers, its prepares and the records
        past the snapshot offset; only the last are kept. The commit
        decision is global — a txn id with a marker in *any* participant's
        log is committed — so replay starts once every log has been read,
        and a 2PC transaction replays on all its participants or on none.
        """
        self._require_bound()
        report = RecoveryReport()
        committed: Set[int] = set()
        #: per shard: (restored state, log suffix, torn?, unmarked prepares)
        pending: List[Tuple[Shard, List[Dict[str, Any]], bool, Set[int]]] = []
        for shard, log in enumerate(self.logs):
            state, from_offset = self._restore_snapshot(shard, report)
            log.require_retained(from_offset)
            markers: Set[int] = set()
            prepares: Set[int] = set()
            suffix: List[Dict[str, Any]] = []
            end = log.base_offset
            for start, end, record in log.scan(log.base_offset):
                if record["kind"] == TXN_COMMIT:
                    markers.add(record["txn"])
                elif record["kind"] == TXN_PREPARE:
                    prepares.add(record["txn"])
                if start >= from_offset:
                    suffix.append(record)
            # Drop crash garbage so post-recovery appends frame cleanly
            # after the last whole record.
            torn = log.drop_tail(end) > 0
            committed |= markers
            pending.append((state, suffix, torn, prepares - markers))
        seen_txns: Set[int] = set()
        shards: List[Shard] = []
        for log, (state, suffix, torn, unmarked) in zip(self.logs, pending):
            replayed = self._replay(state, suffix, committed, seen_txns)
            report.merge_shard(replayed, torn)
            # Complete the commit point locally: a crash between a
            # transaction's markers can leave this participant holding a
            # prepare with the decision only durable elsewhere; writing the
            # missing marker now keeps the decision survivable even if the
            # *other* participant's log is later checkpoint-truncated.
            for txn in sorted(unmarked & committed):
                log.append({"kind": TXN_COMMIT, "txn": txn})
                report.markers_healed += 1
            shards.append(state)
        report.committed_txns = len(committed & seen_txns)
        report.aborted_txns = len(seen_txns - committed)
        metrics = self._obs.metrics
        metrics.counter("durability.recoveries").inc()
        metrics.counter("durability.replayed_records").inc(
            report.records_replayed
        )
        if report.torn_tails_discarded:
            metrics.counter("durability.torn_tails_discarded").inc(
                report.torn_tails_discarded
            )
        if report.markers_healed:
            metrics.counter("durability.markers_healed").inc(
                report.markers_healed
            )
        return shards, report

    def _restore_snapshot(
        self, shard: int, report: RecoveryReport
    ) -> Tuple[Shard, int]:
        """One shard's starting state and the WAL offset replay resumes at."""
        snapshot = self.snapshots[shard]
        base_offset = self.logs[shard].base_offset
        if snapshot is None:
            return {}, base_offset
        try:
            state = snapshot.restore()
        except SnapshotCorrupted:
            if base_offset > 0:
                raise SnapshotCorrupted(
                    f"snapshot for shard {shard} is corrupt and the "
                    "covered WAL prefix was truncated: state lost",
                    shard=shard,
                )
            report.snapshot_fallbacks += 1
            self._obs.metrics.counter(
                "durability.snapshot_fallbacks", shard=shard
            ).inc()
            return {}, 0
        report.snapshots_used += 1
        return state, snapshot.wal_offset

    @staticmethod
    def _replay(
        state: Shard,
        records: List[Dict[str, Any]],
        committed: Set[int],
        seen_txns: Set[int],
    ) -> int:
        """Apply one shard's record stream to ``state`` in log order, through
        the same raw put/pop the live transaction bodies use."""
        applied = 0
        for record in records:
            kind = record["kind"]
            if kind == PUT:
                raw_put(state, record["pk"], record["key"], record["value"])
            elif kind == DELETE:
                raw_pop(state, record["pk"], record["key"])
            elif kind == TXN_PREPARE:
                seen_txns.add(record["txn"])
                if record["txn"] in committed:
                    for pk, key, value in record["writes"]:
                        raw_put(state, pk, key, value)
                    for pk, key in record["deletes"]:
                        raw_pop(state, pk, key)
            elif kind == TXN_COMMIT:
                pass  # consumed globally: see the committed set in recover()
            else:
                raise WALCorrupted(f"unknown WAL record kind {kind!r}")
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(log.size for log in self.logs)

    @property
    def total_records(self) -> int:
        return sum(log.record_count for log in self.logs)
