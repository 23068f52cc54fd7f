"""WAL framing, torn tails, crash points, snapshots, marker healing."""

import pytest

from repro.durability import DurabilityLayer, ShardSnapshot, WriteAheadLog
from repro.durability.wal import TXN_COMMIT, encode_record
from repro.errors import (
    SimulatedCrash,
    SnapshotCorrupted,
    StorageError,
    WALCorrupted,
)


class TestFraming:
    def test_append_and_replay_round_trip(self):
        log = WriteAheadLog(0)
        records = [
            {"kind": "put", "pk": 1, "key": "a", "value": {"n": i}}
            for i in range(5)
        ]
        for record in records:
            log.append(record)
        decoded, torn = log.records()
        assert decoded == records
        assert not torn
        assert log.record_count == 5

    def test_torn_final_frame_is_discarded_silently(self):
        log = WriteAheadLog(0)
        log.append({"kind": "put", "pk": 1, "key": "a", "value": 1})
        log.append({"kind": "put", "pk": 1, "key": "b", "value": 2}, torn=True)
        decoded, torn = log.records()
        assert len(decoded) == 1
        assert torn
        assert log.record_count == 1  # torn writes never count as durable

    def test_mid_log_corruption_raises(self):
        log = WriteAheadLog(0)
        log.append({"kind": "put", "pk": 1, "key": "a", "value": 1})
        first_len = len(log.buffer)
        log.append({"kind": "put", "pk": 1, "key": "b", "value": 2})
        # Flip a payload byte of the FIRST record: valid data follows, so
        # this is rot, not a crash artifact.
        log.buffer[first_len - 1] ^= 0xFF
        with pytest.raises(WALCorrupted) as excinfo:
            log.records()
        assert excinfo.value.record_index == 0

    def test_repair_tail_drops_only_garbage(self):
        log = WriteAheadLog(0)
        log.append({"kind": "put", "pk": 1, "key": "a", "value": 1})
        clean = bytes(log.buffer)
        log.append({"kind": "put", "pk": 1, "key": "b", "value": 2}, torn=True)
        assert log.repair_tail() > 0
        assert bytes(log.buffer) == clean
        assert log.repair_tail() == 0  # idempotent on a clean log

    def test_truncate_before_releases_prefix(self):
        log = WriteAheadLog(0)
        log.append({"kind": "put", "pk": 1, "key": "a", "value": 1})
        offset = log.size
        log.append({"kind": "put", "pk": 1, "key": "b", "value": 2})
        log.truncate_before(offset)
        assert log.base_offset == offset
        decoded, _ = log.records(offset)
        assert [r["key"] for r in decoded] == ["b"]
        with pytest.raises(StorageError):
            log.records(0)  # the prefix is gone
        with pytest.raises(StorageError):
            log.truncate_before(offset - 1)

    def test_encode_record_is_deterministic(self):
        record = {"kind": "put", "pk": 3, "key": "k", "value": [1, 2]}
        assert encode_record(record) == encode_record(record)


class TestCrashPoints:
    def layer(self, **kwargs):
        layer = DurabilityLayer(**kwargs)
        layer.bind(2)
        return layer

    def test_crash_point_fires_before_the_append(self):
        layer = self.layer(crash_after_records=1)
        layer.log_put(0, 1, "a", 1)
        with pytest.raises(SimulatedCrash) as excinfo:
            layer.log_put(0, 1, "b", 2)
        assert excinfo.value.records_durable == 1
        decoded, torn = layer.logs[0].records()
        assert len(decoded) == 1 and not torn

    def test_torn_crash_leaves_a_torn_prefix(self):
        layer = self.layer(crash_after_records=1, torn_crash=True)
        layer.log_put(0, 1, "a", 1)
        with pytest.raises(SimulatedCrash):
            layer.log_put(0, 1, "b", 2)
        decoded, torn = layer.logs[0].records()
        assert len(decoded) == 1
        assert torn  # the interrupted record's prefix is on disk

    def test_transaction_crash_between_markers_recovers_committed(self):
        # Prepares on both shards + marker on shard 0, crash before the
        # shard-1 marker: the global any-marker rule commits the txn, and
        # recovery heals the missing local marker.
        layer = self.layer(crash_after_records=3)
        with pytest.raises(SimulatedCrash):
            layer.log_transaction({
                0: ([(0, "a", 1)], []),
                1: ([(1, "b", 2)], []),
            })
        shards, report = layer.recover()
        assert shards[0] == {0: {"a": 1}}
        assert shards[1] == {1: {"b": 2}}
        assert report.committed_txns == 1
        assert report.markers_healed == 1

    def test_transaction_crash_before_any_marker_aborts(self):
        layer = self.layer(crash_after_records=2)
        with pytest.raises(SimulatedCrash):
            layer.log_transaction({
                0: ([(0, "a", 1)], []),
                1: ([(1, "b", 2)], []),
            })
        shards, report = layer.recover()
        assert shards == [{}, {}]
        assert report.aborted_txns == 1
        assert report.committed_txns == 0


class TestSnapshots:
    def test_capture_restore_round_trip(self):
        state = {1: {"a": {"x": 1}}, 2: {"b": None}}
        snapshot = ShardSnapshot.capture(0, state, wal_offset=10, index=0)
        assert snapshot.restore() == state
        assert snapshot.restore() is not state  # a copy, not a view

    def test_rot_is_detected(self):
        snapshot = ShardSnapshot.capture(0, {1: {"a": 1}}, 0, 0)
        snapshot.rot()
        with pytest.raises(SnapshotCorrupted):
            snapshot.restore()

    def test_corrupt_snapshot_falls_back_to_full_replay(self):
        layer = DurabilityLayer()
        layer.bind(1)
        layer.log_put(0, 1, "a", 1)
        layer.checkpoint(0, {1: {"a": 1}})  # log retained in full
        layer.log_put(0, 1, "b", 2)
        layer.snapshots[0].rot()
        shards, report = layer.recover()
        assert shards[0] == {1: {"a": 1, "b": 2}}
        assert report.snapshot_fallbacks == 1
        assert report.snapshots_used == 0

    def test_corrupt_snapshot_with_truncated_log_is_fatal(self):
        layer = DurabilityLayer()
        layer.bind(1)
        layer.log_put(0, 1, "a", 1)
        layer.checkpoint(0, {1: {"a": 1}}, truncate=True)
        layer.snapshots[0].rot()
        with pytest.raises(SnapshotCorrupted):
            layer.recover()

    def test_checkpoint_with_truncation_recovers_from_suffix(self):
        layer = DurabilityLayer()
        layer.bind(1)
        layer.log_put(0, 1, "a", 1)
        layer.checkpoint(0, {1: {"a": 1}}, truncate=True)
        layer.log_put(0, 1, "b", 2)
        shards, report = layer.recover()
        assert shards[0] == {1: {"a": 1, "b": 2}}
        assert report.snapshots_used == 1
        assert report.records_replayed == 1  # just the suffix


class TestBinding:
    def test_rebind_same_count_is_idempotent(self):
        layer = DurabilityLayer()
        layer.bind(3)
        layer.log_put(0, 1, "a", 1)
        layer.bind(3)  # second store ctor with the same shape
        assert layer.logs[0].record_count == 1

    def test_rebind_with_different_count_refuses(self):
        layer = DurabilityLayer()
        layer.bind(3)
        with pytest.raises(StorageError):
            layer.bind(4)

    def test_unbound_layer_refuses_transactions(self):
        with pytest.raises(StorageError):
            DurabilityLayer().log_transaction({0: ([(0, "a", 1)], [])})


def test_commit_marker_kind_is_stable():
    # The marker literal is load-bearing for recovery; pin it.
    assert TXN_COMMIT == "txn-commit"


def test_recovery_decodes_every_record_exactly_once(monkeypatch):
    # One pass per log: the committed set, the torn tail, the suffix past
    # the snapshot and the markers to heal all come from the same decode.
    from repro.durability import wal

    layer = DurabilityLayer()
    layer.bind(2)
    for i in range(6):
        layer.log_put(i % 2, i, "k", i)
    layer.log_transaction({0: ([(0, "t", 1)], []), 1: ([(1, "t", 2)], [])})
    layer.checkpoint(0, {0: {"k": 0}})  # shard 0 replays a suffix only
    layer.log_put(0, 0, "late", 9)
    layer.logs[1].append({"kind": "put", "pk": 1, "key": "x", "value": 0},
                         torn=True)
    decoded = []
    real_loads = wal.pickle.loads
    monkeypatch.setattr(
        wal.pickle, "loads",
        lambda payload: decoded.append(1) or real_loads(payload),
    )
    shards, report = layer.recover()
    # ... plus the one snapshot image, which is a pickle too.
    assert layer.total_records == 11 and report.snapshots_used == 1
    assert len(decoded) == 11 + 1
    assert report.records_replayed == 1 + 5  # shard 0 suffix, shard 1 in full
    assert report.torn_tails_discarded == 1
    assert shards[0] == {0: {"k": 0, "late": 9}}
