"""Workload 6: the HopsFS metadata mix with the write-ahead log on.

``repro.hopsfs.workload``'s op mix (stat 55 / listdir 15 / create 15 /
read 10 / delete 5, 1 KB inline payloads, 64 directories) driven op by op
against ``HopsFS`` on a 4-shard ``ShardedKVStore`` with a
``DurabilityLayer``, a ``checkpoint()`` every ``checkpoint_every`` ops and,
at the end, ``crash()`` -> ``recover()``. The same storage layers as the
cube workload, used as many tiny metadata transactions instead of a few
large chunk files.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from repro.durability import DurabilityLayer, fsck_filesystem, fsck_store
from repro.hopsfs import HopsFS, ShardedKVStore
from repro.hopsfs.workload import DEFAULT_MIX

from bench import stats
from bench.harness import State, Workload
from bench.spans import Recorder

OPS = tuple(DEFAULT_MIX)
WEIGHTS = tuple(DEFAULT_MIX[op] for op in OPS)
PAYLOAD = b"x" * 1024


class MetaState(State):
    def __init__(self) -> None:
        super().__init__()
        self.created: List[str] = []
        self.counter = 0
        self.ops_done = 0
        self.user_bytes = 0
        self.checkpoint_ms: List[float] = []
        self.recover_ms = 0.0
        self.records_replayed = 0


class HopsfsMetaWal(Workload):
    name = "hopsfs_meta_wal"
    setup_repeats = 5
    rounds_per_second = 4.0  # short rounds: more chances of a quiet quartile
    FULL = {"directories": 64, "seed_files_per_dir": 100, "ops_per_round": 7_500,
            "checkpoint_every": 50_000, "shards": 4}
    SMOKE = {"directories": 16, "seed_files_per_dir": 10, "ops_per_round": 1_500,
             "checkpoint_every": 2_000, "shards": 4}

    def sizes(self) -> Dict[str, object]:
        return {**self.size, "payload_bytes": len(PAYLOAD),
                "mix": dict(DEFAULT_MIX)}

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def build(self, obs, wal: bool = True) -> MetaState:
        """A namespace that already holds files: stat/read/delete need
        targets and ``listdir`` a directory worth listing."""
        state = MetaState()
        state.kv = ShardedKVStore(
            shard_count=self.size["shards"], obs=obs,
            durability=DurabilityLayer(obs=obs) if wal else None,
        )
        state.fs = fs = HopsFS(store=state.kv, obs=obs)
        directories = self.size["directories"]
        for d in range(directories):
            fs.makedirs(f"/data/dir{d:04d}")
        for i in range(directories * self.size["seed_files_per_dir"]):
            path = f"/data/dir{i % directories:04d}/seed{i:06d}"
            fs.create(path, PAYLOAD)
            state.created.append(path)
        return state

    def setup(self, rec: Optional[Recorder], obs) -> MetaState:
        state = self.build(obs)
        state.rec = rec
        fs = state.fs
        state.calls = {op: getattr(fs, op) for op in OPS}
        if rec is not None:
            state.calls = {
                op: rec.wrap(f"hopsfs.{op}", call) for op, call in state.calls.items()
            }
        for op in self.prepare_round(state, -1)[:500]:  # warm-up
            self.apply(state, state.calls, op)
        state.kv.reset_accounting()
        if rec is not None:
            rec.reset()  # warm-up spans are not the workload's
        state.wal_bytes_before = state.kv.durability.total_bytes
        state.wal_records_before = state.kv.durability.total_records
        state.user_bytes = 0
        state.ops_done = 0
        return state

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def prepare_round(self, state: MetaState, index: int):
        """(op, directory number, a uniform draw that picks the target).

        The mix creates three files for every one it deletes, and a
        ``listdir`` scans its whole shard, so an unbounded namespace would
        make every round slower than the last. Before each round an untimed
        retention sweep deletes the surplus back to the prefilled size: the
        rounds stay comparable and the sweep still goes through the WAL.
        """
        rng = random.Random(f"{self.seed}:{self.name}:round{index}")
        directories = self.size["directories"]
        created = state.created
        target = directories * self.size["seed_files_per_dir"]
        while len(created) > target:
            state.fs.delete(created.pop(rng.randrange(len(created))))
        return [
            (op, rng.randrange(directories), rng.random())
            for op in rng.choices(OPS, WEIGHTS, k=self.size["ops_per_round"])
        ]

    def apply(self, state: MetaState, calls, op) -> None:
        kind, directory, draw = op
        created = state.created
        if kind == "create":
            state.counter += 1
            path = f"/data/dir{directory:04d}/f{state.counter:08d}"
            calls["create"](path, PAYLOAD)
            created.append(path)
            state.user_bytes += len(PAYLOAD)
        elif kind == "listdir":
            calls["listdir"](f"/data/dir{directory:04d}")
        elif kind == "delete":
            if len(created) > 1:
                calls["delete"](created.pop(int(draw * len(created))))
        else:  # stat, read
            calls[kind](created[int(draw * len(created))])

    def run_round(self, state: MetaState, ops, latencies: List[float]) -> int:
        now, apply, calls = time.perf_counter, self.apply, state.calls
        every = self.size["checkpoint_every"]
        for op in ops:
            started = now()
            try:
                apply(state, calls, op)
            except Exception as error:  # the op loop must outlive a failed op
                state.failed += 1
                if len(state.violations) < 3:
                    state.violations.append(f"operation raised: {error!r}")
            latencies.append((now() - started) * 1e3)
            state.ops_done += 1
            if state.ops_done % every == 0:
                # Inside the round on purpose: the periodic stall is part
                # of what a client of this store sees.
                started = now()
                state.kv.checkpoint()
                state.checkpoint_ms.append((now() - started) * 1e3)
        return len(ops)

    def finish(self, state: MetaState, latencies: List[float]) -> int:
        """Power loss, then recovery: one more (long) operation."""
        kv = state.kv
        state.items_before = [sorted(map(repr, kv.shard_items(s)))
                              for s in range(kv.shard_count)]
        started = time.perf_counter()
        try:
            state.fs.crash()
            report = state.fs.recover()
        except Exception as error:
            state.failed += 1
            state.violations.append(f"recovery raised: {error!r}")
            return 1
        state.recover_ms = (time.perf_counter() - started) * 1e3
        state.records_replayed = report.records_replayed
        latencies.append(state.recover_ms)
        return 1

    def verify(self, state: MetaState) -> None:
        kv = state.kv
        items_after = [sorted(map(repr, kv.shard_items(s)))
                       for s in range(kv.shard_count)]
        if self.corrupt_oracle:
            items_after[0] = items_after[0][:-1]
        state.checks += 3
        if items_after != state.items_before:
            state.failed += 1
            state.violations.append("recovered shard items differ from pre-crash")
        for name, report in (("fsck_store", fsck_store(kv)),
                             ("fsck_filesystem", fsck_filesystem(state.fs))):
            if not report.ok:
                state.failed += 1
                state.violations.append(f"{name}: {report.violations[:3]}")

    # ------------------------------------------------------------------
    # Layer metrics
    # ------------------------------------------------------------------

    def wal_ratio(self) -> float:
        """The same op stream on a store with and without the layer: two
        untraced rounds each, on fresh namespaces."""
        walls = {}
        for wal in (True, False):
            state = self.build(None, wal=wal)
            calls = {op: getattr(state.fs, op) for op in OPS}
            started = time.perf_counter()
            for index in range(2):
                for op in self.prepare_round(state, index):
                    self.apply(state, calls, op)
            walls[wal] = time.perf_counter() - started
        return stats.ratio(walls[True], walls[False])

    def layers(self, state: MetaState, rec: Recorder, obs) -> Dict[str, float]:
        kv = state.kv
        durability = kv.durability
        measured = {
            f"hopsfs.{op}_us": 1e3 * rec.mean_ms(f"hopsfs.{op}") for op in OPS
        }
        measured.update({
            "hopsfs.kv_ops_per_fs_op": stats.ratio(kv.op_count, state.ops_done),
            "hopsfs.multi_shard_share": kv.multi_shard_fraction,
            "hopsfs.ops_per_s_sim": kv.ops_per_second(),
            "durability.wal_bytes_per_user_byte": stats.ratio(
                durability.total_bytes - state.wal_bytes_before, state.user_bytes),
            "durability.wal_records": durability.total_records - state.wal_records_before,
            "durability.wal_on_vs_off_ratio": self.wal_ratio(),
            "durability.checkpoint_ms": stats.mean(state.checkpoint_ms),
            "durability.recover_ms": state.recover_ms,
            "durability.records_replayed": state.records_replayed,
        })
        return measured
