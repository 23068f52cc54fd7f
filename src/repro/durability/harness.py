"""Crash-point recovery harness (experiment E20).

The only convincing argument for a recovery protocol is exhaustion: run a
deterministic workload, then re-run it killing the store at **every WAL
record boundary** — clean crash and torn-write crash both — recover, and
check the all-or-nothing oracle each time:

* every operation acknowledged before the crash is fully visible
  (**zero committed-write loss**);
* the operation in flight at the crash is either fully applied (its commit
  record became durable) or fully absent (**zero aborted-visibility**) —
  never partial;
* :func:`~repro.durability.fsck.fsck_store` comes back clean, i.e. the
  durable logs reproduce the recovered state exactly.

The workload is seeded and mixes single-shard puts/deletes with
multi-shard 2PC transactions, with a mid-run checkpoint so recovery
exercises the snapshot + log-suffix path, not just full replay.

Run it from the command line (the CI recovery-soak job does)::

    python -m repro.durability --seeds 0,1,2
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.fsck import fsck_store
from repro.durability.wal import DurabilityLayer
from repro.errors import SimulatedCrash
from repro.hopsfs.kvstore import ShardedKVStore
from repro.obs import Observability, resolve

#: One workload operation: ("put", pk, key, value) | ("delete", pk, key)
#: | ("transact", writes, deletes)
Op = Tuple[Any, ...]


def make_workload(seed: int, ops: int = 24,
                  shard_count: int = 4) -> List[Op]:
    """A seeded op mix over integer partition keys.

    Integer keys hash to themselves, so shard routing — and therefore the
    exact WAL record sequence — is identical on every run of a seed.
    """
    rng = random.Random(seed)
    partitions = list(range(shard_count * 2))
    keys = [f"k{i}" for i in range(6)]
    out: List[Op] = []
    for i in range(ops):
        roll = rng.random()
        if roll < 0.5:
            out.append(("put", rng.choice(partitions), rng.choice(keys),
                        {"op": i, "seed": seed}))
        elif roll < 0.7:
            out.append(("delete", rng.choice(partitions), rng.choice(keys)))
        else:
            # A multi-shard transaction: 2-3 writes plus maybe a delete,
            # spread over distinct partitions so 2PC really spans shards.
            spread = rng.sample(partitions, rng.randint(2, 3))
            writes = [(pk, rng.choice(keys), {"op": i, "slot": j})
                      for j, pk in enumerate(spread)]
            deletes = (
                [(rng.choice(partitions), rng.choice(keys))]
                if rng.random() < 0.5 else []
            )
            out.append(("transact", writes, deletes))
    return out


def apply_op(store: ShardedKVStore, op: Op) -> None:
    kind = op[0]
    if kind == "put":
        store.put(op[1], op[2], op[3])
    elif kind == "delete":
        store.delete(op[1], op[2])
    elif kind == "transact":
        store.transact(writes=list(op[1]), deletes=list(op[2]))
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown workload op {kind!r}")


def _flatten(shards: List[Dict[Any, Any]]) -> Dict[Any, Any]:
    merged: Dict[Any, Any] = {}
    for shard in shards:
        merged.update(shard)
    return merged


@dataclass
class CrashSweepReport:
    """The outcome of one seed's full crash-point sweep."""

    seed: int
    wal_records: int = 0
    crash_points: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def verify(self) -> "CrashSweepReport":
        if not self.ok:
            raise AssertionError(
                f"crash sweep (seed {self.seed}) failed at "
                f"{len(self.failures)} point(s): " + "; ".join(self.failures[:3])
            )
        return self

    def summary(self) -> str:
        state = "clean" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"seed {self.seed}: {self.crash_points} crash points over "
            f"{self.wal_records} WAL records, {state}"
        )


class CrashPointHarness:
    """Sweeps every WAL record boundary of a seeded workload."""

    def __init__(
        self,
        seed: int = 0,
        ops: int = 24,
        shard_count: int = 4,
        obs: Optional[Observability] = None,
    ):
        self.seed = seed
        self.shard_count = shard_count
        self.workload = make_workload(seed, ops=ops, shard_count=shard_count)
        #: checkpoint (without truncation) midway so half the sweep
        #: recovers via snapshot + suffix instead of full replay
        self.checkpoint_after_op = len(self.workload) // 2
        self._obs = resolve(obs)

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------

    def oracle_states(self) -> List[Dict[Any, Any]]:
        """``oracle[i]`` = the merged store contents after the first *i* ops."""
        store = ShardedKVStore(shard_count=self.shard_count)
        states: List[Dict[Any, Any]] = [{}]
        for op in self.workload:
            apply_op(store, op)
            states.append(_flatten([
                {(pk, key): value for pk, key, value in store.shard_items(s)}
                for s in range(self.shard_count)
            ]))
        return states

    # ------------------------------------------------------------------
    # Sweep
    # ------------------------------------------------------------------

    def _build_store(self, crash_after: Optional[int],
                     torn: bool) -> ShardedKVStore:
        layer = DurabilityLayer(
            crash_after_records=crash_after, torn_crash=torn, obs=self._obs
        )
        return ShardedKVStore(shard_count=self.shard_count, durability=layer)

    def _run_until_crash(self, store: ShardedKVStore) -> Optional[int]:
        """Apply the workload; returns the op index that crashed, or None."""
        for i, op in enumerate(self.workload):
            try:
                apply_op(store, op)
            except SimulatedCrash:
                return i
            if i + 1 == self.checkpoint_after_op:
                store.checkpoint()
        return None

    def total_wal_records(self) -> int:
        """Dry-run record count — the number of crash points to sweep."""
        store = self._build_store(crash_after=None, torn=False)
        crashed = self._run_until_crash(store)
        assert crashed is None, "dry run must not crash"
        return store.durability.appended_records

    def run(self) -> CrashSweepReport:
        """The full sweep: every boundary, clean and torn, plus a no-crash
        crash/recover round trip."""
        report = CrashSweepReport(seed=self.seed)
        oracle = self.oracle_states()
        report.wal_records = self.total_wal_records()
        for torn in (False, True):
            for k in range(report.wal_records):
                report.crash_points += 1
                self._check_point(k, torn, oracle, report)
        # And the trivial boundary: power loss after the workload finished.
        store = self._build_store(crash_after=None, torn=False)
        self._run_until_crash(store)
        store.crash()
        store.recover()
        self._compare(store, oracle[-1], oracle[-1],
                      "post-workload crash", report)
        self._obs.metrics.counter("durability.harness_sweeps").inc()
        return report

    def _check_point(self, k: int, torn: bool,
                     oracle: List[Dict[Any, Any]],
                     report: CrashSweepReport) -> None:
        where = f"crash@{k}{'/torn' if torn else ''}"
        store = self._build_store(crash_after=k, torn=torn)
        crashed_at = self._run_until_crash(store)
        if crashed_at is None:
            report.failures.append(
                f"{where}: workload finished without hitting the crash point"
            )
            return
        store.crash()
        try:
            store.recover()
        except Exception as error:  # noqa: BLE001 - report, don't abort sweep
            report.failures.append(f"{where}: recovery raised {error!r}")
            return
        # All-or-nothing oracle: everything acknowledged before op
        # ``crashed_at`` visible, the in-flight op fully in or fully out.
        self._compare(store, oracle[crashed_at], oracle[crashed_at + 1],
                      where, report)
        fsck = fsck_store(store, obs=self._obs)
        if not fsck.ok:
            report.failures.append(
                f"{where}: fsck dirty: {fsck.violations[0]}"
            )

    def _compare(self, store: ShardedKVStore,
                 before: Dict[Any, Any], after: Dict[Any, Any],
                 where: str, report: CrashSweepReport) -> None:
        recovered = _flatten([
            {(pk, key): value for pk, key, value in store.shard_items(s)}
            for s in range(store.shard_count)
        ])
        if recovered == before or recovered == after:
            return
        lost = {k for k in before if k not in recovered}
        ghost = {k for k in recovered if k not in before and k not in after}
        detail = []
        if lost:
            detail.append(f"committed writes lost: {sorted(map(str, lost))[:3]}")
        if ghost:
            detail.append(f"phantom entries: {sorted(map(str, ghost))[:3]}")
        if not detail:
            detail.append("partial transaction visible")
        report.failures.append(f"{where}: {'; '.join(detail)}")


def run_sweeps(seeds: List[int], ops: int = 24,
               shard_count: int = 4,
               obs: Optional[Observability] = None) -> List[CrashSweepReport]:
    return [
        CrashPointHarness(seed, ops=ops, shard_count=shard_count, obs=obs).run()
        for seed in seeds
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="E20 crash-point recovery sweep"
    )
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated workload seeds")
    parser.add_argument("--ops", type=int, default=24,
                        help="operations per workload")
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    reports = run_sweeps(seeds, ops=args.ops, shard_count=args.shards)
    for report in reports:
        print(report.summary())
        for failure in report.failures:
            print(f"  FAIL {failure}")
    if any(not r.ok for r in reports):
        return 1
    print(f"recovery soak clean: {len(reports)} seed(s), "
          f"{sum(r.crash_points for r in reports)} crash points")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
