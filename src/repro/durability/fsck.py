"""Cross-layer integrity checking — the simulated ``fsck`` (experiment E20).

Three duck-typed checkers, one per layer, each returning an
:class:`FsckReport`:

* :func:`fsck_store` — shard routing is honest (every key lives on the
  shard its partition key hashes to) and, with a durability layer attached,
  replaying the logs reproduces the live dictionaries exactly: **no
  acknowledged write is missing from the durable record, and nothing
  aborted is visible**.
* :func:`fsck_blocks` — block ownership and datanode inventory agree in
  both directions, replication counts are honest (never above target,
  owners unique and alive), and byte accounting adds up.
* :func:`fsck_filesystem` — both of the above, plus metadata ↔ block-layer
  referential integrity: every file's block ids exist, every block belongs
  to exactly one file, inode ids are unique, and every inode record is
  reachable from the root by walking directory partitions (no orphaned
  subtree).

Checkers accumulate human-readable violations instead of raising on the
first, so one pass reports everything wrong; :meth:`FsckReport.verify`
turns a dirty report into a :class:`~repro.errors.DataCorruption`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import DataCorruption
from repro.hopsfs.filesystem import ROOT_ID
from repro.hopsfs.kvstore import shard_triples
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hopsfs.blocks import BlockManager
    from repro.hopsfs.filesystem import HopsFS
    from repro.hopsfs.kvstore import ShardedKVStore


@dataclass
class FsckReport:
    """The outcome of one integrity pass."""

    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def merge(self, other: "FsckReport") -> "FsckReport":
        self.checks += other.checks
        self.violations.extend(other.violations)
        return self

    def verify(self) -> "FsckReport":
        """Raise :class:`~repro.errors.DataCorruption` if anything is wrong."""
        if not self.ok:
            raise DataCorruption(
                f"fsck found {len(self.violations)} violation(s): "
                + "; ".join(self.violations[:5])
                + ("; ..." if len(self.violations) > 5 else "")
            )
        return self

    def summary(self) -> str:
        state = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return f"fsck: {self.checks} checks, {state}"


def _note(report: FsckReport, obs: Observability, layer: str) -> FsckReport:
    obs.metrics.counter("durability.fsck_runs", layer=layer).inc()
    if report.violations:
        obs.metrics.counter(
            "durability.fsck_violations", layer=layer
        ).inc(len(report.violations))
    return report


def fsck_store(store: "ShardedKVStore",
               obs: Optional[Observability] = None) -> FsckReport:
    """Check the metadata store: routing honesty + WAL/state agreement."""
    report = FsckReport()
    for shard in range(store.shard_count):
        for pk, key, _ in store.shard_items(shard):
            report.checks += 1
            routed = store.shard_of(pk)
            if routed != shard:
                report.add(
                    f"key ({pk!r}, {key!r}) lives on shard {shard} but "
                    f"routes to shard {routed}"
                )
    durability = getattr(store, "durability", None)
    if durability is not None:
        # The durable record must reproduce the volatile state exactly:
        # a missing entry is a committed write the log lost, an extra one
        # an aborted (or never-acknowledged) write that became visible.
        recovered, _ = durability.recover()
        for shard in range(store.shard_count):
            live = {(pk, key): value
                    for pk, key, value in store.shard_items(shard)}
            replayed = {(pk, key): value
                        for pk, key, value in shard_triples(recovered[shard])}
            report.checks += 1
            for entry in live.keys() - replayed.keys():
                report.add(
                    f"shard {shard}: committed write {entry!r} is absent "
                    "from the durable log"
                )
            for entry in replayed.keys() - live.keys():
                report.add(
                    f"shard {shard}: durable replay resurrects {entry!r}, "
                    "which the live state does not contain"
                )
            for entry in live.keys() & replayed.keys():
                if live[entry] != replayed[entry]:
                    report.add(
                        f"shard {shard}: durable value for {entry!r} "
                        "disagrees with the live state"
                    )
    return _note(report, resolve(obs), "store")


def fsck_blocks(blocks: "BlockManager",
                obs: Optional[Observability] = None) -> FsckReport:
    """Check block ownership ↔ datanode inventory, replication, bytes."""
    report = FsckReport()
    table = blocks.block_table()
    for block_id, (size, owners) in table.items():
        report.checks += 1
        if len(set(owners)) != len(owners):
            report.add(f"block {block_id}: duplicate owners {owners}")
        if len(owners) > blocks.replication:
            report.add(
                f"block {block_id}: {len(owners)} replicas exceed the "
                f"replication target {blocks.replication}"
            )
        for node_id in owners:
            if not 0 <= node_id < len(blocks.nodes):
                report.add(f"block {block_id}: owner {node_id} does not exist")
                continue
            node = blocks.nodes[node_id]
            if not node.alive:
                report.add(
                    f"block {block_id}: owner {node_id} is dead but still "
                    "listed"
                )
            elif node.blocks.get(block_id) != size:
                report.add(
                    f"block {block_id}: datanode {node_id} inventory says "
                    f"{node.blocks.get(block_id)!r} bytes, namenode says {size}"
                )
    for node in blocks.nodes:
        report.checks += 1
        if not node.alive:
            if node.blocks or node.used_bytes:
                report.add(
                    f"datanode {node.node_id} is dead but holds "
                    f"{len(node.blocks)} blocks / {node.used_bytes} bytes"
                )
            continue
        accounted = sum(node.blocks.values())
        if accounted != node.used_bytes:
            report.add(
                f"datanode {node.node_id}: used_bytes {node.used_bytes} != "
                f"sum of held blocks {accounted}"
            )
        for block_id in node.blocks:
            entry = table.get(block_id)
            if entry is None:
                report.add(
                    f"datanode {node.node_id} holds unknown block {block_id}"
                )
            elif node.node_id not in entry[1]:
                report.add(
                    f"datanode {node.node_id} holds block {block_id} but is "
                    "not in its owner list"
                )
    return _note(report, resolve(obs), "blocks")


def fsck_filesystem(fs: "HopsFS",
                    obs: Optional[Observability] = None) -> FsckReport:
    """Full pass: store + blocks + metadata ↔ block referential integrity."""
    report = fsck_store(fs.store, obs).merge(fsck_blocks(fs.blocks, obs))
    table = fs.blocks.block_table()
    seen_inodes: dict = {}
    claimed_blocks: dict = {}
    #: directory inode id -> the inode records partitioned under it
    children: Dict[Any, List[Tuple[Any, dict]]] = {}
    for shard in range(fs.store.shard_count):
        for pk, key, record in fs.store.shard_items(shard):
            if not isinstance(record, dict) or "inode" not in record:
                continue
            report.checks += 1
            children.setdefault(pk, []).append((key, record))
            inode = record["inode"]
            where = f"({pk!r}, {key!r})"
            if key != "__self__":
                prior = seen_inodes.setdefault(inode, where)
                if prior != where:
                    report.add(
                        f"inode {inode} appears at both {prior} and {where}"
                    )
            for block_id in record.get("blocks") or ():
                if block_id not in table:
                    report.add(
                        f"file {where} references unknown block {block_id}"
                    )
                    continue
                prior = claimed_blocks.setdefault(block_id, where)
                if prior != where:
                    report.add(
                        f"block {block_id} is claimed by both {prior} "
                        f"and {where}"
                    )
    for block_id in sorted(table.keys() - claimed_blocks.keys()):
        report.add(f"block {block_id} is claimed by no file")
    # Reachability: children are partitioned by parent inode id, so walking
    # partitions from the root visits exactly the live namespace. Whatever
    # is left is a subtree no path resolves to (e.g. a directory cycle).
    pending = [ROOT_ID]
    while pending:
        for key, record in children.pop(pending.pop(), ()):
            if record.get("is_dir") and key != "__self__":
                pending.append(record["inode"])
    for pk, orphans in children.items():
        report.checks += 1
        for key, record in orphans:
            report.add(
                f"orphaned_inode: inode {record['inode']} at "
                f"({pk!r}, {key!r}) is unreachable from the root"
            )
    return _note(report, resolve(obs), "filesystem")
