"""Background replica scrubbing (experiment E20).

Checksums on the read path only protect the replicas somebody reads; rot on
a cold replica sits undetected until the *healthy* copies fail and the rot
is all that's left. The scrubber closes that window: a sweep walks every
replica on every live datanode, checks its generation stamp and its bytes
against the ledger's write-time CRC32, and rewrites corrupt replicas from
an intact copy on the same block.
Replicas with no intact sibling left are reported as unrepairable — the
operator's signal that a block is one failure away from serving garbage
(with verification on) or already serving it (off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hopsfs.blocks import BlockManager


@dataclass
class ScrubReport:
    """One sweep's findings."""

    replicas_scanned: int = 0
    corrupt_found: int = 0
    repaired: int = 0
    unrepairable: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every detectably-corrupt replica had a healthy copy to heal from."""
        return not self.unrepairable

    def summary(self) -> str:
        return (
            f"scrub: {self.replicas_scanned} replicas, "
            f"{self.corrupt_found} corrupt, {self.repaired} repaired, "
            f"{len(self.unrepairable)} unrepairable"
        )


class Scrubber:
    """Sweeps a :class:`~repro.hopsfs.BlockManager`'s replicas for rot."""

    def __init__(self, blocks: "BlockManager",
                 obs: Optional[Observability] = None):
        if blocks.checksums is None:
            raise StorageError(
                "scrubbing needs a checksum ledger: a BlockManager without "
                "one has nothing to check replica bytes against"
            )
        self._blocks = blocks
        self._obs = resolve(obs)
        self.sweeps = 0

    def sweep(self) -> ScrubReport:
        """Verify every replica on every live datanode; repair what it can.

        Deterministic order (block id, then owner order), so a seeded fault
        plan always produces the same report.
        """
        checksums = self._blocks.checksums
        report = ScrubReport()
        for block_id, (_, owners) in sorted(self._blocks.block_table().items()):
            live = [o for o in owners if self._blocks.nodes[o].alive]
            intact = [o for o in live
                      if checksums.replica_intact(block_id, o)]
            for node_id in live:
                report.replicas_scanned += 1
                if node_id in intact:
                    continue
                report.corrupt_found += 1
                checksums.note_detected(block_id, node_id)
                if intact:
                    # Rewrite from any intact sibling: the repaired replica
                    # takes its bytes and generation stamp.
                    checksums.repair_replica(block_id, node_id)
                    report.repaired += 1
                    self._obs.metrics.counter(
                        "durability.scrub_repairs", node=node_id
                    ).inc()
                else:
                    report.unrepairable.append((block_id, node_id))
                    self._obs.metrics.counter(
                        "durability.scrub_unrepairable", node=node_id
                    ).inc()
        self.sweeps += 1
        self._obs.metrics.counter("durability.scrub_sweeps").inc()
        return report
