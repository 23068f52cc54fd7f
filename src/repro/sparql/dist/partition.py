"""Range partitioning of the graph's id rows over simulated cluster nodes.

The distributed engine's storage layout (experiment E25): the graph's id
rows are split into ``partitions`` contiguous ranges of the *subject*
term-id space, each replicated ``replication`` ways onto cluster nodes via
the existing :meth:`repro.cluster.resources.ClusterSpec.place_partitions`
round-robin. Every triple lives in exactly one partition (the one owning its
subject id), which is the invariant that makes partition-local scans a true
disjoint cover of any pattern's extent — union of fragments == the
single-process scan, as a multiset.

A partition is the subject-id range ``[first, last)`` that
:class:`RangePartitioner` maps to it, and its row count; ``sync`` cuts both
once per ``graph.version``. A task scans its partition through the same
:meth:`~repro.rdf.graph.Graph.id_rows` as a single-process scan, narrowed to
the range: every sorted order's range is subject-major, so that is two
binary searches on the order's subject column, and nothing is masked or
copied. Fragments therefore cannot drift from the whole scan, and replicas
of one version read identical rows, so a failed-over read returns
byte-identical rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.resources import ClusterSpec, Node
from repro.errors import SPARQLError
from repro.rdf.graph import Graph
from repro.rdf.term import Term
from repro.sparql.ast import Variable
from repro.sparql.vector.ops import id_table

#: Modelled storage width of one triple row: three int64 id cells.
BYTES_PER_ROW = 24
#: Past every subject id: the end of the last partition's range.
_NO_END = int(np.iinfo(np.int64).max)


class RangePartitioner:
    """Equal-width ranges over ``[0, term_count)`` of subject term ids."""

    def __init__(self, term_count: int, partitions: int):
        if partitions < 1:
            raise SPARQLError(f"partitions must be >= 1, got {partitions}")
        self.partitions = partitions
        self.span = max(1, term_count)

    def partition_of(self, subject_id: int) -> int:
        """The partition owning *subject_id* (clamped: ids past the snapshot
        span — never produced by a same-version scan — fold into the last
        range rather than indexing out of bounds)."""
        if subject_id < 0:
            return 0
        pid = subject_id * self.partitions // self.span
        return min(pid, self.partitions - 1)

    def bounds(self) -> List[int]:
        """The subject ids cutting the ranges: partition ``pid`` owns
        ``[bounds[pid], bounds[pid + 1])``, the ids :meth:`partition_of`
        maps to it (the last range runs past every id)."""
        firsts = [-(-pid * self.span // self.partitions) for pid in range(self.partitions)]
        return firsts + [_NO_END]


class PartitionedTripleStore:
    """The graph's id rows, range-partitioned and replicated.

    ``sync()`` re-cuts the partition ranges when the graph version moved;
    ``place(nodes)`` computes the replica placement for one scheduler's node
    set through ``ClusterSpec.place_partitions`` (marking ``local_data`` so
    the locality machinery sees real partition residency).
    """

    def __init__(
        self,
        graph: Graph,
        spec: ClusterSpec,
        partitions: int = 4,
        replication: int = 2,
    ):
        if replication < 1:
            raise SPARQLError(f"replication must be >= 1, got {replication}")
        if replication > spec.node_count:
            raise SPARQLError(
                f"replication {replication} exceeds cluster size "
                f"{spec.node_count}"
            )
        self.graph = graph
        self.spec = spec
        self.partitions = partitions
        self.replication = replication
        self.partitioner = RangePartitioner(graph.term_count, partitions)
        self._version: Optional[int] = None
        self._ranges: List[Tuple[int, int]] = []
        self._rows: List[int] = []
        self.sync()

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Re-cut the partition ranges if the graph mutated."""
        if self._version == self.graph.version:
            return
        self.partitioner = RangePartitioner(
            self.graph.term_count, self.partitions
        )
        self.graph.compact()
        bounds = self.partitioner.bounds()
        self._ranges = list(zip(bounds, bounds[1:]))
        # Sorted subjects: each partition's rows are one contiguous run.
        cuts = np.searchsorted(id_table(self.graph)[0], bounds)
        self._rows = np.diff(cuts).tolist()
        self._version = self.graph.version

    def place(self, nodes: List[Node]) -> Dict[int, List[int]]:
        """Replica placement for one execution's node set: pid -> node ids."""
        ids = [f"sparql:{pid}" for pid in range(self.partitions)]
        raw = self.spec.place_partitions(ids, nodes, copies=self.replication)
        return {
            pid: raw[f"sparql:{pid}"] for pid in range(self.partitions)
        }

    # ------------------------------------------------------------------
    # Partition access
    # ------------------------------------------------------------------

    def partition_rows(self, pid: int) -> int:
        return self._rows[pid]

    def partition_bytes(self, pid: int) -> int:
        return self.partition_rows(pid) * BYTES_PER_ROW

    def partitions_of(self, subject: Union[Variable, Term]) -> List[int]:
        """Partitions whose rows can carry *subject*: a variable reaches
        them all, a constant, interned subject pins its one range, and an
        uninterned constant none at all."""
        if isinstance(subject, Variable):
            return list(range(self.partitions))
        subject_id = self.graph.term_id(subject)
        if subject_id is None:
            return []
        return [self.partitioner.partition_of(subject_id)]

    def subject_range(self, pid: int) -> Tuple[int, int]:
        """One partition's ``[first, last)`` subject ids, as a scan reads them."""
        return self._ranges[pid]
