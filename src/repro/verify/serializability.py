"""Conflict-serializability checking over executed histories.

The checker observes the simulation from outside the protocols:

1. It wraps every node's memory so the **install order of writes** per
   record is known ground truth (protocols only write memory at commit,
   so this is the version order).
2. Test drivers report, per committed transaction, the value it
   *observed* for each record read and the value it *wrote* — with the
   convention that written values are **unique tokens**, so a value
   identifies its writer.
3. :meth:`SerializabilityChecker.check` builds the direct serialization
   graph: WW edges along each record's version order, WR edges from a
   writer to the transactions that read its value, and RW
   anti-dependency edges from those readers to the next writer.  A
   cycle means the history is not conflict-serializable — a protocol
   bug.

This is how the test-suite demonstrates the paper's implicit claim:
HADES' Bloom-filter/partial-lock machinery provides the same
serializable semantics as the software Baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster

#: Token representing a record's initial (never-written) state.
INITIAL = ("__initial__",)


@dataclass
class TransactionObservation:
    """What one committed transaction saw and did, at record granularity."""

    txid: Hashable
    #: record id -> value observed by the first read (None if unwritten).
    reads: Dict[int, object] = field(default_factory=dict)
    #: record id -> unique value written.
    writes: Dict[int, object] = field(default_factory=dict)


@dataclass
class CheckResult:
    """Outcome of a serializability check."""

    serializable: bool
    transactions: int
    edges: int
    #: A cycle's transaction ids, if one was found.
    cycle: Optional[List[Hashable]] = None
    #: Problems with the observations themselves (unknown values).
    anomalies: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.serializable and not self.anomalies


class SerializabilityChecker:
    """Builds and checks the direct serialization graph of a run."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: record id -> values in memory-install order (version order).
        self._install_order: Dict[int, List[object]] = {}
        self._observations: List[TransactionObservation] = []
        self._first_lines: Dict[int, int] = {}
        self._hooked = False

    # -- wiring -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every node memory to trace record write order.

        Records must already be allocated.  Only the *first line* of
        each record is traced: every protocol writes a record's lines
        together at commit.
        """
        if self._hooked:
            raise RuntimeError("checker already installed")
        self._hooked = True
        line_to_record: Dict[int, int] = {}
        for record_id, descriptor in self.cluster.iter_records():
            first = descriptor.lines[0]
            self._first_lines[record_id] = first
            line_to_record[first] = record_id
        for node in self.cluster.nodes:
            self._wrap_memory(node.memory, line_to_record)

    def _wrap_memory(self, memory, line_to_record: Dict[int, int]) -> None:
        original = memory.write_line
        install_order = self._install_order

        def traced_write_line(line, value, _original=original):
            record_id = line_to_record.get(line)
            if record_id is not None:
                install_order.setdefault(record_id, []).append(value)
            return _original(line, value)

        memory.write_line = traced_write_line

    # -- observation intake ----------------------------------------------------

    def observe(self, observation: TransactionObservation) -> None:
        self._observations.append(observation)

    def observe_commit(self, txid: Hashable, reads: Dict[int, object],
                       writes: Dict[int, object]) -> None:
        self.observe(TransactionObservation(txid, dict(reads), dict(writes)))

    # -- the check -------------------------------------------------------------

    def check(self) -> CheckResult:
        """Build the DSG and search it for cycles."""
        anomalies: List[str] = []
        edges: Dict[Hashable, Set[Hashable]] = {}
        writer_of: Dict[Tuple[int, int], Hashable] = {}
        version_index: Dict[Tuple[int, object], int] = {}

        # Version order per record; INITIAL occupies index -1.
        for record_id, values in self._install_order.items():
            deduped: List[object] = []
            for value in values:
                # Idempotent re-writes of the same value (e.g. a replica
                # push after a local apply) collapse into one version.
                if not deduped or deduped[-1] != value:
                    deduped.append(value)
            self._install_order[record_id] = deduped
            for index, value in enumerate(deduped):
                version_index[(record_id, value)] = index

        def writers_by_index(record_id: int) -> Dict[int, Hashable]:
            result = {}
            for observation in self._observations:
                if record_id in observation.writes:
                    value = observation.writes[record_id]
                    index = version_index.get((record_id, value))
                    if index is None:
                        anomalies.append(
                            f"tx {observation.txid} wrote a value to record "
                            f"{record_id} that never reached memory")
                        continue
                    if index in result:
                        anomalies.append(
                            f"records {record_id}: two transactions wrote "
                            f"identical values (version {index}); written "
                            "values must be unique tokens")
                    result[index] = observation.txid
            return result

        def add_edge(src: Hashable, dst: Hashable) -> None:
            if src != dst:
                edges.setdefault(src, set()).add(dst)

        all_records: Set[int] = set(self._install_order)
        for observation in self._observations:
            all_records.update(observation.reads)
            all_records.update(observation.writes)

        for record_id in all_records:
            writers = writers_by_index(record_id)
            ordered_indices = sorted(writers)
            # WW edges along the version order.
            for earlier, later in zip(ordered_indices, ordered_indices[1:]):
                add_edge(writers[earlier], writers[later])
            # WR and RW edges from readers.
            for observation in self._observations:
                if record_id not in observation.reads:
                    continue
                value = observation.reads[record_id]
                if value is None:
                    read_index = -1
                else:
                    read_index = version_index.get((record_id, value))
                    if read_index is None:
                        anomalies.append(
                            f"tx {observation.txid} read a value of record "
                            f"{record_id} that was never installed")
                        continue
                if read_index >= 0 and read_index in writers:
                    add_edge(writers[read_index], observation.txid)
                next_indices = [i for i in ordered_indices if i > read_index]
                if next_indices:
                    add_edge(observation.txid, writers[next_indices[0]])

        cycle = _find_cycle(edges)
        edge_count = sum(len(targets) for targets in edges.values())
        return CheckResult(serializable=cycle is None,
                           transactions=len(self._observations),
                           edges=edge_count, cycle=cycle,
                           anomalies=anomalies)


def _find_cycle(edges: Dict[Hashable, Set[Hashable]]
                ) -> Optional[List[Hashable]]:
    """Iterative DFS cycle detection; returns one cycle's nodes."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[Hashable, int] = {}
    parent: Dict[Hashable, Hashable] = {}
    for start in edges:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = color.get(child, WHITE)
                if state == GREY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [child, node]
                    walker = node
                    while walker != child:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
