"""A cluster node: cores, cache hierarchy, directory, NIC, memory.

Besides the hardware modules of Fig. 5, the node hosts the **Module 3
table**: the (Local read BF, Local write BF) pairs of all transactions
currently executing on this node.  Executing transactions dynamically
pick their BFs from this finite pool (Section IV-C); when the pool is
exhausted no new transaction can start (Section VI, "Supporting Context
Switches").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, KeysView, List, Optional, Set, Tuple

from repro.config import ClusterConfig
from repro.hardware.bloom import (
    BloomFilter,
    SplitWriteBloomFilter,
    make_core_read_filter,
    make_core_write_filter,
    scan_groups,
)
from repro.hardware.cache import LlcModel, PrivateCacheFilter
from repro.hardware.directory import Directory
from repro.hardware.dram import DramModel
from repro.hardware.nic import Nic
from repro.cluster.memory import NodeMemory

Owner = Tuple[int, int]


class CoreClock:
    """CPU-occupancy bookkeeping for one physical core.

    Each core multiplexes ``m`` transactions (Section VII).  CPU work
    from the slots sharing a core serializes through this clock, while
    network waits overlap — the mechanism by which multiplexing hides
    remote latency but cannot hide software bookkeeping cycles.

    :meth:`reserve` books ``ns`` of CPU time and returns how long the
    caller must wait (queueing + the work itself); the caller yields
    that delay to the engine.
    """

    def __init__(self, engine):
        self.engine = engine
        self.free_at = 0.0

    def reserve(self, ns: float) -> float:
        """Book ``ns`` of work after whatever the core already holds.

        The work starts at ``max(now, free_at)``; the returned delay
        runs from now to its end.  A negative or NaN ``ns`` raises and
        books nothing.
        """
        if not ns >= 0:
            raise ValueError(f"cpu charge must be >= 0 ns, got {ns}")
        now = self.engine.now
        free_at = self.free_at
        # ``max(now, free_at)`` without the call; the same float for
        # every input.
        free_at = self.free_at = (free_at if free_at > now else now) + ns
        return free_at - now


@dataclass
class LocalTxState:
    """Module 3 entry: one local transaction's BF pair."""

    txid: int
    read_bf: BloomFilter
    write_bf: SplitWriteBloomFilter

    @property
    def shadow_reads(self) -> KeysView[int]:
        """Exact lines inserted into the read BF (read-only view) — the
        false-positive oracle, never a conflict check."""
        return self.read_bf.inserted_keys

    @property
    def shadow_writes(self) -> KeysView[int]:
        """Exact lines inserted into the write BF (read-only view)."""
        return self.write_bf.inserted_keys

    def record_read(self, line: int) -> None:
        self.read_bf.insert(line)

    def record_write(self, line: int) -> None:
        self.write_bf.insert(line)


class LocalConflictResult:
    """Outcome of probing the Module 3 BFs of local transactions."""

    def __init__(self) -> None:
        self.conflicting_txids: Set[int] = set()
        self.checks = 0
        self.hits = 0
        self.false_positive_hits = 0


class Node:
    """One node of the modeled cluster."""

    def __init__(self, node_id: int, config: ClusterConfig,
                 llc_sets: Optional[int] = None, engine=None):
        self.node_id = node_id
        self.config = config
        #: One CPU-occupancy clock per physical core (None without an engine,
        #: e.g. in structural unit tests).
        self.cores: List[CoreClock] = (
            [CoreClock(engine) for _ in range(config.cores_per_node)]
            if engine is not None else []
        )
        self.memory = NodeMemory(node_id)
        self.directory = Directory(
            locking_buffers=config.hw.locking_buffers_per_node,
            partial=config.partial_locking,
        )
        sets = llc_sets if llc_sets is not None else config.cache.llc_sets(
            config.cores_per_node)
        self.llc = LlcModel(sets=sets, ways=config.cache.llc_ways,
                            line_bytes=config.cache.line_bytes)
        self.dram = DramModel(config.dram, line_bytes=config.cache.line_bytes)
        nic_pairs = int(config.transactions_per_node
                        * max(1.0, config.remote_nodes_per_txn))
        self.nic = Nic(node_id, config.bloom,
                       bf_pair_capacity=nic_pairs,
                       module4b_capacity=config.transactions_per_node)
        #: One Module 1 filter per multiplexed transaction slot.
        self.private_filters: Dict[int, PrivateCacheFilter] = {
            slot: PrivateCacheFilter()
            for slot in range(config.transactions_per_node)
        }
        self._local_tx_table: Dict[int, LocalTxState] = {}

    def core_for_slot(self, slot: int) -> CoreClock:
        """The physical core that runs transaction slot ``slot``.

        Slots ``[k*m, (k+1)*m)`` are the ``m`` multiplexed transactions
        of core ``k``.
        """
        if not self.cores:
            raise RuntimeError("node was built without an engine; no cores")
        core_index = slot // self.config.multiplexing
        if not 0 <= core_index < len(self.cores):
            raise ValueError(f"slot {slot} out of range for "
                             f"{len(self.cores)} cores x m={self.config.multiplexing}")
        return self.cores[core_index]

    # -- Module 3: local transaction BF pool ---------------------------

    @property
    def bf_pool_size(self) -> int:
        return self.config.transactions_per_node

    @property
    def active_local_transactions(self) -> int:
        return len(self._local_tx_table)

    def register_local_tx(self, txid: int) -> LocalTxState:
        """Hand a fresh BF pair to a starting transaction."""
        if txid in self._local_tx_table:
            raise RuntimeError(f"tx {txid} already registered on node {self.node_id}")
        if len(self._local_tx_table) >= self.bf_pool_size:
            raise RuntimeError(
                f"node {self.node_id}: out of local BF pairs "
                f"({self.bf_pool_size}); no new transaction can start")
        state = LocalTxState(
            txid=txid,
            read_bf=make_core_read_filter(self.config.bloom),
            write_bf=make_core_write_filter(self.config.bloom,
                                            llc_sets=self.llc.sets),
        )
        self._local_tx_table[txid] = state
        return state

    def local_tx_state(self, txid: int) -> Optional[LocalTxState]:
        return self._local_tx_table.get(txid)

    def release_local_tx(self, txid: int) -> None:
        """Commit or squash: return the BF pair to the pool."""
        self._local_tx_table.pop(txid, None)

    def local_tx_ids(self) -> List[int]:
        return list(self._local_tx_table)

    def _scan(self, lines: List[int], exclude: Optional[int],
              writes_matter: bool) -> LocalConflictResult:
        """Probe the other local transactions' BFs for ``lines``, each
        transaction up to its first hit (see :func:`scan_groups`)."""
        result = LocalConflictResult()
        table = self._local_tx_table
        txids = list(table)
        if writes_matter:
            groups = [(state.read_bf, state.write_bf)
                      for state in table.values()]
        else:
            groups = [(state.read_bf,) for state in table.values()]
        if exclude in table:
            index = txids.index(exclude)
            del txids[index], groups[index]
        hits, result.checks, result.false_positive_hits = scan_groups(
            groups, lines)
        result.hits = len(hits)
        result.conflicting_txids.update(txids[index] for index in hits)
        return result

    def local_readers_of(self, line: int, exclude: int) -> LocalConflictResult:
        """Eager L–L write check: which other local transactions read ``line``?"""
        return self._scan([line], exclude, writes_matter=False)

    def check_local_conflicts(self, lines: List[int],
                              exclude: Optional[int] = None) -> LocalConflictResult:
        """Commit-time probe of all Module 3 BFs (Table II, remote Step 2).

        ``lines`` are the committing (remote) transaction's written
        addresses homed here; any local transaction whose read *or*
        write BF matches must be squashed.
        """
        return self._scan(list(lines), exclude, writes_matter=True)
