"""SmartNIC model (Modules 4a and 4b of Fig. 5).

Each node's NIC holds:

* **Module 4a** — a (Remote read BF, Remote write BF) pair per
  in-progress *remote* transaction that has accessed data homed in this
  node, tagged by (origin node, txid).  These are real
  :class:`~repro.hardware.bloom.BloomFilter` instances, so conflict
  checks exhibit genuine false positives; each filter's exact key set
  serves *only* to classify a hit as true/false for the Section VIII-C
  characterization — the protocol never consults it.
* **Module 4b** — per *local* transaction: the remote line addresses it
  wrote grouped by home node (with the buffered values), plus the set of
  remote nodes involved in the transaction.  Consumed at commit to build
  Intend-to-commit and Validation messages.

Capacity follows Section VI: m×C×D BF pairs and m×C Module-4b entries;
exceeding the BF-pair pool is counted (``bf_pool_overflows``) — the
paper's graceful degradation would switch to HADES-H during such
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, KeysView, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.hardware.bloom import BloomFilter, scan_groups

Owner = Tuple[int, int]  # (origin node id, transaction id)


class RemoteTxState(NamedTuple):
    """Module 4a state for one remote transaction: its BF pair, which is
    also the filter group a conflict scan probes."""

    read_bf: BloomFilter
    write_bf: BloomFilter

    @property
    def shadow_reads(self) -> KeysView[int]:
        """Exact keys inserted into the read BF (read-only view) — oracle
        for false-positive classification only."""
        return self.read_bf.inserted_keys

    @property
    def shadow_writes(self) -> KeysView[int]:
        """Exact keys inserted into the write BF (read-only view)."""
        return self.write_bf.inserted_keys


@dataclass
class LocalTxRemoteState:
    """Module 4b state for one local transaction."""

    #: home node -> written line addresses (ordered for message layout).
    writes_by_node: Dict[int, List[int]] = field(default_factory=dict)
    #: home node -> {line: value} buffered data ("Data Location" buffer).
    data_by_node: Dict[int, Dict[int, object]] = field(default_factory=dict)
    #: every remote node the transaction read or wrote.
    involved_nodes: Set[int] = field(default_factory=set)


class ConflictCheckResult:
    """Outcome of checking addresses against the NIC's remote BFs."""

    def __init__(self) -> None:
        self.conflicting_owners: Set[Owner] = set()
        self.checks = 0
        self.hits = 0
        self.false_positive_hits = 0


class Nic:
    """One node's SmartNIC."""

    def __init__(self, node_id: int, bloom_params, bf_pair_capacity: int,
                 module4b_capacity: int):
        self.node_id = node_id
        self._bloom = bloom_params
        self.bf_pair_capacity = bf_pair_capacity
        self.module4b_capacity = module4b_capacity
        self._remote: Dict[Owner, RemoteTxState] = {}
        self._local: Dict[int, LocalTxRemoteState] = {}
        self.bf_pool_overflows = 0
        self.messages_handled = 0

    # -- Module 4a: remote transactions -------------------------------

    def remote_state(self, owner: Owner) -> RemoteTxState:
        """Get or allocate the BF pair for a remote transaction."""
        state = self._remote.get(owner)
        if state is None:
            if len(self._remote) >= self.bf_pair_capacity:
                self.bf_pool_overflows += 1
            state = RemoteTxState(
                read_bf=BloomFilter(self._bloom.nic_read_bits, self._bloom.nic_hashes),
                write_bf=BloomFilter(self._bloom.nic_write_bits, self._bloom.nic_hashes),
            )
            self._remote[owner] = state
        return state

    def has_remote_state(self, owner: Owner) -> bool:
        return owner in self._remote

    def record_remote_read(self, owner: Owner, lines: Iterable[int]) -> None:
        self.remote_state(owner).read_bf.insert_all(lines)

    def record_remote_write(self, owner: Owner, partial_lines: Iterable[int]) -> None:
        """Insert only *partially written* lines, per the protocol.

        Fully-overwritten lines are deliberately not inserted (Table II,
        Remote Write): their conflicts are caught by the writer's own
        commit-time checks using the exact address list.
        """
        self.remote_state(owner).write_bf.insert_all(partial_lines)

    def clear_remote(self, owner: Owner) -> None:
        """Validation received or squash: drop the BF pair (commit Step 5)."""
        self._remote.pop(owner, None)

    def remote_owners(self) -> List[Owner]:
        return list(self._remote)

    def check_remote_conflicts(
        self,
        lines: Iterable[int],
        exclude: Optional[Owner] = None,
        reads_matter: bool = True,
    ) -> ConflictCheckResult:
        """Check ``lines`` against every remote transaction's BF pair.

        Used at commit: a committing transaction's written lines are
        probed against all other remote transactions' read *and* write
        BFs (Table II, commit Steps 2 at x and 2 at y).  Each owner's
        BFs are probed line by line up to the first hit, which is enough
        to squash it; a hit is false if the owner never inserted the line
        into a BF that was probed.
        """
        result = ConflictCheckResult()
        owners = list(self._remote)
        groups: list = list(self._remote.values())
        if exclude in self._remote:
            index = owners.index(exclude)
            del owners[index], groups[index]
        if not reads_matter:
            groups = [(state.write_bf,) for state in groups]
        hits, result.checks, result.false_positive_hits = scan_groups(
            groups, list(lines))
        result.hits = len(hits)
        result.conflicting_owners.update(owners[index] for index in hits)
        return result

    # -- Module 4b: local transactions' remote footprint ---------------

    def local_state(self, txid: int) -> LocalTxRemoteState:
        state = self._local.get(txid)
        if state is None:
            if len(self._local) >= self.module4b_capacity:
                raise RuntimeError(
                    f"NIC {self.node_id}: Module 4b capacity {self.module4b_capacity} "
                    f"exhausted (m x C transactions already tracked)"
                )
            state = LocalTxRemoteState()
            self._local[txid] = state
        return state

    def note_involved_node(self, txid: int, remote_node: int) -> None:
        self.local_state(txid).involved_nodes.add(remote_node)

    def buffer_remote_write(self, txid: int, remote_node: int, line: int,
                            value: object) -> None:
        """Buffer a remote write locally until commit (Table II)."""
        state = self.local_state(txid)
        state.involved_nodes.add(remote_node)
        lines = state.writes_by_node.setdefault(remote_node, [])
        data = state.data_by_node.setdefault(remote_node, {})
        if line not in data:
            lines.append(line)
        data[line] = value

    def involved_nodes(self, txid: int) -> Set[int]:
        state = self._local.get(txid)
        return set(state.involved_nodes) if state else set()

    def writes_for_node(self, txid: int, remote_node: int) -> List[int]:
        state = self._local.get(txid)
        if state is None:
            return []
        return list(state.writes_by_node.get(remote_node, ()))

    def buffered_value(self, txid: int, remote_node: int, line: int):
        """Read-your-writes support for buffered remote data."""
        state = self._local.get(txid)
        if state is None:
            return None
        return state.data_by_node.get(remote_node, {}).get(line)

    def data_payload(self, txid: int, remote_node: int) -> Dict[int, object]:
        state = self._local.get(txid)
        if state is None:
            return {}
        return dict(state.data_by_node.get(remote_node, {}))

    def clear_local(self, txid: int) -> None:
        """Commit finished or squash: drop Module 4b state."""
        self._local.pop(txid, None)

    def local_txids(self) -> List[int]:
        """Txids with live Module 4b state (leak checks, crash wipes)."""
        return list(self._local)

    def wipe(self) -> int:
        """Node crash: NIC SRAM is volatile — every Module 4a BF pair and
        Module 4b entry is lost.  Returns the number of entries dropped."""
        dropped = len(self._remote) + len(self._local)
        self._remote.clear()
        self._local.clear()
        return dropped

    # -- accounting ----------------------------------------------------

    @property
    def remote_tx_count(self) -> int:
        return len(self._remote)

    @property
    def local_tx_count(self) -> int:
        return len(self._local)

    def iter_remote_states(self) -> Iterable[RemoteTxState]:
        """Module-4a states of in-progress remote transactions (read-only
        view for occupancy/fill-ratio diagnostics)."""
        return self._remote.values()
