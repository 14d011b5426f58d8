"""Cluster assembly: nodes + fabric + record placement.

Records are placed uniformly across nodes (Section VII: "Records are
statically distributed across all the nodes in a uniform manner"); the
placement hash is deterministic so every protocol sees the same layout.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.cluster.node import Node
from repro.cluster.record import RecordDescriptor
from repro.hardware.crc import splitmix64, splitmix64_lanes
from repro.net.fabric import Fabric
from repro.sim.engine import Engine


class Cluster:
    """The modeled machine: N nodes connected by the RDMA fabric."""

    def __init__(self, engine: Engine, config: ClusterConfig,
                 llc_sets: Optional[int] = None,
                 fabric: Optional[Fabric] = None):
        self.engine = engine
        self.config = config
        self.nodes: List[Node] = [
            Node(node_id, config, llc_sets=llc_sets, engine=engine)
            for node_id in range(config.nodes)
        ]
        # A prebuilt fabric (e.g. a FaultyFabric) may be supplied; by
        # default the cluster owns a fault-free one.
        self.fabric = fabric if fabric is not None else Fabric(
            engine, config.network)
        self._records: Dict[int, RecordDescriptor] = {}
        self._next_txid = 0

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def next_txid(self) -> int:
        """Cluster-unique transaction id."""
        self._next_txid += 1
        return self._next_txid

    # -- record placement ----------------------------------------------

    def home_of(self, record_id: int) -> int:
        """Deterministic uniform home node for a record id."""
        return splitmix64(record_id) % self.config.nodes

    def allocate_record(self, record_id: int, data_bytes: int,
                        home: Optional[int] = None) -> RecordDescriptor:
        """Place a record on its home node (hash placement by default)."""
        return self.allocate_records((record_id,), data_bytes, home=home)[0]

    def allocate_records(self, record_ids: Iterable[int], data_bytes: int,
                         home: Optional[int] = None) -> List[RecordDescriptor]:
        """Place a batch of ``data_bytes``-sized records in one pass.

        Each record goes to ``home`` if given, else to
        :meth:`home_of`; every node allocates its share in batch order,
        so memory is laid out exactly as one :meth:`allocate_record`
        call per id, in that order, would lay it out.  Returns the
        descriptors in batch order.
        """
        record_ids = list(record_ids)
        nodes = self.config.nodes
        if home is not None and not 0 <= home < nodes:
            raise ValueError(f"home node {home} outside [0, {nodes})")
        records = self._records
        batch = set(record_ids)
        if len(batch) < len(record_ids) or not batch.isdisjoint(records):
            seen = set()
            for record_id in record_ids:
                if record_id in records or record_id in seen:
                    raise ValueError(f"record {record_id} already allocated")
                seen.add(record_id)
        if home is None:
            # home_of for the whole batch, hashed in one kernel call.
            homes = [hashed % nodes for hashed in splitmix64_lanes(record_ids)]
        else:
            homes = [home] * len(record_ids)
        shares: List[List[int]] = [[] for _ in range(nodes)]
        for record_id, node_id in zip(record_ids, homes):
            shares[node_id].append(record_id)
        allocated = [iter(node.memory.allocate_records(share, data_bytes))
                     for node, share in zip(self.nodes, shares)]
        descriptors = [next(allocated[node_id]) for node_id in homes]
        records.update(zip(record_ids, descriptors))
        return descriptors

    def record(self, record_id: int) -> RecordDescriptor:
        descriptor = self._records.get(record_id)
        if descriptor is None:
            raise KeyError(f"record {record_id} was never allocated")
        return descriptor

    def has_record(self, record_id: int) -> bool:
        return record_id in self._records

    def iter_records(self) -> Iterator[Tuple[int, RecordDescriptor]]:
        """All allocated records as (record_id, descriptor), sorted by id.

        The public way to walk the record table (trace capture, audits)
        without reaching into the private mapping.
        """
        for record_id in sorted(self._records):
            yield record_id, self._records[record_id]

    @property
    def record_count(self) -> int:
        return len(self._records)
