"""Cluster assembly: nodes + fabric + record placement.

Records are placed uniformly across nodes (Section VII: "Records are
statically distributed across all the nodes in a uniform manner"); the
placement hash is deterministic so every protocol sees the same layout.

The record table is columnar.  A batch of consecutive ids — the
``range`` every workload's ``populate`` passes — is kept as a
:class:`_RangeBatch`: each record's home node and its *slot*, its
position among the batch's records on that node, in two flat arrays.
A record's address follows from them, and its
:class:`~repro.cluster.record.RecordDescriptor` is built the first time
it is asked for, then kept.  Ids from any other iterable (a trace
replay's one-by-one records, an id list) get their descriptors at once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.cluster.memory import record_stride
from repro.cluster.node import Node
from repro.cluster.record import RecordDescriptor
from repro.hardware.crc import splitmix64, splitmix64_lanes
from repro.net.fabric import Fabric
from repro.sim.engine import Engine

#: Ids hashed per :func:`splitmix64_lanes` call when placing a batch, so
#: placement holds a bounded set of temporaries whatever the batch size.
PLACEMENT_CHUNK = 1 << 14


class _RangeBatch:
    """Records ``start .. stop - 1``, all ``data_bytes`` long, placed by
    one :meth:`Cluster.allocate_records` call.

    Record ``start + i`` lives on node ``homes[i]``, ``slots[i]``
    strides after ``firsts[homes[i]]``, the address of the first of the
    batch's records on that node.
    """

    __slots__ = ("start", "stop", "data_bytes", "stride", "homes", "slots",
                 "firsts")

    def __init__(self, ids: range, data_bytes: int, stride: int,
                 homes: array, slots: array, firsts: List[int]):
        self.start = ids.start
        self.stop = ids.stop
        self.data_bytes = data_bytes
        self.stride = stride
        self.homes = homes
        self.slots = slots
        self.firsts = firsts

    def descriptor(self, record_id: int) -> RecordDescriptor:
        index = record_id - self.start
        address = (self.firsts[self.homes[index]]
                   + self.slots[index] * self.stride)
        # data_bytes was checked when the batch was placed.
        return RecordDescriptor._make((record_id, address, self.data_bytes))


class _BatchDescriptors(Sequence):
    """The descriptors of a range batch, in batch order, each built (and
    kept by the cluster) when first read."""

    def __init__(self, cluster: "Cluster", ids: range):
        self._record = cluster.record
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(record_id) for record_id in self._ids[index]]
        return self._record(self._ids[index])


class Cluster:
    """The modeled machine: N nodes connected by the RDMA fabric."""

    def __init__(self, engine: Engine, config: ClusterConfig,
                 llc_sets: Optional[int] = None):
        self.engine = engine
        self.config = config
        self.nodes: List[Node] = [
            Node(node_id, config, llc_sets=llc_sets, engine=engine)
            for node_id in range(config.nodes)
        ]
        # Fault-free until the runner attaches an injector to it.
        self.fabric = Fabric(engine, config.network)
        #: Every descriptor built so far: all records allocated from an
        #: id list, and the range-batch records asked for.
        self._descriptors: Dict[int, RecordDescriptor] = {}
        #: Range batches in ascending id order, and their first ids.
        self._batches: List[_RangeBatch] = []
        self._batch_starts: List[int] = []
        self._record_count = 0
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
                         home: Optional[int] = None
                         ) -> Sequence[RecordDescriptor]:
        """Place a batch of ``data_bytes``-sized records in one pass.

        Each record goes to ``home`` if given, else to
        :meth:`home_of`; every node allocates its share in batch order,
        so memory is laid out exactly as one :meth:`allocate_record`
        call per id, in that order, would lay it out.  A batch that
        repeats an id, or does not fit on some node, raises before any
        node allocates.  Returns the descriptors in batch order.
        """
        nodes = self.config.nodes
        if home is not None and not 0 <= home < nodes:
            raise ValueError(f"home node {home} outside [0, {nodes})")
        stride = record_stride(data_bytes)
        contiguous = isinstance(record_ids, range) and record_ids.step == 1
        if not contiguous:
            record_ids = list(record_ids)
        clash = (self._first_clash_in_range(record_ids) if contiguous
                 else self._first_clash(record_ids))
        if clash is not None:
            raise ValueError(f"record {clash} already allocated")
        homes, slots, counts = self._place(record_ids, home)
        for node, share in zip(self.nodes, counts):
            node.memory.check_run(share, data_bytes)
        firsts = [node.memory.allocate_run(share, data_bytes) if share else 0
                  for node, share in zip(self.nodes, counts)]
        self._record_count += len(record_ids)
        if contiguous:
            if record_ids:
                index = bisect_right(self._batch_starts, record_ids.start)
                self._batch_starts.insert(index, record_ids.start)
                self._batches.insert(index, _RangeBatch(
                    record_ids, data_bytes, stride, homes, slots, firsts))
            return _BatchDescriptors(self, record_ids)
        descriptors = [
            RecordDescriptor._make((record_id,
                                    firsts[node_id] + slot * stride,
                                    data_bytes))
            for record_id, node_id, slot in zip(record_ids, homes, slots)]
        self._descriptors.update(zip(record_ids, descriptors))
        return descriptors

    def _place(self, record_ids: Sequence[int], home: Optional[int]
               ) -> Tuple[array, array, List[int]]:
        """Each id's home node and slot on it, and each node's share."""
        nodes = self.config.nodes
        homes = array("B" if nodes <= 256 else "I")
        slots = array("I")
        next_slot = [count() for _ in range(nodes)]
        for low in range(0, len(record_ids), PLACEMENT_CHUNK):
            chunk = record_ids[low:low + PLACEMENT_CHUNK]
            if home is None:
                # home_of for the whole chunk, hashed in one kernel call.
                chunk_homes = [hashed % nodes
                               for hashed in splitmix64_lanes(chunk)]
            else:
                chunk_homes = [home] * len(chunk)
            homes.extend(chunk_homes)
            slots.extend(map(next, map(next_slot.__getitem__, chunk_homes)))
        return homes, slots, [next(slot) for slot in next_slot]

    def _first_clash(self, record_ids: List[int]) -> Optional[int]:
        """The first id of an id list that is allocated or repeated."""
        seen = set()
        for record_id in record_ids:
            if record_id in seen or self.has_record(record_id):
                return record_id
            seen.add(record_id)
        return None

    def _first_clash_in_range(self, ids: range) -> Optional[int]:
        """The lowest id of a contiguous range that is allocated."""
        if not ids:
            return None
        clashes = [max(ids.start, batch.start) for batch in self._batches
                   if batch.start < ids.stop and ids.start < batch.stop]
        descriptors = self._descriptors
        if len(descriptors) < len(ids):
            clashes += [record_id for record_id in descriptors
                        if record_id in ids]
        else:
            clashes += [next((record_id for record_id in ids
                              if record_id in descriptors), ids.stop)]
        low = min(clashes, default=ids.stop)
        return low if low < ids.stop else None

    def _batch_of(self, record_id: int) -> Optional[_RangeBatch]:
        """The range batch holding ``record_id``, if any."""
        index = bisect_right(self._batch_starts, record_id) - 1
        if index >= 0 and record_id < self._batches[index].stop:
            return self._batches[index]
        return None

    def record(self, record_id: int) -> RecordDescriptor:
        descriptor = self._descriptors.get(record_id)
        if descriptor is None:
            batch = self._batch_of(record_id)
            if batch is None:
                raise KeyError(f"record {record_id} was never allocated")
            descriptor = batch.descriptor(record_id)
            self._descriptors[record_id] = descriptor
        return descriptor

    def has_record(self, record_id: int) -> bool:
        return (record_id in self._descriptors
                or self._batch_of(record_id) is not None)

    def iter_records(self) -> Iterator[Tuple[int, RecordDescriptor]]:
        """All allocated records as (record_id, descriptor), sorted by id.

        The public way to walk the record table (trace capture, audits)
        without reaching into the private columns.
        """
        descriptors = self._descriptors
        listed = sorted(record_id for record_id in descriptors
                        if self._batch_of(record_id) is None)
        position = 0
        for batch in self._batches:
            below = bisect_left(listed, batch.start, position)
            for record_id in listed[position:below]:
                yield record_id, descriptors[record_id]
            position = below
            for record_id in range(batch.start, batch.stop):
                yield record_id, batch.descriptor(record_id)
        for record_id in listed[position:]:
            yield record_id, descriptors[record_id]

    @property
    def record_count(self) -> int:
        return self._record_count
