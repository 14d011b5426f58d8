"""Per-node memory: line-granular values plus record allocation.

The value store is line-granular because HADES operates on cache lines;
the Baseline reads/writes whole records, which simply touch all of a
record's lines.  A bump allocator hands out record addresses aligned to
cache lines (matching the paper's record layout, where version metadata
and data start line-aligned).

Allocation is contiguous, so the record index is a short list of runs:
an allocation of records of one aligned size (the *stride*) is one run
of records a stride apart, and an allocation with the last run's stride
extends that run.  A run ends where the next one (or the allocated
range) begins, which gives its record count.  The record holding a line
lies in the last run starting at or below it, a whole number of strides
from the run's first address.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Iterable

from repro.cluster.address import LINE_BYTES, make_address
from repro.cluster.record import RecordDescriptor, RecordMetadata


def record_stride(data_bytes: int) -> int:
    """Bytes a record of ``data_bytes`` takes: whole cache lines."""
    if data_bytes <= 0:
        raise ValueError(f"record data size must be positive: {data_bytes}")
    return (data_bytes + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES


class NodeMemory:
    """One node's memory: line values, record metadata, allocator."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._lines: Dict[int, object] = {}
        #: The allocated runs, ascending: each run's first record
        #: address and its stride (aligned record size).
        self._run_firsts = array("q")
        self._run_strides = array("q")
        #: Fig. 1 metadata of the records a protocol has touched,
        #: created on first use by :meth:`metadata`.
        self._metadata: Dict[int, RecordMetadata] = {}
        self._next_offset = LINE_BYTES  # keep address 0 unused
        self.reads = 0
        self.writes = 0

    # -- line-granular values ------------------------------------------

    def read_line(self, line: int) -> object:
        self.reads += 1
        return self._lines.get(line)

    def write_line(self, line: int, value: object) -> None:
        self.writes += 1
        self._lines[line] = value

    def read_lines(self, lines: Iterable[int]) -> Dict[int, object]:
        return {line: self.read_line(line) for line in lines}

    def write_lines(self, values: Dict[int, object]) -> None:
        for line, value in values.items():
            self.write_line(line, value)

    # -- record allocation ----------------------------------------------

    def allocate_record(self, record_id: int,
                        data_bytes: int) -> RecordDescriptor:
        """Allocate one line-aligned record in this node's memory."""
        return RecordDescriptor(record_id, self.allocate_run(1, data_bytes),
                                data_bytes)

    def check_run(self, count: int, data_bytes: int) -> int:
        """The stride of ``count`` records of ``data_bytes`` placed next;
        raises ``ValueError`` if they do not fit.  Allocates nothing."""
        stride = record_stride(data_bytes)
        if count > 0:
            make_address(self.node_id,
                         self._next_offset + stride * (count - 1))
        return stride

    def allocate_run(self, count: int, data_bytes: int) -> int:
        """Allocate ``count >= 1`` line-aligned records of ``data_bytes``
        each, back to back; returns the first one's address (the
        ``i``-th is ``i`` strides further)."""
        stride = self.check_run(count, data_bytes)
        first = make_address(self.node_id, self._next_offset)
        if not self._run_strides or self._run_strides[-1] != stride:
            self._run_firsts.append(first)
            self._run_strides.append(stride)
        self._next_offset += stride * count
        return first

    def iter_metadata(self):
        """(address, metadata) pairs of every record whose metadata
        exists, in address order — used by crash scrubbing and leak
        checks.  A record without metadata was never touched, so it is
        unlocked at version 0."""
        return sorted(self._metadata.items())

    def metadata(self, record_address: int) -> RecordMetadata:
        """The record's Fig. 1 metadata, created on first use."""
        meta = self._metadata.get(record_address)
        if meta is None:
            stride = self._stride_at(record_address)
            if not stride:
                raise KeyError(f"no record metadata at {record_address:#x} "
                               f"on node {self.node_id}")
            meta = RecordMetadata(stride // LINE_BYTES)
            self._metadata[record_address] = meta
        return meta

    def has_record(self, record_address: int) -> bool:
        return bool(self._stride_at(record_address))

    def record_address_of_line(self, line: int) -> int:
        """Base address of the record containing cache line ``line``."""
        address = line * LINE_BYTES
        index = bisect_right(self._run_firsts, address) - 1
        if index < 0 or address >= self._end_address():
            raise KeyError(f"line {line} is not inside any record on node "
                           f"{self.node_id}")
        first = self._run_firsts[index]
        stride = self._run_strides[index]
        return address - (address - first) % stride

    def _stride_at(self, record_address: int) -> int:
        """The stride of the record starting at ``record_address``, or 0
        if no record starts there."""
        index = bisect_right(self._run_firsts, record_address) - 1
        if index < 0 or record_address >= self._end_address():
            return 0
        stride = self._run_strides[index]
        if (record_address - self._run_firsts[index]) % stride:
            return 0
        return stride

    def bump_versions_for_lines(self, lines: Iterable[int]) -> int:
        """Complete a write over ``lines``: bump each covered record's
        version (and per-line versions).  Returns records touched."""
        seen = set()
        for line in lines:
            seen.add(self.record_address_of_line(line))
        for address in seen:
            self.metadata(address).complete_write()
        return len(seen)

    def _end_address(self) -> int:
        """First address past the allocated range."""
        return make_address(self.node_id, self._next_offset)

    @property
    def allocated_bytes(self) -> int:
        return self._next_offset - LINE_BYTES

    @property
    def line_count(self) -> int:
        return len(self._lines)
