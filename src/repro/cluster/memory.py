"""Per-node memory: line-granular values plus record allocation.

The value store is line-granular because HADES operates on cache lines;
the Baseline reads/writes whole records, which simply touch all of a
record's lines.  A bump allocator hands out record addresses aligned to
cache lines (matching the paper's record layout, where version metadata
and data start line-aligned).

Allocation is contiguous, so the ascending list of record start
addresses the allocator produces is the whole record index: the record
holding a line is the last start at or below it, and a record ends
where the next one (or the allocated range) begins.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Dict, Iterable, List, Sequence

from repro.cluster.address import LINE_BYTES, make_address
from repro.cluster.record import RecordDescriptor, RecordMetadata


class NodeMemory:
    """One node's memory: line values, record metadata, allocator."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._lines: Dict[int, object] = {}
        #: Start address of every allocated record, ascending.
        self._record_starts: List[int] = []
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
        return self.allocate_records((record_id,), data_bytes)[0]

    def allocate_records(self, record_ids: Sequence[int],
                         data_bytes: int) -> List[RecordDescriptor]:
        """Allocate line-aligned records of ``data_bytes`` each, back to
        back in the order given; one descriptor per id, in that order."""
        if data_bytes <= 0:
            raise ValueError(f"record data size must be positive: {data_bytes}")
        count = len(record_ids)
        if not count:
            return []
        aligned = (data_bytes + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES
        first = make_address(self.node_id, self._next_offset)
        last = make_address(self.node_id,
                            self._next_offset + aligned * (count - 1))
        starts = list(range(first, last + aligned, aligned))
        self._record_starts += starts
        self._next_offset += aligned * count
        # data_bytes was checked above, once for the whole batch;
        # ``_make`` builds each tuple without repeating the check.
        return list(map(RecordDescriptor._make,
                        zip(record_ids, starts, repeat(data_bytes))))

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
            starts = self._record_starts
            index = bisect_left(starts, record_address)
            if index == len(starts) or starts[index] != record_address:
                raise KeyError(f"no record metadata at {record_address:#x} "
                               f"on node {self.node_id}")
            end = (starts[index + 1] if index + 1 < len(starts)
                   else self._end_address())
            meta = RecordMetadata((end - record_address) // LINE_BYTES)
            self._metadata[record_address] = meta
        return meta

    def has_record(self, record_address: int) -> bool:
        starts = self._record_starts
        index = bisect_left(starts, record_address)
        return index < len(starts) and starts[index] == record_address

    def record_address_of_line(self, line: int) -> int:
        """Base address of the record containing cache line ``line``."""
        address = line * LINE_BYTES
        starts = self._record_starts
        index = bisect_right(starts, address) - 1
        if index < 0 or address >= self._end_address():
            raise KeyError(f"line {line} is not inside any record on node "
                           f"{self.node_id}")
        return starts[index]

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
