"""Chained hash table (the paper's *HT* store).

Fixed power-of-two bucket array with separate chaining.  The chains are
linked lists over flat columns: each bucket holds the index of its
chain's first entry, and each entry its key, its record id and the
index of the next entry in its chain.  A lookup probes the bucket and
walks the chain — probe depth 1 + chain position, which is ~1 at the
default load factor.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, List, Optional, Tuple, Union

from repro.hardware.crc import splitmix64, splitmix64_lanes
from repro.kvs.base import KeyValueStore, LookupResult

#: Pairs hashed per :func:`splitmix64_lanes` call in
#: :meth:`HashTableStore.bulk_load`, so a load holds a bounded set of
#: temporaries whatever its size.
LOAD_CHUNK = 1 << 14
#: Chain link that ends a chain (or marks an empty bucket).
_END = -1


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


def _widened(column: Union[array, list], values: Iterable[int]
             ) -> Union[array, list]:
    """``column``, or a list copy of it if it is a 64-bit array that
    cannot hold one of ``values`` (keys and ids are unbounded ints)."""
    if isinstance(column, array):
        try:
            array("q", values)
        except OverflowError:
            return list(column)
    return column


class HashTableStore(KeyValueStore):
    """Separate-chaining hash table."""

    kind = "ht"

    def __init__(self, expected_keys: int = 1024, load_factor: float = 0.75):
        if expected_keys < 1:
            raise ValueError("expected_keys must be positive")
        if load_factor <= 0:
            raise ValueError("load_factor must be positive")
        bucket_target = max(1, int(expected_keys / load_factor))
        self.bucket_count = _next_power_of_two(bucket_target)
        #: Each bucket's first chain entry, or _END.
        self._heads = array("i", [_END]) * self.bucket_count
        #: Per entry: key, record id and the next entry of its chain.
        self._keys: Union[array, List[int]] = array("q")
        self._records: Union[array, List[int]] = array("q")
        self._next = array("i")
        #: Entries unlinked by :meth:`delete`, reused by later inserts.
        self._free: List[int] = []
        self._size = 0

    def _bucket_of(self, key: int) -> int:
        return splitmix64(key) & (self.bucket_count - 1)

    def insert(self, key: int, record_id: int) -> None:
        self.bulk_load(((key, record_id),))

    def bulk_load(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Insert pairs in order: a new key goes to the end of its chain,
        an existing key is replaced in place.  Bucket indices are
        hashed :data:`LOAD_CHUNK` pairs per :func:`splitmix64_lanes`
        call."""
        pairs = iter(pairs)
        while True:
            chunk = list(islice(pairs, LOAD_CHUNK))
            if not chunk:
                return
            self._load(chunk)

    def _load(self, chunk: List[Tuple[int, int]]) -> None:
        keys = [key for key, _record in chunk]
        self._keys = _widened(self._keys, keys)
        self._records = _widened(self._records,
                                 [record_id for _key, record_id in chunk])
        heads, links = self._heads, self._next
        stored_keys, records, free = self._keys, self._records, self._free
        mask = self.bucket_count - 1
        for (key, record_id), hashed in zip(chunk, splitmix64_lanes(keys)):
            bucket = hashed & mask
            entry = heads[bucket]
            previous = _END
            while entry != _END:
                if stored_keys[entry] == key:
                    records[entry] = record_id
                    break
                previous = entry
                entry = links[entry]
            else:
                if free:
                    entry = free.pop()
                    stored_keys[entry] = key
                    records[entry] = record_id
                    links[entry] = _END
                else:
                    entry = len(links)
                    stored_keys.append(key)
                    records.append(record_id)
                    links.append(_END)
                if previous == _END:
                    heads[bucket] = entry
                else:
                    links[previous] = entry
                self._size += 1

    def lookup(self, key: int) -> Optional[LookupResult]:
        entry = self._heads[self._bucket_of(key)]
        depth = 1
        while entry != _END:
            if self._keys[entry] == key:
                return LookupResult(self._records[entry], probe_depth=depth)
            entry = self._next[entry]
            depth += 1
        return None

    def delete(self, key: int) -> bool:
        """Unlink ``key``'s entry; the keys after it in its chain move
        one position up."""
        bucket = self._bucket_of(key)
        entry = self._heads[bucket]
        previous = _END
        while entry != _END:
            if self._keys[entry] == key:
                following = self._next[entry]
                if previous == _END:
                    self._heads[bucket] = following
                else:
                    self._next[previous] = following
                self._free.append(entry)
                self._size -= 1
                return True
            previous = entry
            entry = self._next[entry]
        return False

    def __len__(self) -> int:
        return self._size

    def max_chain_length(self) -> int:
        longest = 0
        links = self._next
        for entry in self._heads:
            length = 0
            while entry != _END:
                length += 1
                entry = links[entry]
            longest = max(longest, length)
        return longest
