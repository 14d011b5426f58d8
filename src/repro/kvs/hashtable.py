"""Chained hash table (the paper's *HT* store).

Fixed power-of-two bucket array with separate chaining; buckets are
small lists, allocated on a bucket's first insert.  A lookup probes the
bucket and walks the chain — probe depth 1 + chain position, which is
~1 at the default load factor.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.hardware.crc import splitmix64, splitmix64_lanes
from repro.kvs.base import KeyValueStore, LookupResult


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


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
        #: Chains of (key, record_id); None until a key hashes there.
        self._buckets: List[Optional[List[Tuple[int, int]]]] = (
            [None] * self.bucket_count)
        self._size = 0

    def _bucket_of(self, key: int) -> int:
        return splitmix64(key) & (self.bucket_count - 1)

    def insert(self, key: int, record_id: int) -> None:
        self.bulk_load(((key, record_id),))

    def bulk_load(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Insert pairs in order: a new key goes to the end of its chain,
        an existing key is replaced in place.  The batch's bucket
        indices are hashed in one :func:`splitmix64_lanes` call."""
        pairs = list(pairs)
        buckets = self._buckets
        mask = self.bucket_count - 1
        hashes = splitmix64_lanes([key for key, _record in pairs])
        for (key, record_id), hashed in zip(pairs, hashes):
            index = hashed & mask
            bucket = buckets[index]
            if bucket is None:
                buckets[index] = [(key, record_id)]
                self._size += 1
                continue
            for position, (existing, _record) in enumerate(bucket):
                if existing == key:
                    bucket[position] = (key, record_id)
                    break
            else:
                bucket.append((key, record_id))
                self._size += 1

    def lookup(self, key: int) -> Optional[LookupResult]:
        bucket = self._buckets[self._bucket_of(key)]
        for position, (existing, record_id) in enumerate(bucket or ()):
            if existing == key:
                return LookupResult(record_id, probe_depth=1 + position)
        return None

    def delete(self, key: int) -> bool:
        bucket = self._buckets[self._bucket_of(key)]
        for index, (existing, _record) in enumerate(bucket or ()):
            if existing == key:
                del bucket[index]
                self._size -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._size

    def max_chain_length(self) -> int:
        return max((len(bucket) for bucket in self._buckets if bucket),
                   default=0)
