"""Bloom filters for transaction read/write-set tracking.

Two designs from the paper:

* :class:`BloomFilter` — a plain bit-array filter with CRC hashing, used
  for the core *read* BFs (1024 bits) and the NIC read/write BFs
  (1024 bits each) — Table III.
* :class:`SplitWriteBloomFilter` — the Fig. 8 write-BF design: WrBF1
  (512 bits, CRC-hashed) plus WrBF2 (4096 bits, indexed by the LLC set
  bits modulo the filter size).  Membership requires a hit in *both*
  sections; WrBF2's structure additionally lets the hardware enable only
  the LLC sets that might hold a transaction's written lines
  (:meth:`SplitWriteBloomFilter.enabled_llc_sets`).

Filters track ``inserted_count`` (raw inserts, for the energy model)
and ``distinct_inserted_count`` (unique keys — the quantity
:meth:`analytic false-positive rates
<BloomFilter.analytic_false_positive_rate>` for Table IV are defined
over; under zipfian workloads the two diverge sharply).

The bit state lives in a single Python integer per section: an insert
is one ``|=`` with a memoized per-key mask, a probe one ``&``, and
``clear()`` is O(1) — see :class:`repro.hardware.crc.HashFamily`.

The conflict checks of the directory, the NIC and the Module 3 table
probe many filters for a few keys.  They go through the kernels at the
end of this module (:func:`any_might_contain`,
:func:`any_key_might_contain`, :func:`any_pair_might_contain`,
:func:`scan_groups`), which stay the only code outside the filter
classes that knows the bit layout.  The multi-key kernels settle a
call no key can hit from the union of its filters' bits.
"""

from __future__ import annotations

import math
from typing import (Dict, Iterable, KeysView, List, Optional, Sequence, Set,
                    Tuple)

from repro.hardware.crc import hash_family, shared_hash_family

__all__ = [
    "BloomFilter",
    "SplitWriteBloomFilter",
    "make_core_read_filter",
    "make_core_write_filter",
    "make_nic_filter_pair",
    "any_might_contain",
    "any_key_might_contain",
    "any_pair_might_contain",
    "scan_groups",
    "hash_family",
    "split_index_stats",
    "clear_split_index_caches",
]

#: Process-wide ``key -> WrBF2 bit position`` memos, keyed by the split
#: filter's shape ``(line_bytes, llc_sets, index_bits)``.  The position
#: is a pure function of shape and key, so sharing (across the
#: per-attempt filter instances *and* across runs) can change wall-clock
#: time only — audited by :mod:`repro.isolation`.
_INDEX_POSITION_CACHES: dict = {}

#: Same safety valve as the CRC mask caches: far above any workload's
#: line working set.
_INDEX_CACHE_LIMIT = 1 << 20


def split_index_stats() -> dict:
    """Occupancy of the WrBF2 position memos, for the isolation audit."""
    return {f"{lb}x{sets}x{bits}": len(cache)
            for (lb, sets, bits), cache in sorted(_INDEX_POSITION_CACHES.items())}


def clear_split_index_caches() -> None:
    """Drop every WrBF2 position memo (filters re-memoize lazily)."""
    _INDEX_POSITION_CACHES.clear()


class BloomFilter:
    """A standard Bloom filter over integer keys (cache-line addresses).

    Class-level access totals feed the Table III energy model
    (:mod:`repro.hardware.energy`): each ``insert`` is one BF write
    access, each ``might_contain`` one BF read access.
    """

    #: Global access totals across every filter instance (energy model).
    total_read_ops = 0
    total_write_ops = 0
    #: Bit arrays per filter; a probe or an insert costs one access per
    #: section, hit or miss.
    sections = 1

    @classmethod
    def reset_stats(cls) -> None:
        cls.total_read_ops = 0
        cls.total_write_ops = 0

    def __init__(self, bits: int, hashes: int = 2):
        if bits < 8:
            raise ValueError(f"filter too small: {bits} bits")
        self.bits = bits
        self.hashes = hashes
        self._family = shared_hash_family(hashes, bits)
        #: Alias of the shared family's key->mask memo — the same dict
        #: object for the family's whole life (``HashFamily.mask``
        #: clears it in place at its safety valve), so the hot probe /
        #: insert path is one dict hit with no method call; misses fall
        #: back to ``self._family.mask`` which repopulates it.
        self._mask_cache = self._family._masks
        self._bitmask = 0
        #: Raw insert count, duplicates included (each is a BF write).
        self.inserted_count = 0
        #: Distinct keys inserted, as an insertion-ordered set: the exact
        #: oracle that classifies a hit as true or false.
        self._keys: Dict[int, None] = {}

    @property
    def distinct_inserted_count(self) -> int:
        """Unique keys inserted since the last :meth:`clear`.

        This — not ``inserted_count`` — is the ``inserted`` argument
        :meth:`analytic_false_positive_rate` assumes: occupancy depends
        on distinct keys, and zipfian workloads re-insert hot keys.
        """
        return len(self._keys)

    @property
    def inserted_keys(self) -> KeysView[int]:
        """Read-only live view of the distinct keys inserted since the
        last :meth:`clear` (the exact oracle, never a probe)."""
        return self._keys.keys()

    def insert(self, key: int) -> None:
        """Insert a key; duplicates still count toward ``inserted_count``."""
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self._family.mask(key)
        self._bitmask |= mask
        self.inserted_count += 1
        self._keys[key] = None
        BloomFilter.total_write_ops += 1

    def insert_all(self, keys: Iterable[int]) -> None:
        """Insert ``keys`` in bulk: the bits, counts and write accesses of
        one :meth:`insert` per key, the new keys hashed in one batch."""
        keys = list(keys)
        cache, family, distinct = self._mask_cache, self._family, self._keys
        bits = self._bitmask
        count = 0
        for key in keys:
            mask = cache.get(key)
            if mask is None:  # the first new key: hash them all at once
                family.memoize(keys[count:])
                mask = cache.get(key) or family.mask(key)
            bits |= mask
            distinct[key] = None
            count += 1
        self._bitmask = bits
        self.inserted_count += count
        BloomFilter.total_write_ops += count

    def prehash(self, keys: Sequence[int]) -> None:
        """Hash the keys this filter has not seen the masks of, in one
        batch, ahead of the inserts or probes that will need them.

        Touches no bit and no counter: a mask is a pure function of the
        key, so only the time later inserts and probes take changes.
        """
        cache = self._mask_cache
        for key in keys:
            if key not in cache:
                self._family.memoize(keys)
                return

    def might_contain(self, key: int) -> bool:
        """Membership test — may return false positives, never negatives."""
        BloomFilter.total_read_ops += 1
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self._family.mask(key)
        return self._bitmask & mask == mask

    def clear(self) -> None:
        """Reset the filter (transaction commit/squash) — O(1)."""
        self._bitmask = 0
        self.inserted_count = 0
        self._keys.clear()

    @property
    def is_empty(self) -> bool:
        return self._bitmask == 0

    def set_bit_count(self) -> int:
        """Number of bits currently set (occupancy diagnostics)."""
        return bin(self._bitmask).count("1")

    def analytic_false_positive_rate(self, inserted: int) -> float:
        """Expected FP rate after ``inserted`` *distinct* keys (Table IV)."""
        if inserted < 0:
            raise ValueError(f"negative insert count: {inserted}")
        if inserted == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.hashes * inserted / self.bits)
        return fill ** self.hashes

    def storage_bytes(self) -> int:
        return self.bits // 8 + (1 if self.bits % 8 else 0)


class SplitWriteBloomFilter:
    """The Fig. 8 split write-BF: CRC section + LLC-index section.

    ``llc_sets`` is the number of sets in the node's LLC; WrBF2 maps a
    line's LLC index modulo ``index_bits``, so each WrBF2 bit covers
    ``llc_sets / index_bits`` sets (when the LLC has more sets than the
    filter has bits) and a set WrBF2 bit enables those sets during the
    parallel WrTX_ID search.
    """

    sections = 2

    def __init__(
        self,
        crc_bits: int = 512,
        index_bits: int = 4096,
        crc_hashes: int = 1,
        llc_sets: int = 4096,
        line_bytes: int = 64,
    ):
        if llc_sets < 1:
            raise ValueError(f"llc_sets must be positive: {llc_sets}")
        self.crc_section = BloomFilter(crc_bits, crc_hashes)
        self.index_bits = index_bits
        self.llc_sets = llc_sets
        self.line_bytes = line_bytes
        #: WrBF2's shape: filters of one shape set the same bit per key.
        self._shape = shape = (line_bytes, llc_sets, index_bits)
        positions = _INDEX_POSITION_CACHES.get(shape)
        if positions is None:
            positions = _INDEX_POSITION_CACHES[shape] = {}
        #: Shared ``key -> WrBF2 bit position`` memo for this shape.
        self._index_positions = positions
        #: WrBF2's bit array.  It is the section a probe tests first and
        #: carries the name every filter's first array has, so the
        #: kernels' zero test rejects an empty filter of either kind.
        self._bitmask = 0
        self.inserted_count = 0
        #: One key set per filter: WrBF1's, which every insert fills.
        self._keys = self.crc_section._keys

    @property
    def bits(self) -> int:
        return self.crc_section.bits + self.index_bits

    @property
    def distinct_inserted_count(self) -> int:
        """Unique keys inserted since the last :meth:`clear`."""
        return len(self._keys)

    def _llc_index(self, key: int) -> int:
        """LLC set index of a cache-line address."""
        return (key // self.line_bytes) % self.llc_sets

    def _index_position(self, key: int) -> int:
        return self._llc_index(key) % self.index_bits

    def _position(self, key: int) -> int:
        """:meth:`_index_position`, memoized in the shape's shared memo."""
        positions = self._index_positions
        position = positions.get(key)
        if position is None:
            if len(positions) >= _INDEX_CACHE_LIMIT:
                positions.clear()
            position = positions[key] = self._index_position(key)
        return position

    @property
    def inserted_keys(self) -> KeysView[int]:
        """Read-only live view of the distinct keys inserted since the
        last :meth:`clear`."""
        return self._keys.keys()

    def insert(self, key: int) -> None:
        # WrBF1's write access (and the key) is recorded by its insert;
        # the WrBF2 index-array update is a write access of its own — the
        # Table III energy model charges both sections.
        self.crc_section.insert(key)
        self._bitmask |= 1 << self._position(key)
        BloomFilter.total_write_ops += 1
        self.inserted_count += 1

    def insert_all(self, keys: Iterable[int]) -> None:
        """Insert ``keys`` in bulk, counted as one :meth:`insert` each."""
        keys = list(keys)
        self.crc_section.insert_all(keys)
        bits = self._bitmask
        for key in keys:
            bits |= 1 << self._position(key)
        self._bitmask = bits
        BloomFilter.total_write_ops += len(keys)
        self.inserted_count += len(keys)

    def might_contain(self, key: int) -> bool:
        """Membership requires a hit in both WrBF1 and WrBF2.

        The hardware probes both sections in parallel, so a probe costs
        one read access per section regardless of the outcome — a WrBF2
        miss does not save WrBF1's (already issued) access.
        """
        BloomFilter.total_read_ops += 2
        return self._hit(key)

    def _hit(self, key: int) -> bool:
        """Uncounted membership test: the WrBF2 bit, then WrBF1's mask."""
        if not (self._bitmask >> self._position(key)) & 1:
            return False
        crc = self.crc_section
        mask = crc._mask_cache.get(key) or crc._family.mask(key)
        return crc._bitmask & mask == mask

    def clear(self) -> None:
        self.crc_section.clear()
        self._bitmask = 0
        self.inserted_count = 0

    @property
    def is_empty(self) -> bool:
        return self._bitmask == 0

    def enabled_llc_sets(self) -> Set[int]:
        """LLC sets that may hold lines written by the owner transaction.

        This is the Fig. 8 fast path: each set WrBF2 bit enables the LLC
        sets that map to it, and only those sets compare their WrTX_ID
        tags against the transaction ID.
        """
        enabled: Set[int] = set()
        remaining = self._bitmask
        while remaining:
            low_bit = remaining & -remaining
            position = low_bit.bit_length() - 1
            remaining ^= low_bit
            llc_set = position
            while llc_set < self.llc_sets:
                enabled.add(llc_set)
                llc_set += self.index_bits
        return enabled

    def analytic_false_positive_rate(self, inserted: int) -> float:
        """Expected FP rate of the split design (product of sections)."""
        if inserted < 0:
            raise ValueError(f"negative insert count: {inserted}")
        if inserted == 0:
            return 0.0
        crc_rate = self.crc_section.analytic_false_positive_rate(inserted)
        index_fill = 1.0 - math.exp(-inserted / self.index_bits)
        return crc_rate * index_fill

    def storage_bytes(self) -> int:
        return (self.crc_section.storage_bytes()
                + self.index_bits // 8 + (1 if self.index_bits % 8 else 0))


def make_core_read_filter(bloom_params) -> BloomFilter:
    """Core-side read BF per Table III (1024 bits)."""
    return BloomFilter(bloom_params.core_read_bits, bloom_params.core_read_hashes)


def make_core_write_filter(bloom_params, llc_sets: int) -> SplitWriteBloomFilter:
    """Core-side split write BF per Table III (512 + 4096 bits)."""
    return SplitWriteBloomFilter(
        crc_bits=bloom_params.core_write_crc_bits,
        index_bits=bloom_params.core_write_index_bits,
        crc_hashes=bloom_params.core_write_crc_hashes,
        llc_sets=llc_sets,
    )


def make_nic_filter_pair(bloom_params) -> "tuple[BloomFilter, BloomFilter]":
    """NIC-side (read, write) BF pair per Table III (1024 bits each)."""
    read_bf = BloomFilter(bloom_params.nic_read_bits, bloom_params.nic_hashes)
    write_bf = BloomFilter(bloom_params.nic_write_bits, bloom_params.nic_hashes)
    return read_bf, write_bf


# -- conflict-check kernels --------------------------------------------
#
# The directory, NIC and Module 3 checks probe many filters for a few
# keys.  These kernels make the decisions a loop of ``might_contain``
# calls would, but look each key's mask (or WrBF2 bit) up once per hash
# family per call, test a filter with one ``&`` against its live bit
# array and reject an empty filter with a zero test.  A multi-key
# kernel first tests its keys against the union of its filters' bits
# (:func:`_union_misses`) and settles a call no key fits from the
# counts alone.  Filters are read at probe time, never copied, and the
# union is rebuilt on every call: a locked filter may still gain keys.
# Each kernel charges ``total_read_ops`` exactly what its reference
# loop (in the docstring) would, short-circuits included: one access
# per section per probe, hit or miss.


def _key_masks(family, keys: Sequence[int], memo: dict) -> List[int]:
    """``family``'s mask of each of ``keys``, looked up once per call."""
    masks = memo.get(family)
    if masks is None:
        cache = family._masks
        masks = memo[family] = [cache.get(key) or family.mask(key)
                                for key in keys]
    return masks


def _key_positions(filt, keys: Sequence[int], memo: dict) -> List[int]:
    """Split filter ``filt``'s WrBF2 position of each of ``keys``, looked
    up once per call and shape."""
    positions = memo.get(filt._shape)
    if positions is None:
        cache = filt._index_positions
        positions = memo[filt._shape] = [
            cache[key] if key in cache else filt._position(key)
            for key in keys]
    return positions


def _union_misses(groups: Iterable[Sequence], keys: Sequence[int],
                  memo: dict) -> Optional[int]:
    """The sections of the filters of ``groups`` summed, if none of
    ``keys`` fits the union of their bits; else None.

    The union ORs the live bit arrays of the non-empty filters: the
    plain filters' arrays, and the split filters' WrBF2 and WrBF1
    arrays apart.  A key a filter might contain has all its bits set in
    that filter, so in the union too: when no key fits, no probe of the
    reference loop hits.  A key can fit the union without any one
    filter holding it, so a fit settles nothing, and neither does a
    call whose non-empty filters span more than one hash family or
    split shape (None in both cases).  Uncounted.
    """
    sections = 0
    family = split = None
    plain = index = crc = 0
    for group in groups:
        for filt in group:
            size = filt.sections
            sections += size
            bits = filt._bitmask
            if not bits:
                continue
            if size == 1:
                if family is None:
                    family = filt._family
                elif filt._family is not family:
                    return None
                plain |= bits
            elif split is None:
                split = filt
                index = bits
                crc = filt.crc_section._bitmask
            elif (filt._shape == split._shape and filt.crc_section._family
                  is split.crc_section._family):
                index |= bits
                crc |= filt.crc_section._bitmask
            else:
                return None
    if plain:
        for mask in _key_masks(family, keys, memo):
            if plain & mask == mask:
                return None
    if index:
        crc_family = split.crc_section._family
        cache = crc_family._masks
        for key, position in zip(keys, _key_positions(split, keys, memo)):
            if index >> position & 1:
                mask = cache.get(key) or crc_family.mask(key)
                if crc & mask == mask:
                    return None
    return sections


def _first_hit(filt, keys: Sequence[int], memo: dict, limit: int) -> int:
    """Index of the first of ``keys[:limit]`` that ``filt`` might contain,
    else ``limit``.

    Uncounted.  ``memo`` holds the call's masks (per hash family) and
    WrBF2 positions (per split shape) of ``keys``; WrBF1 masks are looked
    up only for keys whose WrBF2 bit is set.
    """
    bits = filt._bitmask
    if not bits:
        return limit
    if filt.sections == 1:
        masks = _key_masks(filt._family, keys, memo)
        for index in range(limit):
            mask = masks[index]
            if bits & mask == mask:
                return index
        return limit
    positions = _key_positions(filt, keys, memo)
    crc = filt.crc_section
    for index in range(limit):
        if bits >> positions[index] & 1:
            key = keys[index]
            mask = crc._mask_cache.get(key) or crc._family.mask(key)
            if crc._bitmask & mask == mask:
                return index
    return limit


def any_might_contain(filters: Sequence, key: int) -> bool:
    """Might any of ``filters`` contain ``key``?

    Reference loop: ``any(f.might_contain(key) for f in filters)`` —
    in order, stopping at the first hit.
    """
    accesses = 0
    family = mask = None
    for filt in filters:
        sections = filt.sections
        accesses += sections
        bits = filt._bitmask
        if not bits:
            continue
        if sections == 1:
            if filt._family is not family:
                family = filt._family
                mask = family._masks.get(key) or family.mask(key)
            if bits & mask == mask:
                break
        elif filt._hit(key):
            break
    else:
        BloomFilter.total_read_ops += accesses
        return False
    BloomFilter.total_read_ops += accesses
    return True


def any_key_might_contain(filters: Sequence, keys: Sequence[int]) -> bool:
    """Might any of ``filters`` contain any of ``keys``?

    Reference loop: ``any(any_might_contain(filters, key) for key in
    keys)`` — key by key, each over the filters in order, stopping at
    the first hit.
    """
    sections = _union_misses((filters,), keys, {})
    if sections is not None:
        BloomFilter.total_read_ops += len(keys) * sections
        return False
    for key in keys:
        if any_might_contain(filters, key):
            return True
    return False


def any_pair_might_contain(filters: Sequence, keys: Sequence[int]) -> bool:
    """Might any (read, write) pair contain any of ``keys``?

    ``filters`` alternates the pairs' filters: ``(r0, w0, r1, w1, ...)``.
    Reference loop, pair-major::

        for r, w in pairs:
            for key in keys:
                if r.might_contain(key) or w.might_contain(key):
                    return True
        return False
    """
    count = len(keys)
    if not count:
        return False
    memo: dict = {}
    sections = _union_misses((filters,), keys, memo)
    if sections is not None:
        BloomFilter.total_read_ops += count * sections
        return False
    accesses = 0
    for index in range(0, len(filters), 2):
        read_bf, write_bf = filters[index], filters[index + 1]
        both = read_bf.sections + write_bf.sections
        read_hit = _first_hit(read_bf, keys, memo, count)
        # Only a write-filter hit before the read filter's first hit
        # counts: at that key ``or`` skips the write filter's probe.
        write_hit = _first_hit(write_bf, keys, memo, read_hit)
        if write_hit < read_hit:
            accesses += write_hit * both + both
        elif read_hit < count:
            accesses += read_hit * both + read_bf.sections
        else:
            accesses += count * both
            continue
        BloomFilter.total_read_ops += accesses
        return True
    BloomFilter.total_read_ops += accesses
    return False


def scan_groups(groups: Sequence[Sequence],
                keys: Sequence[int]) -> Tuple[List[int], int, int]:
    """Scan each group of filters up to the first key it might contain.

    Reference loop, group-major, every filter of a group probed per key::

        for group in groups:
            for key in keys:
                checks += 1
                if any([f.might_contain(key) for f in group]):
                    record the hit; break

    Returns the indices of the groups with a hit (in group order), the
    checks made, and the false-positive hits: hits on a key that no
    filter of the group has had inserted.
    """
    count = len(keys)
    if count == 1:
        return _scan_one(groups, keys[0])
    memo: dict = {}
    sections = _union_misses(groups, keys, memo)
    if sections is not None:
        BloomFilter.total_read_ops += count * sections
        return [], count * len(groups), 0
    family = masks = None
    hits: List[int] = []
    checks = accesses = false_positives = 0
    for index, group in enumerate(groups):
        first = count
        sections = 0
        for filt in group:
            size = filt.sections
            sections += size
            bits = filt._bitmask
            if not bits:
                continue
            if size == 2:
                first = _first_hit(filt, keys, memo, first)
                continue
            # A plain filter, inline: this loop runs per group per call.
            if filt._family is not family:
                family = filt._family
                masks = _key_masks(family, keys, memo)
            for position in range(first):
                mask = masks[position]
                if bits & mask == mask:
                    first = position
                    break
        if first == count:
            checks += count
            accesses += count * sections
            continue
        checks += first + 1
        accesses += (first + 1) * sections
        hits.append(index)
        key = keys[first]
        if not any(key in filt._keys for filt in group):
            false_positives += 1
    BloomFilter.total_read_ops += accesses
    return hits, checks, false_positives


def _scan_one(groups: Sequence[Sequence],
              key: int) -> Tuple[List[int], int, int]:
    """:func:`scan_groups` for a single key: one check per group."""
    family = mask = None
    hits: List[int] = []
    accesses = false_positives = 0
    for index, group in enumerate(groups):
        hit = False
        for filt in group:
            size = filt.sections
            accesses += size
            bits = filt._bitmask
            if hit or not bits:
                continue
            if size == 2:
                hit = filt._hit(key)
                continue
            if filt._family is not family:
                family = filt._family
                mask = family._masks.get(key) or family.mask(key)
            hit = bits & mask == mask
        if hit:
            hits.append(index)
            if not any(key in filt._keys for filt in group):
                false_positives += 1
    BloomFilter.total_read_ops += accesses
    return hits, len(groups), false_positives
