"""Hashing for Bloom filters, record placement and hash-index buckets.

The paper fills WrBF1 "by hashing addresses using a conventional hash
function (e.g., CRC)" (Section V-C, citing Peterson & Brown), and
hardware would run one CRC unit per hash function, each with its own
polynomial.  The simulator hashes with seeded SplitMix64 instead: CRC
with a single polynomial is GF(2)-linear, so differently-seeded
instances differ only by a constant, which ruins Bloom-filter
independence (see :func:`hash_family`).  :class:`HashFamily` turns the
seeded hashes into per-key Bloom bit masks, one key at a time or a
batch of new keys in one :func:`splitmix64_lanes` call.  Record placement
(:meth:`repro.cluster.cluster.Cluster.home_of`) and the hash index's
buckets (:class:`repro.kvs.hashtable.HashTableStore`) use unseeded
:func:`splitmix64`, which :func:`splitmix64_lanes` computes for a whole
batch at once.  A table-driven CRC-32C (Castagnoli polynomial) is kept
as a reference implementation; the simulator does not call it.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, List, Sequence

#: CRC-32C (Castagnoli) reversed polynomial — good dispersion, widely
#: implemented in hardware.
_CRC32C_POLYNOMIAL = 0x82F63B78


def _build_table(polynomial: int) -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ polynomial
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table(_CRC32C_POLYNOMIAL)


def crc32c(data: bytes, seed: int = 0) -> int:
    """CRC-32C of ``data`` with an optional ``seed`` (non-standard salt)."""
    crc = (~seed) & 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return (~crc) & 0xFFFFFFFF


def crc32c_int(value: int, seed: int = 0) -> int:
    """CRC-32C of a 64-bit integer (e.g., a cache-line address)."""
    return crc32c((value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), seed)


_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: fast, well-dispersed 64-bit mixing."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: 128-bit lanes in little-endian bytes: a lane mask of 64 one bits
#: under 64 zeros, and SplitMix64's increment in a lane's low half.
_LANE_LOW_BYTES = b"\xff" * 8 + bytes(8)
_INCREMENT_LANE = (0x9E3779B97F4A7C15).to_bytes(8, "little") + bytes(8)


def splitmix64_lanes(values: Sequence[int]) -> List[int]:
    """``[splitmix64(v) for v in values]``, one big-int step per batch.

    The batch is packed into one Python int, value ``i`` in the low 64
    bits of the 128-bit lane ``i``, and each mixing step runs on every
    lane at once as one big-int operation followed by a mask back to
    each lane's low 64 bits.  No step carries from one lane into the
    next: a lane holds less than ``2**64`` before every step, so adding
    the 64-bit increment stays below ``2**65`` and multiplying by a
    64-bit constant stays below ``2**128``; a right shift by 27-31 bits
    moves the next lane's low bits only into bits 97-127 of this lane,
    which the mask clears.  Like :func:`splitmix64`, the input is
    reduced mod ``2**64`` first, so negative values and values of
    ``2**64`` or more hash as the scalar hashes them.
    """
    try:
        low = array("Q", values)
    except OverflowError:
        low = array("Q", [value & _MASK64 for value in values])
    count = len(low)
    if not count:
        return []
    lanes = array("Q", bytes(16 * count))
    lanes[::2] = low
    if sys.byteorder != "little":
        lanes.byteswap()
    mask = int.from_bytes(_LANE_LOW_BYTES * count, "little")
    increment = int.from_bytes(_INCREMENT_LANE * count, "little")
    z = (int.from_bytes(lanes, "little") + increment) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z = (z ^ (z >> 31)) & mask
    lanes = array("Q")
    lanes.frombytes(z.to_bytes(16 * count, "little"))
    if sys.byteorder != "little":
        lanes.byteswap()
    return lanes[::2].tolist()


def hash_family(count: int, modulus: int) -> List[Callable[[int], int]]:
    """``count`` independent hash functions mapping ints to ``[0, modulus)``.

    Hardware would implement these as ``count`` parallel CRC units with
    *different polynomials* (Table III: 2-cycle latency each).  CRC with
    a single polynomial is GF(2)-linear — differently-seeded instances
    differ only by a constant, which ruins Bloom-filter independence —
    so the simulator models the family with seeded SplitMix64 mixing,
    whose statistics match independent uniform hashing.
    """
    if count < 1:
        raise ValueError(f"need at least one hash: {count}")
    if modulus < 2:
        raise ValueError(f"modulus too small: {modulus}")

    def make(seed: int) -> Callable[[int], int]:
        def hash_fn(value: int) -> int:
            return splitmix64(value ^ (seed * 0x9E3779B97F4A7C15 & _MASK64)) % modulus

        return hash_fn

    return [make(i + 1) for i in range(count)]


#: Keys memoized per family before the cache is dropped and rebuilt —
#: a safety valve for pathological key universes, far above any
#: workload's working set (record counts top out around 1e5).
_CACHE_LIMIT = 1 << 20


class HashFamily:
    """A seeded SplitMix64 hash family with a per-key bit-mask cache.

    Computes exactly the same positions as :func:`hash_family` (same
    seeds, same mixing, same modulus), but exposes them as a single
    OR-able integer mask so a Bloom filter can insert with one ``|=``
    and probe with one ``&``.  Masks are memoized per key: workloads
    touch the same cache lines over and over, so after warm-up a probe
    is a dict hit plus one ``&`` instead of ``count`` SplitMix64 runs.
    :meth:`memoize` fills the memo for a whole batch of keys at once.

    Instances are shared across filters of the same shape (see
    :func:`shared_hash_family`) — the hash depends only on
    ``(count, modulus, key)``, so the cache is safely global.
    """

    __slots__ = ("count", "modulus", "_seeds", "_masks")

    def __init__(self, count: int, modulus: int):
        if count < 1:
            raise ValueError(f"need at least one hash: {count}")
        if modulus < 2:
            raise ValueError(f"modulus too small: {modulus}")
        self.count = count
        self.modulus = modulus
        self._seeds = [(i + 1) * 0x9E3779B97F4A7C15 & _MASK64
                       for i in range(count)]
        self._masks: dict = {}

    def mask(self, key: int) -> int:
        """OR of ``1 << position`` over this key's hash positions."""
        mask = self._masks.get(key)
        if mask is None:
            mask = 0
            modulus = self.modulus
            for seed in self._seeds:
                mask |= 1 << splitmix64(key ^ seed) % modulus
            if len(self._masks) >= _CACHE_LIMIT:
                self._masks.clear()
            self._masks[key] = mask
        return mask

    def memoize(self, keys: Sequence[int]) -> None:
        """Memoize the masks of ``keys`` — the ones :meth:`mask` would.

        The unmemoized keys are hashed in one :func:`splitmix64_lanes`
        batch over every ``key ^ seed``, seed by seed, and each hash
        taken ``% modulus``; a lone unmemoized key takes :meth:`mask`.
        The safety valve drops the cache first when the batch would
        take it past ``_CACHE_LIMIT``.  Callers look for an unmemoized
        key first: after warm-up there is usually none.
        """
        cache = self._masks
        missing = [key for key in keys if key not in cache]
        count = len(missing)
        if count < 2:
            if count:
                self.mask(missing[0])
            return
        modulus = self.modulus
        hashes = splitmix64_lanes([key ^ seed for seed in self._seeds
                                   for key in missing])
        masks = [1 << value % modulus for value in hashes[:count]]
        for start in range(count, len(hashes), count):
            masks = [mask | 1 << value % modulus
                     for mask, value in zip(masks,
                                            hashes[start:start + count])]
        if len(cache) + count > _CACHE_LIMIT:
            cache.clear()
        cache.update(zip(missing, masks))


_FAMILIES: dict = {}


def shared_hash_family(count: int, modulus: int) -> HashFamily:
    """The process-wide :class:`HashFamily` for ``(count, modulus)``.

    Every Bloom filter of a given shape shares one family so the mask
    cache is warmed once per key per shape, not once per filter.

    Sharing across *runs* is safe because a mask is a pure function of
    ``(count, modulus, key)``: a warm cache changes wall-clock time
    only, never a simulated result.  A sweep worker that executes many
    runs back-to-back therefore keeps the cache warm by default;
    :func:`clear_shared_families` (via
    :func:`repro.isolation.reset_process_caches`) exists for tests that
    prove run-order independence and for bounding worker memory.
    """
    family = _FAMILIES.get((count, modulus))
    if family is None:
        family = _FAMILIES[(count, modulus)] = HashFamily(count, modulus)
    return family


def shared_family_stats() -> dict:
    """Occupancy of the process-wide mask caches, keyed by
    ``"count x modulus"`` — the audit half of the run-isolation
    contract (see :mod:`repro.isolation`)."""
    return {f"{count}x{modulus}": len(family._masks)
            for (count, modulus), family in sorted(_FAMILIES.items())}


def clear_shared_families() -> None:
    """Drop every process-wide hash family and its mask cache.

    Existing filters keep their (now unshared) family references and
    stay correct; new filters rebuild cold families on demand.
    """
    _FAMILIES.clear()
