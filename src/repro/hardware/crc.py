"""CRC hashing for Bloom filters.

The paper fills WrBF1 "by hashing addresses using a conventional hash
function (e.g., CRC)" (Section V-C, citing Peterson & Brown).  We
implement table-driven CRC-32C (Castagnoli polynomial) from scratch and
derive independent hash functions from it by salting the input — the
standard Kirsch–Mitzenmacher-style construction for Bloom filters.
"""

from __future__ import annotations

from typing import Callable, List

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
