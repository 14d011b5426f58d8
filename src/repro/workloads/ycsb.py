"""YCSB workloads A and B over the four key-value stores (Section VII).

* workload-A (*wA*): 50 % writes, 50 % reads — write-intensive.
* workload-B (*wB*): 5 % writes, 95 % reads — read-intensive.

Keys follow a zipfian distribution.  Records default to the YCSB-style
1 KB payload (10 fields x ~100 B); a read fetches the whole value, a
write updates one 100 B field at a field-aligned offset — which usually
straddles a cache line, exercising HADES' partially-written-line path.

The key-value store index is a real data structure
(:mod:`repro.kvs`); its probe depth is charged as extra per-request CPU
(index internal nodes are read-mostly and cached locally — see the
:mod:`repro.kvs` package docs).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.core.api import Request, read, write
from repro.kvs import STORES
from repro.sim.random import DeterministicRandom, ZipfianGenerator
from repro.workloads.base import Workload
from repro.workloads.micro import DEFAULT_THETA

#: YCSB record: 10 fields of ~100 B.
DEFAULT_RECORD_BYTES = 1024
FIELD_BYTES = 100
FIELD_COUNT = 10

#: Per-request application work excluding the index probe.
REQUEST_BASE_CYCLES = 800.0
#: CPU cycles per index level probed during a lookup.
INDEX_LEVEL_CYCLES = 120.0

VARIANT_WRITE_FRACTION = {"a": 0.5, "b": 0.05}


class YcsbWorkload(Workload):
    """YCSB A/B over one of the HT / Map / B-Tree / B+Tree stores."""

    def __init__(self, store: str = "ht", variant: str = "a",
                 record_count: int = 100000,
                 record_bytes: int = DEFAULT_RECORD_BYTES,
                 requests_per_txn: int = 5,
                 theta: float = DEFAULT_THETA,
                 locality: Optional[float] = None,
                 record_id_base: int = 0,
                 seed: int = 11):
        if store not in STORES:
            raise KeyError(f"unknown store {store!r}; pick from {sorted(STORES)}")
        variant = variant.lower()
        if variant not in VARIANT_WRITE_FRACTION:
            raise ValueError(f"variant must be 'a' or 'b': {variant!r}")
        super().__init__(record_count, record_bytes, locality=locality,
                         record_id_base=record_id_base)
        self.store_kind = store
        self.variant = variant
        self.write_fraction = VARIANT_WRITE_FRACTION[variant]
        self.requests_per_txn = requests_per_txn
        self._zipf = ZipfianGenerator(record_count, theta=theta,
                                      rng=DeterministicRandom(seed))
        store_cls = STORES[store]
        if store == "ht":
            self.index = store_cls(expected_keys=record_count)
        else:
            self.index = store_cls()
        self.name = f"{self._store_label()}-w{variant.upper()}"
        #: key -> (record_id, work_cycles, shared frozen read Request).
        #: The index probe depth and record id are pure per key once the
        #: index is loaded, so the per-request lookup + Request build
        #: happen once per key; rebuilt by :meth:`populate`.
        self._request_tape: List = [None] * record_count
        #: field -> (offset, size), the write-geometry of each field.
        self._field_geometry = [
            (field * FIELD_BYTES,
             min(FIELD_BYTES, record_bytes - field * FIELD_BYTES))
            for field in range(FIELD_COUNT)]

    def _store_label(self) -> str:
        return {"ht": "HT", "map": "Map", "btree": "BTree",
                "bplustree": "B+Tree"}[self.store_kind]

    def populate(self, cluster: Cluster) -> None:
        super().populate(cluster)
        base = self.record_id_base
        self.index.bulk_load(zip(range(self.record_count),
                                 range(base, base + self.record_count)))
        # Probe depths may change when the index is (re)loaded.
        self._request_tape = [None] * self.record_count

    def _tape_entry(self, key: int):
        """Resolve ``key`` through the index once; memoize on the tape."""
        hit = self.index.lookup(key)
        if hit is None:
            raise RuntimeError(f"{self.name}: key {key} missing from index")
        work = REQUEST_BASE_CYCLES + INDEX_LEVEL_CYCLES * hit.probe_depth
        entry = (hit.record_id, work, read(hit.record_id, work_cycles=work))
        self._request_tape[key] = entry
        return entry

    def next_transaction(self, rng: DeterministicRandom, node_id: int,
                         cluster: Cluster, client_id=None) -> List[Request]:
        zipf_next = self._zipf.next_key
        steered = self.locality is not None
        tape = self._request_tape
        write_fraction = self.write_fraction
        field_geometry = self._field_geometry
        random01 = rng.random
        requests: List[Request] = []
        append = requests.append
        for _ in range(self.requests_per_txn):
            if steered:
                key = self.steer_locality(rng, node_id, cluster, zipf_next)
            else:
                key = zipf_next()
            entry = tape[key]
            if entry is None:
                entry = self._tape_entry(key)
            if random01() < write_fraction:
                offset, size = field_geometry[rng.randrange(FIELD_COUNT)]
                append(Request("write", entry[0], value=random01(),
                               offset=offset, size=size, work_cycles=entry[1]))
            else:
                append(entry[2])
        return requests


class YcsbScanWorkload(YcsbWorkload):
    """YCSB workload-E flavor: short range scans + few updates.

    Scans need an ordered store (Map, B-Tree, B+Tree — the B+Tree's
    linked leaves are the natural fit).  A scan transaction reads the
    ``scan_length`` consecutive keys starting at a zipfian-drawn key;
    5 % of transactions are single-field updates instead.
    """

    SCAN_FRACTION = 0.95

    def __init__(self, store: str = "bplustree", record_count: int = 100000,
                 scan_length: int = 8, max_scan_length: Optional[int] = None,
                 theta: float = DEFAULT_THETA,
                 locality: Optional[float] = None,
                 record_id_base: int = 0, seed: int = 29):
        if scan_length < 1:
            raise ValueError("scan_length must be positive")
        super().__init__(store=store, variant="b", record_count=record_count,
                         theta=theta, locality=locality,
                         record_id_base=record_id_base, seed=seed)
        if not hasattr(self.index, "range_scan") or store == "ht":
            raise ValueError(f"store {store!r} cannot serve range scans")
        self.scan_length = scan_length
        self.max_scan_length = (max_scan_length if max_scan_length is not None
                                else scan_length)
        if self.max_scan_length < scan_length:
            raise ValueError("max_scan_length below scan_length")
        self.name = f"{self._store_label()}-wE"

    def next_transaction(self, rng: DeterministicRandom, node_id: int,
                         cluster: Cluster, client_id=None) -> List[Request]:
        if rng.random() >= self.SCAN_FRACTION:
            # An update, exactly like workload-B's write path.
            key = self.steer_locality(rng, node_id, cluster,
                                      self._zipf.next_key)
            hit = self.index.lookup(key)
            work = REQUEST_BASE_CYCLES + INDEX_LEVEL_CYCLES * hit.probe_depth
            field = rng.randrange(FIELD_COUNT)
            offset = field * FIELD_BYTES
            return [write(hit.record_id, value=rng.random(), offset=offset,
                          size=min(FIELD_BYTES, self.record_bytes - offset),
                          work_cycles=work)]
        start = self._zipf.next_key()
        length = rng.randint(self.scan_length, self.max_scan_length)
        matches = self.index.range_scan(start,
                                        min(start + length - 1,
                                            self.record_count - 1))
        if not matches:  # start beyond the last key
            matches = [(start % self.record_count,
                        self.record_id_base + start % self.record_count)]
        # One index descent + a leaf walk; reads for every scanned record.
        descent = self.index.lookup(matches[0][0])
        base_work = (REQUEST_BASE_CYCLES
                     + INDEX_LEVEL_CYCLES * descent.probe_depth)
        requests = []
        for position, (_key, record_id) in enumerate(matches):
            work = base_work if position == 0 else INDEX_LEVEL_CYCLES
            requests.append(read(record_id, offset=0, size=FIELD_BYTES,
                                 work_cycles=work))
        return requests
