"""TATP model (Section VII).

"TATP is an OLTP benchmark that simulates a telecommunication database
with 1M subscribers.  It has 80% read and 20% write requests, and a
small number of requests per transaction."

The standard TATP transaction mix (by weight):

* GET_SUBSCRIBER_DATA   35 % — 1 read
* GET_NEW_DESTINATION   10 % — 2 reads (special facility + forwarding)
* GET_ACCESS_DATA       35 % — 1 read
* UPDATE_SUBSCRIBER_DATA 2 % — 2 writes
* UPDATE_LOCATION       14 % — 1 write (VLR_LOCATION field)
* INSERT/DELETE_CALL_FORWARDING 4 % — 1 read + 1 write

Weighted request mix: 80 % reads / 20 % writes, 1.2 requests per
transaction on average.  Subscriber ids follow TATP's non-uniform
random distribution (approximated by our zipfian generator with mild
skew).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.core.api import Request, read, write
from repro.sim.random import DeterministicRandom, ZipfianGenerator
from repro.workloads.base import Workload

SUBSCRIBER_BYTES = 256
ACCESS_INFO_BYTES = 128
SPECIAL_FACILITY_BYTES = 128
CALL_FORWARDING_BYTES = 128

#: (name, weight); handlers live on the class.
TRANSACTION_MIX = (
    ("get_subscriber_data", 0.35),
    ("get_new_destination", 0.10),
    ("get_access_data", 0.35),
    ("update_subscriber_data", 0.02),
    ("update_location", 0.14),
    ("change_call_forwarding", 0.04),
)


class TatpWorkload(Workload):
    """Scaled TATP subscriber database."""

    name = "TATP"

    def __init__(self, subscribers: int = 100000,
                 locality: Optional[float] = None,
                 record_id_base: int = 0, seed: int = 17,
                 theta: float = 0.4):
        if subscribers < 1:
            raise ValueError("need at least one subscriber")
        self.subscribers = subscribers
        # Four records per subscriber: subscriber, access info, special
        # facility, call forwarding.
        super().__init__(subscribers * 4, SUBSCRIBER_BYTES,
                         locality=locality, record_id_base=record_id_base)
        self._zipf = ZipfianGenerator(subscribers, theta=theta,
                                      rng=DeterministicRandom(seed))

    # -- key layout -----------------------------------------------------

    def subscriber_record(self, sid: int) -> int:
        return self.record_id_base + sid

    def access_info_record(self, sid: int) -> int:
        return self.record_id_base + self.subscribers + sid

    def special_facility_record(self, sid: int) -> int:
        return self.record_id_base + 2 * self.subscribers + sid

    def call_forwarding_record(self, sid: int) -> int:
        return self.record_id_base + 3 * self.subscribers + sid

    def populate(self, cluster: Cluster) -> None:
        tables = (
            (self.subscriber_record(0), SUBSCRIBER_BYTES),
            (self.access_info_record(0), ACCESS_INFO_BYTES),
            (self.special_facility_record(0), SPECIAL_FACILITY_BYTES),
            (self.call_forwarding_record(0), CALL_FORWARDING_BYTES),
        )
        for first, data_bytes in tables:
            cluster.allocate_records(range(first, first + self.subscribers),
                                     data_bytes)

    # -- transactions -----------------------------------------------------

    def next_transaction(self, rng: DeterministicRandom, node_id: int,
                         cluster: Cluster, client_id=None) -> List[Request]:
        sid = self.steer_locality(rng, node_id, cluster, self._zipf.next_key)
        names = [name for name, _weight in TRANSACTION_MIX]
        weights = [weight for _name, weight in TRANSACTION_MIX]
        kind = rng.choice_weighted(names, weights)
        return getattr(self, f"_{kind}")(rng, sid)

    def _get_subscriber_data(self, rng, sid) -> List[Request]:
        return [read(self.subscriber_record(sid))]

    def _get_new_destination(self, rng, sid) -> List[Request]:
        return [read(self.special_facility_record(sid), offset=0, size=32),
                read(self.call_forwarding_record(sid), offset=0, size=40)]

    def _get_access_data(self, rng, sid) -> List[Request]:
        return [read(self.access_info_record(sid), offset=0, size=40)]

    def _update_subscriber_data(self, rng, sid) -> List[Request]:
        return [write(self.subscriber_record(sid), value=rng.random(),
                      offset=0, size=8),  # BIT_1
                write(self.special_facility_record(sid), value=rng.random(),
                      offset=8, size=8)]  # DATA_A

    def _update_location(self, rng, sid) -> List[Request]:
        return [write(self.subscriber_record(sid), value=rng.random(),
                      offset=8, size=8)]  # VLR_LOCATION

    def _change_call_forwarding(self, rng, sid) -> List[Request]:
        return [read(self.special_facility_record(sid), offset=0, size=8),
                write(self.call_forwarding_record(sid), value=rng.random(),
                      offset=0, size=40)]
