"""Workload interface.

A workload (1) populates the cluster with records and (2) emits
transaction specs — lists of :class:`~repro.core.api.Request` — for a
client running on a given node.  All randomness flows through the
caller-provided RNG, so runs are reproducible.

The ``locality`` knob implements the Fig. 12b experiment: the fraction
of requests in a transaction that target records homed on the client's
own node.  ``None`` leaves placement natural — with uniform hashing
across N=5 nodes that is ~20% local, which the paper notes "is close to
the configuration we used in all the previous experiments".
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.core.api import Request
from repro.sim.random import DeterministicRandom

#: Give up steering a key's locality after this many redraws and accept
#: the last key (keeps the loop bounded; the skew distortion is tiny).
MAX_LOCALITY_REDRAWS = 64


class Workload:
    """Base class for all workloads."""

    #: Overridden by subclasses ("tpcc", "ht-wa", ...).
    name = "abstract"

    def __init__(self, record_count: int, record_bytes: int,
                 locality: Optional[float] = None,
                 record_id_base: int = 0):
        if record_count < 1:
            raise ValueError(f"need at least one record: {record_count}")
        if record_bytes < 1:
            raise ValueError(f"record size must be positive: {record_bytes}")
        if locality is not None and not 0.0 <= locality <= 1.0:
            raise ValueError(f"locality must be in [0, 1]: {locality}")
        self.record_count = record_count
        self.record_bytes = record_bytes
        self.locality = locality
        #: Offset added to every key, so several workloads can share one
        #: cluster (the Fig. 14 / Fig. 15 mixes).
        self.record_id_base = record_id_base

    # -- population -------------------------------------------------------

    def populate(self, cluster: Cluster) -> None:
        """Allocate this workload's records across the cluster."""
        base = self.record_id_base
        cluster.allocate_records(range(base, base + self.record_count),
                                 self.record_bytes)

    # -- transaction generation --------------------------------------------

    def next_transaction(self, rng: DeterministicRandom, node_id: int,
                         cluster: Cluster, client_id=None) -> List[Request]:
        """The next transaction spec for a client on ``node_id``.

        ``client_id`` identifies the issuing client (the runner passes
        ``(node_id, slot)``); workloads with client affinity — TPC-C's
        home warehouse — key on it.
        """
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------

    def record_id(self, key: int) -> int:
        if not 0 <= key < self.record_count:
            raise ValueError(f"key out of range: {key}")
        return self.record_id_base + key

    def steer_locality(self, rng: DeterministicRandom, node_id: int,
                       cluster: Cluster, draw) -> int:
        """Draw a key honoring the locality target.

        ``draw`` is a zero-argument callable returning a key.  With
        ``locality`` set, each request independently targets the local
        node with that probability; keys are redrawn (bounded) until the
        home node matches.
        """
        key = draw()
        if self.locality is None:
            return key
        want_local = rng.random() < self.locality
        for _ in range(MAX_LOCALITY_REDRAWS):
            home = cluster.home_of(self.record_id_base + key)
            if (home == node_id) == want_local:
                return key
            key = draw()
        return key
