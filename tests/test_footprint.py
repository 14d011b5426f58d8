"""The host memory a populated model holds, measured with tracemalloc.

``ycsb_b``'s population (100 k HT-wB records on the default five-node
cluster, built as ``repro run`` builds it) was most of the benchmark's
memory while every record had its own descriptor, record-start entry
and hash-chain tuple: 40.3 MiB held after the build, 50.5 MiB at its
peak.  The record table, the node memories' record index and the hash
index are columnar now; these bounds keep a per-record object, or a
temporary list over the whole batch while building, from coming back.
"""

import tracemalloc

from repro.cluster import Cluster
from repro.config import make_cluster_config
from repro.sim import Engine
from repro.workloads import make_workload

MiB = 1 << 20
#: Heap the built model may hold: 5.8 MiB on CPython 3.11, and 16 MiB
#: leaves room for other versions' object sizes.
HELD_LIMIT = 16 * MiB
#: How far the build's peak may rise above what it holds: one chunk of
#: placement or hashing temporaries, 3.8 MiB on CPython 3.11.  A list
#: over the whole batch breaks it: 100 k ints take 3.4 MiB, and 100 k
#: (key, record id) tuples 9 MiB.
TEMPORARY_LIMIT = 6 * MiB


def test_populated_ycsb_b_model_is_compact():
    tracemalloc.start()
    try:
        workload = make_workload("HT-wB", scale=1.0)
        cluster = Cluster(Engine(), make_cluster_config("default"),
                          llc_sets=2048)
        workload.populate(cluster)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cluster.record_count == len(workload.index) == 100_000
    assert held < HELD_LIMIT, f"model holds {held / MiB:.1f} MiB"
    assert peak - held < TEMPORARY_LIMIT, (
        f"build peaked {(peak - held) / MiB:.1f} MiB above what it holds")
