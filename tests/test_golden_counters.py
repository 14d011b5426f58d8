"""Pinned end-to-end conflict-check and energy counters.

Three short fixed-seed runs in the CI smoke shape (``--scale 0.05
--duration-us 100 --seed 5``, LLC of 2048 sets as ``repro run`` builds
it).  The Table III access counts (``bloom_read_ops``/``bloom_write_ops``)
and the conflict counters depend on every Bloom probe and insert the
protocols make, in the order they make them, so any change to how the
directory, NIC or Module 3 checks probe their filters shows up here
even when commits and aborts stay the same.  The values are exact; a
deliberate protocol change re-records them.
"""

import pytest

from repro.config import make_cluster_config
from repro.runner import run_experiment
from repro.workloads import make_workload

GOLDEN = {
    ("hades", "ycsb"): dict(
        bloom_read_ops=261845, bloom_write_ops=18008,
        conflict_checks=54598, conflict_false_positives=22,
        directory_block_spins=173, committed=241, aborted=105),
    ("hades", "tpcc"): dict(
        bloom_read_ops=98796, bloom_write_ops=3021,
        conflict_checks=38308, conflict_false_positives=2,
        directory_block_spins=23, committed=120, aborted=19),
    ("hades-h", "ycsb"): dict(
        bloom_read_ops=150746, bloom_write_ops=13873,
        conflict_checks=39401, conflict_false_positives=30,
        directory_block_spins=85, committed=146, aborted=63),
}


@pytest.mark.parametrize("protocol,workload", sorted(GOLDEN))
def test_counters_match_golden(protocol, workload):
    result = run_experiment(protocol, make_workload(workload, scale=0.05),
                            config=make_cluster_config("default"),
                            duration_ns=100_000.0, seed=5, llc_sets=2048)
    counters = result.metrics.counters
    observed = dict(
        bloom_read_ops=result.bloom_read_ops,
        bloom_write_ops=result.bloom_write_ops,
        conflict_checks=counters.get("conflict_checks"),
        conflict_false_positives=counters.get("conflict_false_positives"),
        directory_block_spins=counters.get("directory_block_spins"),
        committed=result.metrics.meter.committed,
        aborted=result.metrics.meter.aborted,
    )
    assert observed == GOLDEN[(protocol, workload)]
